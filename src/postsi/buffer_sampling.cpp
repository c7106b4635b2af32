#include "postsi/buffer_sampling.hpp"

#include <algorithm>
#include <utility>

#include "synth/synthesis.hpp"
#include "variation/monte_carlo.hpp"
#include "variation/path_stats.hpp"

namespace sct::postsi {
namespace {

constexpr std::size_t kMaxCandidates = 8;  ///< sigma-ranked nets considered
constexpr std::size_t kMaxInsertions = 4;  ///< accepted buffers cap

/// Yield + worst-path-sigma metric of one analyzed design state.
struct Metric {
  double yield = 1.0;
  double worstPathSigma = 0.0;
};

/// MC design yield (fraction of dies on which every endpoint worst path
/// meets its required time, sampled with the global factor at the typical
/// corner) plus the worst path sigma of eq. (10).
Metric measure(const charlib::Characterizer& characterizer,
               const variation::PathStatistics& stats,
               const std::vector<sta::TimingPath>& paths,
               const BufferSamplingOptions& options) {
  Metric m;
  if (options.trials != 0) {
    variation::PathMcConfig mc;
    mc.trials = options.trials;
    mc.includeGlobal = true;
    mc.seed = options.seed;
    const std::size_t passing = variation::countPassingDies(
        paths, variation::sampleDieDelays(characterizer, paths, mc),
        options.trials);
    m.yield =
        static_cast<double>(passing) / static_cast<double>(options.trials);
  }
  for (const sta::TimingPath& path : paths) {
    m.worstPathSigma =
        std::max(m.worstPathSigma, stats.pathStats(path).sigma);
  }
  return m;
}

/// A candidate insertion site: shield `keep` (the critical sink on the
/// worst-sigma path) by moving every other sink of `net` behind a buffer.
struct Candidate {
  double sigma = 0.0;  ///< driving step's local-mismatch sigma [ns]
  netlist::NetIndex net = netlist::kNoNet;
  netlist::InstIndex keepInst = netlist::kNoInst;
  std::uint32_t keepSlot = 0;
};

std::vector<Candidate> collectCandidates(
    const netlist::Design& design, const variation::PathStatistics& stats,
    const std::vector<sta::TimingPath>& paths) {
  // Paths in worst-sigma-first order; ties by original (endpoint) order.
  std::vector<std::size_t> order(paths.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> pathSigma(paths.size(), 0.0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    pathSigma[i] = stats.pathStats(paths[i]).sigma;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pathSigma[a] > pathSigma[b];
                   });

  std::vector<Candidate> candidates;
  std::vector<netlist::NetIndex> seen;
  for (const std::size_t pi : order) {
    const sta::TimingPath& path = paths[pi];
    for (std::size_t s = 0; s < path.steps.size(); ++s) {
      const sta::PathStep& step = path.steps[s];
      if (step.instance == netlist::kNoInst) continue;
      // The critical sink fed by this step: the next step's instance, or
      // the endpoint register for the last step.
      netlist::InstIndex next = netlist::kNoInst;
      if (s + 1 < path.steps.size()) {
        next = path.steps[s + 1].instance;
      } else {
        next = path.endpoint.instance;
      }
      if (next == netlist::kNoInst) continue;
      for (const netlist::NetIndex out :
           design.instance(step.instance).outputs) {
        const netlist::Net& net = design.net(out);
        if (net.sinks.size() < 2) continue;  // nothing to shield
        const auto hit =
            std::find_if(net.sinks.begin(), net.sinks.end(),
                         [next](const netlist::SinkRef& sink) {
                           return sink.instance == next;
                         });
        if (hit == net.sinks.end()) continue;
        if (std::find(seen.begin(), seen.end(), out) != seen.end()) continue;
        seen.push_back(out);
        candidates.push_back(Candidate{stats.stepStats(step).sigma, out,
                                       hit->instance, hit->inputSlot});
      }
    }
    if (candidates.size() >= 4 * kMaxCandidates) break;
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.sigma != b.sigma) return a.sigma > b.sigma;
                     return a.net < b.net;
                   });
  if (candidates.size() > kMaxCandidates) {
    candidates.resize(kMaxCandidates);
  }
  return candidates;
}

}  // namespace

BufferSamplingResult sampleBufferInsertion(
    const netlist::Design& mapped, const liberty::Library& library,
    const statlib::StatLibrary& statLibrary,
    const charlib::Characterizer& characterizer, const sta::ClockSpec& clock,
    const tuning::LibraryConstraints* constraints,
    const BufferSamplingOptions& options) {
  BufferSamplingResult result;
  result.design = mapped;

  const synth::Synthesizer synth(library, constraints);
  const auto& buffers = synth.family(netlist::PrimOp::kBuf);
  const variation::PathStatistics stats(statLibrary);

  sta::TimingAnalyzer baseAnalyzer(result.design, library, clock);
  if (!baseAnalyzer.analyze()) return result;
  std::vector<sta::TimingPath> basePaths = baseAnalyzer.endpointWorstPaths();
  Metric base = measure(characterizer, stats, basePaths, options);
  result.yieldBefore = base.yield;
  result.worstPathSigmaBefore = base.worstPathSigma;
  result.yieldAfter = base.yield;
  result.worstPathSigmaAfter = base.worstPathSigma;
  // Tuned libraries may leave no usable buffer family; the pass degrades to
  // a no-op rather than synthesizing inverter pairs (those belong to the
  // in-flow fanout fixer, not a post-silicon experiment).
  if (buffers.empty()) return result;
  const liberty::Cell* bufferCell = buffers.front();

  const std::vector<Candidate> candidates =
      collectCandidates(result.design, stats, basePaths);

  for (const Candidate& candidate : candidates) {
    if (result.inserted >= kMaxInsertions) break;
    // Candidate indices stay valid across accepted insertions: the clone
    // only appends nets/instances and moves sinks of the candidate net.
    const netlist::Net& net = result.design.net(candidate.net);
    if (net.sinks.size() < 2) continue;  // shrunk by an earlier insertion
    ++result.evaluated;

    netlist::Design trial = result.design;
    sta::TimingAnalyzer analyzer(trial, library, clock);
    if (!analyzer.analyze()) continue;
    // Copy first: reconnect mutates the sink list, and the buffer itself
    // becomes a sink of the candidate net.
    const std::vector<netlist::SinkRef> sinks = trial.net(candidate.net).sinks;
    const netlist::NetIndex out = trial.addNet(trial.freshName("psbn"));
    const netlist::InstIndex ib =
        trial.addInstance(trial.freshName("psbuf"), netlist::PrimOp::kBuf,
                          {candidate.net}, {out});
    trial.bindCell(ib, bufferCell);
    analyzer.notifyBufferInsert(ib);
    for (const netlist::SinkRef& sink : sinks) {
      if (sink.instance == candidate.keepInst &&
          sink.inputSlot == candidate.keepSlot) {
        continue;  // the shielded critical sink keeps its direct connection
      }
      trial.reconnectInput(sink.instance, sink.inputSlot, out);
      analyzer.notifyReconnect(sink.instance, sink.inputSlot, candidate.net);
    }
    if (!analyzer.update()) continue;

    const std::vector<sta::TimingPath> trialPaths =
        analyzer.endpointWorstPaths();
    const Metric after = measure(characterizer, stats, trialPaths, options);
    const bool yieldGain = after.yield > base.yield;
    const bool sigmaGain = after.yield >= base.yield &&
                           after.worstPathSigma < base.worstPathSigma;
    if (!yieldGain && !sigmaGain) continue;

    result.design = std::move(trial);
    base = after;
    ++result.inserted;
    result.yieldAfter = after.yield;
    result.worstPathSigmaAfter = after.worstPathSigma;
  }
  return result;
}

}  // namespace sct::postsi

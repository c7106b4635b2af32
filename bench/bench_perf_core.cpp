// Performance microbenchmarks (google-benchmark) of the computational
// kernels: bilinear interpolation, largest-rectangle extraction (reference
// vs production), statistical-library construction, full-design STA and
// Monte-Carlo path simulation. The four parallelized kernels (MC
// characterization, stat-library merge, tuning, path MC) carry a "threads"
// argument: 0 is the serial fallback, N pins the pool to N workers. Outputs
// are bit-identical across the thread axis; only wall-clock changes.
// scripts/run_benchmarks.sh turns a run into BENCH_perf.json.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "charlib/characterizer.hpp"
#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "evo/tuner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "netlist/builder.hpp"
#include "netlist/mcu.hpp"
#include "numeric/interp.hpp"
#include "numeric/rng.hpp"
#include "statlib/stat_library.hpp"
#include "synth/synthesis.hpp"
#include "tuning/rectangle.hpp"
#include "tuning/restriction.hpp"
#include "netlist/simulate.hpp"
#include "synth/pattern_map.hpp"
#include "variation/monte_carlo.hpp"
#include "variation/ssta.hpp"

namespace {

using namespace sct;

charlib::CharacterizationConfig smallCharConfig() {
  charlib::CharacterizationConfig config;
  config.slewAxis = {0.002, 0.05, 0.2, 0.6};
  config.loadFractions = {0.01, 0.1, 0.4, 1.0};
  return config;
}

void BM_BilinearLookup(benchmark::State& state) {
  const numeric::Axis slew = {0.002, 0.008, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6};
  const numeric::Axis load = {0.001, 0.002, 0.004, 0.008,
                              0.016, 0.032, 0.048, 0.06};
  numeric::Grid2d grid(8, 8);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      grid.at(r, c) = 0.01 + 0.1 * slew[r] + 4.0 * load[c];
    }
  }
  numeric::Rng rng(1);
  double sink = 0.0;
  for (auto _ : state) {
    sink += numeric::bilinear(slew, load, grid, rng.uniform(0.0, 0.6),
                              rng.uniform(0.0, 0.06));
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_BilinearLookup);

void BM_BatchedBilinear(benchmark::State& state) {
  // One shared axis search fanned across a batch of `n` SoA grids (the MC
  // characterization inner loop); compare against n x BM_BilinearLookup for
  // the per-instance win.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const numeric::Axis slew = {0.002, 0.008, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6};
  const numeric::Axis load = {0.001, 0.002, 0.004, 0.008,
                              0.016, 0.032, 0.048, 0.06};
  numeric::GridBatch batch(8, 8, n);
  numeric::Rng fill(3);
  for (double& v : batch.flat()) v = fill.uniform(0.0, 0.4);
  std::vector<double> out(n);
  numeric::Rng rng(1);
  for (auto _ : state) {
    numeric::batchedBilinear(slew, load, batch, rng.uniform(0.0, 0.6),
                             rng.uniform(0.0, 0.06), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchedBilinear)->Arg(8)->Arg(64)->Arg(512);

tuning::BinaryLut randomLut(std::size_t n, std::uint64_t seed) {
  numeric::Rng rng(seed);
  tuning::BinaryLut lut(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) lut.set(r, c, rng.uniform() < 0.7);
  }
  return lut;
}

void BM_LargestRectangle(benchmark::State& state) {
  const auto lut = randomLut(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuning::largestRectangle(lut));
  }
}
BENCHMARK(BM_LargestRectangle)->Arg(8)->Arg(16)->Arg(32);

void BM_LargestRectangleReference(benchmark::State& state) {
  const auto lut = randomLut(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuning::largestRectangleReference(lut));
  }
}
BENCHMARK(BM_LargestRectangleReference)->Arg(8)->Arg(16);

void BM_CharacterizeLibrary(benchmark::State& state) {
  const charlib::Characterizer chr(smallCharConfig());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chr.characterizeNominal(charlib::ProcessCorner::typical()));
  }
}
BENCHMARK(BM_CharacterizeLibrary);

// Thread counts exercised by the threaded kernel variants: serial fallback,
// then powers of two up to a typical desktop core count.
#define SCT_THREAD_ARGS ->ArgName("threads")->Arg(0)->Arg(2)->Arg(4)->Arg(8)

void BM_CharacterizeMonteCarlo(benchmark::State& state) {
  const charlib::Characterizer chr(smallCharConfig());
  parallel::setThreadCount(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 50, 5));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 50);
}
BENCHMARK(BM_CharacterizeMonteCarlo) SCT_THREAD_ARGS;

void BM_BuildStatLibrary(benchmark::State& state) {
  const charlib::Characterizer chr(smallCharConfig());
  const auto libs = chr.characterizeMonteCarlo(
      charlib::ProcessCorner::typical(),
      static_cast<std::size_t>(state.range(0)), 5);
  parallel::setThreadCount(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(statlib::buildStatLibrary(libs));
  }
}
BENCHMARK(BM_BuildStatLibrary)
    ->ArgNames({"libs", "threads"})
    ->Args({10, 0})
    ->Args({25, 0})
    ->Args({25, 2})
    ->Args({25, 4})
    ->Args({25, 8});

void BM_TuneLibrary(benchmark::State& state) {
  const charlib::Characterizer chr(smallCharConfig());
  const auto libs =
      chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 20, 5);
  const statlib::StatLibrary stat = statlib::buildStatLibrary(libs);
  const auto config =
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.02);
  parallel::setThreadCount(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuning::tuneLibrary(stat, config));
  }
}
BENCHMARK(BM_TuneLibrary) SCT_THREAD_ARGS;

void BM_FullDesignSta(benchmark::State& state) {
  static const charlib::Characterizer chr(smallCharConfig());
  static const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  sta::ClockSpec clock;
  clock.period = 8.0;
  static const synth::SynthesisResult result = [&] {
    synth::Synthesizer synth(lib);
    netlist::McuConfig small;
    small.registers = 16;
    small.timers = 2;
    small.dmaChannels = 1;
    small.gpioWidth = 32;
    small.cacheTagEntries = 32;
    small.macUnits = 1;
    sta::ClockSpec c;
    c.period = 8.0;
    return synth.run(netlist::generateMcu(small), c);
  }();
  sta::TimingAnalyzer analyzer(result.design, lib, clock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(result.design.gateCount()));
}
BENCHMARK(BM_FullDesignSta);

// Shared mapped MCU for the synthesis-loop benchmarks (built once).
const synth::SynthesisResult& mappedMcu(const liberty::Library& lib) {
  static const synth::SynthesisResult result = [&] {
    synth::Synthesizer synth(lib);
    netlist::McuConfig small;
    small.registers = 16;
    small.timers = 2;
    small.dmaChannels = 1;
    small.gpioWidth = 32;
    small.cacheTagEntries = 32;
    small.macUnits = 1;
    sta::ClockSpec c;
    c.period = 8.0;
    return synth.run(netlist::generateMcu(small), c);
  }();
  return result;
}

void BM_SynthesisOptimize(benchmark::State& state) {
  // The whole mapping + optimization flow at MCU size; incremental=0 forces
  // a full re-analysis per optimization pass (the pre-incremental
  // behaviour), incremental=1 uses the notify/update API.
  static const charlib::Characterizer chr(smallCharConfig());
  static const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  static const netlist::Design subject = [] {
    netlist::McuConfig small;
    small.registers = 16;
    small.timers = 2;
    small.dmaChannels = 1;
    small.gpioWidth = 32;
    small.cacheTagEntries = 32;
    small.macUnits = 1;
    return netlist::generateMcu(small);
  }();
  const synth::Synthesizer synth(lib);
  sta::ClockSpec clock;
  clock.period = 8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth.run(subject, clock));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(subject.gateCount()));
}
BENCHMARK(BM_SynthesisOptimize);

void BM_SynthesisConstrained(benchmark::State& state) {
  // Window-constrained mapping: every legality query hits the constraint
  // lookup, answered from the slot-interned CompiledConstraintView.
  static const charlib::Characterizer chr(smallCharConfig());
  static const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  static const statlib::StatLibrary stat = statlib::buildStatLibrary(
      chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 10, 7));
  static const tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      stat,
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kCellLoadSlope,
                                      0.03));
  static const netlist::Design subject = [] {
    netlist::McuConfig small;
    small.registers = 16;
    small.timers = 2;
    small.dmaChannels = 1;
    small.gpioWidth = 32;
    small.cacheTagEntries = 32;
    small.macUnits = 1;
    return netlist::generateMcu(small);
  }();
  const synth::Synthesizer synth(lib, &constraints);
  sta::ClockSpec clock;
  clock.period = 8.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth.run(subject, clock));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(subject.gateCount()));
}
BENCHMARK(BM_SynthesisConstrained);

void BM_IncrementalSta(benchmark::State& state) {
  // Steady-state cost of one sizing move: rebind a cell, notify, update.
  // Compare against BM_FullDesignSta — the from-scratch analysis of the
  // same design — for the per-move speedup.
  static const charlib::Characterizer chr(smallCharConfig());
  static const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  sta::ClockSpec clock;
  clock.period = 8.0;
  static netlist::Design design = mappedMcu(lib).design;
  static const synth::Synthesizer synth(lib);

  // A mid-levelization instance whose function family has ≥2 members; the
  // iteration toggles it between the weakest and strongest sibling.
  static const netlist::InstIndex victim = [] {
    netlist::InstIndex pick = netlist::kNoInst;
    for (netlist::InstIndex i = 0; i < design.instanceCount(); ++i) {
      const auto& inst = design.instance(i);
      if (!inst.alive || inst.cell == nullptr) continue;
      if (netlist::isSequential(inst.op)) continue;
      if (synth.family(inst.op).size() >= 2) pick = i;
    }
    return pick;
  }();
  if (victim == netlist::kNoInst) {
    state.SkipWithError("no swappable instance in the mapped MCU");
    return;
  }
  const auto& family = synth.family(design.instance(victim).op);

  sta::TimingAnalyzer analyzer(design, lib, clock);
  analyzer.analyze();
  bool strong = false;
  for (auto _ : state) {
    design.bindCell(victim, strong ? family.back() : family.front());
    strong = !strong;
    analyzer.notifyCellSwap(victim);
    benchmark::DoNotOptimize(analyzer.update());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IncrementalSta);

void BM_MonteCarloPath(benchmark::State& state) {
  static const charlib::Characterizer chr(smallCharConfig());
  static const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  sta::ClockSpec clock;
  clock.period = 8.0;
  static const synth::SynthesisResult result = [&] {
    synth::Synthesizer synth(lib);
    netlist::Design chain("chain");
    netlist::NetlistBuilder b(chain);
    netlist::NetIndex n = b.dff(b.inputPort("in"), netlist::PrimOp::kDff);
    for (int i = 0; i < 20; ++i) n = b.inv(n);
    b.outputPort("out", b.dff(n, netlist::PrimOp::kDff));
    sta::ClockSpec c;
    c.period = 8.0;
    return synth.run(chain, c);
  }();
  sta::TimingAnalyzer analyzer(result.design, lib, clock);
  analyzer.analyze();
  const auto paths = analyzer.endpointWorstPaths();
  const sta::TimingPath* longest = &paths.front();
  for (const auto& p : paths) {
    if (p.depth() > longest->depth()) longest = &p;
  }
  const variation::PathMonteCarlo mc(chr);
  variation::PathMcConfig config;
  config.trials = 200;
  parallel::setThreadCount(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.simulate(*longest, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_MonteCarloPath) SCT_THREAD_ARGS;

void BM_Ssta(benchmark::State& state) {
  static const charlib::Characterizer chr(smallCharConfig());
  static const liberty::Library lib =
      chr.characterizeNominal(charlib::ProcessCorner::typical());
  static const statlib::StatLibrary stat = statlib::buildStatLibrary(
      chr.characterizeMonteCarlo(charlib::ProcessCorner::typical(), 15, 3));
  sta::ClockSpec clock;
  clock.period = 8.0;
  static const synth::SynthesisResult result = [&] {
    synth::Synthesizer synth(lib);
    netlist::McuConfig small;
    small.registers = 16;
    small.timers = 2;
    small.dmaChannels = 1;
    small.gpioWidth = 32;
    small.cacheTagEntries = 32;
    small.macUnits = 1;
    sta::ClockSpec c;
    c.period = 8.0;
    return synth.run(netlist::generateMcu(small), c);
  }();
  sta::TimingAnalyzer analyzer(result.design, lib, clock);
  analyzer.analyze();
  for (auto _ : state) {
    benchmark::DoNotOptimize(variation::runSsta(result.design, analyzer, stat));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(result.design.gateCount()));
}
BENCHMARK(BM_Ssta);

void BM_LogicSimulationStep(benchmark::State& state) {
  static const netlist::Design mcu = [] {
    netlist::McuConfig small;
    small.registers = 16;
    small.timers = 2;
    small.dmaChannels = 1;
    small.gpioWidth = 32;
    small.cacheTagEntries = 32;
    small.macUnits = 1;
    return netlist::generateMcu(small);
  }();
  netlist::Simulator sim(mcu);
  sim.reset();
  sim.setInputBus("sram_rdata", 0xDEADBEEF);
  sim.setInput("uart_rx", false);
  sim.setInput("ext_stall", false);
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(mcu.gateCount()));
}
BENCHMARK(BM_LogicSimulationStep);

// Cold vs warm end-to-end flow: the warm variant serves characterization,
// stat-merge, tuning and synthesis out of the content-addressed artifact
// store, so the pair measures the resumable-stage speedup directly.
core::FlowConfig flowBenchConfig(const std::string& cacheDir) {
  core::FlowConfig config;
  config.characterization = smallCharConfig();
  config.mcLibraryCount = 10;
  config.mcu.registers = 16;
  config.mcu.timers = 2;
  config.mcu.dmaChannels = 1;
  config.mcu.gpioWidth = 32;
  config.mcu.cacheTagEntries = 32;
  config.mcu.macUnits = 1;
  config.cacheDir = cacheDir;
  return config;
}

const std::string& flowBenchCacheDir() {
  static const std::string dir =
      (std::filesystem::temp_directory_path() / "sct_bench_flow_cache")
          .string();
  return dir;
}

void BM_FlowColdCache(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(flowBenchCacheDir());  // force recompute
    state.ResumeTiming();
    core::TuningFlow flow(flowBenchConfig(flowBenchCacheDir()));
    benchmark::DoNotOptimize(flow.synthesizeBaseline(8.0));
  }
  std::filesystem::remove_all(flowBenchCacheDir());
}
BENCHMARK(BM_FlowColdCache)->Unit(benchmark::kMillisecond);

void BM_FlowWarmCache(benchmark::State& state) {
  std::filesystem::remove_all(flowBenchCacheDir());
  {
    core::TuningFlow seed(flowBenchConfig(flowBenchCacheDir()));
    benchmark::DoNotOptimize(seed.synthesizeBaseline(8.0));
  }
  for (auto _ : state) {
    core::TuningFlow flow(flowBenchConfig(flowBenchCacheDir()));
    benchmark::DoNotOptimize(flow.synthesizeBaseline(8.0));
  }
  std::filesystem::remove_all(flowBenchCacheDir());
}
BENCHMARK(BM_FlowWarmCache)->Unit(benchmark::kMillisecond);

// Warm flow with the in-memory artifact tier disabled (the CLI's
// --no-mem-cache): every stage probe decodes from the disk file again.
// Compare against BM_FlowWarmCache — the delta is what the memory tier buys
// a single-shot invocation.
void BM_FlowWarmCacheNoMem(benchmark::State& state) {
  std::filesystem::remove_all(flowBenchCacheDir());
  {
    core::TuningFlow seed(flowBenchConfig(flowBenchCacheDir()));
    benchmark::DoNotOptimize(seed.synthesizeBaseline(8.0));
  }
  for (auto _ : state) {
    core::FlowConfig config = flowBenchConfig(flowBenchCacheDir());
    config.memCacheBytes = 0;
    core::TuningFlow flow(std::move(config));
    benchmark::DoNotOptimize(flow.synthesizeBaseline(8.0));
  }
  std::filesystem::remove_all(flowBenchCacheDir());
}
BENCHMARK(BM_FlowWarmCacheNoMem)->Unit(benchmark::kMillisecond);

// Observability overhead pair (DESIGN.md §12): the same uncached flow with
// everything off vs tracing + metrics on. The CI obs-overhead job fails if
// the traced variant regresses more than the budget over the off variant.
void BM_FlowObsOff(benchmark::State& state) {
  obs::setTracingEnabled(false);
  obs::setMetricsEnabled(false);
  for (auto _ : state) {
    core::TuningFlow flow(flowBenchConfig(""));
    benchmark::DoNotOptimize(flow.synthesizeBaseline(8.0));
  }
}
BENCHMARK(BM_FlowObsOff)->Unit(benchmark::kMillisecond);

void BM_FlowTraced(benchmark::State& state) {
  obs::setTracingEnabled(true);
  obs::setMetricsEnabled(true);
  for (auto _ : state) {
    core::TuningFlow flow(flowBenchConfig(""));
    benchmark::DoNotOptimize(flow.synthesizeBaseline(8.0));
    obs::clearTrace();
  }
  obs::setTracingEnabled(false);
  obs::setMetricsEnabled(false);
}
BENCHMARK(BM_FlowTraced)->Unit(benchmark::kMillisecond);

void BM_PatternMapping(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    netlist::Design mcu = netlist::generateMcu();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        synth::mapPatterns(mcu, [](netlist::PrimOp) { return true; }));
  }
}
BENCHMARK(BM_PatternMapping);

void BM_EvolveGeneration(benchmark::State& state) {
  // One seeded NSGA-II round at small-profile MCU size: 20 paper-sweep
  // seeds + random init + one offspring batch, every candidate a full
  // constrain/synthesize/measure evaluation fanned out on the pool.
  core::FlowJob flowJob;
  flowJob.profile = "small";
  flowJob.period = 4.0;
  flowJob.lintMode = "off";
  evo::EvolveJob job;
  job.flow = flowJob;
  job.params.population = 4;
  job.params.generations = 1;
  for (auto _ : state) {
    core::TuningFlow flow(core::makeFlowConfig(flowJob));
    benchmark::DoNotOptimize(evo::runEvolveJob(flow, job));
  }
}
BENCHMARK(BM_EvolveGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

#pragma once
// Timing-driven technology mapping, gate sizing and buffering under tuned
// per-pin slew/load windows. This is the synthesis substrate of the
// reproduction: it implements exactly the mechanisms whose side effects the
// paper measures — drive-strength selection, buffer insertion for signal
// integrity, decomposition of unavailable functions, and area recovery at
// relaxed timing.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"
#include "tuning/compiled_constraints.hpp"
#include "tuning/restriction.hpp"

namespace sct::synth {

struct SynthesisOptions {
  std::size_t maxPasses = 60;       ///< outer fix/size/recover iterations
  std::size_t maxFanout = 16;       ///< split nets with more sinks
  double maxSlew = 0.55;            ///< global transition limit [ns]
  double areaRecoveryMargin = 0.05; ///< slack to preserve when downsizing [ns]

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("maxPasses", s.maxPasses);
    v("maxFanout", s.maxFanout);
    v("maxSlew", s.maxSlew);
    v("areaRecoveryMargin", s.areaRecoveryMargin);
  }
};

/// The synthesis analyzer's final timing state, carried by a result to
/// the measurement that follows it (DESIGN.md §9). A copy carries none, so
/// two results never share one analyzer; a move takes it along.
class FinalTiming {
 public:
  FinalTiming() = default;
  explicit FinalTiming(std::unique_ptr<sta::TimingAnalyzer> analyzer) noexcept
      : analyzer_(std::move(analyzer)) {}
  FinalTiming(const FinalTiming&) noexcept {}
  FinalTiming& operator=(const FinalTiming&) noexcept {
    analyzer_.reset();
    return *this;
  }
  FinalTiming(FinalTiming&&) noexcept = default;
  FinalTiming& operator=(FinalTiming&&) noexcept = default;

  [[nodiscard]] explicit operator bool() const noexcept {
    return analyzer_ != nullptr;
  }
  /// Hands the state over, bound to `design`: the netlist it timed, at its
  /// current address. Empty afterwards.
  [[nodiscard]] std::unique_ptr<sta::TimingAnalyzer> take(
      const netlist::Design& design) noexcept;

 private:
  std::unique_ptr<sta::TimingAnalyzer> analyzer_;
};

struct SynthesisResult {
  netlist::Design design;  ///< mapped (and possibly restructured) netlist
  /// Analysis of `design` bit-identical to a fresh analyze(), when the run
  /// ended with valid timing. Not a stored field: a decoded result has
  /// none, and a change to `design` must be followed by `timing = {}`.
  FinalTiming timing;
  bool timingMet = false;
  bool legal = false;  ///< no residual window/electrical violations
  double worstSlack = 0.0;
  double tns = 0.0;
  double area = 0.0;
  std::size_t passes = 0;
  std::size_t buffersInserted = 0;
  std::size_t decomposed = 0;
  std::size_t patternRewrites = 0;  ///< B-cell / MUX4 pattern matches
  std::size_t resizes = 0;
  std::size_t violations = 0;  ///< residual violation count

  /// The scalars; the design has its own codec (artifact/codecs.hpp), and
  /// the timing state is never stored.
  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("timingMet", s.timingMet);
    v("legal", s.legal);
    v("worstSlack", s.worstSlack);
    v("tns", s.tns);
    v("area", s.area);
    v("passes", s.passes);
    v("buffersInserted", s.buffersInserted);
    v("decomposed", s.decomposed);
    v("patternRewrites", s.patternRewrites);
    v("resizes", s.resizes);
    v("violations", s.violations);
  }

  [[nodiscard]] bool success() const noexcept { return timingMet && legal; }
  [[nodiscard]] std::map<std::string, std::size_t> cellUsage() const {
    return design.cellUsage();
  }
};

/// Rebinds every mapped instance to the same-named cell of another library
/// (e.g. the SS corner library for signoff of a TT-synthesized design).
/// Returns false and leaves the design untouched when a cell is missing.
bool rebindDesign(netlist::Design& design, const liberty::Library& library);

/// A subject after the part of mapping that depends only on which
/// primitive ops are usable: dead-logic sweep, decomposition of unusable
/// ops and pattern mapping. No cell is bound yet.
struct MappedSubject {
  netlist::Design design;
  bool mappable = false;  ///< decomposition found a usable form for every op
  std::size_t decomposed = 0;
  std::size_t patternRewrites = 0;
};

/// The period-independent start of a sizing run (DESIGN.md §9): the edits
/// of every pass before the first one that reads a slack, in commit order.
/// Those passes read loads, slews and windows but never a required time, so
/// the same synthesizer, mapped subject and options make the same edits at
/// every clock period. A run from an empty prefix records it; a run from a
/// complete one replays the edits and continues at pass `passes`.
struct SizingPrefix {
  /// A resize (`cell` set: bind instance `target` to it) or a split (`cell`
  /// null: split net `target` into `groups` buffered groups).
  struct Edit {
    const liberty::Cell* cell = nullptr;
    std::uint32_t target = 0;
    std::uint32_t groups = 0;
  };
  std::vector<Edit> edits;
  /// The pass the run resumes at: the first pass that adds no nets, a pass
  /// whose refresh failed, or maxPasses.
  std::size_t passes = 0;
  bool complete = false;  ///< recorded up to its cut point
};

/// Smallest period in (lo, hi] (within `tolerance` ns) for which `feasible`
/// holds, by bisection; nullopt when `feasible(hi)` does not hold.
[[nodiscard]] std::optional<double> bisectMinPeriod(
    double lo, double hi, double tolerance,
    const std::function<bool(double)>& feasible);

class Synthesizer {
 public:
  /// constraints may be null (untuned baseline library).
  Synthesizer(const liberty::Library& library,
              const tuning::LibraryConstraints* constraints = nullptr);

  /// Maps and optimizes a copy of the subject graph against the clock:
  /// run(map(subject), clock, options).
  [[nodiscard]] SynthesisResult run(const netlist::Design& subject,
                                    const sta::ClockSpec& clock,
                                    const SynthesisOptions& options = {}) const;
  /// Binds and optimizes a mapped subject. `mapped` must come from map()
  /// of a synthesizer with the same usableOps().
  [[nodiscard]] SynthesisResult run(MappedSubject mapped,
                                    const sta::ClockSpec& clock,
                                    const SynthesisOptions& options = {}) const;
  /// The same, starting from `prefix`. A complete prefix, recorded by a run
  /// of this synthesizer on the same mapped subject and options at any
  /// period, is replayed, and the result equals run(mapped, clock, options)
  /// bit for bit. Any other prefix is cleared and, when the run reaches its
  /// cut point, recorded complete.
  [[nodiscard]] SynthesisResult run(MappedSubject mapped,
                                    const sta::ClockSpec& clock,
                                    const SynthesisOptions& options,
                                    SizingPrefix& prefix) const;

  /// Bit i is set when family() of the i-th primitive op is not empty. The
  /// mapping step depends on the library and constraints only through it.
  [[nodiscard]] std::uint64_t usableOps() const noexcept { return usable_; }
  /// The usable-op dependent part of mapping, on a copy of the subject.
  [[nodiscard]] MappedSubject map(const netlist::Design& subject) const;

  /// Smallest clock period (within `tolerance` ns) at which run() succeeds,
  /// by bisection; mirrors the paper's "reduce the clock period until the
  /// synthesis fails" protocol. Returns nullopt when even `hi` fails. Maps
  /// once, and every probe after the first replays its sizing prefix.
  [[nodiscard]] std::optional<double> findMinPeriod(
      const netlist::Design& subject, sta::ClockSpec clock, double lo,
      double hi, double tolerance = 0.02,
      const SynthesisOptions& options = {}) const;

  [[nodiscard]] const liberty::Library& library() const noexcept {
    return library_;
  }

  /// Usable (not tuned-away) cells of a function family, ascending strength.
  [[nodiscard]] const std::vector<const liberty::Cell*>& family(
      netlist::PrimOp op) const;

  /// Slot-interned constraint view over this synthesizer's library; nullptr
  /// when the library is unconstrained.
  [[nodiscard]] const tuning::CompiledConstraintView* compiledConstraints()
      const noexcept {
    return compiled_ ? &*compiled_ : nullptr;
  }

 private:
  const liberty::Library& library_;
  std::optional<tuning::CompiledConstraintView> compiled_;
  /// Per-PrimOp usable family, ascending drive strength.
  std::map<netlist::PrimOp, std::vector<const liberty::Cell*>> families_;
  std::uint64_t usable_ = 0;
};

}  // namespace sct::synth

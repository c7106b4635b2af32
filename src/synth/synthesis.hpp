#pragma once
// Timing-driven technology mapping, gate sizing and buffering under tuned
// per-pin slew/load windows. This is the synthesis substrate of the
// reproduction: it implements exactly the mechanisms whose side effects the
// paper measures — drive-strength selection, buffer insertion for signal
// integrity, decomposition of unavailable functions, and area recovery at
// relaxed timing.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

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

struct SynthesisResult {
  netlist::Design design;  ///< mapped (and possibly restructured) netlist
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

  /// The scalars; the design has its own codec (artifact/codecs.hpp).
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

class Synthesizer {
 public:
  /// constraints may be null (untuned baseline library).
  Synthesizer(const liberty::Library& library,
              const tuning::LibraryConstraints* constraints = nullptr);

  /// Maps and optimizes a copy of the subject graph against the clock.
  [[nodiscard]] SynthesisResult run(const netlist::Design& subject,
                                    const sta::ClockSpec& clock,
                                    const SynthesisOptions& options = {}) const;

  /// Smallest clock period (within `tolerance` ns) at which run() succeeds,
  /// by bisection; mirrors the paper's "reduce the clock period until the
  /// synthesis fails" protocol. Returns nullopt when even `hi` fails.
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
};

}  // namespace sct::synth

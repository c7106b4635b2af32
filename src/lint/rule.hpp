#pragma once
// The rule side of the lint engine: a LintSubject bundles the artifacts a
// run may inspect, a Rule is one row of its pack's table — a named check
// over one artifact kind — and rules are grouped into packs matching the
// flow's stage inputs (liberty, statlib, netlist, constraints, clock, evo).
// Checks are stateless functions; all findings go through the Emitter that
// stamps the row's id and severity.

#include <span>
#include <string>
#include <string_view>

#include "clocktree/clock_tree.hpp"
#include "evo/params.hpp"
#include "lint/diagnostic.hpp"
#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "statlib/stat_library.hpp"
#include "tuning/restriction.hpp"

namespace sct::lint {

/// Rule packs, one per flow-stage input kind. A rule belongs to exactly one
/// pack and only runs when the subject carries that pack's artifact.
enum class RulePack : std::uint8_t {
  kLiberty = 0,
  kStatLib = 1,
  kNetlist = 2,
  kConstraints = 3,
  kClock = 4,
  kEvo = 5,
};

[[nodiscard]] std::string_view toString(RulePack pack) noexcept;

/// Bitmask over RulePack for selecting which packs an engine run executes.
using RulePackMask = std::uint8_t;
[[nodiscard]] inline constexpr RulePackMask packBit(RulePack pack) noexcept {
  return static_cast<RulePackMask>(1u << static_cast<std::uint8_t>(pack));
}
inline constexpr RulePackMask kAllPacks = 0x3f;

/// What a lint run inspects. Primary artifacts (library, statLibrary,
/// design, constraints) select which packs run; referenceLibrary is
/// cross-check context (the nominal library) used by statlib, netlist and
/// constraints rules when present — those checks degrade gracefully to
/// skipped when it is null.
struct LintSubject {
  const liberty::Library* library = nullptr;
  const statlib::StatLibrary* statLibrary = nullptr;
  const netlist::Design* design = nullptr;
  const tuning::LibraryConstraints* constraints = nullptr;
  const liberty::Library* referenceLibrary = nullptr;
  /// Post-silicon tuning-element configuration; selects the clock pack.
  const clocktree::TuningElementSpec* clockTuning = nullptr;
  /// Cross-check context for the clock pack (range vs. tree skew); the
  /// rules degrade gracefully to skipped when it is null.
  const clocktree::ClockTree* clockTree = nullptr;
  /// Evolutionary-tuner configuration; selects the evo pack.
  const evo::EvolveParams* evolveParams = nullptr;

  [[nodiscard]] bool carries(RulePack pack) const noexcept {
    switch (pack) {
      case RulePack::kLiberty: return library != nullptr;
      case RulePack::kStatLib: return statLibrary != nullptr;
      case RulePack::kNetlist: return design != nullptr;
      case RulePack::kConstraints: return constraints != nullptr;
      case RulePack::kClock: return clockTuning != nullptr;
      case RulePack::kEvo: return evolveParams != nullptr;
    }
    return false;
  }
};

struct Rule;

/// Where a check reports: appends findings to the run's report stamped with
/// the rule's id and severity.
class Emitter {
 public:
  Emitter(const Rule& rule, LintReport& report) noexcept
      : rule_(rule), report_(report) {}

  void operator()(std::string objectPath, std::string message) const;

 private:
  const Rule& rule_;
  LintReport& report_;
};

/// One named static check: a row of its pack's table (see engine.hpp: "how
/// to add a rule").
struct Rule {
  /// Stable dotted identifier, e.g. "lib.axis.order". Rule ids are part of
  /// the CI contract (SARIF ruleId) and must never be renamed casually.
  std::string_view id;
  RulePack pack;
  Severity severity;
  /// One-line human description (SARIF shortDescription).
  std::string_view description;
  /// Inspects the subject and emits findings. Only called when the subject
  /// carries the rule's pack. Must not throw on any subject a parser or
  /// builder can produce — lint runs before everything else.
  void (*check)(const LintSubject& subject, const Emitter& emit);
};

inline void Emitter::operator()(std::string objectPath,
                                std::string message) const {
  report_.add(Diagnostic{std::string(rule_.id), rule_.severity,
                         std::move(objectPath), std::move(message)});
}

// The pack tables, in pack order; each is defined in its *_rules.cpp.
extern const std::span<const Rule> kLibertyRules;
extern const std::span<const Rule> kStatLibRules;
extern const std::span<const Rule> kNetlistRules;
extern const std::span<const Rule> kConstraintsRules;
extern const std::span<const Rule> kClockRules;
extern const std::span<const Rule> kEvoRules;

}  // namespace sct::lint

#pragma once
// The lint engine: the built-in rule tables executed over a LintSubject into
// a LintReport (DESIGN.md §11). Adding a rule = write its check function in
// the matching *_rules.cpp, append its row to that pack's table, and bump
// kRulePackVersion so cached lint results are invalidated.

#include <span>

#include "lint/rule.hpp"

namespace sct::lint {

/// Version of the rule set; part of every cached lint-report key, so a rule
/// change can never be masked by a stale cache entry.
inline constexpr std::uint32_t kRulePackVersion = 3;

class LintEngine {
 public:
  /// Engine over every built-in rule pack.
  [[nodiscard]] static LintEngine withAllRules() noexcept { return {}; }

  /// Runs every rule whose pack is selected by `packs` AND whose artifact
  /// the subject carries; rules execute in table order.
  [[nodiscard]] LintReport run(const LintSubject& subject,
                               RulePackMask packs = kAllPacks) const;

  /// Every rule: the pack tables concatenated in pack order.
  [[nodiscard]] std::span<const Rule> rules() const;

 private:
  LintEngine() = default;
};

}  // namespace sct::lint

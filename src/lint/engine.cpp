#include "lint/engine.hpp"

#include <vector>

namespace sct::lint {

std::string_view toString(RulePack pack) noexcept {
  switch (pack) {
    case RulePack::kLiberty: return "liberty";
    case RulePack::kStatLib: return "statlib";
    case RulePack::kNetlist: return "netlist";
    case RulePack::kConstraints: return "constraints";
    case RulePack::kClock: return "clock";
    case RulePack::kEvo: return "evo";
  }
  return "?";
}

std::span<const Rule> LintEngine::rules() const {
  static const std::vector<Rule> all = [] {
    std::vector<Rule> rows;
    for (const std::span<const Rule> table :
         {kLibertyRules, kStatLibRules, kNetlistRules, kConstraintsRules,
          kClockRules, kEvoRules}) {
      rows.insert(rows.end(), table.begin(), table.end());
    }
    return rows;
  }();
  return all;
}

LintReport LintEngine::run(const LintSubject& subject,
                           RulePackMask packs) const {
  LintReport report;
  for (const Rule& rule : rules()) {
    if ((packs & packBit(rule.pack)) == 0) continue;
    if (!subject.carries(rule.pack)) continue;
    rule.check(subject, Emitter(rule, report));
  }
  return report;
}

}  // namespace sct::lint

#pragma once
// Lint report renderers: a human-readable text listing, a stable JSON form
// for scripting, and SARIF 2.1.0 so CI systems can annotate pull requests
// from `sctune lint --sarif` output (DESIGN.md §11 documents the mapping).
// All three are deterministic for a given report.

#include <iosfwd>
#include <string>

#include "lint/diagnostic.hpp"
#include "lint/engine.hpp"

namespace sct::lint {

/// "severity: [rule] path: message" lines followed by a summary line.
void writeText(std::ostream& out, const LintReport& report);
[[nodiscard]] std::string writeTextToString(const LintReport& report);

/// {"version":1, "summary":{...}, "diagnostics":[...]}.
void writeJson(std::ostream& out, const LintReport& report);
[[nodiscard]] std::string writeJsonToString(const LintReport& report);

/// SARIF 2.1.0 with one run; `driver.rules` lists every built-in rule in
/// table order with its description, so viewers can show rule help inline.
void writeSarif(std::ostream& out, const LintReport& report);
[[nodiscard]] std::string writeSarifToString(const LintReport& report);

}  // namespace sct::lint

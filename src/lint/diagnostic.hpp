#pragma once
// Static-analysis diagnostics: one Diagnostic per rule finding, collected
// into a LintReport. Object paths are slash-separated logical locations
// ("lib/INV_X2/ZN/cell_rise", "design/u_42/in0") so a finding can be traced
// to the offending table, pin or instance without file/line information —
// the subjects are in-memory artifacts, not source text.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sct::lint {

enum class Severity : std::uint8_t { kError = 0, kWarning = 1, kInfo = 2 };

constexpr Severity lastEnumerator(Severity) noexcept { return Severity::kInfo; }

[[nodiscard]] std::string_view toString(Severity severity) noexcept;

/// SARIF result level for a severity ("error" / "warning" / "note").
[[nodiscard]] std::string_view sarifLevel(Severity severity) noexcept;

struct Diagnostic {
  std::string ruleId;      ///< e.g. "lib.axis.order"
  Severity severity = Severity::kError;
  std::string objectPath;  ///< e.g. "lib/INV_X2/ZN/cell_rise"
  std::string message;

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("ruleId", s.ruleId);
    v("severity", s.severity);
    v("objectPath", s.objectPath);
    v("message", s.message);
  }

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// Ordered collection of findings from one engine run. Diagnostics keep
/// their emission order (rule registration order, then discovery order
/// within a rule), which is deterministic for a given subject.
class LintReport {
 public:
  void add(Diagnostic diagnostic);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] bool empty() const noexcept { return diagnostics_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return diagnostics_.size(); }

  [[nodiscard]] std::size_t errorCount() const noexcept { return errors_; }
  [[nodiscard]] std::size_t warningCount() const noexcept { return warnings_; }
  [[nodiscard]] std::size_t infoCount() const noexcept { return infos_; }
  [[nodiscard]] bool hasErrors() const noexcept { return errors_ != 0; }

  /// Appends another report's diagnostics (stage gates lint several
  /// subjects into one report).
  void merge(const LintReport& other);

  /// True when any diagnostic carries the rule id (test/CI helper).
  [[nodiscard]] bool hasRule(std::string_view ruleId) const noexcept;

  /// One-line summary, e.g. "2 errors, 1 warning".
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t infos_ = 0;
};

}  // namespace sct::lint

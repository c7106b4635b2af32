#include "lint/report_io.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace sct::lint {

namespace {

/// Minimal JSON string escaping (control characters, quote, backslash).
std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void writeText(std::ostream& out, const LintReport& report) {
  for (const Diagnostic& d : report.diagnostics()) {
    out << toString(d.severity) << ": [" << d.ruleId << "] " << d.objectPath
        << ": " << d.message << "\n";
  }
  out << "lint: " << report.summary() << "\n";
}

std::string writeTextToString(const LintReport& report) {
  std::ostringstream out;
  writeText(out, report);
  return out.str();
}

void writeJson(std::ostream& out, const LintReport& report) {
  out << "{\n  \"version\": 1,\n  \"summary\": {\"errors\": "
      << report.errorCount() << ", \"warnings\": " << report.warningCount()
      << ", \"infos\": " << report.infoCount() << "},\n  \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics()) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"rule\": \"" << jsonEscape(d.ruleId) << "\", \"severity\": \""
        << toString(d.severity) << "\", \"path\": \""
        << jsonEscape(d.objectPath) << "\", \"message\": \""
        << jsonEscape(d.message) << "\"}";
  }
  out << (first ? "]" : "\n  ]") << "\n}\n";
}

std::string writeJsonToString(const LintReport& report) {
  std::ostringstream out;
  writeJson(out, report);
  return out.str();
}

void writeSarif(std::ostream& out, const LintReport& report) {
  out << "{\n"
         "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"sctune-lint\",\n"
         "          \"informationUri\": "
         "\"https://example.invalid/sctune\",\n"
         "          \"rules\": [";
  const char* separator = "\n";
  for (const Rule& rule : LintEngine::withAllRules().rules()) {
    out << separator << "            {\"id\": \"" << jsonEscape(rule.id)
        << "\", \"shortDescription\": {\"text\": \""
        << jsonEscape(rule.description) << "\"}}";
    separator = ",\n";
  }
  out << "\n"
         "          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [";
  bool firstResult = true;
  for (const Diagnostic& d : report.diagnostics()) {
    out << (firstResult ? "\n" : ",\n");
    firstResult = false;
    out << "        {\"ruleId\": \"" << jsonEscape(d.ruleId)
        << "\", \"level\": \"" << sarifLevel(d.severity)
        << "\", \"message\": {\"text\": \"" << jsonEscape(d.message)
        << "\"}, \"locations\": [{\"logicalLocations\": "
           "[{\"fullyQualifiedName\": \""
        << jsonEscape(d.objectPath) << "\"}]}]}";
  }
  out << (firstResult ? "]" : "\n      ]")
      << "\n"
         "    }\n"
         "  ]\n"
         "}\n";
}

std::string writeSarifToString(const LintReport& report) {
  std::ostringstream out;
  writeSarif(out, report);
  return out.str();
}

}  // namespace sct::lint

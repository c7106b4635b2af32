// Observability subsystem (DESIGN.md §12): span nesting stays well-formed
// per thread, histograms bucket exactly, both exporters emit JSON that
// parses back, and — the load-bearing invariant — running a full flow with
// tracing and metrics on produces bit-identical numeric results to a run
// with observability off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"

namespace sct::obs {
namespace {

// ---- minimal JSON parser (enough to validate the exporters) --------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value;

  [[nodiscard]] bool isObject() const {
    return std::holds_alternative<JsonObject>(value);
  }
  [[nodiscard]] const JsonObject& object() const {
    return std::get<JsonObject>(value);
  }
  [[nodiscard]] const JsonArray& array() const {
    return std::get<JsonArray>(value);
  }
  [[nodiscard]] double number() const { return std::get<double>(value); }
  [[nodiscard]] const std::string& str() const {
    return std::get<std::string>(value);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }
  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    skipSpace();
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parseValue() {
    switch (peek()) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"':
        return JsonValue{parseString()};
      case 't':
        parseLiteral("true");
        return JsonValue{true};
      case 'f':
        parseLiteral("false");
        return JsonValue{false};
      case 'n':
        parseLiteral("null");
        return JsonValue{nullptr};
      default:
        return JsonValue{parseNumber()};
    }
  }

  void parseLiteral(std::string_view word) {
    if (std::string_view(text_).substr(pos_, word.size()) != word) {
      fail("bad literal");
    }
    pos_ += word.size();
  }

  JsonValue parseObject() {
    expect('{');
    JsonObject out;
    if (consume('}')) return JsonValue{std::move(out)};
    do {
      skipSpace();
      std::string key = parseString();
      expect(':');
      out.emplace(std::move(key), parseValue());
    } while (consume(','));
    expect('}');
    return JsonValue{std::move(out)};
  }

  JsonValue parseArray() {
    expect('[');
    JsonArray out;
    if (consume(']')) return JsonValue{std::move(out)};
    do {
      out.push_back(parseValue());
    } while (consume(','));
    expect(']');
    return JsonValue{std::move(out)};
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            pos_ += 4;   // validated as hex-shaped, decoded as '?'
            c = '?';
            break;
          default: c = esc; break;
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  double parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::stod(text_.substr(start, pos_ - start));
  }

  std::string text_;
  std::size_t pos_ = 0;
};

/// Restores the global enable flags on scope exit so tests cannot leak
/// tracing/metrics state into each other.
struct ObsGuard {
  ObsGuard(bool tracing, bool metrics) {
    setTracingEnabled(tracing);
    setMetricsEnabled(metrics);
  }
  ~ObsGuard() {
    setTracingEnabled(false);
    setMetricsEnabled(false);
  }
};

// ---- span tracer ---------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  const ObsGuard guard(/*tracing=*/false, /*metrics=*/false);
  clearTrace();
  {
    SCT_TRACE_SPAN("obs_test.disabled");
  }
  const TraceSnapshot snapshot = traceSnapshot();
  for (const TraceEvent& e : snapshot.events) {
    EXPECT_STRNE(e.name, "obs_test.disabled");
  }
}

TEST(Trace, NestedSpansCarryDepthAndContainment) {
  const ObsGuard guard(/*tracing=*/true, /*metrics=*/false);
  clearTrace();
  {
    SCT_TRACE_SPAN("obs_test.outer");
    { SCT_TRACE_SPAN("obs_test.inner_a"); }
    { SCT_TRACE_SPAN("obs_test.inner_b"); }
  }
  const TraceSnapshot snapshot = traceSnapshot();

  const TraceEvent* outer = nullptr;
  const TraceEvent* innerA = nullptr;
  const TraceEvent* innerB = nullptr;
  for (const TraceEvent& e : snapshot.events) {
    if (std::string_view(e.name) == "obs_test.outer") outer = &e;
    if (std::string_view(e.name) == "obs_test.inner_a") innerA = &e;
    if (std::string_view(e.name) == "obs_test.inner_b") innerB = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(innerA, nullptr);
  ASSERT_NE(innerB, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(innerA->depth, 1u);
  EXPECT_EQ(innerB->depth, 1u);
  EXPECT_EQ(outer->tid, innerA->tid);
  // Children are contained in the parent interval and do not overlap.
  EXPECT_GE(innerA->startNs, outer->startNs);
  EXPECT_LE(innerA->startNs + innerA->durNs, outer->startNs + outer->durNs);
  EXPECT_GE(innerB->startNs, innerA->startNs + innerA->durNs);
  EXPECT_LE(innerB->startNs + innerB->durNs, outer->startNs + outer->durNs);
}

/// Laminar-family check over a thread's spans: walking events sorted by
/// (startNs, depth) with a stack, every span must nest strictly inside its
/// enclosing span and carry depth == enclosing depth + 1.
void expectWellFormedPerThread(const TraceSnapshot& snapshot) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> byThread;
  for (const TraceEvent& e : snapshot.events) {
    byThread[e.tid].push_back(&e);
  }
  for (const auto& [tid, events] : byThread) {
    std::vector<const TraceEvent*> stack;
    for (const TraceEvent* e : events) {
      while (!stack.empty() &&
             e->startNs >= stack.back()->startNs + stack.back()->durNs) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(e->startNs + e->durNs,
                  stack.back()->startNs + stack.back()->durNs)
            << "span '" << e->name << "' escapes its parent on tid " << tid;
        EXPECT_EQ(e->depth, stack.back()->depth + 1)
            << "span '" << e->name << "' has inconsistent depth on tid "
            << tid;
      } else {
        EXPECT_EQ(e->depth, 0u)
            << "top-level span '" << e->name << "' has nonzero depth";
      }
      stack.push_back(e);
    }
  }
}

TEST(Trace, ParallelSpansAreWellFormedOnEveryThread) {
  const ObsGuard guard(/*tracing=*/true, /*metrics=*/false);
  const std::size_t previous = parallel::threadCount();
  parallel::setThreadCount(4);
  clearTrace();
  std::vector<int> out(256, 0);
  parallel::parallelFor(
      out.size(),
      [&](std::size_t i) {
        SCT_TRACE_SPAN("obs_test.work");
        { SCT_TRACE_SPAN("obs_test.work.nested"); }
        out[i] = static_cast<int>(i);
      },
      /*grain=*/8);
  const TraceSnapshot snapshot = traceSnapshot();
  parallel::setThreadCount(previous);

  std::size_t workSpans = 0;
  for (const TraceEvent& e : snapshot.events) {
    if (std::string_view(e.name) == "obs_test.work") ++workSpans;
  }
  EXPECT_EQ(workSpans, out.size());
  expectWellFormedPerThread(snapshot);
}

TEST(Trace, RingOverflowCountsDroppedSpans) {
  const ObsGuard guard(/*tracing=*/true, /*metrics=*/false);
  clearTrace();
  const std::size_t total = kTraceRingCapacity + 1024;
  for (std::size_t i = 0; i < total; ++i) {
    SCT_TRACE_SPAN("obs_test.spin");
  }
  const TraceSnapshot snapshot = traceSnapshot();
  EXPECT_GE(snapshot.dropped, total - kTraceRingCapacity);
  std::size_t retained = 0;
  for (const TraceEvent& e : snapshot.events) {
    if (std::string_view(e.name) == "obs_test.spin") ++retained;
  }
  EXPECT_LE(retained, kTraceRingCapacity);
  EXPECT_GE(retained, kTraceRingCapacity / 2);  // ring actually filled
}

TEST(Trace, ChromeTraceExportParsesBackWithRequiredFields) {
  const ObsGuard guard(/*tracing=*/true, /*metrics=*/false);
  clearTrace();
  {
    SCT_TRACE_SPAN("obs_test.export \"quoted\\name\"");
    SCT_TRACE_SPAN("obs_test.export.child");
  }
  std::ostringstream out;
  writeChromeTrace(out, traceSnapshot());

  JsonParser parser(out.str());
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(doc.isObject());
  ASSERT_TRUE(doc.object().contains("traceEvents"));
  const JsonArray& events = doc.object().at("traceEvents").array();
  ASSERT_FALSE(events.empty());
  bool sawExportSpan = false;
  for (const JsonValue& event : events) {
    const JsonObject& fields = event.object();
    EXPECT_EQ(fields.at("ph").str(), "X");
    EXPECT_TRUE(fields.contains("name"));
    EXPECT_TRUE(fields.contains("ts"));
    EXPECT_TRUE(fields.contains("dur"));
    EXPECT_TRUE(fields.contains("pid"));
    EXPECT_TRUE(fields.contains("tid"));
    EXPECT_GE(fields.at("dur").number(), 0.0);
    if (fields.at("name").str().find("quoted") != std::string::npos) {
      sawExportSpan = true;
    }
  }
  EXPECT_TRUE(sawExportSpan) << "escaped span name did not round-trip";
}

// ---- metrics registry ----------------------------------------------------

TEST(Metrics, CounterGatesOnEnabledFlag) {
  Counter& counter =
      MetricsRegistry::global().counter("obs_test.gated_counter");
  counter.reset();
  {
    const ObsGuard guard(/*tracing=*/false, /*metrics=*/false);
    counter.add(7);
    EXPECT_EQ(counter.value(), 0u);
  }
  {
    const ObsGuard guard(/*tracing=*/false, /*metrics=*/true);
    counter.add(7);
    counter.inc();
    EXPECT_EQ(counter.value(), 8u);
  }
}

TEST(Metrics, HistogramBucketsExactly) {
  const ObsGuard guard(/*tracing=*/false, /*metrics=*/true);
  static constexpr double kBounds[] = {1.0, 2.0, 4.0};
  Histogram& histogram =
      MetricsRegistry::global().histogram("obs_test.buckets", kBounds);
  histogram.reset();
  for (double x : {0.5, 1.0, 1.5, 3.0, 100.0}) histogram.observe(x);

  const std::vector<std::uint64_t> counts = histogram.counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0.5, 1.0 (bounds are inclusive)
  EXPECT_EQ(counts[1], 1u);      // 1.5
  EXPECT_EQ(counts[2], 1u);      // 3.0
  EXPECT_EQ(counts[3], 1u);      // 100.0 overflows
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 106.0);
}

TEST(Metrics, KindConflictsThrow) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.counter("obs_test.conflict");
  EXPECT_THROW(registry.gauge("obs_test.conflict"), std::logic_error);
  static constexpr double kBoundsA[] = {1.0, 2.0};
  static constexpr double kBoundsB[] = {1.0, 3.0};
  registry.histogram("obs_test.conflict_hist", kBoundsA);
  EXPECT_THROW(registry.histogram("obs_test.conflict_hist", kBoundsB),
               std::logic_error);
  registry.histogram("obs_test.conflict_hist", kBoundsA);  // same bounds: ok
}

TEST(Metrics, JsonExportParsesBackAndIsDeterministic) {
  const ObsGuard guard(/*tracing=*/false, /*metrics=*/true);
  MetricsRegistry& registry = MetricsRegistry::global();
  Counter& counter = registry.counter("obs_test.json_counter");
  counter.reset();
  counter.add(42);
  registry.gauge("obs_test.json_gauge").set(2.5);
  static constexpr double kBounds[] = {1.0, 10.0};
  Histogram& histogram = registry.histogram("obs_test.json_hist", kBounds);
  histogram.reset();
  histogram.observe(0.5);
  histogram.observe(5.0);

  std::ostringstream first;
  writeMetricsJson(first, registry.snapshot());
  std::ostringstream second;
  writeMetricsJson(second, registry.snapshot());
  EXPECT_EQ(first.str(), second.str()) << "export is not deterministic";

  JsonParser parser(first.str());
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(doc.isObject());
  const JsonObject& counters = doc.object().at("counters").object();
  EXPECT_DOUBLE_EQ(counters.at("obs_test.json_counter").number(), 42.0);
  const JsonObject& gauges = doc.object().at("gauges").object();
  EXPECT_DOUBLE_EQ(gauges.at("obs_test.json_gauge").number(), 2.5);
  const JsonObject& hist =
      doc.object().at("histograms").object().at("obs_test.json_hist").object();
  const JsonArray& counts = hist.at("counts").array();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_DOUBLE_EQ(counts[0].number(), 1.0);
  EXPECT_DOUBLE_EQ(counts[1].number(), 1.0);
  EXPECT_DOUBLE_EQ(counts[2].number(), 0.0);
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number(), 5.5);
}

// ---- bit-identity through the full flow ----------------------------------

core::FlowConfig tinyFlowConfig() {
  core::FlowJob job;
  job.profile = "small";
  job.mcCount = 6;
  job.lintMode = "off";  // exercised by lint_test
  return core::makeFlowConfig(job);
}

TEST(ObsBitIdentity, TracedFlowMatchesObsOffExactly) {
  const tuning::TuningConfig tc = tuning::TuningConfig::forMethod(
      tuning::TuningMethod::kSigmaCeiling, 0.02);

  setTracingEnabled(false);
  setMetricsEnabled(false);
  core::TuningFlow plain(tinyFlowConfig());
  const core::DesignMeasurement off = plain.synthesizeTuned(8.0, tc);

  core::DesignMeasurement on;
  {
    const ObsGuard guard(/*tracing=*/true, /*metrics=*/true);
    clearTrace();
    core::TuningFlow traced(tinyFlowConfig());
    on = traced.synthesizeTuned(8.0, tc);
    // The instrumented run actually recorded spans and metrics.
    EXPECT_FALSE(traceSnapshot().events.empty());
    const MetricsSnapshot metrics = MetricsRegistry::global().snapshot();
    EXPECT_GT(metrics.counterValue("sta.analyze.calls"), 0u);
  }

  // Exact numeric identity, field by field: observability may never change
  // any artifact.
  EXPECT_EQ(on.synthesis.timingMet, off.synthesis.timingMet);
  EXPECT_EQ(on.synthesis.legal, off.synthesis.legal);
  EXPECT_EQ(on.synthesis.worstSlack, off.synthesis.worstSlack);
  EXPECT_EQ(on.synthesis.tns, off.synthesis.tns);
  EXPECT_EQ(on.synthesis.area, off.synthesis.area);
  EXPECT_EQ(on.synthesis.design.gateCount(), off.synthesis.design.gateCount());
  EXPECT_EQ(on.design.sigma, off.design.sigma);
  ASSERT_EQ(on.paths.size(), off.paths.size());
  for (std::size_t i = 0; i < on.paths.size(); ++i) {
    EXPECT_EQ(on.paths[i].endpoint, off.paths[i].endpoint);
    EXPECT_EQ(on.paths[i].depth, off.paths[i].depth);
    EXPECT_EQ(on.paths[i].mean, off.paths[i].mean);
    EXPECT_EQ(on.paths[i].sigma, off.paths[i].sigma);
    EXPECT_EQ(on.paths[i].arrival, off.paths[i].arrival);
    EXPECT_EQ(on.paths[i].slack, off.paths[i].slack);
  }
}

}  // namespace
}  // namespace sct::obs

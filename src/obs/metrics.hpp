#pragma once
// Process-wide metrics registry (DESIGN.md §12). Instruments come in three
// shapes — monotonic counters, last-value gauges, and fixed-bucket
// histograms — all updated with lock-free atomics on the hot path and
// gated behind one relaxed atomic flag, so a disabled registry costs one
// predictable branch per update. Reads are snapshot-on-read: snapshot()
// copies every instrument under the registration mutex into a plain value
// struct sorted by name, and writeMetricsJson() renders that snapshot as
// one deterministic JSON document (fixed key order, %.17g doubles).
//
// Registration (counter()/gauge()/histogram()) takes a mutex and returns a
// reference that stays valid for the process lifetime; hot call sites
// register once (function-local static) and then only touch atomics.
// Metrics may never change results: instruments are write-only state that
// nothing in the flow reads back.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sct::obs {

namespace detail {
extern std::atomic<bool> g_metrics;
}  // namespace detail

/// Hot-path check, inlined in every instrument update.
[[nodiscard]] inline bool metricsEnabled() noexcept {
  return detail::g_metrics.load(std::memory_order_relaxed);
}
void setMetricsEnabled(bool on) noexcept;

/// Monotonic event count (hits, tasks, bytes, nanoseconds, ...).
class Counter {
 public:
  void add(std::uint64_t n) noexcept {
    if (metricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (convergence estimates, configuration echoes, ...).
/// set() records even while metrics are disabled: gauges are written from
/// cold paths that already decided to expose the value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i], with
/// one implicit overflow bucket above the last bound. Bounds are fixed at
/// registration; counts/sum are atomics (C++20 atomic<double>::fetch_add).
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double x) noexcept {
    if (!metricsEnabled()) return;
    std::size_t i = 0;
    while (i < bounds_.size() && x > bounds_[i]) ++i;
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(x, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket counts; the final entry is the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Plain-value copy of the registry, sorted by name within each kind.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Counter value by exact name; 0 when absent (convenience for tests and
  /// report tables).
  [[nodiscard]] std::uint64_t counterValue(std::string_view name) const;
  [[nodiscard]] bool hasCounter(std::string_view name) const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every instrumented call site uses.
  [[nodiscard]] static MetricsRegistry& global();

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name; the reference stays valid for the registry's
  /// lifetime. Registering the same name with a different kind (or a
  /// histogram with different bounds) throws std::logic_error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every counter and histogram (gauges keep their last value).
  /// Test/bench helper; instruments stay registered.
  void resetValues() noexcept;

 private:
  struct Impl;
  Impl* impl_;
};

/// Renders a snapshot as one deterministic JSON document.
void writeMetricsJson(std::ostream& out, const MetricsSnapshot& snapshot);

/// Writes `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// other control bytes as \u00XX (the metrics and trace exporters).
void writeJsonString(std::ostream& out, std::string_view s);

}  // namespace sct::obs

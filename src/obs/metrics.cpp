#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "core/fmt17.hpp"
#include "core/sync.hpp"

namespace sct::obs {

namespace detail {
std::atomic<bool> g_metrics{false};
}  // namespace detail

void setMetricsEnabled(bool on) noexcept {
  detail::g_metrics.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()), counts_(bounds.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::logic_error("histogram bounds must be sorted");
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::counterValue(std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

bool MetricsSnapshot::hasCounter(std::string_view name) const {
  return std::any_of(counters.begin(), counters.end(),
                     [&](const CounterValue& c) { return c.name == name; });
}

// std::map keys give snapshot() its sorted-by-name order for free;
// unique_ptr values keep instrument addresses stable across rehash-free
// inserts (references handed to call sites must never move).
struct MetricsRegistry::Impl {
  // Registration-only mutex (DESIGN.md §16): the hot path updates the
  // instruments' own atomics lock-free; this leaf lock serializes the
  // find-or-create maps and snapshot(). Instrument *pointees* are published
  // once under the lock and immutable afterwards, so handing out plain
  // references is safe.
  mutable sct::Mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      SCT_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
      SCT_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      SCT_GUARDED_BY(mutex);
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry;  // never destroyed:
  // instrumented worker threads may outlive main()'s static teardown.
  return *instance;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const sct::LockGuard lock(impl_->mutex);
  const auto it = impl_->counters.find(name);
  if (it != impl_->counters.end()) return *it->second;
  if (impl_->gauges.contains(name) || impl_->histograms.contains(name)) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' already registered with a different kind");
  }
  return *impl_->counters.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const sct::LockGuard lock(impl_->mutex);
  const auto it = impl_->gauges.find(name);
  if (it != impl_->gauges.end()) return *it->second;
  if (impl_->counters.contains(name) || impl_->histograms.contains(name)) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' already registered with a different kind");
  }
  return *impl_->gauges.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  const sct::LockGuard lock(impl_->mutex);
  const auto it = impl_->histograms.find(name);
  if (it != impl_->histograms.end()) {
    const std::vector<double>& have = it->second->bounds();
    if (!std::equal(have.begin(), have.end(), bounds.begin(), bounds.end())) {
      throw std::logic_error("histogram '" + std::string(name) +
                             "' re-registered with different bounds");
    }
    return *it->second;
  }
  if (impl_->counters.contains(name) || impl_->gauges.contains(name)) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' already registered with a different kind");
  }
  return *impl_->histograms
              .emplace(std::string(name), std::make_unique<Histogram>(bounds))
              .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const sct::LockGuard lock(impl_->mutex);
  out.counters.reserve(impl_->counters.size());
  for (const auto& [name, counter] : impl_->counters) {
    out.counters.push_back({name, counter->value()});
  }
  out.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges) {
    out.gauges.push_back({name, gauge->value()});
  }
  out.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, histogram] : impl_->histograms) {
    MetricsSnapshot::HistogramValue v;
    v.name = name;
    v.bounds = histogram->bounds();
    v.counts = histogram->counts();
    v.count = histogram->count();
    v.sum = histogram->sum();
    out.histograms.push_back(std::move(v));
  }
  return out;
}

void MetricsRegistry::resetValues() noexcept {
  const sct::LockGuard lock(impl_->mutex);
  for (const auto& [name, counter] : impl_->counters) counter->reset();
  for (const auto& [name, histogram] : impl_->histograms) histogram->reset();
}

void writeJsonString(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
          << "0123456789abcdef"[c & 0xf];
    } else {
      out << c;
    }
  }
  out << '"';
}

namespace {

/// Round-trippable double rendering, matching the text serializers' %.17g
/// canonical precision. JSON needs a fraction or exponent for non-integral
/// readers, but %.17g already emits integers bare — fine for JSON numbers.
void writeDouble(std::ostream& out, double v) { out << core::fmt17(v); }

}  // namespace

void writeMetricsJson(std::ostream& out, const MetricsSnapshot& snapshot) {
  out << "{\n  \"schema\": \"sct-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const MetricsSnapshot::CounterValue& c : snapshot.counters) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    writeJsonString(out, c.name);
    out << ": " << c.value;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const MetricsSnapshot::GaugeValue& g : snapshot.gauges) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    writeJsonString(out, g.name);
    out << ": ";
    writeDouble(out, g.value);
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const MetricsSnapshot::HistogramValue& h : snapshot.histograms) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    writeJsonString(out, h.name);
    out << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i != 0) out << ", ";
      writeDouble(out, h.bounds[i]);
    }
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) out << ", ";
      out << h.counts[i];
    }
    out << "], \"count\": " << h.count << ", \"sum\": ";
    writeDouble(out, h.sum);
    out << "}";
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace sct::obs

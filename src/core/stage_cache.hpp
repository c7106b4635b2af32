#pragma once
// Consult-then-compute wrapper shared by every cache-keyed pipeline stage
// (DESIGN.md §10/§14): the flow's characterize/stat/tune/synth stages and
// the post-silicon scenario runner all funnel through cachedStage so a
// validated hit — from the in-memory tier first, then the on-disk store —
// short-circuits the computation, misses coalesce through one process-wide
// single-flight group, and published bytes serve warm runs bit-identically.

#include <memory>
#include <optional>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/hash.hpp"
#include "artifact/mem_cache.hpp"
#include "artifact/single_flight.hpp"
#include "artifact/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sct::core {

/// Wall time of one flow stage for the CLI's stage table (a no-op while
/// metrics are off). Adds the stage's elapsed nanoseconds to `<stage>.ns`,
/// and the same amount to `<parent>.nested_ns` of the stage it runs inside
/// on this thread, so self time is `ns - nested_ns`. A stage running on a
/// pool worker has no parent.
class StageTimer {
 public:
  /// `stage` (e.g. "flow.stage.tune") must outlive the timer.
  explicit StageTimer(const char* stage) {
    if (!obs::metricsEnabled()) return;
    stage_ = stage;
    parent_ = std::exchange(top(), this);
    start_ = obs::monotonicNanos();
  }
  ~StageTimer() {
    if (stage_ == nullptr) return;
    const std::uint64_t elapsed = obs::monotonicNanos() - start_;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.counter(std::string(stage_) + ".ns").add(elapsed);
    if (parent_ != nullptr) {
      registry.counter(std::string(parent_->stage_) + ".nested_ns")
          .add(elapsed);
    }
    top() = parent_;
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  static StageTimer*& top() {
    static thread_local StageTimer* innermost = nullptr;
    return innermost;
  }
  const char* stage_ = nullptr;
  StageTimer* parent_ = nullptr;
  std::uint64_t start_ = 0;
};

/// Process-wide single-flight group over stage digests (DESIGN.md §14):
/// concurrent flows sharing cache tiers (the daemon's sessions) coalesce
/// onto one computation per key instead of racing to recompute.
inline artifact::SingleFlight& stageSingleFlight() {
  static artifact::SingleFlight instance;
  return instance;
}

/// Consult-then-compute wrapper around one pipeline stage: a validated cache
/// hit — from the in-memory tier first, then the on-disk store — short-
/// circuits `compute`; a decode failure (checksums fine but the payload is
/// semantically unusable, e.g. a stale cell name) falls through to
/// recompute-and-republish, never to wrong data. A miss takes the per-key
/// single-flight lock: whoever acquires it first computes and publishes,
/// late arrivals re-probe under the lock and decode the freshly published
/// bytes instead of recomputing.
///
/// `stageName` must be a string literal (e.g. "flow.stage.nominal"): it names
/// the trace span and prefixes the per-stage instruments
/// `<stage>.{probes,hits,mem_hits,misses,stores}` and the StageTimer's
/// `<stage>.{ns,nested_ns}` that the CLI's per-stage table reads back out
/// of the metrics snapshot.
template <class T, class ComputeFn, class EncodeFn, class DecodeFn>
T cachedStage(artifact::ArtifactStore* store, artifact::MemoryArtifactCache* mem,
              const char* stageName, const artifact::Digest& key,
              ComputeFn&& compute, EncodeFn&& encode, DecodeFn&& decode) {
  obs::TraceSpan span(stageName);
  const StageTimer timer(stageName);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string prefix(stageName);
  const auto probe = [&]() -> std::optional<T> {
    if (mem != nullptr) {
      if (std::shared_ptr<const artifact::SctbReader> reader = mem->get(key)) {
        try {
          T value = decode(*reader);
          registry.counter(prefix + ".hits").inc();
          registry.counter(prefix + ".mem_hits").inc();
          return value;
        } catch (const artifact::FormatError&) {
          mem->erase(key);  // unusable for these inputs: recompute below
        }
      }
    }
    if (store != nullptr) {
      if (std::optional<artifact::SctbReader> reader = store->open(key)) {
        try {
          T value = decode(*reader);
          if (mem != nullptr) {
            mem->put(key, std::make_shared<const artifact::SctbReader>(
                              std::move(*reader)));
          }
          registry.counter(prefix + ".hits").inc();
          return value;
        } catch (const artifact::FormatError&) {
        }
      }
    }
    return std::nullopt;
  };

  if (store == nullptr && mem == nullptr) return compute();

  registry.counter(prefix + ".probes").inc();
  if (std::optional<T> value = probe()) return std::move(*value);
  // lock() without a deadline always yields a guard.
  const std::optional<artifact::SingleFlight::Guard> guard =
      stageSingleFlight().lock(key);
  if (guard->waited()) {
    // Another thread was computing this key; its publication should now be
    // visible. When it failed (no publication), we inherit leadership.
    if (std::optional<T> value = probe()) {
      registry.counter("flow.singleflight.coalesced").inc();
      return std::move(*value);
    }
  }
  registry.counter(prefix + ".misses").inc();
  registry.counter("flow.singleflight.leader").inc();
  T value = compute();
  artifact::SctbWriter writer;
  encode(writer, value);
  const std::vector<std::byte> bytes = writer.finish();
  if (store != nullptr) store->publishBytes(key, bytes);
  if (mem != nullptr) {
    mem->put(key, std::make_shared<const artifact::SctbReader>(
                      artifact::SctbReader::fromBytes(bytes)));
  }
  registry.counter(prefix + ".stores").inc();
  return value;
}

}  // namespace sct::core

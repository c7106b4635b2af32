#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <ostream>

#include "core/sync.hpp"
#include "obs/metrics.hpp"

namespace sct::obs {

namespace {

/// Per-thread span storage. Owned by the global registry (not the thread),
/// so snapshots keep working after the thread exits; only the owning thread
/// appends, everyone else reads under `mutex`.
struct ThreadBuffer {
  sct::Mutex mutex;
  /// capacity kTraceRingCapacity, append-grow
  std::vector<TraceEvent> ring SCT_GUARDED_BY(mutex);
  /// overwrite cursor once the ring is full
  std::size_t head SCT_GUARDED_BY(mutex) = 0;
  /// events overwritten so far
  std::uint64_t dropped SCT_GUARDED_BY(mutex) = 0;
  /// Immutable after registration (written once before the buffer is
  /// published into the registry), so reads need no lock.
  std::uint32_t tid = 0;
  /// Current nesting depth: owner-thread-only by construction — enter/exit
  /// run on the owning thread, never concurrently — so it is deliberately
  /// unguarded (DESIGN.md §16).
  std::uint32_t depth = 0;
};

struct TraceRegistry {
  // Lock order (DESIGN.md §16): registry mutex, then a buffer's mutex.
  // Only snapshot/clear take both; the hot path takes the buffer lock only.
  sct::Mutex mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers SCT_GUARDED_BY(mutex);
};

TraceRegistry& registry() {
  static TraceRegistry* instance = new TraceRegistry;  // never destroyed:
  // worker threads may record during static teardown of the main thread.
  return *instance;
}

ThreadBuffer& threadBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    TraceRegistry& reg = registry();
    const sct::LockGuard lock(reg.mutex);
    raw->tid = static_cast<std::uint32_t>(reg.buffers.size());
    reg.buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

std::chrono::steady_clock::time_point traceEpoch() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

namespace detail {

std::atomic<bool> g_tracing{false};

std::uint64_t nowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - traceEpoch())
          .count());
}

std::uint32_t enterSpan() noexcept { return threadBuffer().depth++; }

void exitSpan(const char* name, std::uint64_t startNs,
              std::uint32_t depth) noexcept {
  const std::uint64_t endNs = nowNs();
  ThreadBuffer& buffer = threadBuffer();
  buffer.depth = depth;  // LIFO close of the matching enterSpan()
  TraceEvent event;
  event.name = name;
  event.startNs = startNs;
  event.durNs = endNs >= startNs ? endNs - startNs : 0;
  event.tid = buffer.tid;
  event.depth = depth;
  const sct::LockGuard lock(buffer.mutex);
  if (buffer.ring.size() < kTraceRingCapacity) {
    buffer.ring.push_back(event);
  } else {
    buffer.ring[buffer.head] = event;
    buffer.head = (buffer.head + 1) % kTraceRingCapacity;
    ++buffer.dropped;
  }
}

}  // namespace detail

void setTracingEnabled(bool on) noexcept {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

TraceSnapshot traceSnapshot() {
  TraceSnapshot out;
  TraceRegistry& reg = registry();
  const sct::LockGuard regLock(reg.mutex);
  for (const std::unique_ptr<ThreadBuffer>& buffer : reg.buffers) {
    const sct::LockGuard lock(buffer->mutex);
    // Ring order: [head, end) is the oldest segment once wrapped.
    for (std::size_t i = buffer->head; i < buffer->ring.size(); ++i) {
      out.events.push_back(buffer->ring[i]);
    }
    for (std::size_t i = 0; i < buffer->head; ++i) {
      out.events.push_back(buffer->ring[i]);
    }
    out.dropped += buffer->dropped;
  }
  // Deterministic export order; parents sort before their children because
  // a child opens later (same-start ties resolved by depth).
  std::sort(out.events.begin(), out.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              return a.depth < b.depth;
            });
  return out;
}

void clearTrace() noexcept {
  TraceRegistry& reg = registry();
  const sct::LockGuard regLock(reg.mutex);
  for (const std::unique_ptr<ThreadBuffer>& buffer : reg.buffers) {
    const sct::LockGuard lock(buffer->mutex);
    buffer->ring.clear();
    buffer->head = 0;
    buffer->dropped = 0;
  }
}

namespace {

/// Chrome trace timestamps are microseconds; emit ns-precision decimals
/// without float formatting so output is locale- and libc-independent.
void writeMicros(std::ostream& out, std::uint64_t ns) {
  out << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
      << static_cast<char>('0' + (ns / 10) % 10)
      << static_cast<char>('0' + ns % 10);
}

}  // namespace

void writeChromeTrace(std::ostream& out, const TraceSnapshot& snapshot) {
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedEvents\":"
      << snapshot.dropped << "},\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : snapshot.events) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":";
    writeJsonString(out, event.name);
    out << ",\"cat\":\"sct\",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
        << ",\"ts\":";
    writeMicros(out, event.startNs);
    out << ",\"dur\":";
    writeMicros(out, event.durNs);
    out << ",\"args\":{\"depth\":" << event.depth << "}}";
  }
  out << "\n]}\n";
}

}  // namespace sct::obs

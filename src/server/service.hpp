#pragma once
// Request execution behind the sctuned daemon (DESIGN.md §14): one
// TuningService instance is shared by every session. It owns the shared
// cache tiers —
//
//   response cache   memory-resident, keyed by the digest of the request's
//                    semantic fields (deadline excluded); a hit hands the
//                    session the stored response container itself, whose
//                    bytes go to the socket unchanged
//   stage caches     the on-disk ArtifactStore plus the in-memory tier,
//                    injected into each request's TuningFlow, so different
//                    requests still share characterization/stat/tune/synth
//                    stage artifacts
//
// and a request-level SingleFlight: K concurrent identical requests compute
// once — one leader runs the flow, the waiters block on the key and then
// serve the leader's published response. Responses are a pure function of
// the request, so cached, coalesced and freshly computed responses are all
// byte-identical.
//
// Thread-safety: respond() may be called from any number of session threads
// concurrently. The caches and single-flight table are internally locked;
// flow stages additionally dedup through the flow's own stage-level
// single-flight.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "artifact/mem_cache.hpp"
#include "artifact/single_flight.hpp"
#include "artifact/store.hpp"
#include "server/protocol.hpp"

namespace sct::server {

struct ServiceConfig {
  /// Root of the shared on-disk artifact store; empty = no disk tier (the
  /// in-memory tiers still work).
  std::string cacheDir;
  /// Byte budget of the shared in-memory cache (responses + stage
  /// artifacts; both live in one LRU so hot responses can evict cold stage
  /// artifacts and vice versa). 0 disables memory caching entirely.
  std::uint64_t memCacheBytes = 256ull << 20;
};

class TuningService {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TuningService(const ServiceConfig& config);
  ~TuningService();
  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// An encoded response: the parsed SCTB container whose rawBytes() are
  /// the frame payload. Cached responses are shared with the response cache.
  using Encoded = std::shared_ptr<const artifact::SctbReader>;

  /// Executes one request and returns its encoded response; `received` is
  /// the base of the request's deadline — the accept time for a session's
  /// first request (so time spent in the admission queue counts against
  /// it), the frame parse time for later requests on the same connection.
  /// A deadline rejects requests still waiting — in the admission queue or
  /// blocked behind an identical in-flight computation — when it expires;
  /// it does not preempt compute that already started. Never throws: every
  /// failure becomes a Status::kError response. A response-cache hit
  /// returns the cached container itself, so it is encoded zero times; any
  /// other response is encoded exactly once.
  [[nodiscard]] Encoded respond(MessageType type,
                                std::span<const std::byte> payload,
                                Clock::time_point received);

  /// respond(), decoded: a flow shim kept for the benchmark (DESIGN.md
  /// §14), not a second code path.
  [[nodiscard]] Response handle(MessageType type,
                                std::span<const std::byte> payload,
                                Clock::time_point received);

  /// Pre-encoded response bytes for the fast paths (busy rejection at the
  /// accept gate must not allocate much or block on caches).
  [[nodiscard]] static std::span<const std::byte> busyResponseBytes();
  [[nodiscard]] static std::span<const std::byte> shuttingDownResponseBytes();

  [[nodiscard]] artifact::MemoryArtifactCache& memCache() noexcept {
    return mem_;
  }
  [[nodiscard]] artifact::ArtifactStore* store() noexcept {
    return store_.get();
  }

  /// The health body: sct-metrics-v1 JSON of the global metrics snapshot
  /// (cache tier gauges refreshed first).
  [[nodiscard]] std::string healthJson();

 private:
  /// The one encode of a response: its SCTB container, parsed once (the
  /// parse verifies the checksum the client will check again).
  [[nodiscard]] static Encoded encode(const Response& response);

  /// An encoded response and its status (the status picks the
  /// server.responses.* counter without decoding the bytes again).
  struct Reply {
    Status status = Status::kError;
    Encoded bytes;
  };
  [[nodiscard]] static Reply reply(const Response& response);

  /// Decodes, deadline-checks, digests and runs one job-table request
  /// (server/jobs.hpp) under the `server.<kind>` span and the response
  /// cache.
  template <class Kind>
  Reply handleJob(std::span<const std::byte> payload,
                  Clock::time_point received);
  Reply handlePing(const PingRequest& request, Clock::time_point received);

  /// Shared cache + single-flight harness around one cacheable request:
  /// probe by digest, elect a leader, compute, publish, re-serve. A hit or
  /// a coalesced waiter gets the cached container unchanged; the leader
  /// encodes once and publishes the container it returns. A waiter whose
  /// `deadline` passes while blocked behind the leader answers kTimeout
  /// instead of computing.
  Reply cachedResponse(const artifact::Digest& key,
                       Clock::time_point deadline,
                       const std::function<Response()>& compute);

  /// True when a nonzero deadline measured from `received` already passed.
  [[nodiscard]] static bool deadlineExpired(std::uint64_t deadlineMillis,
                                            Clock::time_point received);

  /// Absolute deadline for `flights_.lock`; max() when deadlineMillis is 0.
  [[nodiscard]] static Clock::time_point deadlinePoint(
      std::uint64_t deadlineMillis, Clock::time_point received);

  std::unique_ptr<artifact::ArtifactStore> store_;  ///< null when no disk tier
  artifact::MemoryArtifactCache mem_;
  artifact::SingleFlight flights_;
};

}  // namespace sct::server

#include "server/service.hpp"

#include <exception>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/jobs.hpp"

namespace sct::server {
namespace {

/// Find-or-create is mutex-guarded inside the registry, but resolving the
/// instruments once keeps the per-request path to pure atomic increments.
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& responsesOk;
  obs::Counter& responsesError;
  obs::Counter& responsesTimeout;
  obs::Counter& cacheHits;
  obs::Counter& cacheMisses;
  obs::Counter& singleflightLeader;
  obs::Counter& singleflightCoalesced;

  static ServiceMetrics& get() {
    static ServiceMetrics m{
        obs::MetricsRegistry::global().counter("server.requests"),
        obs::MetricsRegistry::global().counter("server.responses.ok"),
        obs::MetricsRegistry::global().counter("server.responses.error"),
        obs::MetricsRegistry::global().counter("server.responses.timeout"),
        obs::MetricsRegistry::global().counter("server.cache.hits"),
        obs::MetricsRegistry::global().counter("server.cache.misses"),
        obs::MetricsRegistry::global().counter("server.singleflight.leader"),
        obs::MetricsRegistry::global().counter(
            "server.singleflight.coalesced"),
    };
    return m;
  }
};

Response makeResponse(Status status, std::string summary,
                      std::string body = {}) {
  Response r;
  r.status = status;
  r.summary = std::move(summary);
  r.body = std::move(body);
  return r;
}

}  // namespace

TuningService::TuningService(const ServiceConfig& config)
    : mem_(config.memCacheBytes) {
  if (!config.cacheDir.empty()) {
    store_ = std::make_unique<artifact::ArtifactStore>(config.cacheDir);
  }
}

TuningService::~TuningService() = default;

TuningService::Encoded TuningService::encode(const Response& response) {
  return std::make_shared<const artifact::SctbReader>(
      artifact::SctbReader::fromBytes(encodePayload(response)));
}

TuningService::Reply TuningService::reply(const Response& response) {
  return {response.status, encode(response)};
}

std::span<const std::byte> TuningService::busyResponseBytes() {
  static const Encoded bytes =
      encode(makeResponse(Status::kBusy, "server at capacity, retry later"));
  return bytes->rawBytes();
}

std::span<const std::byte> TuningService::shuttingDownResponseBytes() {
  static const Encoded bytes =
      encode(makeResponse(Status::kShuttingDown, "server is shutting down"));
  return bytes->rawBytes();
}

bool TuningService::deadlineExpired(std::uint64_t deadlineMillis,
                                    Clock::time_point received) {
  if (deadlineMillis == 0) return false;
  return Clock::now() >= received + std::chrono::milliseconds(deadlineMillis);
}

TuningService::Clock::time_point TuningService::deadlinePoint(
    std::uint64_t deadlineMillis, Clock::time_point received) {
  if (deadlineMillis == 0) return Clock::time_point::max();
  return received + std::chrono::milliseconds(deadlineMillis);
}

TuningService::Encoded TuningService::respond(
    MessageType type, std::span<const std::byte> payload,
    Clock::time_point received) {
  ServiceMetrics::get().requests.inc();
  Reply out;
  try {
    switch (type) {
      case MessageType::kPingRequest:
        out = handlePing(decodePayload<PingRequest>(payload), received);
        break;
      case MessageType::kHealthRequest:
        out = reply(makeResponse(Status::kOk, "ok", healthJson()));
        break;
      case MessageType::kShutdownRequest:
        // The server layer watches for this type and begins draining; the
        // service only acknowledges.
        out = reply(makeResponse(Status::kOk, "shutting down"));
        break;
      default: {
        const bool isJob = anyKind([&]<class Kind>(std::type_identity<Kind>) {
          if (Kind::kType != type) return false;
          out = handleJob<Kind>(payload, received);
          return true;
        });
        if (!isJob) {
          out = reply(makeResponse(Status::kError, "not a request type"));
        }
        break;
      }
    }
  } catch (const std::exception& e) {
    out = reply(makeResponse(Status::kError, e.what()));
  } catch (...) {
    out = reply(makeResponse(Status::kError, "unknown error"));
  }
  switch (out.status) {
    case Status::kOk:
      ServiceMetrics::get().responsesOk.inc();
      break;
    case Status::kTimeout:
      ServiceMetrics::get().responsesTimeout.inc();
      break;
    default:
      ServiceMetrics::get().responsesError.inc();
      break;
  }
  return std::move(out.bytes);
}

Response TuningService::handle(MessageType type,
                               std::span<const std::byte> payload,
                               Clock::time_point received) {
  return decodePayload<Response>(respond(type, payload, received)->rawBytes());
}

TuningService::Reply TuningService::cachedResponse(
    const artifact::Digest& key, Clock::time_point deadline,
    const std::function<Response()>& compute) {
  // Only kOk responses are published, so a hit is a kOk reply.
  const auto probe = [&]() -> Encoded {
    Encoded hit = mem_.get(key);
    if (hit) ServiceMetrics::get().cacheHits.inc();
    return hit;
  };

  if (Encoded hit = probe()) return {Status::kOk, std::move(hit)};
  ServiceMetrics::get().cacheMisses.inc();

  // Exactly one session computes a given key at a time; the others block
  // here and then serve the leader's published container. A leader that
  // failed (kError response, not cached) hands leadership to the next
  // waiter.
  auto guard = flights_.lock(key, deadline);
  if (!guard) {
    return reply(makeResponse(
        Status::kTimeout,
        "deadline expired waiting for an identical in-flight request"));
  }
  if (guard->waited()) {
    ServiceMetrics::get().singleflightCoalesced.inc();
    if (Encoded hit = probe()) return {Status::kOk, std::move(hit)};
  }
  ServiceMetrics::get().singleflightLeader.inc();

  // Encode once and publish the very container this session sends, so
  // cached and fresh responses are the same bytes.
  Reply out = reply(compute());
  if (out.status == Status::kOk) mem_.put(key, out.bytes);
  return out;
}

template <class Kind>
TuningService::Reply TuningService::handleJob(
    std::span<const std::byte> payload, Clock::time_point received) {
  static const std::string span = std::string("server.") + Kind::kName;
  SCT_TRACE_SPAN(span.c_str());
  const JobRequest<Kind> request = decodePayload<JobRequest<Kind>>(payload);
  if (deadlineExpired(request.deadlineMillis, received)) {
    return reply(makeResponse(Status::kTimeout,
                              "deadline expired before compute started"));
  }
  return cachedResponse(requestDigest<Kind>(request.job),
                        deadlinePoint(request.deadlineMillis, received), [&] {
    JobResult result = Kind::run(request.job, JobContext{store_.get(), &mem_});
    Response r = makeResponse(Status::kOk, std::move(result.summary),
                              std::move(result.body));
    r.exitCode = static_cast<std::uint8_t>(result.exitCode);
    return r;
  });
}

TuningService::Reply TuningService::handlePing(const PingRequest& request,
                                               Clock::time_point received) {
  if (deadlineExpired(request.deadlineMillis, received)) {
    return reply(makeResponse(Status::kTimeout,
                              "deadline expired before compute started"));
  }
  if (request.sleepMillis > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(request.sleepMillis));
  }
  return reply(makeResponse(Status::kOk, "pong", request.echo));
}

std::string TuningService::healthJson() {
  // Refresh the cache-tier gauges so the snapshot carries current sizes
  // (counters stream in continuously; sizes are sampled here).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const artifact::MemCacheStats mem = mem_.stats();
  registry.gauge("server.memcache.bytes").set(static_cast<double>(mem.bytes));
  registry.gauge("server.memcache.entries")
      .set(static_cast<double>(mem.entries));
  registry.gauge("server.memcache.capacity")
      .set(static_cast<double>(mem.capacity));
  // Lifetime traffic counters of the shared tier: hit ratio and eviction
  // pressure are the two numbers that justify (or resize) the byte budget.
  registry.gauge("server.memcache.hits").set(static_cast<double>(mem.hits));
  registry.gauge("server.memcache.misses")
      .set(static_cast<double>(mem.misses));
  registry.gauge("server.memcache.insertions")
      .set(static_cast<double>(mem.insertions));
  registry.gauge("server.memcache.evictions")
      .set(static_cast<double>(mem.evictions));
  std::ostringstream out;
  obs::writeMetricsJson(out, registry.snapshot());
  return out.str();
}

}  // namespace sct::server

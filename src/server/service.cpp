#include "server/service.hpp"

#include <exception>
#include <optional>
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

Response errorResponse(const std::string& message) {
  Response r;
  r.status = Status::kError;
  r.summary = message;
  return r;
}

Response timeoutResponse(const char* what) {
  Response r;
  r.status = Status::kTimeout;
  r.summary = what;
  return r;
}

std::vector<std::byte> encodeStatic(Status status, const char* summary) {
  Response r;
  r.status = status;
  r.summary = summary;
  return encodePayload(r);
}

}  // namespace

TuningService::TuningService(const ServiceConfig& config)
    : mem_(config.memCacheBytes) {
  if (!config.cacheDir.empty()) {
    store_ = std::make_unique<artifact::ArtifactStore>(config.cacheDir);
  }
}

TuningService::~TuningService() = default;

std::span<const std::byte> TuningService::busyResponseBytes() {
  static const std::vector<std::byte> bytes =
      encodeStatic(Status::kBusy, "server at capacity, retry later");
  return bytes;
}

std::span<const std::byte> TuningService::shuttingDownResponseBytes() {
  static const std::vector<std::byte> bytes =
      encodeStatic(Status::kShuttingDown, "server is shutting down");
  return bytes;
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

Response TuningService::handle(MessageType type,
                               std::span<const std::byte> payload,
                               Clock::time_point received) {
  ServiceMetrics::get().requests.inc();
  Response response;
  try {
    switch (type) {
      case MessageType::kPingRequest:
        response = handlePing(decodePayload<PingRequest>(payload), received);
        break;
      case MessageType::kHealthRequest:
        response.status = Status::kOk;
        response.summary = "ok";
        response.body = healthJson();
        break;
      case MessageType::kShutdownRequest:
        // The server layer watches for this type and begins draining; the
        // service only acknowledges.
        response.status = Status::kOk;
        response.summary = "shutting down";
        break;
      default: {
        const bool isJob = anyKind([&]<class Kind>(std::type_identity<Kind>) {
          if (Kind::kType != type) return false;
          response = handleJob<Kind>(payload, received);
          return true;
        });
        if (!isJob) response = errorResponse("not a request type");
        break;
      }
    }
  } catch (const std::exception& e) {
    response = errorResponse(e.what());
  } catch (...) {
    response = errorResponse("unknown error");
  }
  switch (response.status) {
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
  return response;
}

Response TuningService::cachedResponse(
    const artifact::Digest& key, Clock::time_point deadline,
    const std::function<Response()>& compute) {
  const auto probe = [&]() -> std::optional<Response> {
    if (const auto reader = mem_.get(key)) {
      ServiceMetrics::get().cacheHits.inc();
      return decodePayload<Response>(reader->rawBytes());
    }
    return std::nullopt;
  };

  if (auto hit = probe()) return *hit;
  ServiceMetrics::get().cacheMisses.inc();

  // Exactly one session computes a given key at a time; the others block
  // here and then serve the leader's published bytes. A leader that failed
  // (kError response, not cached) hands leadership to the next waiter.
  auto guard = flights_.lock(key, deadline);
  if (!guard) {
    return timeoutResponse(
        "deadline expired waiting for an identical in-flight request");
  }
  if (guard->waited()) {
    ServiceMetrics::get().singleflightCoalesced.inc();
    if (auto hit = probe()) return *hit;
  }
  ServiceMetrics::get().singleflightLeader.inc();

  Response response = compute();
  if (response.status == Status::kOk) {
    // Publish the encoded bytes; later hits decode this exact container,
    // so cached and fresh responses are byte-identical.
    const std::vector<std::byte> bytes = encodePayload(response);
    mem_.put(key, std::make_shared<const artifact::SctbReader>(
                      artifact::SctbReader::fromBytes(bytes)));
  }
  return response;
}

template <class Kind>
Response TuningService::handleJob(std::span<const std::byte> payload,
                                  Clock::time_point received) {
  static const std::string span = std::string("server.") + Kind::kName;
  SCT_TRACE_SPAN(span.c_str());
  const JobRequest<Kind> request = decodePayload<JobRequest<Kind>>(payload);
  if (deadlineExpired(request.deadlineMillis, received)) {
    return timeoutResponse("deadline expired before compute started");
  }
  return cachedResponse(requestDigest<Kind>(request.job),
                        deadlinePoint(request.deadlineMillis, received), [&] {
    JobResult result = Kind::run(request.job, JobContext{store_.get(), &mem_});
    Response r;
    r.status = Status::kOk;
    r.exitCode = static_cast<std::uint8_t>(result.exitCode);
    r.summary = std::move(result.summary);
    r.body = std::move(result.body);
    return r;
  });
}

Response TuningService::handlePing(const PingRequest& request,
                                   Clock::time_point received) {
  if (deadlineExpired(request.deadlineMillis, received)) {
    return timeoutResponse("deadline expired before compute started");
  }
  if (request.sleepMillis > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(request.sleepMillis));
  }
  Response r;
  r.status = Status::kOk;
  r.summary = "pong";
  r.body = request.echo;
  return r;
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

// sctuned daemon tests (DESIGN.md §14): protocol framing (including the
// malformed-input fuzz cases), request execution, response caching,
// single-flight coalescing, admission control, deadlines and graceful
// drain. Servers run in-process on a Unix socket under the test temp dir.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/flow_job.hpp"
#include "evo/tuner.hpp"
#include "obs/metrics.hpp"
#include "postsi/scenario.hpp"
#include "server/client.hpp"
#include "server/jobs.hpp"
#include "server/server.hpp"

#include "field_visitors.hpp"

namespace sct {
namespace {

namespace fs = std::filesystem;
using server::Client;
using server::MessageType;
using server::Response;
using server::Status;
using testing_support::Mutate;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* stem)
      : path(fs::temp_directory_path() / stem) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// In-process daemon bound to a socket under `dir`.
struct TestServer {
  explicit TestServer(const TempDir& dir, std::size_t sessionThreads = 4,
                      std::size_t maxQueue = 16, bool tcp = false) {
    server::ServerConfig config;
    config.socketPath = (dir.path / "sctuned.sock").string();
    config.tcpEnable = tcp;
    config.sessionThreads = sessionThreads;
    config.maxQueuedSessions = maxQueue;
    config.service.cacheDir = (dir.path / "cache").string();
    config.service.memCacheBytes = 64ull << 20;
    instance = std::make_unique<server::Server>(config);
    instance->start();
    socketPath = config.socketPath;
  }
  ~TestServer() { instance->stop(); }

  [[nodiscard]] Client connect() const {
    return Client::connectUnix(socketPath);
  }

  std::unique_ptr<server::Server> instance;
  std::string socketPath;
};

server::FlowRequest smallFlow(double period = 8.0) {
  server::FlowRequest request;
  request.job.profile = "small";
  request.job.mcCount = 4;
  request.job.period = period;
  request.job.lintMode = "off";
  return request;
}

// ---- basics --------------------------------------------------------------

TEST(ServerTest, PingRoundTrip) {
  TempDir dir("sct_server_ping");
  TestServer srv(dir);
  Client client = srv.connect();
  server::PingRequest request;
  request.echo = "hello";
  const Response response = client.ping(request);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.summary, "pong");
  EXPECT_EQ(response.body, "hello");
}

TEST(ServerTest, TcpLoopbackRoundTrip) {
  TempDir dir("sct_server_tcp");
  TestServer srv(dir, 4, 16, /*tcp=*/true);
  ASSERT_NE(srv.instance->tcpPort(), 0);
  Client client = Client::connectTcp(srv.instance->tcpPort());
  server::PingRequest request;
  request.echo = "over tcp";
  const Response response = client.ping(request);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.body, "over tcp");
}

// One frame is one sendmsg and both ends set TCP_NODELAY, so a small
// request/response exchange never waits on Nagle + delayed ACK (~40 ms a
// round trip when header and payload went out as two writes).
TEST(ServerTest, TcpRoundTripDoesNotStall) {
  TempDir dir("sct_server_tcp_stall");
  TestServer srv(dir, 4, 16, /*tcp=*/true);
  Client client = Client::connectTcp(srv.instance->tcpPort());
  server::PingRequest request;
  request.echo = std::string(16, 'x');
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    const Response response = client.ping(request);
    ASSERT_EQ(response.status, Status::kOk);
    ASSERT_EQ(response.body, request.echo);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(400));
}

TEST(ServerTest, HealthReturnsMetricsJson) {
  TempDir dir("sct_server_health");
  TestServer srv(dir);
  Client client = srv.connect();
  const Response response = client.health();
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_NE(response.body.find("sct-metrics-v1"), std::string::npos);
}

TEST(ServerTest, PersistentConnectionHandlesManyRequests) {
  TempDir dir("sct_server_many");
  TestServer srv(dir);
  Client client = srv.connect();
  for (int i = 0; i < 20; ++i) {
    server::PingRequest request;
    request.echo = std::to_string(i);
    const Response response = client.ping(request);
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.body, std::to_string(i));
  }
}

// ---- flow execution and byte-identity ------------------------------------

TEST(ServerTest, FlowMatchesLocalRunByteForByte) {
  TempDir dir("sct_server_flow");
  TestServer srv(dir);
  const server::FlowRequest request = smallFlow();

  core::TuningFlow local(core::makeFlowConfig(request.job));
  const core::FlowJobResult expected = core::runFlowJob(local, request.job);

  Client client = srv.connect();
  const Response first = client.flow(request);
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.summary, expected.summary);
  EXPECT_EQ(first.body, expected.report);

  // Second call answers from the response cache — still byte-identical.
  const Response second = client.flow(request);
  EXPECT_EQ(second.body, expected.report);
}

TEST(ServerTest, ConcurrentIdenticalFlowsComputeOnce) {
  TempDir dir("sct_server_singleflight");
  TestServer srv(dir, /*sessionThreads=*/8);
  obs::setMetricsEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t leadersBefore =
      registry.snapshot().counterValue("server.singleflight.leader");

  constexpr int kClients = 8;
  const server::FlowRequest request = smallFlow(7.5);
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client = srv.connect();
      const Response response = client.flow(request);
      ASSERT_EQ(response.status, Status::kOk);
      bodies[static_cast<std::size_t>(i)] = response.body;
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(bodies[static_cast<std::size_t>(i)], bodies[0])
        << "response " << i << " differs";
  }
  EXPECT_FALSE(bodies[0].empty());

  // Exactly one session computed this request; everyone else either
  // coalesced on the single-flight key or hit the response cache.
  const std::uint64_t leadersAfter =
      registry.snapshot().counterValue("server.singleflight.leader");
  EXPECT_EQ(leadersAfter - leadersBefore, 1u);
  obs::setMetricsEnabled(false);
}

// ---- the response byte path ---------------------------------------------

/// Raw payload of the response frame answering one request frame.
std::vector<std::byte> rawResponse(Client& client, MessageType type,
                                   std::span<const std::byte> payload) {
  server::writeFrame(client.fd(), type, payload);
  std::optional<server::Frame> frame = server::readFrame(client.fd());
  if (!frame || frame->type != MessageType::kResponse) {
    ADD_FAILURE() << "no response frame";
    return {};
  }
  return std::move(frame->payload);
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().snapshot().counterValue(name);
}

TEST(ServerTest, MissHitAndCoalescedWaiterSendTheSameStoredBytes) {
  TempDir dir("sct_server_wire_bytes");
  TestServer srv(dir, /*sessionThreads=*/8);
  obs::setMetricsEnabled(true);
  server::FlowRequest request = smallFlow(9.0);
  request.job.mcCount = 32;  // a compute long enough for waiters to queue
  const std::vector<std::byte> payload = server::encodePayload(request);
  const std::uint64_t leadersBefore = counter("server.singleflight.leader");
  const std::uint64_t coalescedBefore =
      counter("server.singleflight.coalesced");

  // The leader misses and computes; once it holds the key, three more
  // identical requests arrive and wait on it.
  std::vector<std::vector<std::byte>> waiters(3);
  std::vector<std::byte> miss;
  std::thread leader([&] {
    Client client = srv.connect();
    miss = rawResponse(client, MessageType::kFlowRequest, payload);
  });
  while (counter("server.singleflight.leader") == leadersBefore) {
    std::this_thread::yield();
  }
  std::vector<std::thread> threads;
  for (std::vector<std::byte>& bytes : waiters) {
    threads.emplace_back([&] {
      Client client = srv.connect();
      bytes = rawResponse(client, MessageType::kFlowRequest, payload);
    });
  }
  leader.join();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter("server.singleflight.leader") - leadersBefore, 1u);
  EXPECT_GE(counter("server.singleflight.coalesced") - coalescedBefore, 1u);

  Client client = srv.connect();
  const std::vector<std::byte> hit =
      rawResponse(client, MessageType::kFlowRequest, payload);

  ASSERT_FALSE(miss.empty());
  const Response decoded = server::decodePayload<Response>(miss);
  EXPECT_EQ(decoded.status, Status::kOk);
  EXPECT_EQ(server::encodePayload(decoded), miss);
  EXPECT_EQ(hit, miss);
  for (const std::vector<std::byte>& bytes : waiters) EXPECT_EQ(bytes, miss);

  // A hit is the cached container object itself, and its bytes are the
  // ones on the wire: nothing decodes and re-encodes it on the way out.
  server::TuningService& service = srv.instance->service();
  const artifact::Digest key = server::requestDigest<server::FlowKind>(
      request.job);
  const server::TuningService::Encoded served = service.respond(
      MessageType::kFlowRequest, payload, server::TuningService::Clock::now());
  EXPECT_EQ(served.get(), service.memCache().get(key).get());
  const std::span<const std::byte> stored = served->rawBytes();
  EXPECT_TRUE(
      std::equal(stored.begin(), stored.end(), hit.begin(), hit.end()));

  // A miss publishes the very container it returns: encoded once.
  const server::FlowRequest fresh = smallFlow(9.25);
  const server::TuningService::Encoded computed =
      service.respond(MessageType::kFlowRequest, server::encodePayload(fresh),
                      server::TuningService::Clock::now());
  EXPECT_EQ(computed.get(),
            service.memCache()
                .get(server::requestDigest<server::FlowKind>(fresh.job))
                .get());
  obs::setMetricsEnabled(false);
}

// The server.* counting rule that perfbench, daemon_smoke.sh and
// bench_server read: per request, one server.requests and one
// server.responses.<status>; a miss also counts a cache miss and a leader,
// a hit only a cache hit, and a request refused before the cache (expired
// deadline, undecodable payload) touches no cache or single-flight counter.
TEST(ServerTest, ServerCountersFollowTheCountingRule) {
  TempDir dir("sct_server_counters");
  TestServer srv(dir);
  obs::setMetricsEnabled(true);
  static constexpr const char* kNames[] = {
      "server.requests",
      "server.cache.hits",
      "server.cache.misses",
      "server.singleflight.leader",
      "server.singleflight.coalesced",
      "server.responses.ok",
      "server.responses.error",
      "server.responses.timeout",
  };
  const auto deltas = [&](const auto& request) {
    std::vector<std::uint64_t> before;
    for (const char* name : kNames) before.push_back(counter(name));
    request();
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < before.size(); ++i) {
      out.push_back(counter(kNames[i]) - before[i]);
    }
    return out;
  };
  using Counts = std::vector<std::uint64_t>;
  Client client = srv.connect();
  const server::FlowRequest request = smallFlow(8.25);

  //                          req hit mis ldr coa ok err tmo
  EXPECT_EQ(deltas([&] { (void)client.flow(request); }),
            (Counts{1, 0, 1, 1, 0, 1, 0, 0}))
      << "miss";
  EXPECT_EQ(deltas([&] { (void)client.flow(request); }),
            (Counts{1, 1, 0, 0, 0, 1, 0, 0}))
      << "hit";
  server::FlowRequest late = smallFlow(8.75);
  late.deadlineMillis = 50;
  EXPECT_EQ(deltas([&] {
              const Response r = srv.instance->service().handle(
                  MessageType::kFlowRequest, server::encodePayload(late),
                  server::TuningService::Clock::now() -
                      std::chrono::seconds(1));
              EXPECT_EQ(r.status, Status::kTimeout);
            }),
            (Counts{1, 0, 0, 0, 0, 0, 0, 1}))
      << "expired deadline";
  const std::vector<std::byte> junk(64, std::byte{0x5A});
  EXPECT_EQ(deltas([&] {
              (void)client.call(MessageType::kFlowRequest, junk);
            }),
            (Counts{1, 0, 0, 0, 0, 0, 1, 0}))
      << "garbage payload";
  obs::setMetricsEnabled(false);
}

// ---- scenario matrix over the wire ---------------------------------------

server::JobRequest<server::ScenarioKind> smallScenario() {
  server::JobRequest<server::ScenarioKind> request;
  postsi::ScenarioJob& job = request.job.scenario;
  job.flow = smallFlow().job;
  job.flow.period = 0.0;  // scenario jobs carry periods explicitly
  job.periods = {8.0};
  job.scenarios = "tuning,clock";
  job.mcTrials = 16;
  return request;
}

TEST(ServerTest, ScenarioMatchesLocalRunByteForByte) {
  TempDir dir("sct_server_scenario");
  TestServer srv(dir);
  const server::JobRequest<server::ScenarioKind> request = smallScenario();

  const postsi::ScenarioJob& job = request.job.scenario;
  core::TuningFlow local(core::makeFlowConfig(job.flow));
  const postsi::ScenarioRunResult expected =
      postsi::runScenarioJob(local, job);

  Client client = srv.connect();
  const Response first = client.run(request);
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.summary, expected.summary);
  EXPECT_EQ(first.body, expected.report);

  // Second call answers from the response cache — still byte-identical —
  // and the JSON rendering differs only in format, not in content source.
  const Response second = client.run(request);
  EXPECT_EQ(second.body, expected.report);

  server::JobRequest<server::ScenarioKind> asJson = request;
  asJson.job.json = true;
  const Response jsonResponse = client.run(asJson);
  EXPECT_EQ(jsonResponse.status, Status::kOk);
  EXPECT_EQ(jsonResponse.body, expected.json);
}

// ---- evolve over the wire ------------------------------------------------

server::JobRequest<server::EvolveKind> smallEvolve() {
  server::JobRequest<server::EvolveKind> request;
  request.job.evolve.flow = smallFlow(4.0).job;
  request.job.evolve.params.population = 4;
  request.job.evolve.params.generations = 1;
  return request;
}

TEST(ServerTest, EvolveMatchesLocalRunByteForByte) {
  TempDir dir("sct_server_evolve");
  TestServer srv(dir);
  const server::JobRequest<server::EvolveKind> request = smallEvolve();

  const evo::EvolveJob& job = request.job.evolve;
  core::TuningFlow local(core::makeFlowConfig(job.flow));
  const evo::EvolveRunResult expected = evo::runEvolveJob(local, job);

  Client client = srv.connect();
  const Response first = client.run(request);
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(first.summary, expected.summary);
  EXPECT_EQ(first.body, expected.report);

  // Second call answers from the response cache — still byte-identical —
  // and the JSON rendering swaps the body format, not the content source.
  const Response second = client.run(request);
  EXPECT_EQ(second.body, expected.report);

  server::JobRequest<server::EvolveKind> asJson = request;
  asJson.job.json = true;
  const Response jsonResponse = client.run(asJson);
  EXPECT_EQ(jsonResponse.status, Status::kOk);
  EXPECT_EQ(jsonResponse.body, expected.json);
}

TEST(ServerTest, EvolveRejectsBadJobsWithError) {
  TempDir dir("sct_server_evolve_bad");
  TestServer srv(dir);
  Client client = srv.connect();
  server::JobRequest<server::EvolveKind> request = smallEvolve();
  request.job.evolve.params.objectives = "sigma,karma";
  const Response response = client.run(request);
  EXPECT_EQ(response.status, Status::kError);
  // The connection survives the failed request.
  server::PingRequest ping;
  ping.echo = "still here";
  EXPECT_EQ(client.ping(ping).body, "still here");
}

TEST(ServerTest, ScenarioRejectsBadJobsWithError) {
  TempDir dir("sct_server_scenario_bad");
  TestServer srv(dir);
  Client client = srv.connect();
  server::JobRequest<server::ScenarioKind> request = smallScenario();
  request.job.scenario.scenarios = "tuning,warp";
  const Response response = client.run(request);
  EXPECT_EQ(response.status, Status::kError);
  // The connection survives the failed request.
  EXPECT_EQ(client.health().status, Status::kOk);
}

// ---- protocol fuzzing: the daemon must survive anything ------------------

/// Sends raw bytes on a fresh connection, returns true when the server
/// answered with *some* frame before closing (false = it just closed).
bool sendRaw(const TestServer& srv, const void* data, std::size_t size) {
  Client client = srv.connect();
  [[maybe_unused]] const ssize_t sent = ::send(client.fd(), data, size, 0);
  ::shutdown(client.fd(), SHUT_WR);
  char buffer[256];
  const ssize_t got = ::recv(client.fd(), buffer, sizeof buffer, 0);
  return got > 0;
}

TEST(ServerTest, SurvivesGarbageMagic) {
  TempDir dir("sct_server_fuzz_magic");
  TestServer srv(dir);
  const char garbage[] = "GETX / HTTP/1.1\r\n\r\n";
  sendRaw(srv, garbage, sizeof garbage);
  // The daemon dropped that session but must still serve new ones.
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, SurvivesTruncatedHeader) {
  TempDir dir("sct_server_fuzz_trunc");
  TestServer srv(dir);
  const char partial[] = {'S', 'C', 'T', 'P', 1};
  sendRaw(srv, partial, sizeof partial);
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, RejectsOversizedPayloadDeclaration) {
  TempDir dir("sct_server_fuzz_size");
  TestServer srv(dir);
  std::byte header[16];
  std::memcpy(header, "SCTP", 4);
  const std::uint32_t type =
      static_cast<std::uint32_t>(MessageType::kPingRequest);
  std::memcpy(header + 4, &type, 4);
  const std::uint64_t huge = server::kMaxPayloadBytes + 1;
  std::memcpy(header + 8, &huge, 8);
  // The server answers one kError frame (it cannot trust the stream past
  // the bad header) and drops the session.
  EXPECT_TRUE(sendRaw(srv, header, sizeof header));
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, SurvivesMidPayloadDisconnect) {
  TempDir dir("sct_server_fuzz_disc");
  TestServer srv(dir);
  std::byte frame[24];
  std::memcpy(frame, "SCTP", 4);
  const std::uint32_t type =
      static_cast<std::uint32_t>(MessageType::kPingRequest);
  std::memcpy(frame + 4, &type, 4);
  const std::uint64_t claimed = 1000;  // we send only 8 payload bytes
  std::memcpy(frame + 8, &claimed, 8);
  std::memset(frame + 16, 0xAB, 8);
  sendRaw(srv, frame, sizeof frame);
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, GarbagePayloadAnswersError) {
  TempDir dir("sct_server_fuzz_payload");
  TestServer srv(dir);
  Client client = srv.connect();
  std::vector<std::byte> junk(64, std::byte{0x5A});
  const Response response = client.call(MessageType::kFlowRequest, junk);
  EXPECT_EQ(response.status, Status::kError);
  // Same connection keeps working: framing stayed intact.
  EXPECT_EQ(client.health().status, Status::kOk);
}

TEST(ServerTest, UnknownMessageTypeAnswersError) {
  TempDir dir("sct_server_fuzz_type");
  TestServer srv(dir);
  std::byte header[16];
  std::memcpy(header, "SCTP", 4);
  const std::uint32_t type = 9999;
  std::memcpy(header + 4, &type, 4);
  const std::uint64_t size = 0;
  std::memcpy(header + 8, &size, 8);
  EXPECT_TRUE(sendRaw(srv, header, sizeof header));
  Client client = srv.connect();
  EXPECT_EQ(client.health().status, Status::kOk);
}

// ---- admission control, deadlines, shutdown ------------------------------

TEST(ServerTest, RejectsBeyondSessionBoundWithBusy) {
  TempDir dir("sct_server_busy");
  TestServer srv(dir, /*sessionThreads=*/1, /*maxQueue=*/0);

  // Occupy the single session slot with a sleeping ping.
  std::thread occupant([&] {
    Client client = srv.connect();
    server::PingRequest request;
    request.sleepMillis = 400;
    const Response response = client.ping(request);
    EXPECT_EQ(response.status, Status::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The next connection is rejected at the accept gate, quickly.
  Client reject = srv.connect();
  server::PingRequest request;
  const auto start = std::chrono::steady_clock::now();
  const Response response = reject.ping(request);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(response.status, Status::kBusy);
  EXPECT_LT(elapsed, std::chrono::milliseconds(300))
      << "busy rejection must not wait for the running session";
  EXPECT_GE(srv.instance->busyRejects(), 1u);
  occupant.join();
}

TEST(ServerTest, ExpiredDeadlineAnswersTimeout) {
  TempDir dir("sct_server_deadline");
  TestServer srv(dir, /*sessionThreads=*/1, /*maxQueue=*/4);

  // Fill the single executor so the probe request waits in the queue
  // longer than its deadline.
  std::thread occupant([&] {
    Client client = srv.connect();
    server::PingRequest request;
    request.sleepMillis = 300;
    const Response response = client.ping(request);
    EXPECT_EQ(response.status, Status::kOk);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client client = srv.connect();
  server::PingRequest request;
  request.deadlineMillis = 50;  // expires while queued behind the occupant
  const Response response = client.ping(request);
  EXPECT_EQ(response.status, Status::kTimeout);
  occupant.join();
}

TEST(ServerTest, GracefulStopDrainsInFlightRequests) {
  TempDir dir("sct_server_drain");
  TestServer srv(dir, /*sessionThreads=*/2);

  Client client = srv.connect();
  server::PingRequest request;
  request.sleepMillis = 300;
  request.echo = "drain me";
  server::writeFrame(client.fd(), MessageType::kPingRequest,
                     server::encodePayload(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // stop() must block until the sleeping ping answered. A session writes
  // its response before it deregisters, so the frame already waits in the
  // client's socket when stop() returns (a flag set by a client thread
  // after its read would race with stop()'s return).
  srv.instance->stop();
  pollfd ready{client.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&ready, 1, 0), 1) << "stop() returned before the answer";
  const std::optional<server::Frame> frame = server::readFrame(client.fd());
  ASSERT_TRUE(frame.has_value());
  const Response response = server::decodePayload<Response>(frame->payload);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.body, "drain me");
}

TEST(ServerTest, ShutdownRequestStopsTheServer) {
  TempDir dir("sct_server_shutdown");
  TestServer srv(dir);
  Client client = srv.connect();
  const Response response = client.shutdown();
  EXPECT_EQ(response.status, Status::kOk);
  // waitForStop returns promptly because the session requested the stop.
  srv.instance->waitForStop();
  EXPECT_FALSE(srv.instance->running());
}

// ---- job table: codec and cache key, one case per kind ------------------

using server::Need;

std::string fmt17(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

/// Renders every declared field as "flag=value", in declaration order.
struct Dump {
  std::vector<std::string>& out;
  void add(const char* flag, const std::string& value) {
    out.push_back(std::string(flag) + "=" + value);
  }
  void operator()(const char* f, const std::string& v, Need = {}) {
    add(f, v);
  }
  void operator()(const char* f, double v, Need = {}) { add(f, fmt17(v)); }
  void operator()(const char* f, std::uint64_t v, Need = {}) {
    add(f, std::to_string(v));
  }
  void operator()(const char* f, bool v, Need = {}) { add(f, v ? "1" : "0"); }
  void operator()(const char* f, const std::vector<double>& v, Need = {}) {
    std::string joined;
    for (const double x : v) joined += fmt17(x) + ",";
    add(f, joined);
  }
  void operator()(const char* f, const server::FileArg& v, Need = {}) {
    add(f, v.path + "|" + v.text);
  }
};

template <class Kind>
std::vector<std::string> dump(const typename Kind::Job& job) {
  std::vector<std::string> out;
  Kind::fields(job, Dump{out});
  return out;
}

/// Number of independent mutation points of a kind's field list.
template <class Kind>
int mutationPoints() {
  return testing_support::mutationPoints<typename Kind::Job>(
      [](auto& job, auto& v) { Kind::fields(job, v); });
}

template <class Kind>
server::JobRequest<Kind> decodeJob(std::span<const std::byte> bytes) {
  return server::decodePayload<server::JobRequest<Kind>>(bytes);
}

/// Every declared field set to a non-default value survives the wire, and
/// so does the deadline that travels after the fields.
template <class Kind>
void expectRoundTrip() {
  SCOPED_TRACE(Kind::kName);
  server::JobRequest<Kind> request;
  Kind::fields(request.job, Mutate{});
  request.deadlineMillis = 1500;
  const std::vector<std::string> defaults = dump<Kind>(typename Kind::Job{});
  const std::vector<std::string> sent = dump<Kind>(request.job);
  ASSERT_EQ(sent.size(), defaults.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_NE(sent[i], defaults[i]) << "field kept its default";
  }
  const server::JobRequest<Kind> back =
      decodeJob<Kind>(server::encodePayload(request));
  EXPECT_EQ(dump<Kind>(back.job), sent);
  EXPECT_EQ(back.deadlineMillis, 1500u);

  // A list field longer than the wire bound is refused on decode.
  bool anyList = false;
  Kind::fields(request.job, [&](const char*, auto& field, Need = {}) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                 std::vector<double>>) {
      anyList = true;
      field.assign(server::kMaxListEntries + 1, 2.5);
    }
  });
  if (anyList) {
    EXPECT_THROW((void)decodeJob<Kind>(server::encodePayload(request)),
                 server::ProtocolError);
  }
}

TEST(ProtocolTest, FlowRequestRoundTrip) {
  expectRoundTrip<server::FlowKind>();
}

TEST(ProtocolTest, ScenarioRequestRoundTrip) {
  expectRoundTrip<server::ScenarioKind>();
  // The list bound itself still decodes.
  server::JobRequest<server::ScenarioKind> request;
  request.job.scenario.periods.assign(server::kMaxListEntries, 4.0);
  EXPECT_EQ(decodeJob<server::ScenarioKind>(server::encodePayload(request))
                .job.scenario.periods.size(),
            64u);
}

TEST(ProtocolTest, EvolveRequestRoundTrip) {
  expectRoundTrip<server::EvolveKind>();
}

TEST(ProtocolTest, LintRequestRoundTrip) {
  expectRoundTrip<server::LintKind>();
}

TEST(ProtocolTest, StaRequestRoundTrip) { expectRoundTrip<server::StaKind>(); }

TEST(ProtocolTest, ResponseRoundTrip) {
  Response response;
  response.status = Status::kTimeout;
  response.exitCode = 3;
  response.summary = "too late";
  response.body = std::string("line1\nline2\n\0embedded", 22);
  const auto bytes = server::encodePayload(response);
  const Response back = server::decodePayload<Response>(bytes);
  EXPECT_EQ(back.status, Status::kTimeout);
  EXPECT_EQ(back.exitCode, 3u);
  EXPECT_EQ(back.summary, "too late");
  EXPECT_EQ(back.body, response.body);
}

TEST(ProtocolTest, DecodeRejectsWrongSection) {
  // Every kind's payload is refused by every other kind's decoder, and by
  // the control-frame decoder.
  int kinds = 0;
  server::anyKind([&]<class Sent>(std::type_identity<Sent>) {
    ++kinds;
    const auto bytes = server::encodePayload(server::JobRequest<Sent>{});
    EXPECT_THROW((void)server::decodePayload<server::PingRequest>(bytes),
                 server::ProtocolError);
    server::anyKind([&]<class Read>(std::type_identity<Read>) {
      if constexpr (!std::is_same_v<Sent, Read>) {
        EXPECT_THROW((void)decodeJob<Read>(bytes),
                     server::ProtocolError)
            << Sent::kName << " payload decoded as " << Read::kName;
      }
      return false;
    });
    return false;
  });
  EXPECT_EQ(kinds, 5);
}

TEST(JobDigestTest, EveryFieldSplitsTheCacheKey) {
  server::anyKind([&]<class Kind>(std::type_identity<Kind>) {
    SCOPED_TRACE(Kind::kName);
    const typename Kind::Job base{};
    const artifact::Digest key = server::requestDigest<Kind>(base);
    const int points = mutationPoints<Kind>();
    EXPECT_GT(points, 0);
    for (int i = 0; i < points; ++i) {
      typename Kind::Job job = base;
      Kind::fields(job, Mutate{i});
      EXPECT_NE(server::requestDigest<Kind>(job), key)
          << "mutation point " << i << " left the key unchanged";
    }
    return false;
  });
}

TEST(JobDigestTest, DeadlineNeverSplitsTheCacheKey) {
  server::anyKind([&]<class Kind>(std::type_identity<Kind>) {
    SCOPED_TRACE(Kind::kName);
    server::JobRequest<Kind> request;
    Kind::fields(request.job, Mutate{});
    const auto patient = server::encodePayload(request);
    request.deadlineMillis = 250;
    const auto hurried = server::encodePayload(request);
    EXPECT_NE(patient, hurried);  // the deadline does travel...
    EXPECT_EQ(
        server::requestDigest<Kind>(decodeJob<Kind>(patient).job),
        server::requestDigest<Kind>(decodeJob<Kind>(hurried).job));
    return false;
  });
}

TEST(JobDigestTest, KindsNeverShareAKey) {
  std::vector<artifact::Digest> keys;
  server::anyKind([&]<class Kind>(std::type_identity<Kind>) {
    keys.push_back(server::requestDigest<Kind>(typename Kind::Job{}));
    return false;
  });
  ASSERT_EQ(keys.size(), 5u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "kinds " << i << " and " << j;
    }
  }
}

}  // namespace
}  // namespace sct

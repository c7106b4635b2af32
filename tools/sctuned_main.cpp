// sctuned — tuning-as-a-service daemon (DESIGN.md §14).
//
//   sctuned --socket /tmp/sctuned.sock [--cache-dir DIR]
//           [--tcp-port N] [--session-threads N] [--max-queue N]
//           [--mem-cache-mb N] [--threads <N|serial|auto>]
//           [--trace-out trace.json] [--metrics-out metrics.json]
//           [--obs-off]
//
// Long-lived flow/lint/STA service over a Unix-domain socket (and an
// optional TCP loopback port) speaking the SCTP framed protocol. All
// sessions share one on-disk artifact store, one in-memory cache and one
// single-flight table, so concurrent identical requests compute once and
// repeated requests answer from memory.
//
// Shutdown: the first SIGINT/SIGTERM (or a client `shutdown` request)
// drains — stop accepting, finish and answer every in-flight request, flush
// the observability exports, exit 0. A second signal hard-exits with 130.

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "server/server.hpp"

namespace {

using namespace sct;

server::Server* g_server = nullptr;
volatile std::sig_atomic_t g_signals = 0;

/// Async-signal-safe: first signal requests the graceful drain (atomic flag
/// + one pipe write inside requestStop), second gives up on the drain.
extern "C" void onSignal(int) {
  g_signals = g_signals + 1;
  if (g_signals >= 2) _exit(130);
  if (g_server != nullptr) g_server->requestStop();
}

/// Same minimal --flag parser idiom as sctune's; kept local because the
/// daemon has exactly one command.
std::map<std::string, std::string> parseArgs(int argc, char** argv) {
  const std::vector<std::string> booleans = {"help", "obs-off", "tcp"};
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::runtime_error(std::string("expected flag, got ") + argv[i]);
    }
    const std::string name = argv[i] + 2;
    if (std::find(booleans.begin(), booleans.end(), name) != booleans.end()) {
      values[name] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      throw std::runtime_error("flag --" + name + " needs a value");
    }
    values[name] = argv[++i];
  }
  return values;
}

std::optional<std::string> get(const std::map<std::string, std::string>& args,
                               const std::string& key) {
  const auto it = args.find(key);
  return it != args.end() ? std::optional(it->second) : std::nullopt;
}

int usage(int exitCode) {
  std::printf(
      "sctuned — tuning-as-a-service daemon for the sctune flow\n\n"
      "usage: sctuned --socket PATH [--tcp-port N] [--cache-dir DIR]\n"
      "               [--session-threads N] [--max-queue N]\n"
      "               [--mem-cache-mb N] [--threads <N|serial|auto>]\n"
      "               [--trace-out t.json] [--metrics-out m.json]\n"
      "               [--obs-off]\n\n"
      "Clients: `sctune client <op> --socket PATH` (flow, scenario,\n"
      "evolve, lint, sta, ping, health, shutdown). SIGINT/SIGTERM drains\n"
      "in-flight requests and exits 0; a second signal hard-exits 130.\n"
      "SCT_SOCKET and SCT_CACHE_DIR provide the flag defaults.\n");
  return exitCode;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parseArgs(argc, argv);
    if (args.contains("help")) return usage(0);

    server::ServerConfig config;
    if (const auto socket = get(args, "socket")) {
      config.socketPath = *socket;
    } else if (const auto env = env::get("SCT_SOCKET")) {
      config.socketPath = *env;
    }
    if (const auto port = get(args, "tcp-port")) {
      config.tcpEnable = true;
      config.tcpPort = server::parseTcpPort(*port);
    } else if (args.contains("tcp")) {
      config.tcpEnable = true;  // ephemeral port, printed below
    }
    if (config.socketPath.empty() && !config.tcpEnable) {
      std::fprintf(stderr, "need --socket PATH (or --tcp-port N)\n\n");
      return usage(1);
    }
    if (const auto threads = get(args, "session-threads")) {
      config.sessionThreads =
          server::parseFlagNumber<std::uint64_t>("session-threads", *threads);
    }
    if (const auto queue = get(args, "max-queue")) {
      config.maxQueuedSessions =
          server::parseFlagNumber<std::uint64_t>("max-queue", *queue);
    }
    if (const auto dir = get(args, "cache-dir")) {
      config.service.cacheDir = *dir;
    } else if (const auto env = env::get("SCT_CACHE_DIR")) {
      config.service.cacheDir = *env;
    }
    if (const auto mb = get(args, "mem-cache-mb")) {
      config.service.memCacheBytes =
          server::parseFlagNumber<std::uint64_t>("mem-cache-mb", *mb) << 20;
    }
    if (const auto threads = get(args, "threads")) {
      const std::size_t hw = std::thread::hardware_concurrency();
      parallel::setThreadCount(
          parallel::parseThreadSpec(*threads, hw > 1 ? hw : 0));
    }

    // Metrics stay on by default: the health endpoint and the CI smoke
    // read the counters, and the overhead is a few relaxed atomics per
    // request (bounded by the obs-overhead CI gate for the flow itself).
    const std::string traceOut = get(args, "trace-out").value_or("");
    const std::string metricsOut = get(args, "metrics-out").value_or("");
    const bool obsOff = args.contains("obs-off");
    obs::setTracingEnabled(!obsOff && !traceOut.empty());
    obs::setMetricsEnabled(!obsOff);

    server::Server serverInstance(config);
    serverInstance.start();
    g_server = &serverInstance;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);  // dead peers surface as write errors

    if (!serverInstance.tcpPort() && !config.socketPath.empty()) {
      std::printf("sctuned: listening on %s\n", config.socketPath.c_str());
    } else if (serverInstance.tcpPort() != 0) {
      std::printf("sctuned: listening on 127.0.0.1:%u%s%s\n",
                  serverInstance.tcpPort(),
                  config.socketPath.empty() ? "" : " and ",
                  config.socketPath.c_str());
    }
    std::fflush(stdout);

    serverInstance.waitForStop();  // drains sessions before returning
    g_server = nullptr;

    if (!traceOut.empty() && !obsOff) {
      std::ofstream out(traceOut);
      if (out) obs::writeChromeTrace(out, obs::traceSnapshot());
    }
    if (!metricsOut.empty() && !obsOff) {
      std::ofstream out(metricsOut);
      if (out) {
        obs::writeMetricsJson(out, obs::MetricsRegistry::global().snapshot());
      }
    }
    std::printf("sctuned: drained, bye\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sctuned: %s\n", e.what());
    return 1;
  }
}

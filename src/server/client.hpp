#pragma once
// Blocking SCTP client used by `sctune client ...`, the tests and the load
// bench. One Client is one persistent connection; call() runs one
// request/response round trip. Not thread-safe — use one Client per thread
// (the daemon multiplexes them server-side).

#include <cstdint>
#include <span>
#include <string>

#include "server/jobs.hpp"
#include "server/protocol.hpp"

namespace sct::server {

class Client {
 public:
  /// Connects to a Unix-domain socket; throws std::runtime_error on
  /// failure (daemon not running, wrong path, permissions).
  [[nodiscard]] static Client connectUnix(const std::string& socketPath);
  /// Connects to 127.0.0.1:port.
  [[nodiscard]] static Client connectTcp(std::uint16_t port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// One round trip. Throws ProtocolError on a malformed reply or a dead
  /// connection (including a server that closed mid-drain).
  [[nodiscard]] Response call(MessageType type,
                              std::span<const std::byte> payload);

  /// One job-table request (server/jobs.hpp).
  template <class Kind>
  [[nodiscard]] Response run(const JobRequest<Kind>& request) {
    return call(Kind::kType, encodePayload(request));
  }
  [[nodiscard]] Response flow(const FlowRequest& request) {
    return run(request);
  }

  // Control frames.
  [[nodiscard]] Response ping(const PingRequest& request);
  [[nodiscard]] Response health();
  [[nodiscard]] Response shutdown();

  /// Raw socket, for tests that need to inject malformed bytes.
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

 private:
  explicit Client(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace sct::server

#include "server/server.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sct::server {
namespace {

void closeFd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

int listenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  // Replace a stale socket left by a dead daemon; a live daemon would have
  // it open, and binding will still fail cleanly if another one races us.
  std::error_code ec;
  std::filesystem::remove(path, ec);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot listen on " + path + ": " + err);
  }
  return fd;
}

int listenTcpLoopback(std::uint16_t port, std::uint16_t* boundPort) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot listen on 127.0.0.1:" +
                             std::to_string(port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *boundPort = ntohs(bound.sin_port);
  }
  return fd;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)),
                                      service_(config_.service) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (config_.socketPath.empty() && !config_.tcpEnable) {
    throw std::runtime_error("server has no listener configured");
  }
  if (config_.sessionThreads == 0) config_.sessionThreads = 1;
  if (::pipe(wakePipe_) != 0) throw std::runtime_error("pipe() failed");
  if (!config_.socketPath.empty()) unixFd_ = listenUnix(config_.socketPath);
  if (config_.tcpEnable) {
    tcpFd_ = listenTcpLoopback(config_.tcpPort, &boundPort_);
  }
  pool_ = std::make_unique<parallel::ThreadPool>(config_.sessionThreads);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void Server::requestStop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the accept loop's poll(); stop() does the heavy teardown.
  if (wakePipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t rc = ::write(wakePipe_[1], &byte, 1);
  }
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  requestStop();
  if (acceptThread_.joinable()) acceptThread_.join();
  closeListeners();

  // Half-close every open session: a session blocked in readFrame() sees
  // EOF immediately; one mid-request finishes computing and still writes
  // its response through the intact send side. One critical section covers
  // the sweep and the drain wait — sessions deregistering contend only on
  // the wait's release points, exactly as with the former two-phase locking
  // (a session admitted between the phases was already impossible: the
  // accept loop re-checks stopping_ under this mutex).
  {
    const LockGuard lock(sessionsMutex_);
    for (const int fd : sessionFds_) ::shutdown(fd, SHUT_RD);
    while (activeSessions_ != 0) sessionsCv_.wait(sessionsMutex_);
  }
  pool_.reset();  // workers idle by now (every submitted session finished)
  closeFd(wakePipe_[0]);
  closeFd(wakePipe_[1]);
  if (!config_.socketPath.empty()) {
    std::error_code ec;
    std::filesystem::remove(config_.socketPath, ec);
  }
}

void Server::waitForStop() {
  if (wakePipe_[0] >= 0) {
    pollfd pfd{wakePipe_[0], POLLIN, 0};
    while (!stopping_.load(std::memory_order_acquire)) {
      const int rc = ::poll(&pfd, 1, 200);
      if (rc < 0 && errno != EINTR) break;
    }
  }
  stop();
}

void Server::closeListeners() noexcept {
  closeFd(unixFd_);
  closeFd(tcpFd_);
}

void Server::acceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {wakePipe_[0], POLLIN, 0};
    if (unixFd_ >= 0) fds[n++] = {unixFd_, POLLIN, 0};
    if (tcpFd_ >= 0) fds[n++] = {tcpFd_, POLLIN, 0};
    const int rc = ::poll(fds, n, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) break;  // requestStop() woke us
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;

      bool admitted = false;
      {
        const LockGuard lock(sessionsMutex_);
        const std::size_t bound =
            config_.sessionThreads + config_.maxQueuedSessions;
        if (activeSessions_ < bound &&
            !stopping_.load(std::memory_order_acquire)) {
          ++activeSessions_;
          sessionFds_.insert(client);
          admitted = true;
        }
      }
      if (!admitted) {
        // Reject at the gate: one canned busy frame, then close. The
        // write is best-effort — a peer that already gave up is fine.
        busyRejects_.fetch_add(1, std::memory_order_relaxed);
        try {
          writeFrame(client, MessageType::kResponse,
                     TuningService::busyResponseBytes());
        } catch (const ProtocolError&) {
        }
        ::close(client);
        continue;
      }
      const auto accepted = TuningService::Clock::now();
      pool_->submit([this, client, accepted] { runSession(client, accepted); });
    }
  }
}

void Server::runSession(int fd, TuningService::Clock::time_point accepted) {
  bool firstFrame = true;
  try {
    while (true) {
      std::optional<Frame> frame = readFrame(fd);
      if (!frame) break;  // clean EOF (client done, or drain half-close)
      // The deadline base: a session's first request waited through the
      // admission queue before this worker even read it, so it counts from
      // the accept; later requests arrive on a live worker and count from
      // their parse.
      const auto received =
          firstFrame ? accepted : TuningService::Clock::now();
      firstFrame = false;
      if (stopping_.load(std::memory_order_acquire) &&
          frame->type != MessageType::kHealthRequest) {
        writeFrame(fd, MessageType::kResponse,
                   TuningService::shuttingDownResponseBytes());
        break;
      }
      const Response response =
          service_.handle(frame->type, frame->payload, received);
      const std::vector<std::byte> bytes = encodePayload(response);
      writeFrame(fd, MessageType::kResponse, bytes);
      if (frame->type == MessageType::kShutdownRequest) {
        requestStop();
        break;
      }
    }
  } catch (const ProtocolError& e) {
    // Malformed frame or dead peer: answer if the socket still works, then
    // drop the session. The daemon itself never goes down with a client.
    try {
      Response r;
      r.status = Status::kError;
      r.summary = e.what();
      const std::vector<std::byte> bytes = encodePayload(r);
      writeFrame(fd, MessageType::kResponse, bytes);
    } catch (const ProtocolError&) {
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sctuned: session error: %s\n", e.what());
  }
  // Deregister before close: stop() half-closes every fd still in the set
  // under this mutex, so an fd must leave the set while it is still the
  // session's socket (close first would let the kernel recycle the number
  // into a fresh session and stop() would shut down the wrong peer).
  {
    const LockGuard lock(sessionsMutex_);
    sessionFds_.erase(fd);
    --activeSessions_;
    ::close(fd);
  }
  sessionsCv_.notifyAll();
}

}  // namespace sct::server

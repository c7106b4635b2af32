#include "server/client.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sct::server {

Client Client::connectUnix(const std::string& socketPath) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + socketPath);
  }
  std::strncpy(addr.sun_path, socketPath.c_str(), sizeof addr.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot connect to " + socketPath + ": " + err);
  }
  return Client(fd);
}

Client Client::connectTcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port) + ": " + err);
  }
  setNoDelay(fd);
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Client::~Client() { close(); }

void Client::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Response Client::call(MessageType type, std::span<const std::byte> payload) {
  if (fd_ < 0) throw ProtocolError("client not connected");
  try {
    writeFrame(fd_, type, payload);
  } catch (const ProtocolError&) {
    // The server may have answered and closed before reading the request —
    // the admission gate does exactly that with its kBusy frame. Prefer the
    // pending response over the write error; rethrow only when there is
    // nothing to read either.
    std::optional<Frame> pending = readFrame(fd_);
    if (pending && pending->type == MessageType::kResponse) {
      return decodePayload<Response>(pending->payload);
    }
    throw;
  }
  std::optional<Frame> frame = readFrame(fd_);
  if (!frame) throw ProtocolError("connection closed before response");
  if (frame->type != MessageType::kResponse) {
    throw ProtocolError("expected a response frame");
  }
  return decodePayload<Response>(frame->payload);
}

Response Client::ping(const PingRequest& request) {
  return call(MessageType::kPingRequest, encodePayload(request));
}

Response Client::health() { return call(MessageType::kHealthRequest, {}); }

Response Client::shutdown() { return call(MessageType::kShutdownRequest, {}); }

}  // namespace sct::server

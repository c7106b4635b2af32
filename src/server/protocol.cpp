#include "server/protocol.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

#ifdef _WIN32
#error "the sctuned protocol layer is POSIX-only"
#else
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>
#endif

namespace sct::server {

template <class T>
T parseFlagNumber(std::string_view flag, std::string_view text,
                  std::string_view what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    throw std::runtime_error("--" + std::string(flag) + " must be " +
                             std::string(what) + ", got '" +
                             std::string(text) + "'");
  }
  return value;
}

template double parseFlagNumber<double>(std::string_view, std::string_view,
                                        std::string_view);
template std::uint64_t parseFlagNumber<std::uint64_t>(std::string_view,
                                                      std::string_view,
                                                      std::string_view);
template std::uint16_t parseFlagNumber<std::uint16_t>(std::string_view,
                                                      std::string_view,
                                                      std::string_view);

std::uint16_t parseTcpPort(std::string_view text) {
  return parseFlagNumber<std::uint16_t>("tcp-port", text,
                                        "a port number 0..65535");
}

bool isRequestType(std::uint32_t raw) noexcept {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kFlowRequest:
    case MessageType::kLintRequest:
    case MessageType::kStaRequest:
    case MessageType::kHealthRequest:
    case MessageType::kPingRequest:
    case MessageType::kShutdownRequest:
    case MessageType::kScenarioRequest:
    case MessageType::kEvolveRequest:
      return true;
    case MessageType::kResponse:
    default:
      return false;
  }
}

// ---- frame IO ------------------------------------------------------------

namespace {

/// Reads exactly n bytes. Returns the byte count actually read: n on
/// success, less when the peer closed mid-read (0 when it closed cleanly
/// before the first byte). Throws ProtocolError on hard socket errors.
std::size_t readFully(int fd, std::byte* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::read(fd, out + got, n - got);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) return got;  // EOF
    if (errno == EINTR) continue;
    throw ProtocolError(std::string("read failed: ") + std::strerror(errno));
  }
  return got;
}

std::uint32_t loadU32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t loadU64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::optional<Frame> readFrame(int fd) {
  std::byte header[kFrameHeaderBytes];
  const std::size_t got = readFully(fd, header, sizeof header);
  if (got == 0) return std::nullopt;  // clean EOF between frames
  if (got < sizeof header) throw ProtocolError("truncated frame header");
  if (std::memcmp(header, kFrameMagic, sizeof kFrameMagic) != 0) {
    throw ProtocolError("bad frame magic");
  }
  const std::uint32_t rawType = loadU32(header + 4);
  const std::uint64_t payloadSize = loadU64(header + 8);
  if (payloadSize > kMaxPayloadBytes) {
    throw ProtocolError("frame payload exceeds " +
                        std::to_string(kMaxPayloadBytes) + " bytes");
  }
  if (!isRequestType(rawType) &&
      static_cast<MessageType>(rawType) != MessageType::kResponse) {
    throw ProtocolError("unknown message type " + std::to_string(rawType));
  }
  Frame frame;
  frame.type = static_cast<MessageType>(rawType);
  frame.payload.resize(static_cast<std::size_t>(payloadSize));
  if (payloadSize > 0 &&
      readFully(fd, frame.payload.data(), frame.payload.size()) !=
          frame.payload.size()) {
    throw ProtocolError("connection closed mid-payload");
  }
  return frame;
}

void writeFrame(int fd, MessageType type, std::span<const std::byte> payload) {
  std::byte header[kFrameHeaderBytes];
  std::memcpy(header, kFrameMagic, sizeof kFrameMagic);
  const std::uint32_t rawType = static_cast<std::uint32_t>(type);
  std::memcpy(header + 4, &rawType, sizeof rawType);
  const std::uint64_t payloadSize = payload.size();
  std::memcpy(header + 8, &payloadSize, sizeof payloadSize);

  // MSG_NOSIGNAL: a peer that vanished mid-write must surface as EPIPE →
  // ProtocolError, never as a process-killing SIGPIPE (the in-process test
  // servers and the bench run without the daemon's SIG_IGN).
  // iovec's base pointer is non-const; sendmsg only reads through it.
  iovec parts[2] = {
      {header, sizeof header},
      {const_cast<std::byte*>(payload.data()), payload.size()},
  };
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = payload.empty() ? 1 : 2;
  while (message.msg_iovlen > 0) {
    const ssize_t rc = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) {
      throw ProtocolError(std::string("write failed: ") +
                          std::strerror(errno));
    }
    // Skip what was sent: whole parts first, then into the part cut short.
    auto sent = static_cast<std::size_t>(rc);
    while (message.msg_iovlen > 0 && sent >= message.msg_iov->iov_len) {
      sent -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen > 0) {
      message.msg_iov->iov_base =
          static_cast<std::byte*>(message.msg_iov->iov_base) + sent;
      message.msg_iov->iov_len -= sent;
    }
  }
}

void setNoDelay(int fd) noexcept {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace sct::server

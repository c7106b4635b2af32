#include "server/protocol.hpp"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

#ifdef _WIN32
#error "the sctuned protocol layer is POSIX-only"
#else
#include <sys/socket.h>
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
  const auto writeAll = [fd](const std::byte* data, std::size_t n) {
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t rc = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
      if (rc > 0) {
        sent += static_cast<std::size_t>(rc);
        continue;
      }
      if (rc < 0 && errno == EINTR) continue;
      throw ProtocolError(std::string("write failed: ") +
                          std::strerror(errno));
    }
  };
  writeAll(header, sizeof header);
  if (!payload.empty()) writeAll(payload.data(), payload.size());
}

}  // namespace sct::server

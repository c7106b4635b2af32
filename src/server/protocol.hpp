#pragma once
// SCTP — the sctuned daemon's wire protocol (DESIGN.md §14). Every message
// is one length-prefixed frame:
//
//   offset 0   char[4]  magic "SCTP"
//          4   u32      message type (MessageType, little-endian)
//          8   u64      payload byte count (little-endian)
//         16   payload  SCTB container (or empty)
//
// Payloads reuse the SCTB artifact container (src/artifact): the same
// codecs, checksums and version gate that protect the on-disk cache protect
// the wire. A frame with a bad magic, an unknown type, or a payload above
// kMaxPayloadBytes is a protocol error — the server answers kStatusError
// (when it still can) and drops the connection; it never crashes and never
// trusts a byte past validation. Truncated frames (peer died mid-send) read
// as clean EOFs or short reads and close the session.
//
// Responses carry a status + summary + body. Response *bytes are a pure
// function of the request*: no timestamps, no server identity, no
// cached/coalesced markers — so a response served from the daemon's response
// cache is byte-identical to a freshly computed one, and a job response
// body is byte-identical to the local command's --report/--out file (both
// run the same Kind::run from the job table, server/jobs.hpp).

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/fields.hpp"

namespace sct::server {

inline constexpr char kFrameMagic[4] = {'S', 'C', 'T', 'P'};
inline constexpr std::size_t kFrameHeaderBytes = 16;
/// Upper bound on a single frame payload; anything larger is an attack or a
/// bug, not a workload (a full flow report is a few hundred KB).
inline constexpr std::uint64_t kMaxPayloadBytes = 64ull << 20;

enum class MessageType : std::uint32_t {
  kFlowRequest = 1,
  kLintRequest = 2,
  kStaRequest = 3,
  kHealthRequest = 4,
  kPingRequest = 5,
  kShutdownRequest = 6,
  kScenarioRequest = 7,
  kEvolveRequest = 8,
  kResponse = 100,
};

/// True for the types a client may send.
[[nodiscard]] bool isRequestType(std::uint32_t raw) noexcept;

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,    ///< request failed (parse error, unknown method, ...)
  kBusy = 2,     ///< admission control rejected the session/request
  kTimeout = 3,  ///< the request's deadline expired before compute started
  kShuttingDown = 4,
};

constexpr Status lastEnumerator(Status) noexcept {
  return Status::kShuttingDown;
}

/// Raised on malformed frames and payloads (the recv path catches it).
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message)
      : std::runtime_error("SCTP: " + message) {}
};

// ---- control frames ------------------------------------------------------
//
// Job requests (flow, scenario, evolve, lint, sta) are declared once in the
// job table (server/jobs.hpp); this file carries only the control frames.

/// Diagnostic echo; sleeps for sleepMillis on the session worker before
/// answering (load/deadline/admission testing without burning CPU).
struct PingRequest {
  std::string echo;
  std::uint64_t sleepMillis = 0;
  std::uint64_t deadlineMillis = 0;

  static constexpr const char* kSection = "ping-req";
  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("echo", s.echo);
    v("sleep-ms", s.sleepMillis);
    v("deadline-ms", s.deadlineMillis);
  }
};

// kHealthRequest and kShutdownRequest carry empty payloads.

struct Response {
  Status status = Status::kError;
  /// The job's CLI exit code (0 ok, 2 flow/evolve target missed, 3 lint
  /// errors), so `sctune client <kind>` exits like `sctune <kind>`.
  std::uint8_t exitCode = 0;
  std::string summary;  ///< one human line ("flow: MET | ...", error text)
  std::string body;     ///< full report / JSON document; may be empty

  static constexpr const char* kSection = "response";
  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("status", s.status);
    v("exit-code", s.exitCode);
    v("summary", s.summary);
    v("body", s.body);
  }
};

// ---- payload codecs (SCTB containers) ------------------------------------
//
// A payload is one record (artifact/fields.hpp): its field list, written as
// the SCTB section T::kSection. Job requests, ping and response share it.

/// Upper bound on a list field's entry count on the wire (input from
/// outside the program; real jobs carry a handful of periods).
inline constexpr std::uint64_t kMaxListEntries = 64;

template <class T>
[[nodiscard]] std::vector<std::byte> encodePayload(const T& record) {
  artifact::SctbWriter writer;
  artifact::encodeRecord(writer, record);
  return writer.finish();
}

namespace detail {

/// artifact::Read plus the wire's list bound, checked before the list is
/// read.
struct WireRead {
  artifact::Read read;
  template <class T, class... Extra>
  void operator()(const char* name, T& v, const Extra&...) {
    if constexpr (artifact::kIsVector<T>) {
      artifact::SctbReader::Cursor peek = read.in;
      if (peek.u64() > kMaxListEntries) {
        throw ProtocolError(std::string("unreasonable --") + name + " count");
      }
    }
    read(name, v);
  }
};

}  // namespace detail

/// Throws ProtocolError on a malformed payload or a wrong section.
template <class T>
[[nodiscard]] T decodePayload(std::span<const std::byte> bytes) {
  try {
    const artifact::SctbReader reader = artifact::SctbReader::fromBytes(bytes);
    artifact::SctbReader::Cursor cursor = reader.section(T::kSection);
    T record{};
    T::fields(record, detail::WireRead{{cursor}});
    return record;
  } catch (const artifact::FormatError& e) {
    throw ProtocolError(e.what());
  }
}

/// The value of the numeric flag --`flag`, for every numeric flag of sctune
/// and sctuned: all of `text` must parse as a T (std::from_chars: no sign on
/// an unsigned T, no blanks or trailing characters, within T's range), else
/// std::runtime_error "--<flag> must be <what>, got '<text>'". Defined for
/// double, std::uint64_t and std::uint16_t.
template <class T>
[[nodiscard]] T parseFlagNumber(
    std::string_view flag, std::string_view text,
    std::string_view what = std::is_floating_point_v<T>
                                ? "a number"
                                : "a non-negative integer");

/// The value of a --tcp-port flag; throws std::runtime_error naming the
/// flag unless `text` is a whole number in 0..65535.
[[nodiscard]] std::uint16_t parseTcpPort(std::string_view text);

// ---- frame IO over a connected socket ------------------------------------

/// One parsed incoming frame.
struct Frame {
  MessageType type = MessageType::kResponse;
  std::vector<std::byte> payload;
};

/// Blocking read of one frame. Returns nullopt on clean EOF before any
/// header byte; throws ProtocolError on bad magic / unknown type / oversized
/// payload / connection lost mid-frame. Retries EINTR.
[[nodiscard]] std::optional<Frame> readFrame(int fd);

/// Blocking write of one frame: header and payload go out in one vectored
/// sendmsg, so a frame never becomes two small TCP segments waiting on each
/// other (Nagle + delayed ACK). Throws ProtocolError when the peer is gone.
/// Retries EINTR and short writes.
void writeFrame(int fd, MessageType type, std::span<const std::byte> payload);

/// Sets TCP_NODELAY on a connected TCP socket: a request/response protocol
/// sends each frame whole, so coalescing small writes only adds latency.
void setNoDelay(int fd) noexcept;

}  // namespace sct::server

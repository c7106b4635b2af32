#pragma once
// SCTB — the repository's versioned binary artifact container. Text formats
// (Liberty dialect, stat library, constraints, Verilog) stay the
// human-facing interchange; SCTB is the *cache* format: what the flow
// persists between runs and bulk-loads on a warm start.
//
// File layout (all integers little-endian):
//
//   offset 0   char[4]  magic "SCTB"
//          4   u32      schema version (kSchemaVersion)
//          8   u32      section count
//         12   u32      reserved (0)
//         16   section table, one entry per section:
//                {char name[16] zero-padded; u64 offset; u64 size; u64 fnv1a}
//         ...  section payloads, each starting on an 8-byte boundary
//
// Every section carries its own FNV-1a checksum, verified on load; any
// mismatch, truncation, bad magic or version skew raises FormatError, which
// the artifact store treats as "not cached" (graceful recompute, never a
// wrong answer). Payloads are plain byte streams with typed accessors; bulk
// double data (LUT grids, axes) is 8-byte aligned in the file so a reader —
// which slurps the file with a single read into 8-byte-aligned storage —
// can hand out zero-copy spans or memcpy whole grids at once.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sct::artifact {

/// Bumped whenever any codec's byte layout changes; part of both the file
/// header and the content-address, so stale-layout artifacts are never read.
inline constexpr std::uint32_t kSchemaVersion = 2;

inline constexpr char kMagic[4] = {'S', 'C', 'T', 'B'};
inline constexpr std::size_t kSectionNameBytes = 16;

/// Raised on any malformed, truncated, corrupt or version-skewed input.
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& message)
      : std::runtime_error("SCTB: " + message) {}
};

/// Accumulates named sections in memory and serializes the container.
class SctbWriter {
 public:
  explicit SctbWriter(std::uint32_t schemaVersion = kSchemaVersion)
      : schema_version_(schemaVersion) {}

  /// Starts a new section; all subsequent puts go into it. Names are at
  /// most kSectionNameBytes bytes and unique per file.
  void beginSection(std::string_view name);

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);  ///< u64 length + raw bytes
  /// Pads the current section with zeros to the next 8-byte boundary;
  /// call before f64span so readers can return aligned zero-copy views.
  void align8();
  /// u64 count, zero-padding to 8-byte alignment, then the raw doubles.
  void f64span(std::span<const double> values);

  /// Serialized container bytes (header + table + payloads).
  [[nodiscard]] std::vector<std::byte> finish() const;

 private:
  struct Section {
    std::string name;
    std::vector<std::byte> data;
  };
  Section& current();

  std::uint32_t schema_version_;
  std::vector<Section> sections_;
};

/// Parses and validates a container; hands out per-section read cursors.
/// The whole file is loaded with one read into 8-byte-aligned storage.
class SctbReader {
 public:
  /// Throws FormatError on any structural problem (bad magic, version skew,
  /// truncated table/payload, checksum mismatch).
  static SctbReader fromBytes(std::span<const std::byte> bytes);
  static SctbReader fromFile(const std::string& path);

  [[nodiscard]] std::uint32_t schemaVersion() const noexcept {
    return schema_version_;
  }
  [[nodiscard]] std::size_t sectionCount() const noexcept {
    return sections_.size();
  }
  [[nodiscard]] bool hasSection(std::string_view name) const noexcept;

  /// Sequential read cursor over one section's payload. Reads past the end
  /// of the section throw FormatError.
  class Cursor {
   public:
    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] double f64();
    [[nodiscard]] bool boolean() { return u8() != 0; }
    [[nodiscard]] std::string str();
    /// Skips alignment padding written by SctbWriter::align8().
    void align8();
    /// Zero-copy view of `count` doubles backed by the reader's buffer
    /// (valid for the reader's lifetime). Includes the count prefix and
    /// alignment skip matching SctbWriter::f64span.
    [[nodiscard]] std::span<const double> f64span();
    /// Bulk copy of an f64span payload into caller storage (one memcpy).
    void readDoubles(std::span<double> out);
    [[nodiscard]] std::size_t remaining() const noexcept { return end_ - pos_; }

   private:
    friend class SctbReader;
    Cursor(const SctbReader* reader, std::size_t begin, std::size_t end)
        : reader_(reader), pos_(begin), end_(end) {}
    void need(std::size_t n) const;
    [[nodiscard]] const std::byte* raw() const noexcept;

    const SctbReader* reader_;
    std::size_t pos_;  ///< absolute offset into the file buffer
    std::size_t end_;
  };

  /// Cursor over a named section; throws FormatError when absent.
  [[nodiscard]] Cursor section(std::string_view name) const;

  [[nodiscard]] std::size_t fileSize() const noexcept { return size_; }

  /// The validated container bytes, exactly as stored on disk / on the
  /// wire. Lets a cache of readers re-serve the original payload (daemon
  /// response cache) without keeping a second copy.
  [[nodiscard]] std::span<const std::byte> rawBytes() const noexcept {
    return {data(), size_};
  }

 private:
  struct SectionEntry {
    std::string name;
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  SctbReader() = default;
  void parse();
  [[nodiscard]] const std::byte* data() const noexcept {
    return reinterpret_cast<const std::byte*>(buffer_.data());
  }

  // 8-byte-aligned backing storage: doubles so aligned f64 payload offsets
  // may be reinterpreted as double objects for zero-copy spans.
  std::vector<double> buffer_;
  std::size_t size_ = 0;  ///< valid bytes in buffer_
  std::uint32_t schema_version_ = 0;
  std::vector<SectionEntry> sections_;
};

}  // namespace sct::artifact

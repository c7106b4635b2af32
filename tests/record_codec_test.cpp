// Stored and wire records (DESIGN.md §10, §14): each declares its members
// once in a field list, and artifact::Emit / artifact::Read derive its bytes
// from that list. These tests hold every record to the list: each member
// survives a round trip on its own, the list names every member, a record
// cut short at any byte is refused, and hostile counts or out-of-range
// values throw FormatError instead of allocating or decoding garbage.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/codecs.hpp"
#include "artifact/fields.hpp"
#include "evo/tuner.hpp"
#include "field_visitors.hpp"
#include "lint/diagnostic.hpp"
#include "postsi/scenario.hpp"
#include "server/protocol.hpp"
#include "synth/synthesis.hpp"
#include "tuning/restriction.hpp"

namespace {

using namespace sct;
using artifact::SctbReader;
using artifact::SctbWriter;
using testing_support::Mutate;

constexpr const char* kSection = "record";

template <class R>
std::vector<std::byte> encode(const R& record) {
  SctbWriter writer;
  writer.beginSection(kSection);
  R::fields(record, artifact::Emit<SctbWriter>{writer});
  return writer.finish();
}

template <class R>
R decode(std::span<const std::byte> bytes) {
  const SctbReader reader = SctbReader::fromBytes(bytes);
  SctbReader::Cursor cursor = reader.section(kSection);
  R record{};
  R::fields(record, artifact::Read{cursor});
  return record;
}

/// Every member set away from its default (a list or map gains an entry).
template <class R>
R sample() {
  R record{};
  R::fields(record, Mutate{});
  return record;
}

template <class R>
artifact::Digest digestOfRecord(const R& record) {
  artifact::Hasher hasher;
  R::fields(record, artifact::Emit<artifact::Hasher>{hasher});
  return hasher.digest();
}

/// The payload bytes of a one-section container.
std::vector<std::uint8_t> payloadOf(std::span<const std::byte> bytes) {
  const SctbReader reader = SctbReader::fromBytes(bytes);
  SctbReader::Cursor cursor = reader.section(kSection);
  std::vector<std::uint8_t> payload;
  while (cursor.remaining() != 0) payload.push_back(cursor.u8());
  return payload;
}

std::vector<std::byte> sectionOf(std::span<const std::uint8_t> payload) {
  SctbWriter writer;
  writer.beginSection(kSection);
  for (const std::uint8_t b : payload) writer.u8(b);
  return writer.finish();
}

template <class R>
class RecordCodec : public ::testing::Test {};

using Records =
    ::testing::Types<postsi::ScenarioCell, evo::CandidateFitness,
                     synth::SynthesisResult, lint::Diagnostic,
                     tuning::PinWindow, tuning::CellConstraint,
                     server::PingRequest, server::Response>;

struct RecordNames {
  template <class R>
  static std::string GetName(int) {
    using std::is_same_v;
    if constexpr (is_same_v<R, postsi::ScenarioCell>) return "ScenarioCell";
    if constexpr (is_same_v<R, evo::CandidateFitness>) return "Fitness";
    if constexpr (is_same_v<R, synth::SynthesisResult>) return "Synthesis";
    if constexpr (is_same_v<R, lint::Diagnostic>) return "Diagnostic";
    if constexpr (is_same_v<R, tuning::PinWindow>) return "PinWindow";
    if constexpr (is_same_v<R, tuning::CellConstraint>) return "Cell";
    if constexpr (is_same_v<R, server::PingRequest>) return "Ping";
    return "Response";
  }
};
TYPED_TEST_SUITE(RecordCodec, Records, RecordNames);

TYPED_TEST(RecordCodec, EachMemberSurvivesTheRoundTripOnItsOwn) {
  using R = TypeParam;
  const R base{};
  const int points = testing_support::mutationPoints<R>(
      [](R& r, auto& v) { R::fields(r, v); });
  ASSERT_GT(points, 0);
  for (int i = 0; i < points; ++i) {
    R record = base;
    R::fields(record, Mutate{i});
    const artifact::Digest sent = digestOfRecord(record);
    EXPECT_NE(sent, digestOfRecord(base))
        << "mutation point " << i << " left the encoding unchanged";
    EXPECT_EQ(digestOfRecord(decode<R>(encode(record))), sent)
        << "mutation point " << i << " did not survive the round trip";
  }
  const R all = sample<R>();
  EXPECT_EQ(digestOfRecord(decode<R>(encode(all))), digestOfRecord(all));
}

TYPED_TEST(RecordCodec, FieldListNamesEveryMember) {
  using R = TypeParam;
  EXPECT_TRUE(testing_support::tilesLayout<R>([](const R& r, auto& v) {
    // The design has a codec of its own, and the timing state is never
    // stored.
    if constexpr (std::is_same_v<R, synth::SynthesisResult>) {
      v("design", r.design);
      v("timing", r.timing);
    }
    R::fields(r, v);
  }));
}

TYPED_TEST(RecordCodec, TruncationAtEveryByteThrows) {
  using R = TypeParam;
  const std::vector<std::uint8_t> payload = payloadOf(encode(sample<R>()));
  ASSERT_FALSE(payload.empty());
  EXPECT_NO_THROW((void)decode<R>(sectionOf(payload)));
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_THROW((void)decode<R>(sectionOf(prefix)), artifact::FormatError)
        << "payload cut to " << cut << " of " << payload.size() << " bytes";
  }
}

/// A section holding `count` as a list count, then a few stray bytes.
std::vector<std::byte> hostileCount(std::uint64_t count) {
  SctbWriter writer;
  writer.beginSection(kSection);
  writer.u64(count);
  writer.str("tail");
  return writer.finish();
}

template <class T>
void readWhole(std::span<const std::byte> bytes, T& value) {
  const SctbReader reader = SctbReader::fromBytes(bytes);
  SctbReader::Cursor cursor = reader.section(kSection);
  artifact::Read{cursor}("value", value);
}

TEST(RecordRead, HostileCountThrowsBeforeAllocating) {
  const std::vector<std::byte> bytes = hostileCount(std::uint64_t{1} << 40);
  std::vector<double> doubles;
  EXPECT_THROW(readWhole(bytes, doubles), artifact::FormatError);
  std::vector<lint::Diagnostic> diagnostics;
  EXPECT_THROW(readWhole(bytes, diagnostics), artifact::FormatError);
  std::map<std::string, tuning::PinWindow> windows;
  EXPECT_THROW(readWhole(bytes, windows), artifact::FormatError);

  // The same through the lint report codec, whose section is one list.
  SctbWriter writer;
  writer.beginSection("lintreport");
  writer.u64(std::uint64_t{1} << 40);
  writer.str("tail");
  EXPECT_THROW(
      (void)artifact::decodeLintReport(SctbReader::fromBytes(writer.finish())),
      artifact::FormatError);
}

TEST(RecordRead, MapKeysMustAscend) {
  SctbWriter writer;
  writer.beginSection(kSection);
  writer.u64(2);
  for (const char* key : {"b", "a"}) {
    writer.str(key);
    for (int i = 0; i < 4; ++i) writer.f64(1.0);
  }
  std::map<std::string, tuning::PinWindow> windows;
  EXPECT_THROW(readWhole(writer.finish(), windows), artifact::FormatError);
}

TEST(RecordRead, EnumsAndNarrowUnsignedAreRangeChecked) {
  const auto response = [](std::uint64_t status, std::uint64_t exitCode) {
    SctbWriter writer;
    writer.beginSection(kSection);
    writer.u64(status);
    writer.u64(exitCode);
    writer.str("summary");
    writer.str("body");
    return writer.finish();
  };
  EXPECT_EQ(decode<server::Response>(response(4, 255)).status,
            server::Status::kShuttingDown);
  EXPECT_THROW((void)decode<server::Response>(response(5, 0)),
               artifact::FormatError);
  EXPECT_THROW((void)decode<server::Response>(response(0, 256)),
               artifact::FormatError);

  SctbWriter writer;
  writer.beginSection(kSection);
  writer.str("rule");
  writer.u64(3);  // one past Severity::kInfo
  writer.str("path");
  writer.str("message");
  EXPECT_THROW((void)decode<lint::Diagnostic>(writer.finish()),
               artifact::FormatError);
}

TEST(RecordRead, StoredRecordRoundTripsThroughItsSection) {
  const postsi::ScenarioCell cell = sample<postsi::ScenarioCell>();
  SctbWriter writer;
  artifact::encodeRecord(writer, cell);
  const SctbReader reader = SctbReader::fromBytes(writer.finish());
  EXPECT_TRUE(reader.hasSection(postsi::ScenarioCell::kSection));
  const auto back = artifact::decodeRecord<postsi::ScenarioCell>(reader);
  EXPECT_EQ(digestOfRecord(back), digestOfRecord(cell));
}

TEST(RecordRead, WireRecordsRefuseAnOutOfRangeStatusAsProtocolErrors) {
  server::Response response;
  response.status = static_cast<server::Status>(9);
  EXPECT_THROW((void)server::decodePayload<server::Response>(
                   server::encodePayload(response)),
               server::ProtocolError);
}

}  // namespace

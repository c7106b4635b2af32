// Unit tests for the shared Liberty-dialect lexer, the canonical %.17g
// double formatter and the wire-load model added to the STA boundary
// conditions.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>

#include "core/fmt17.hpp"
#include "liberty/text_format.hpp"
#include "sta/sta.hpp"

namespace sct {
namespace {

using liberty::text::Lexer;
using liberty::text::Line;

std::vector<Line> lexAll(const std::string& text) {
  std::istringstream in(text);
  Lexer lexer(in);
  std::vector<Line> lines;
  while (auto line = lexer.next()) lines.push_back(*line);
  return lines;
}

TEST(Lexer, KeyValueLine) {
  const auto lines = lexAll("voltage : 1.1 ;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].head, "voltage");
  ASSERT_EQ(lines[0].values.size(), 1u);
  EXPECT_EQ(lines[0].values[0], "1.1");
  EXPECT_FALSE(lines[0].opensBlock);
}

TEST(Lexer, MultiValueLine) {
  const auto lines = lexAll("index_1 : 0.1 0.2 0.3 ;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].values.size(), 3u);
}

TEST(Lexer, BlockWithArgument) {
  const auto lines = lexAll("cell (IV_1) {\n}\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].head, "cell");
  EXPECT_EQ(lines[0].arg, "IV_1");
  EXPECT_TRUE(lines[0].opensBlock);
  EXPECT_TRUE(lines[1].closesBlock);
}

TEST(Lexer, ArrowArgumentPreserved) {
  const auto lines = lexAll("timing (A -> Z) {\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].arg, "A -> Z");
}

TEST(Lexer, CommentsAndBlankLinesSkipped) {
  const auto lines = lexAll("// header\n\n  // indented comment\nx : 1 ;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].head, "x");
  EXPECT_EQ(lines[0].number, 4u);  // line numbers track the raw file
}

TEST(Lexer, TrailingCommentStripped) {
  const auto lines = lexAll("x : 2 ; // note\n");
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_EQ(lines[0].values.size(), 1u);
  EXPECT_EQ(lines[0].values[0], "2");
}

TEST(Lexer, UnterminatedParenThrows) {
  std::istringstream in("cell (IV_1 {\n");
  Lexer lexer(in);
  EXPECT_THROW((void)lexer.next(), liberty::ParseError);
}

TEST(Lexer, HelpersValidateNumbers) {
  const auto lines = lexAll("x : 1.5 ;\ny : a b ;\n");
  EXPECT_DOUBLE_EQ(liberty::text::singleValue(lines[0]), 1.5);
  EXPECT_THROW((void)liberty::text::singleValue(lines[1]),
               liberty::ParseError);
  EXPECT_THROW((void)liberty::text::axisValues(lines[1]),
               liberty::ParseError);
}

// -------------------------------------------------- shared float helpers ----

TEST(FloatHelpers, ParseDoubleAcceptsWholeTokensOnly) {
  using liberty::text::parseDouble;
  EXPECT_DOUBLE_EQ(parseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parseDouble("-0.25e-3").value(), -0.25e-3);
  EXPECT_DOUBLE_EQ(parseDouble("0").value(), 0.0);
  EXPECT_FALSE(parseDouble("").has_value());
  EXPECT_FALSE(parseDouble("1.5x").has_value());
  EXPECT_FALSE(parseDouble(" 1.5").has_value());
  EXPECT_FALSE(parseDouble("1.5 ").has_value());
  EXPECT_FALSE(parseDouble("abc").has_value());
}

TEST(FloatHelpers, CanonicalPrecisionRoundTripsExactly) {
  // The shared precision is max_digits10: any double printed at it must
  // parse back bit-identically (the property all three serializers rely on).
  for (double v : {1.0 / 3.0, 0.1, 6.02214076e23, 4.9e-324, -123.456789}) {
    std::ostringstream out;
    liberty::text::canonicalPrecision(out) << v;
    const auto back = liberty::text::parseDouble(out.str());
    ASSERT_TRUE(back.has_value()) << out.str();
    EXPECT_EQ(*back, v) << out.str();
  }
  std::ostringstream out;
  liberty::text::canonicalPrecision(out);
  EXPECT_EQ(out.precision(), liberty::text::kDoublePrecision);
}

// ------------------------------------------------------ wire-load model ----

TEST(WireLoadModel, ZeroFanoutIsZero) {
  EXPECT_DOUBLE_EQ(sta::WireLoadModel::medium().netCap(0), 0.0);
}

TEST(WireLoadModel, DefaultMatchesLegacyPerSinkModel) {
  const sta::WireLoadModel def{};
  EXPECT_DOUBLE_EQ(def.netCap(1), 0.0015);
  EXPECT_DOUBLE_EQ(def.netCap(4), 0.006);
}

TEST(WireLoadModel, PresetsAreOrdered) {
  for (std::size_t fanout : {1u, 4u, 16u}) {
    EXPECT_LT(sta::WireLoadModel::small().netCap(fanout),
              sta::WireLoadModel::medium().netCap(fanout));
    EXPECT_LT(sta::WireLoadModel::medium().netCap(fanout),
              sta::WireLoadModel::large().netCap(fanout));
  }
}

TEST(WireLoadModel, QuadraticTermGrowsSuperlinearly) {
  const sta::WireLoadModel large = sta::WireLoadModel::large();
  const double perSink4 = large.netCap(4) / 4.0;
  const double perSink16 = large.netCap(16) / 16.0;
  EXPECT_GT(perSink16, perSink4);
}

// ------------------------------------------------------------- fmt17 ----

std::string printf17(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

TEST(Fmt17, MatchesPrintfOnEdgeCases) {
  using limits = std::numeric_limits<double>;
  const double cases[] = {
      0.0, -0.0, limits::denorm_min(), -limits::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, limits::infinity(),
      -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN(),
      1.0, -1.0, 7.0, 100.0, 1e15, 1e16, 1e17, 1e22, 9007199254740992.0,
      9007199254740993.0, 123456789012345678.0, 0.1, 0.5, 1.0 / 3.0,
      4.7, 6.0, 7.8, 1e-5, 1e-4, 123456.0, 1234567890123456789.0};
  for (const double v : cases) {
    EXPECT_EQ(core::fmt17(v), printf17(v)) << printf17(v);
  }
  for (int i = -1000; i <= 1000; ++i) {
    const double v = static_cast<double>(i);
    EXPECT_EQ(core::fmt17(v), printf17(v));
  }
}

TEST(Fmt17, MatchesPrintfOnRandomDoubles) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-320, 308);
  for (int i = 0; i < 100000; ++i) {
    // Raw bit patterns cover every exponent, subnormals and NaN payloads;
    // scaled uniforms cover the magnitudes reports actually print.
    const double raw = std::bit_cast<double>(rng());
    const double scaled = unit(rng) * std::pow(10.0, exponent(rng));
    ASSERT_EQ(core::fmt17(raw), printf17(raw)) << printf17(raw);
    ASSERT_EQ(core::fmt17(scaled), printf17(scaled)) << printf17(scaled);
  }
}

}  // namespace
}  // namespace sct

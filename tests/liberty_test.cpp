// Unit tests for the Liberty-style library model: function traits, cell
// naming, pins/arcs, library queries and the text reader/writer round-trip.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "liberty/function.hpp"
#include "liberty/liberty_io.hpp"
#include "liberty/library.hpp"
#include "test_helpers.hpp"

namespace sct::liberty {
namespace {

// ----------------------------------------------------------- function ----

TEST(Function, TraitsSelfConsistent) {
  for (std::size_t i = 0; i < kNumCellFunctions; ++i) {
    const auto f = static_cast<CellFunction>(i);
    const FunctionTraits& t = traits(f);
    EXPECT_EQ(t.function, f);
    EXPECT_FALSE(t.prefix.empty());
    EXPECT_GT(t.logicalEffort, 0.0);
    EXPECT_GT(t.parasitic, 0.0);
    EXPECT_GT(t.unitArea, 0.0);
  }
}

TEST(Function, PrefixesAreUnique) {
  for (std::size_t i = 0; i < kNumCellFunctions; ++i) {
    for (std::size_t j = i + 1; j < kNumCellFunctions; ++j) {
      EXPECT_NE(traits(static_cast<CellFunction>(i)).prefix,
                traits(static_cast<CellFunction>(j)).prefix);
    }
  }
}

TEST(Function, SequentialFlagMatchesCategory) {
  EXPECT_TRUE(traits(CellFunction::kDff).sequential);
  EXPECT_TRUE(traits(CellFunction::kLatch).sequential);
  EXPECT_FALSE(traits(CellFunction::kNand2).sequential);
  EXPECT_EQ(traits(CellFunction::kDffR).category, CellCategory::kFlipFlop);
  EXPECT_EQ(traits(CellFunction::kAnd3).category, CellCategory::kOr);
  EXPECT_EQ(traits(CellFunction::kXor2).category, CellCategory::kXnor);
}

TEST(Function, StrengthSuffixFormatsPaperStyle) {
  EXPECT_EQ(strengthSuffix(1.0), "1");
  EXPECT_EQ(strengthSuffix(0.5), "0P5");
  EXPECT_EQ(strengthSuffix(2.5), "2P5");
  EXPECT_EQ(strengthSuffix(32.0), "32");
}

TEST(Function, MakeCellNameMatchesPaperConvention) {
  EXPECT_EQ(makeCellName(CellFunction::kNor2B, 3.0), "NR2B_3");
  EXPECT_EQ(makeCellName(CellFunction::kInv, 0.5), "IV_0P5");
  EXPECT_EQ(makeCellName(CellFunction::kNor4, 6.0), "NR4_6");
}

TEST(Function, ParseStrengthSuffixRoundTrip) {
  for (double s : {0.5, 0.7, 1.0, 1.5, 2.0, 2.5, 3.5, 6.0, 12.0, 32.0}) {
    EXPECT_DOUBLE_EQ(parseStrengthSuffix(strengthSuffix(s)), s);
  }
}

TEST(Function, ParseStrengthSuffixRejectsGarbage) {
  EXPECT_LT(parseStrengthSuffix(""), 0.0);
  EXPECT_LT(parseStrengthSuffix("abc"), 0.0);
  EXPECT_LT(parseStrengthSuffix("1P"), 0.0);
  EXPECT_LT(parseStrengthSuffix("P5"), 0.0);
  EXPECT_LT(parseStrengthSuffix("1Px"), 0.0);
}

TEST(Function, PinNamesPerFunction) {
  EXPECT_EQ(dataInputNames(CellFunction::kMux2)[2], "S");
  EXPECT_EQ(dataInputNames(CellFunction::kFullAdder)[2], "CI");
  EXPECT_EQ(dataInputNames(CellFunction::kDff)[0], "D");
  EXPECT_EQ(dataInputNames(CellFunction::kNand3)[1], "B");
  EXPECT_EQ(outputNames(CellFunction::kFullAdder)[0], "S");
  EXPECT_EQ(outputNames(CellFunction::kFullAdder)[1], "CO");
  EXPECT_EQ(outputNames(CellFunction::kDffR)[0], "Q");
  EXPECT_EQ(outputNames(CellFunction::kNor2)[0], "Z");
}

// ----------------------------------------------------------------- lut ----

TEST(Lut, LookupInterpolates) {
  const Lut lut = test::linearLut({0.0, 1.0}, {0.0, 2.0}, 1.0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(lut.lookup(0.5, 1.0), 1.0 + 2.0 * 0.5 + 3.0 * 1.0);
  EXPECT_DOUBLE_EQ(lut.lookup(5.0, 5.0), 1.0 + 2.0 + 6.0);  // clamped
}

TEST(Lut, SameShapeChecksAxes) {
  const Lut a = test::linearLut({0.0, 1.0}, {0.0, 2.0}, 0, 1, 1);
  const Lut b = test::linearLut({0.0, 1.0}, {0.0, 2.0}, 9, 9, 9);
  const Lut c = test::linearLut({0.0, 2.0}, {0.0, 2.0}, 0, 1, 1);
  EXPECT_TRUE(a.sameShape(b));
  EXPECT_FALSE(a.sameShape(c));
}

// ---------------------------------------------------------------- cell ----

TEST(Cell, PinAndArcLookup) {
  const liberty::Cell cell = test::makeSimpleCell(
      "ND2_1", CellFunction::kNand2, 1.0, 1.4, 0.002, 0.01, 0.1, 2.0);
  EXPECT_NE(cell.findPin("A"), nullptr);
  EXPECT_NE(cell.findPin("B"), nullptr);
  EXPECT_NE(cell.findPin("Z"), nullptr);
  EXPECT_EQ(cell.findPin("nope"), nullptr);
  EXPECT_DOUBLE_EQ(cell.inputCapacitance("A"), 0.002);
  EXPECT_DOUBLE_EQ(cell.inputCapacitance("Z"), 0.0);  // output pin
  EXPECT_EQ(cell.fanoutArcs("Z").size(), 2u);
  EXPECT_NE(cell.findArc("A", "Z"), nullptr);
  EXPECT_NE(cell.findArc("B", "Z"), nullptr);
  EXPECT_EQ(cell.findArc("Z", "A"), nullptr);
  EXPECT_EQ(cell.inputPins().size(), 2u);
  EXPECT_EQ(cell.outputPins().size(), 1u);
}

TEST(Cell, WorstDelayIsMaxOfRiseFall) {
  liberty::Cell cell = test::makeSimpleCell("IV_1", CellFunction::kInv, 1.0,
                                            1.0, 0.001, 0.01, 0.1, 2.0);
  // Make fall slower than rise.
  cell.arcs()[0].fallDelay =
      test::linearLut(test::tinySlewAxis(), test::tinyLoadAxis(), 0.05, 0.1,
                      2.0);
  const TimingArc& arc = cell.arcs()[0];
  EXPECT_DOUBLE_EQ(arc.worstDelay(0.01, 0.001),
                   arc.fallDelay.lookup(0.01, 0.001));
}

TEST(Cell, SequentialAttributes) {
  const liberty::Cell ff =
      test::makeDffCell("FD1_1", 1.0, 4.0, 0.001, 0.03, 0.08, 4.0, 0.04);
  EXPECT_TRUE(ff.isSequential());
  EXPECT_DOUBLE_EQ(ff.setupTime(), 0.04);
  EXPECT_DOUBLE_EQ(ff.holdTime(), 0.01);
  EXPECT_NE(ff.findArc("CP", "Q"), nullptr);
  EXPECT_TRUE(ff.findPin("CP")->isClock);
}

TEST(Cell, ConcurrentFirstTimingQueriesShareOneCompiledView) {
  const liberty::Cell cell = test::makeSimpleCell(
      "ND2_1", CellFunction::kNand2, 1.0, 1.4, 0.002, 0.01, 0.1, 2.0);
  // Two threads race to build the fresh cell's derived index; the loser
  // must adopt the published winner.
  const CompiledCell* seen[2] = {nullptr, nullptr};
  std::thread first([&] { seen[0] = &cell.timing(); });
  std::thread second([&] { seen[1] = &cell.timing(); });
  first.join();
  second.join();
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], &cell.timing());
  EXPECT_EQ(*seen[0], CompiledCell(cell));
  EXPECT_EQ(seen[0]->arc(1, 0).arc(), cell.findArc("B", "Z"));
  EXPECT_DOUBLE_EQ(seen[0]->totalInputCap(), 0.004);
  // A copy compiles its own view over its own arcs.
  const liberty::Cell copy = cell;
  EXPECT_EQ(copy.timing().arc(0, 0).arc(), copy.findArc("A", "Z"));
  EXPECT_NE(copy.timing().arc(0, 0).arc(), cell.findArc("A", "Z"));
}

// -------------------------------------------------------------- library ----

TEST(Library, FindAndStableAddresses) {
  liberty::Library lib = test::makeTinyLibrary();
  const Cell* inv = lib.findCell("INV_1");
  ASSERT_NE(inv, nullptr);
  // Adding more cells must not invalidate earlier pointers.
  for (int i = 0; i < 100; ++i) {
    lib.addCell(test::makeSimpleCell("X_" + std::to_string(i),
                                     CellFunction::kInv, 1.0, 1.0, 0.001,
                                     0.01, 0.1, 2.0));
  }
  EXPECT_EQ(lib.findCell("INV_1"), inv);
  EXPECT_EQ(inv->name(), "INV_1");
}

TEST(Library, FamilySortedByStrength) {
  const liberty::Library lib = test::makeTinyLibrary();
  const auto family = lib.family(CellFunction::kInv);
  ASSERT_EQ(family.size(), 2u);
  EXPECT_EQ(family[0]->name(), "INV_1");
  EXPECT_EQ(family[1]->name(), "INV_4");
}

TEST(Library, StrengthClusters) {
  const liberty::Library lib = test::makeTinyLibrary();
  const auto clusters = lib.strengthClusters();
  ASSERT_TRUE(clusters.contains(1.0));
  EXPECT_EQ(clusters.at(1.0).size(), 3u);  // INV_1, ND2_1, FD1_1
  EXPECT_EQ(clusters.at(4.0).size(), 1u);
}

TEST(Library, CategoryCounts) {
  const liberty::Library lib = test::makeTinyLibrary();
  const auto counts = lib.categoryCounts();
  EXPECT_EQ(counts.at(CellCategory::kInverter), 2u);
  EXPECT_EQ(counts.at(CellCategory::kNand), 1u);
  EXPECT_EQ(counts.at(CellCategory::kFlipFlop), 1u);
}

TEST(Library, CornerNameFormatsPaperStyle) {
  OperatingConditions oc{"TT", 1.1, 25.0};
  EXPECT_EQ(oc.cornerName(), "TT1P1V25C");
  OperatingConditions ff{"FF", 1.2, -40.0};
  EXPECT_EQ(ff.cornerName(), "FF1P2V-40C");
  OperatingConditions ss{"SS", 1.0, 125.0};
  EXPECT_EQ(ss.cornerName(), "SS1V125C");
}

// ------------------------------------------------------------------ io ----

TEST(LibertyIo, RoundTripPreservesEverything) {
  const liberty::Library lib = test::makeTinyLibrary();
  const std::string text = writeLibraryToString(lib);
  const liberty::Library back = readLibraryFromString(text);

  EXPECT_EQ(back.name(), lib.name());
  EXPECT_EQ(back.size(), lib.size());
  for (const Cell* original : lib.cells()) {
    const Cell* parsed = back.findCell(original->name());
    ASSERT_NE(parsed, nullptr) << original->name();
    EXPECT_EQ(parsed->function(), original->function());
    EXPECT_DOUBLE_EQ(parsed->driveStrength(), original->driveStrength());
    EXPECT_DOUBLE_EQ(parsed->area(), original->area());
    EXPECT_DOUBLE_EQ(parsed->setupTime(), original->setupTime());
    ASSERT_EQ(parsed->pins().size(), original->pins().size());
    ASSERT_EQ(parsed->arcs().size(), original->arcs().size());
    for (std::size_t a = 0; a < original->arcs().size(); ++a) {
      const TimingArc& oa = original->arcs()[a];
      const TimingArc& pa = parsed->arcs()[a];
      EXPECT_EQ(pa.relatedPin, oa.relatedPin);
      EXPECT_EQ(pa.outputPin, oa.outputPin);
      EXPECT_EQ(pa.riseDelay, oa.riseDelay);
      EXPECT_EQ(pa.fallDelay, oa.fallDelay);
      EXPECT_EQ(pa.riseTransition, oa.riseTransition);
      EXPECT_EQ(pa.fallTransition, oa.fallTransition);
    }
  }
}

TEST(LibertyIo, SecondRoundTripIsIdentical) {
  const liberty::Library lib = test::makeTinyLibrary();
  const std::string once = writeLibraryToString(lib);
  const std::string twice =
      writeLibraryToString(readLibraryFromString(once));
  EXPECT_EQ(once, twice);
}

TEST(LibertyIo, ParsesComments) {
  const std::string text =
      "library (x) {\n"
      "  // a comment line\n"
      "  cell (IV_1) {\n"
      "    function : INV ;  // trailing comment\n"
      "    drive_strength : 1 ;\n"
      "    area : 1 ;\n"
      "  }\n"
      "}\n";
  const liberty::Library lib = readLibraryFromString(text);
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_NE(lib.findCell("IV_1"), nullptr);
}

TEST(LibertyIo, RejectsUnknownFunction) {
  const std::string text =
      "library (x) {\n cell (A) {\n function : BOGUS ;\n }\n}\n";
  EXPECT_THROW((void)readLibraryFromString(text), ParseError);
}

TEST(LibertyIo, RejectsMalformedHeader) {
  EXPECT_THROW((void)readLibraryFromString("cell (A) {}\n"), ParseError);
}

TEST(LibertyIo, RejectsRowWidthMismatch) {
  const std::string text =
      "library (x) {\n"
      " cell (A) {\n"
      "  function : INV ;\n"
      "  timing (A -> Z) {\n"
      "   cell_rise {\n"
      "    index_1 : 0.1 0.2 ;\n"
      "    index_2 : 1 2 3 ;\n"
      "    row : 1 2 ;\n"  // should be 3 wide
      "    row : 1 2 3 ;\n"
      "   }\n"
      "  }\n"
      " }\n"
      "}\n";
  EXPECT_THROW((void)readLibraryFromString(text), ParseError);
}

TEST(LibertyIo, RejectsUnterminatedBlock) {
  EXPECT_THROW((void)readLibraryFromString("library (x) {\n"), ParseError);
}

TEST(LibertyIo, ParseErrorCarriesLineNumber) {
  const std::string text =
      "library (x) {\n cell (A) {\n  function : BOGUS ;\n }\n}\n";
  try {
    (void)readLibraryFromString(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

}  // namespace
}  // namespace sct::liberty

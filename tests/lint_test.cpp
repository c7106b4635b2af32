// Lint engine tests: one positive (rule fires on a seeded defect) and one
// negative (clean fixture stays silent) case per rule, the report renderers,
// the SCTB codec round-trip, the release-build netlist input validation, and
// the TuningFlow lint gate (fail fast in error mode, restored old behavior
// with lintMode off).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "artifact/binary_format.hpp"
#include "artifact/codecs.hpp"
#include "clocktree/clock_tree.hpp"
#include "core/flow.hpp"
#include "evo/params.hpp"
#include "liberty/liberty_io.hpp"
#include "lint/engine.hpp"
#include "lint/report_io.hpp"
#include "statlib/stat_library.hpp"
#include "test_helpers.hpp"
#include "tuning/restriction.hpp"

namespace sct {
namespace {

lint::LintReport lintLibrary(const liberty::Library& library) {
  lint::LintSubject subject;
  subject.library = &library;
  return lint::LintEngine::withAllRules().run(subject);
}

lint::LintReport lintStat(const statlib::StatLibrary& stat,
                          const liberty::Library* reference = nullptr) {
  lint::LintSubject subject;
  subject.statLibrary = &stat;
  subject.referenceLibrary = reference;
  return lint::LintEngine::withAllRules().run(subject);
}

lint::LintReport lintDesign(const netlist::Design& design,
                            const liberty::Library* reference = nullptr) {
  lint::LintSubject subject;
  subject.design = &design;
  subject.referenceLibrary = reference;
  return lint::LintEngine::withAllRules().run(subject);
}

lint::LintReport lintConstraints(const tuning::LibraryConstraints& constraints,
                                 const liberty::Library* reference = nullptr) {
  lint::LintSubject subject;
  subject.constraints = &constraints;
  subject.referenceLibrary = reference;
  return lint::LintEngine::withAllRules().run(subject);
}

/// Stat library merged from two identical tiny-library instances: valid
/// grids, zero sigma, sample count 2.
statlib::StatLibrary makeTinyStatLibrary() {
  std::vector<liberty::Library> instances;
  instances.push_back(test::makeTinyLibrary());
  instances.push_back(test::makeTinyLibrary());
  return statlib::buildStatLibrary(instances);
}

// ---- liberty pack --------------------------------------------------------

TEST(LintLibertyTest, CleanLibraryHasNoFindings) {
  const liberty::Library library = test::makeTinyLibrary();
  const lint::LintReport report = lintLibrary(library);
  EXPECT_TRUE(report.empty()) << lint::writeTextToString(report);
}

TEST(LintLibertyTest, AxisOrderDetectsDisorderedAxis) {
  liberty::Library library = test::makeTinyLibrary();
  liberty::Cell* cell = library.findCell("INV_1");
  ASSERT_NE(cell, nullptr);
  cell->arcs()[0].riseDelay =
      test::linearLut({0.01, 0.4, 0.1}, test::tinyLoadAxis(), 0.01, 0.1, 4.0);
  const lint::LintReport report = lintLibrary(library);
  EXPECT_TRUE(report.hasRule("lib.axis.order"));
  EXPECT_TRUE(report.hasErrors());
}

TEST(LintLibertyTest, AxisOrderDetectsDuplicateBreakpoint) {
  liberty::Library library = test::makeTinyLibrary();
  liberty::Cell* cell = library.findCell("INV_1");
  ASSERT_NE(cell, nullptr);
  cell->arcs()[0].fallDelay =
      test::linearLut(test::tinySlewAxis(), {0.001, 0.01, 0.01}, 0.01, 0.1,
                      4.0);
  const lint::LintReport report = lintLibrary(library);
  ASSERT_TRUE(report.hasRule("lib.axis.order"));
  bool sawDuplicate = false;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.ruleId == "lib.axis.order" &&
        d.message.find("duplicate") != std::string::npos) {
      sawDuplicate = true;
    }
  }
  EXPECT_TRUE(sawDuplicate);
}

TEST(LintLibertyTest, ValueInvalidDetectsNegativeAndNaNEntries) {
  liberty::Library library = test::makeTinyLibrary();
  liberty::Cell* cell = library.findCell("ND2_1");
  ASSERT_NE(cell, nullptr);
  cell->arcs()[0].riseDelay.at(0, 0) = -0.25;
  cell->arcs()[1].fallDelay.at(1, 1) = std::nan("");
  const lint::LintReport report = lintLibrary(library);
  std::size_t findings = 0;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.ruleId == "lib.value.invalid") ++findings;
  }
  EXPECT_EQ(findings, 2u);
  EXPECT_EQ(report.diagnostics()[0].severity, lint::Severity::kError);
}

TEST(LintLibertyTest, MonotoneLoadWarnsOnDecreasingDelayRow) {
  liberty::Library library = test::makeTinyLibrary();
  liberty::Cell* cell = library.findCell("BF_2");
  ASSERT_NE(cell, nullptr);
  // Negative load coefficient: delay shrinks as load grows.
  cell->arcs()[0].riseDelay = test::linearLut(
      test::tinySlewAxis(), test::tinyLoadAxis(), 0.5, 0.1, -4.0);
  const lint::LintReport report = lintLibrary(library);
  EXPECT_TRUE(report.hasRule("lib.lut.monotone-load"));
  EXPECT_FALSE(report.hasErrors());  // warning severity only
  EXPECT_EQ(report.warningCount(), 1u);
}

TEST(LintLibertyTest, MissingArcDetectsArclessOutputAndBadPinRefs) {
  liberty::Library library = test::makeTinyLibrary();
  liberty::Cell* cell = library.findCell("INV_1");
  ASSERT_NE(cell, nullptr);
  liberty::Pin orphan;
  orphan.name = "Y";
  orphan.direction = liberty::PinDirection::kOutput;
  cell->addPin(std::move(orphan));
  liberty::Cell* other = library.findCell("INV_4");
  ASSERT_NE(other, nullptr);
  other->arcs()[0].relatedPin = "NO_SUCH_PIN";
  const lint::LintReport report = lintLibrary(library);
  std::size_t findings = 0;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.ruleId == "lib.pin.missing-arc") ++findings;
  }
  EXPECT_EQ(findings, 2u);
}

TEST(LintLibertyTest, MissingArcSkipsTieCells) {
  liberty::Library library = test::makeTinyLibrary();
  // Tie cells have an arc-less output and no inputs; that is legitimate.
  liberty::Cell tie("TIE1", liberty::CellFunction::kTieHi, 1.0, 0.5);
  liberty::Pin out;
  out.name = "Z";
  out.direction = liberty::PinDirection::kOutput;
  tie.addPin(std::move(out));
  library.addCell(std::move(tie));
  const lint::LintReport report = lintLibrary(library);
  EXPECT_FALSE(report.hasRule("lib.pin.missing-arc"))
      << lint::writeTextToString(report);
}

TEST(LintLibertyTest, LutShapeDetectsAxisSkewBetweenTables) {
  liberty::Library library = test::makeTinyLibrary();
  liberty::Cell* cell = library.findCell("INV_1");
  ASSERT_NE(cell, nullptr);
  cell->arcs()[0].riseTransition =
      test::linearLut({0.02, 0.2, 0.8}, test::tinyLoadAxis(), 0.01, 0.05, 3.0);
  const lint::LintReport report = lintLibrary(library);
  EXPECT_TRUE(report.hasRule("lib.lut.shape"));
}

// ---- statlib pack --------------------------------------------------------

TEST(LintStatLibTest, CleanStatLibraryHasNoFindings) {
  const liberty::Library nominal = test::makeTinyLibrary();
  const statlib::StatLibrary stat = makeTinyStatLibrary();
  const lint::LintReport report = lintStat(stat, &nominal);
  EXPECT_TRUE(report.empty()) << lint::writeTextToString(report);
}

TEST(LintStatLibTest, DetectsNegativeSigmaAndNaNMean) {
  statlib::StatLibrary stat("corrupt");
  stat.setSampleCount(5);
  statlib::StatCell cell("INV_1", liberty::CellFunction::kInv, 1.0, 1.0);
  statlib::StatArc arc;
  arc.relatedPin = "A";
  arc.outputPin = "Z";
  arc.rise = statlib::StatLut(test::tinySlewAxis(), test::tinyLoadAxis());
  arc.fall = statlib::StatLut(test::tinySlewAxis(), test::tinyLoadAxis());
  arc.rise.sigma().at(0, 0) = -0.5;
  arc.fall.mean().at(1, 2) = std::nan("");
  cell.addArc(std::move(arc));
  stat.addCell(std::move(cell));
  const lint::LintReport report = lintStat(stat);
  EXPECT_TRUE(report.hasRule("stat.sigma.invalid"));
  EXPECT_TRUE(report.hasRule("stat.mean.invalid"));
}

TEST(LintStatLibTest, WarnsWhenSigmaExceedsMean) {
  statlib::StatLibrary stat("suspicious");
  stat.setSampleCount(5);
  statlib::StatCell cell("INV_1", liberty::CellFunction::kInv, 1.0, 1.0);
  statlib::StatArc arc;
  arc.relatedPin = "A";
  arc.outputPin = "Z";
  arc.rise = statlib::StatLut(test::tinySlewAxis(), test::tinyLoadAxis());
  arc.fall = statlib::StatLut(test::tinySlewAxis(), test::tinyLoadAxis());
  arc.rise.mean().at(0, 0) = 0.1;
  arc.rise.sigma().at(0, 0) = 0.4;
  cell.addArc(std::move(arc));
  stat.addCell(std::move(cell));
  const lint::LintReport report = lintStat(stat);
  EXPECT_TRUE(report.hasRule("stat.sigma.exceeds-mean"));
  EXPECT_FALSE(report.hasErrors());
}

TEST(LintStatLibTest, DetectsInsufficientSampleCount) {
  std::vector<liberty::Library> one;
  one.push_back(test::makeTinyLibrary());
  const statlib::StatLibrary stat = statlib::buildStatLibrary(one);
  const lint::LintReport report = lintStat(stat);
  EXPECT_TRUE(report.hasRule("stat.samples.insufficient"));
}

TEST(LintStatLibTest, DetectsGridMismatchAgainstNominal) {
  const statlib::StatLibrary stat = makeTinyStatLibrary();
  liberty::Library nominal = test::makeTinyLibrary();
  liberty::Cell* cell = nominal.findCell("INV_1");
  ASSERT_NE(cell, nullptr);
  cell->arcs()[0].riseDelay =
      test::linearLut({0.05, 0.5, 2.0}, test::tinyLoadAxis(), 0.01, 0.1, 4.0);
  const lint::LintReport report = lintStat(stat, &nominal);
  EXPECT_TRUE(report.hasRule("stat.grid.mismatch"));
}

TEST(LintStatLibTest, DetectsCellMissingFromNominal) {
  const statlib::StatLibrary stat = makeTinyStatLibrary();
  liberty::Library nominal("sparse");
  nominal.addCell(test::makeSimpleCell("INV_1", liberty::CellFunction::kInv,
                                       1.0, 1.0, 0.001, 0.010, 0.1, 4.0));
  const lint::LintReport report = lintStat(stat, &nominal);
  EXPECT_TRUE(report.hasRule("stat.grid.mismatch"));
}

// ---- netlist pack --------------------------------------------------------

TEST(LintNetlistTest, CleanChainHasNoFindings) {
  const netlist::Design design = test::makeInvChain(3);
  const lint::LintReport report = lintDesign(design);
  EXPECT_TRUE(report.empty()) << lint::writeTextToString(report);
}

TEST(LintNetlistTest, DetectsCombinationalLoop) {
  netlist::Design design("loop");
  const netlist::NetIndex a = design.addNet("a");
  const netlist::NetIndex b = design.addNet("b");
  design.addInstance("u1", netlist::PrimOp::kInv, {b}, {a});
  design.addInstance("u2", netlist::PrimOp::kInv, {a}, {b});
  const lint::LintReport report = lintDesign(design);
  EXPECT_TRUE(report.hasRule("net.comb-loop"));
}

TEST(LintNetlistTest, DetectsMultiDriverNet) {
  netlist::Design design("multi");
  netlist::NetlistBuilder b(design);
  const netlist::NetIndex in = b.inputPort("din");
  const netlist::NetIndex shared = b.inv(in);
  b.outputPort("dout", shared);
  // addInstance rejects double-driving, so wire the corruption the way a
  // broken deserializer would: raw instance insertion.
  design.addInstanceRaw(netlist::Instance{
      "rogue", netlist::PrimOp::kInv, nullptr, {in}, {shared}, true});
  const lint::LintReport report = lintDesign(design);
  EXPECT_TRUE(report.hasRule("net.multi-driver"));
}

TEST(LintNetlistTest, DetectsFloatingInput) {
  netlist::Design design("float");
  const netlist::NetIndex undriven = design.addNet("undriven");
  const netlist::NetIndex out = design.addNet("out");
  design.addInstance("u1", netlist::PrimOp::kInv, {undriven}, {out});
  design.addPort("dout", netlist::PortDirection::kOutput, out);
  const lint::LintReport report = lintDesign(design);
  EXPECT_TRUE(report.hasRule("net.floating-input"));
}

TEST(LintNetlistTest, WarnsOnDanglingOutput) {
  netlist::Design design("dangle");
  netlist::NetlistBuilder b(design);
  const netlist::NetIndex in = b.inputPort("din");
  b.inv(in);  // output net never consumed, never a primary output
  const lint::LintReport report = lintDesign(design);
  EXPECT_TRUE(report.hasRule("net.dangling-output"));
  EXPECT_FALSE(report.hasErrors());
}

TEST(LintNetlistTest, DetectsCellMissingFromReferenceLibrary) {
  const liberty::Library reference = test::makeTinyLibrary();
  liberty::Library foreign("foreign");
  const liberty::Cell* alien =
      foreign.addCell(test::makeSimpleCell("ALIEN_9", liberty::CellFunction::kInv,
                                           1.0, 1.0, 0.001, 0.010, 0.1, 4.0));
  netlist::Design design("mapped");
  netlist::NetlistBuilder b(design);
  const netlist::NetIndex in = b.inputPort("din");
  const netlist::NetIndex out = b.inv(in);
  b.outputPort("dout", out);
  design.bindCell(design.net(out).driver, alien);
  const lint::LintReport report = lintDesign(design, &reference);
  EXPECT_TRUE(report.hasRule("net.unknown-cell"));
}

// Regression for the latent release-build bug the netlist rules exposed:
// addInstance used to accept corrupt wiring with assert() only, so release
// builds silently produced multi-driven nets.
TEST(LintNetlistTest, AddInstanceRejectsCorruptWiring) {
  netlist::Design design("guarded");
  const netlist::NetIndex in = design.addNet("in");
  const netlist::NetIndex out = design.addNet("out");
  design.addPort("din", netlist::PortDirection::kInput, in);
  design.addPort("dout", netlist::PortDirection::kOutput, out);
  design.addInstance("u1", netlist::PrimOp::kInv, {in}, {out});
  // Second driver of `out`.
  EXPECT_THROW(design.addInstance("u2", netlist::PrimOp::kInv, {in}, {out}),
               std::invalid_argument);
  // Wrong connection counts for the op.
  EXPECT_THROW(design.addInstance("u3", netlist::PrimOp::kNand2, {in},
                                  {design.addNet("x")}),
               std::invalid_argument);
  // Out-of-range net index.
  EXPECT_THROW(design.addInstance("u4", netlist::PrimOp::kInv, {999},
                                  {design.addNet("y")}),
               std::invalid_argument);
  // The rejected instances must not have corrupted the design.
  EXPECT_EQ(design.validate(), "");
  EXPECT_FALSE(lintDesign(design).hasErrors());
}

// ---- constraints pack ----------------------------------------------------

TEST(LintConstraintsTest, CleanTunedConstraintsHaveNoErrors) {
  const liberty::Library nominal = test::makeTinyLibrary();
  const statlib::StatLibrary stat = makeTinyStatLibrary();
  const tuning::LibraryConstraints constraints = tuning::tuneLibrary(
      stat, tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                            1.0));
  const lint::LintReport report = lintConstraints(constraints, &nominal);
  EXPECT_FALSE(report.hasErrors()) << lint::writeTextToString(report);
}

TEST(LintConstraintsTest, DetectsInvertedWindow) {
  tuning::LibraryConstraints constraints;
  tuning::CellConstraint cc;
  cc.pinWindows["Z"] = tuning::PinWindow{0.5, 0.1, 0.0, 0.01};
  constraints.setCell("INV_1", std::move(cc));
  const lint::LintReport report = lintConstraints(constraints);
  EXPECT_TRUE(report.hasRule("cst.window.inverted"));
}

TEST(LintConstraintsTest, DetectsWindowOutsideCharacterizedRange) {
  const liberty::Library nominal = test::makeTinyLibrary();
  tuning::LibraryConstraints constraints;
  tuning::CellConstraint cc;
  // tinySlewAxis tops out at 0.4; a window to 9.0 is outside the tables.
  cc.pinWindows["Z"] = tuning::PinWindow{0.0, 9.0, 0.0, 0.01};
  constraints.setCell("INV_1", std::move(cc));
  const lint::LintReport report = lintConstraints(constraints, &nominal);
  EXPECT_TRUE(report.hasRule("cst.window.out-of-range"));
}

TEST(LintConstraintsTest, WarnsWhenWindowExcludesEveryGridPoint) {
  const liberty::Library nominal = test::makeTinyLibrary();
  tuning::LibraryConstraints constraints;
  tuning::CellConstraint cc;
  // Slew window strictly between breakpoints 0.01 and 0.1.
  cc.pinWindows["Z"] = tuning::PinWindow{0.02, 0.05, 0.0, 0.01};
  constraints.setCell("INV_1", std::move(cc));
  const lint::LintReport report = lintConstraints(constraints, &nominal);
  EXPECT_TRUE(report.hasRule("cst.window.no-grid-point"));
}

TEST(LintConstraintsTest, DetectsUnknownCellPinAndNonOutputPin) {
  const liberty::Library nominal = test::makeTinyLibrary();
  tuning::LibraryConstraints constraints;
  tuning::CellConstraint unknownCell;
  unknownCell.pinWindows["Z"] = tuning::PinWindow{0.0, 0.1, 0.0, 0.01};
  constraints.setCell("NO_SUCH_CELL", std::move(unknownCell));
  tuning::CellConstraint badPins;
  badPins.pinWindows["QQ"] = tuning::PinWindow{0.0, 0.1, 0.0, 0.01};
  badPins.pinWindows["A"] = tuning::PinWindow{0.0, 0.1, 0.0, 0.01};
  constraints.setCell("INV_1", std::move(badPins));
  const lint::LintReport report = lintConstraints(constraints, &nominal);
  std::size_t findings = 0;
  for (const lint::Diagnostic& d : report.diagnostics()) {
    if (d.ruleId == "cst.unknown-cell") ++findings;
  }
  EXPECT_EQ(findings, 3u);
}

// ---- clock pack ----------------------------------------------------------

lint::LintReport lintClock(const clocktree::TuningElementSpec& spec,
                           const clocktree::ClockTree* tree = nullptr) {
  lint::LintSubject subject;
  subject.clockTuning = &spec;
  subject.clockTree = tree;
  return lint::LintEngine::withAllRules().run(subject);
}

TEST(LintClockTest, CleanElementSpecHasNoFindings) {
  const clocktree::TuningElementSpec spec{0.0, 0.3, 0.05, 2.0};
  const lint::LintReport report = lintClock(spec);
  EXPECT_TRUE(report.empty()) << lint::writeTextToString(report);
}

TEST(LintClockTest, DetectsInvertedAndNegativeRange) {
  const lint::LintReport inverted =
      lintClock(clocktree::TuningElementSpec{0.3, 0.0, 0.05, 2.0});
  EXPECT_TRUE(inverted.hasRule("cst.clock.range-inverted"));
  EXPECT_TRUE(inverted.hasErrors());
  const lint::LintReport negative =
      lintClock(clocktree::TuningElementSpec{-0.1, 0.3, 0.05, 2.0});
  EXPECT_TRUE(negative.hasRule("cst.clock.range-inverted"));
}

TEST(LintClockTest, DetectsNonPositiveStep) {
  const lint::LintReport report =
      lintClock(clocktree::TuningElementSpec{0.0, 0.3, 0.0, 2.0});
  EXPECT_TRUE(report.hasRule("cst.clock.step-nonpositive"));
  EXPECT_TRUE(report.hasErrors());
}

TEST(LintClockTest, WarnsOnStepCoarserThanRange) {
  const lint::LintReport report =
      lintClock(clocktree::TuningElementSpec{0.0, 0.1, 0.5, 2.0});
  EXPECT_TRUE(report.hasRule("cst.clock.step-coarse"));
  EXPECT_FALSE(report.hasErrors());
}

TEST(LintClockTest, WarnsWhenRangeBelowTreeSkewOnlyWithTreeContext) {
  // One-level tree with a large per-buffer sigma: the worst skew between
  // disjoint chains dwarfs the element's 0.3 ns span.
  clocktree::ClockTree tree;
  clocktree::TreeLevel level;
  level.bufferCount = 2;
  level.delaySigma = 1.0;
  tree.levels.push_back(level);
  tree.sinkCount = 2;
  ASSERT_GT(tree.worstSkewSigma(), 0.3);

  const clocktree::TuningElementSpec spec{0.0, 0.3, 0.05, 2.0};
  const lint::LintReport with = lintClock(spec, &tree);
  EXPECT_TRUE(with.hasRule("cst.clock.range-below-skew"));
  EXPECT_FALSE(with.hasErrors());
  // Without tree context the cross-check degrades to skipped.
  EXPECT_TRUE(lintClock(spec).empty());
}

// ---- evo pack ------------------------------------------------------------

lint::LintReport lintEvolve(const evo::EvolveParams& params) {
  lint::LintSubject subject;
  subject.evolveParams = &params;
  return lint::LintEngine::withAllRules().run(subject);
}

TEST(LintEvoTest, DefaultParamsAreClean) {
  const evo::EvolveParams params;
  const lint::LintReport report = lintEvolve(params);
  EXPECT_TRUE(report.empty()) << lint::writeTextToString(report);
}

TEST(LintEvoTest, DetectsDegeneratePopulationAndGenerations) {
  evo::EvolveParams params;
  params.population = 1;
  params.generations = 0;
  const lint::LintReport report = lintEvolve(params);
  EXPECT_TRUE(report.hasRule("evo.population.too-small"));
  EXPECT_TRUE(report.hasRule("evo.generations.zero"));
  EXPECT_TRUE(report.hasErrors());
}

TEST(LintEvoTest, DetectsInvalidObjectiveSets) {
  evo::EvolveParams unknown;
  unknown.objectives = "sigma,yield";
  EXPECT_TRUE(lintEvolve(unknown).hasRule("evo.objectives.invalid"));
  evo::EvolveParams empty;
  empty.objectives = "";
  EXPECT_TRUE(lintEvolve(empty).hasRule("evo.objectives.invalid"));
  evo::EvolveParams subset;
  subset.objectives = "area,sigma";
  EXPECT_FALSE(lintEvolve(subset).hasRule("evo.objectives.invalid"));
}

TEST(LintEvoTest, DetectsInvertedOrNonFiniteGeneBounds) {
  evo::EvolveParams inverted;
  inverted.geneMin = 0.06;
  inverted.geneMax = 0.002;
  EXPECT_TRUE(lintEvolve(inverted).hasRule("evo.gene-bounds.inverted"));
  evo::EvolveParams negative;
  negative.geneMin = -0.01;
  EXPECT_TRUE(lintEvolve(negative).hasRule("evo.gene-bounds.inverted"));
  evo::EvolveParams nan;
  nan.geneMax = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(lintEvolve(nan).hasRule("evo.gene-bounds.inverted"));
}

TEST(LintEvoTest, ObjectiveRuleAndTunerShareOneParser) {
  evo::EvolveParams unknown;
  unknown.objectives = "sigma,yield";
  const lint::LintReport report = lintEvolve(unknown);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].message,
            evo::parseObjectives(unknown.objectives).error);
  EXPECT_EQ(report.diagnostics()[0].message,
            "unknown objective 'yield' (sigma/area/power)");
  EXPECT_EQ(evo::parseObjectives(",").error,
            "objective set ',' selects nothing to optimize");
  const evo::ObjectiveSet set = evo::parseObjectives("power,sigma,power");
  EXPECT_TRUE(set.error.empty());
  EXPECT_EQ(set.enabled, (std::vector<std::size_t>{0, 2}));
}

// ---- rule table ----------------------------------------------------------

/// The id prefix every rule of `pack` carries.
std::string_view packPrefix(lint::RulePack pack) {
  switch (pack) {
    case lint::RulePack::kLiberty: return "lib.";
    case lint::RulePack::kStatLib: return "stat.";
    case lint::RulePack::kNetlist: return "net.";
    case lint::RulePack::kConstraints: return "cst.";
    case lint::RulePack::kClock: return "cst.clock.";
    case lint::RulePack::kEvo: return "evo.";
  }
  return "?";
}

TEST(LintRuleTableTest, IdsAreUniqueAndCarryTheirPackPrefix) {
  std::set<std::string_view> ids;
  std::set<lint::RulePack> packs;
  for (const lint::Rule& rule : lint::LintEngine::withAllRules().rules()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
    packs.insert(rule.pack);
    EXPECT_TRUE(rule.id.starts_with(packPrefix(rule.pack))) << rule.id;
    if (rule.pack == lint::RulePack::kConstraints) {
      EXPECT_FALSE(rule.id.starts_with("cst.clock.")) << rule.id;
    }
    EXPECT_FALSE(rule.description.empty()) << rule.id;
    EXPECT_NE(rule.check, nullptr) << rule.id;
  }
  // Every pack has at least one rule.
  EXPECT_EQ(packs.size(), 6u);
}

TEST(LintRuleTableTest, RowsRunInPackThenTableOrder) {
  std::vector<std::string_view> ids;
  for (const lint::Rule& rule : lint::LintEngine::withAllRules().rules()) {
    ids.push_back(rule.id);
  }
  const std::vector<std::string_view> expected = {
      "lib.axis.order", "lib.value.invalid", "lib.lut.monotone-load",
      "lib.pin.missing-arc", "lib.lut.shape",
      "stat.sigma.invalid", "stat.mean.invalid", "stat.sigma.exceeds-mean",
      "stat.samples.insufficient", "stat.grid.mismatch",
      "net.comb-loop", "net.multi-driver", "net.floating-input",
      "net.dangling-output", "net.unknown-cell",
      "cst.window.inverted", "cst.window.out-of-range",
      "cst.window.no-grid-point", "cst.unknown-cell",
      "cst.clock.range-inverted", "cst.clock.step-nonpositive",
      "cst.clock.step-coarse", "cst.clock.range-below-skew",
      "evo.population.too-small", "evo.generations.zero",
      "evo.objectives.invalid", "evo.gene-bounds.inverted"};
  EXPECT_EQ(ids, expected);
}

TEST(LintRuleTableTest, SarifListsEveryRuleInTableOrder) {
  const std::string sarif = lint::writeSarifToString(lint::LintReport{});
  std::size_t cursor = 0;
  std::size_t listed = 0;
  for (const lint::Rule& rule : lint::LintEngine::withAllRules().rules()) {
    const std::size_t at = sarif.find(
        "{\"id\": \"" + std::string(rule.id) + "\", \"shortDescription\": "
        "{\"text\": \"" + std::string(rule.description) + "\"}}",
        cursor);
    ASSERT_NE(at, std::string::npos) << rule.id;
    cursor = at + 1;
    ++listed;
  }
  EXPECT_EQ(listed, 27u);
  std::size_t entries = 0;
  for (std::size_t at = sarif.find("{\"id\": "); at != std::string::npos;
       at = sarif.find("{\"id\": ", at + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 27u);
}

// ---- engine + report plumbing --------------------------------------------

TEST(LintEngineTest, PackSelectionSkipsUncarriedAndUnselectedPacks) {
  liberty::Library library = test::makeTinyLibrary();
  library.findCell("INV_1")->arcs()[0].riseDelay.at(0, 0) = -1.0;
  const lint::LintEngine engine = lint::LintEngine::withAllRules();
  lint::LintSubject subject;
  subject.library = &library;
  // Netlist pack selected but not carried: nothing runs.
  EXPECT_TRUE(
      engine.run(subject, lint::packBit(lint::RulePack::kNetlist)).empty());
  // Liberty pack selected and carried: the seeded defect is found.
  EXPECT_TRUE(engine.run(subject, lint::packBit(lint::RulePack::kLiberty))
                  .hasRule("lib.value.invalid"));
}

TEST(LintReportTest, SummaryAndCountsTrackSeverities) {
  lint::LintReport report;
  report.add({"a.b", lint::Severity::kError, "x", "m1"});
  report.add({"c.d", lint::Severity::kWarning, "y", "m2"});
  report.add({"e.f", lint::Severity::kInfo, "z", "m3"});
  EXPECT_EQ(report.errorCount(), 1u);
  EXPECT_EQ(report.warningCount(), 1u);
  EXPECT_EQ(report.infoCount(), 1u);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_EQ(report.summary(), "1 error, 1 warning, 1 info");
}

TEST(LintReportTest, RenderersContainRuleIdsInAllThreeFormats) {
  liberty::Library library = test::makeTinyLibrary();
  library.findCell("INV_1")->arcs()[0].riseDelay.at(0, 0) = -1.0;
  const lint::LintEngine engine = lint::LintEngine::withAllRules();
  lint::LintSubject subject;
  subject.library = &library;
  const lint::LintReport report = engine.run(subject);
  ASSERT_TRUE(report.hasRule("lib.value.invalid"));

  const std::string text = lint::writeTextToString(report);
  EXPECT_NE(text.find("error: [lib.value.invalid]"), std::string::npos);
  EXPECT_NE(text.find("lib/INV_1/Z/cell_rise"), std::string::npos);

  const std::string json = lint::writeJsonToString(report);
  EXPECT_NE(json.find("\"rule\": \"lib.value.invalid\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);

  const std::string sarif = lint::writeSarifToString(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lib.value.invalid\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"fullyQualifiedName\": \"lib/INV_1/Z/cell_rise\""),
            std::string::npos);
}

TEST(LintReportTest, JsonEscapesControlCharacters) {
  lint::LintReport report;
  report.add({"a.b", lint::Severity::kError, "path\"with\\quote",
              "line1\nline2"});
  const std::string json = lint::writeJsonToString(report);
  EXPECT_NE(json.find("path\\\"with\\\\quote"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
}

TEST(LintCodecTest, ReportRoundTripsThroughSctb) {
  lint::LintReport report;
  report.add({"lib.axis.order", lint::Severity::kError, "lib/X/Z/cell_rise",
              "broken axis"});
  report.add({"net.dangling-output", lint::Severity::kWarning, "design/u1/out0",
              "dead logic"});
  artifact::SctbWriter writer;
  artifact::encodeLintReport(writer, report);
  const artifact::SctbReader reader =
      artifact::SctbReader::fromBytes(writer.finish());
  const lint::LintReport back = artifact::decodeLintReport(reader);
  ASSERT_EQ(back.size(), report.size());
  EXPECT_EQ(back.diagnostics(), report.diagnostics());
  EXPECT_EQ(back.errorCount(), 1u);
  EXPECT_EQ(back.warningCount(), 1u);
}

// ---- flow gate -----------------------------------------------------------

/// Minimal (2x2 grid) flow config; `goodAxes` selects between a clean and a
/// deliberately corrupted characterization (decreasing slew axis, which
/// produces unordered LUT axes in every characterized cell).
core::FlowConfig gateConfig(bool goodAxes) {
  core::FlowConfig config;
  config.characterization.slewAxis =
      goodAxes ? numeric::Axis{0.02, 0.6} : numeric::Axis{0.6, 0.02};
  config.characterization.loadFractions = {0.1, 1.0};
  config.mcLibraryCount = 2;
  return config;
}

TEST(LintFlowGateTest, ErrorModeFailsFastOnCorruptLibrary) {
  core::TuningFlow flow(gateConfig(false));
  try {
    (void)flow.nominalLibrary();
    FAIL() << "lint gate should have thrown";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("lint gate failed at stage 'nominal'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("lib.axis.order"), std::string::npos) << message;
  }
}

TEST(LintFlowGateTest, OffModeRestoresOldBehavior) {
  core::FlowConfig config = gateConfig(false);
  config.lintMode = core::LintMode::kOff;
  core::TuningFlow flow(config);
  // Same corrupt characterization, no gate: the library is served as-is.
  const liberty::Library& library = flow.nominalLibrary();
  EXPECT_FALSE(library.cells().empty());
}

TEST(LintFlowGateTest, CleanFlowPassesInErrorMode) {
  core::TuningFlow flow(gateConfig(true));
  EXPECT_FALSE(flow.nominalLibrary().cells().empty());
  EXPECT_GT(flow.statLibrary().size(), 0u);
  EXPECT_GT(flow.subject().gateCount(), 0u);
}

TEST(LintFlowGateTest, ErrorAndOffModeProduceIdenticalLibraries) {
  core::TuningFlow gated(gateConfig(true));
  core::FlowConfig offConfig = gateConfig(true);
  offConfig.lintMode = core::LintMode::kOff;
  core::TuningFlow ungated(offConfig);
  EXPECT_EQ(liberty::writeLibraryToString(gated.nominalLibrary()),
            liberty::writeLibraryToString(ungated.nominalLibrary()));
}

}  // namespace
}  // namespace sct

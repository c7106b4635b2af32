// Stage-key properties (DESIGN.md §10). Every stage key is a tag, the
// schema version and the canonical encoding of the configs the stage reads,
// so mutating any declared field splits exactly the keys of the stages that
// read it and nothing else does. The layout check proves each field list
// names every member of its struct, and the job table's request digests
// are pinned.

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "artifact/fields.hpp"
#include "artifact/mem_cache.hpp"
#include "artifact/store.hpp"
#include "core/flow.hpp"
#include "postsi/scenario.hpp"
#include "server/jobs.hpp"

#include "field_visitors.hpp"

namespace sct {
namespace {

using testing_support::Mutate;

enum Stage : unsigned {
  kNominal,
  kStat,
  kTune,
  kSubject,
  kSynthBase,
  kSynthTuned,
  kContext,
  kCell,
  kStageCount
};
constexpr const char* kStageNames[kStageCount] = {
    "nominal",     "stat",    "tune", "subject", "baseline synth",
    "tuned synth", "context", "scenario cell"};

using Mask = unsigned;
using Keys = std::array<artifact::Digest, kStageCount>;

constexpr Mask bit(Stage s) { return Mask{1} << s; }
constexpr Mask kNone = 0;
constexpr Mask kAll = (Mask{1} << kStageCount) - 1;
/// Stages downstream of the clock and synthesis options.
constexpr Mask kMeasured =
    bit(kSynthBase) | bit(kSynthTuned) | bit(kContext) | bit(kCell);
/// ... and of the subject design.
constexpr Mask kDesign = kMeasured | bit(kSubject);
/// Stages downstream of the MC library instances (count and seed).
constexpr Mask kSampled =
    bit(kStat) | bit(kTune) | bit(kSynthTuned) | bit(kContext) | bit(kCell);
constexpr Mask kTuned = bit(kTune) | bit(kSynthTuned) | bit(kCell);

/// Everything a stage key reads: the flow config, plus the tuning config
/// and clock-tuning element of a tuned scenario cell.
struct Inputs {
  core::FlowConfig flow;
  tuning::TuningConfig tuningConfig = tuning::TuningConfig::forMethod(
      tuning::TuningMethod::kSigmaCeiling, 0.02);
  clocktree::TuningElementSpec element{0.0, 0.3, 0.05, 2.0};
};

Keys keysOf(const Inputs& in) {
  const core::TuningFlow flow(in.flow);
  const double period = in.flow.clock.period;
  postsi::ScenarioJob job;
  job.element = in.element;
  return {flow.nominalKey(),
          flow.statKey(),
          flow.tuneKey(in.tuningConfig),
          flow.subjectKey(),
          flow.synthKey(period, nullptr),
          flow.synthKey(period, &in.tuningConfig),
          flow.measurementContextDigest(period),
          postsi::cellKey(flow, &in.tuningConfig, job,
                          postsi::kScenarioClock, period, 16)};
}

/// Expects the keys of exactly the stages in `splits` to differ.
void expectSplits(const Keys& base, const Keys& changed, Mask splits,
                  const std::string& what) {
  for (unsigned s = 0; s < kStageCount; ++s) {
    const bool reads = ((splits >> s) & 1u) != 0;
    EXPECT_EQ(base[s] != changed[s], reads)
        << what << (reads ? " left the " : " split the ") << kStageNames[s]
        << " key";
  }
}

/// Mutates each point of the field list of `part(inputs)` in turn.
template <class Part>
void expectEveryFieldSplits(const char* name, Part part, Mask splits,
                            const Inputs& start = {}) {
  const Keys base = keysOf(start);
  Inputs probe = start;
  Mutate count{Mutate::kNone};
  count(name, part(probe));
  EXPECT_GT(count.index, 0) << name;
  for (int point = 0; point < count.index; ++point) {
    Inputs in = start;
    Mutate{point}(name, part(in));
    expectSplits(base, keysOf(in), splits,
                 std::string(name) + " point " + std::to_string(point));
  }
}

Inputs withWorkload(const char* workload) {
  Inputs in;
  in.flow.workload = workload;
  return in;
}

TEST(StageKeyTest, EveryDeclaredFieldSplitsTheStagesThatReadIt) {
  expectEveryFieldSplits(
      "characterization",
      [](Inputs& in) -> auto& { return in.flow.characterization; }, kAll);
  expectEveryFieldSplits(
      "clock", [](Inputs& in) -> auto& { return in.flow.clock; }, kMeasured);
  expectEveryFieldSplits(
      "synthesis", [](Inputs& in) -> auto& { return in.flow.synthesis; },
      kMeasured);
  expectEveryFieldSplits(
      "tuning", [](Inputs& in) -> auto& { return in.tuningConfig; }, kTuned);
  expectEveryFieldSplits(
      "element", [](Inputs& in) -> auto& { return in.element; }, bit(kCell));
  expectEveryFieldSplits(
      "mcu", [](Inputs& in) -> auto& { return in.flow.mcu; }, kDesign,
      withWorkload("mcu"));
  expectEveryFieldSplits(
      "dsp", [](Inputs& in) -> auto& { return in.flow.dsp; }, kDesign,
      withWorkload("dsp"));
  expectEveryFieldSplits(
      "noc", [](Inputs& in) -> auto& { return in.flow.noc; }, kDesign,
      withWorkload("noc"));
  expectEveryFieldSplits(
      "big", [](Inputs& in) -> auto& { return in.flow.big; }, kDesign,
      withWorkload("big"));
}

TEST(StageKeyTest, FlowScalarsSplitTheStagesThatReadThem) {
  const Keys base = keysOf({});
  const auto expectChange = [&](const char* name, auto mutate, Mask splits) {
    Inputs in;
    mutate(in.flow);
    expectSplits(base, keysOf(in), splits, name);
  };
  expectChange("mcLibraryCount",
               [](core::FlowConfig& c) { c.mcLibraryCount += 1; }, kSampled);
  expectChange("mcSeed", [](core::FlowConfig& c) { c.mcSeed += 1; },
               kSampled);
  expectChange("workload", [](core::FlowConfig& c) { c.workload = "dsp"; },
               kDesign);
  const Mask measured = bit(kContext) | bit(kCell);
  expectChange("rho", [](core::FlowConfig& c) { c.rho = 0.5; }, measured);
  expectChange("powerActivity",
               [](core::FlowConfig& c) { c.powerActivity *= 2.0; }, measured);
  expectChange("powerSamples",
               [](core::FlowConfig& c) { c.powerSamples += 1; }, measured);
  expectChange("powerSeed", [](core::FlowConfig& c) { c.powerSeed += 1; },
               measured);
  // A cell hit skips every lint gate, so the lint mode keys the cell.
  expectChange("lintMode",
               [](core::FlowConfig& c) { c.lintMode = core::LintMode::kOff; },
               bit(kCell));
  expectChange("empty workload", [](core::FlowConfig& c) { c.workload = ""; },
               kNone);
}

TEST(StageKeyTest, InactiveWorkloadsSplitNothing) {
  for (const char* active : {"mcu", "dsp", "noc", "big"}) {
    const Inputs start = withWorkload(active);
    const Keys base = keysOf(start);
    const auto mutateIfInactive = [&](const auto& row) {
      if (row.name == active) return;
      Inputs in = start;
      Mutate{}(active, in.flow.*row.config);
      expectSplits(base, keysOf(in), kNone,
                   std::string(row.name) + " under " + active);
    };
    std::apply([&](const auto&... row) { (mutateIfInactive(row), ...); },
               core::kWorkloads);
  }
}

TEST(StageKeyTest, ExecutionKnobsSplitNothing) {
  const Keys base = keysOf({});
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "stage_key_store";
  artifact::ArtifactStore store(dir / "shared");
  artifact::MemoryArtifactCache mem(1 << 20);
  Inputs in;
  in.flow.cacheDir = (dir / "own").string();
  in.flow.memCacheBytes = 123;
  expectSplits(base, keysOf(in), kNone, "cacheDir/memCacheBytes");
  in.flow.sharedStore = &store;
  in.flow.sharedMemCache = &mem;
  expectSplits(base, keysOf(in), kNone, "shared cache tiers");
  std::filesystem::remove_all(dir);
}

TEST(StageKeyTest, StagesNeverShareAKey) {
  const Inputs in;
  const Keys keys = keysOf(in);
  for (unsigned i = 0; i < kStageCount; ++i) {
    for (unsigned j = i + 1; j < kStageCount; ++j) {
      EXPECT_NE(keys[i], keys[j]) << kStageNames[i] << " vs " << kStageNames[j];
    }
  }
  // A tuned cell keys apart from the baseline one, and scenarios from each
  // other.
  const core::TuningFlow flow(in.flow);
  const auto cell = [&](const tuning::TuningConfig* tuned,
                        const char* scenario) {
    return postsi::cellKey(flow, tuned, postsi::ScenarioJob{}, scenario,
                           in.flow.clock.period, 16);
  };
  EXPECT_NE(cell(nullptr, postsi::kScenarioClock),
            cell(&in.tuningConfig, postsi::kScenarioClock));
  EXPECT_NE(cell(&in.tuningConfig, postsi::kScenarioTuning),
            cell(&in.tuningConfig, postsi::kScenarioBuffers));
}

TEST(StageKeyTest, UnknownWorkloadThrowsOnEveryPath) {
  core::FlowConfig config;
  config.workload = "gpu";
  const core::TuningFlow flow(config);
  const std::string expected =
      "unknown workload 'gpu' (expected mcu|dsp|noc|big)";
  const auto message = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "no exception";
  };
  EXPECT_EQ(message([&] { (void)flow.subjectKey(); }), expected);
  EXPECT_EQ(message([&] { (void)flow.synthKey(2.41, nullptr); }), expected);
  EXPECT_EQ(message([&] { (void)flow.measurementContextDigest(2.41); }),
            expected);
  EXPECT_EQ(message([&] { (void)core::generateSubject(config); }), expected);
  EXPECT_FALSE(core::isWorkload("gpu"));
  EXPECT_FALSE(core::isWorkload(""));
}

/// Each mutation point of T's field list changes its encoding.
template <class T>
void expectEncodingSplits(const char* name) {
  const artifact::Digest base = artifact::digestOf(T{});
  const int points = testing_support::mutationPoints<T>(
      [](T& value, Mutate& v) { v("", value); });
  EXPECT_GT(points, 0) << name;
  for (int point = 0; point < points; ++point) {
    T value{};
    Mutate{point}("", value);
    EXPECT_NE(artifact::digestOf(value), base) << name << " point " << point;
  }
}

TEST(FieldListTest, EveryFieldSplitsItsEncoding) {
  // The corner has no FlowConfig member (stages use the typical corner),
  // so its list is checked here rather than through a stage key.
  expectEncodingSplits<charlib::ProcessCorner>("ProcessCorner");
  expectEncodingSplits<charlib::CharacterizationConfig>(
      "CharacterizationConfig");
  expectEncodingSplits<netlist::McuConfig>("McuConfig");
  expectEncodingSplits<netlist::DspConfig>("DspConfig");
  expectEncodingSplits<netlist::NocConfig>("NocConfig");
  expectEncodingSplits<netlist::RandomDagConfig>("RandomDagConfig");
  expectEncodingSplits<sta::ClockSpec>("ClockSpec");
  expectEncodingSplits<synth::SynthesisOptions>("SynthesisOptions");
  expectEncodingSplits<tuning::TuningConfig>("TuningConfig");
  expectEncodingSplits<clocktree::TuningElementSpec>("TuningElementSpec");
}

template <class S>
::testing::AssertionResult tiles() {
  return testing_support::tilesLayout<S>(
      [](const S& s, auto& v) { S::fields(s, v); });
}

TEST(FieldListTest, EveryFieldListNamesEveryMember) {
  EXPECT_TRUE(tiles<charlib::TechnologyParams>());
  EXPECT_TRUE(tiles<charlib::VariationParams>());
  EXPECT_TRUE(tiles<charlib::CharacterizationConfig>());
  EXPECT_TRUE(tiles<charlib::ProcessCorner>());
  EXPECT_TRUE(tiles<netlist::McuConfig>());
  EXPECT_TRUE(tiles<netlist::DspConfig>());
  EXPECT_TRUE(tiles<netlist::NocConfig>());
  EXPECT_TRUE(tiles<netlist::RandomDagConfig>());
  EXPECT_TRUE(tiles<sta::WireLoadModel>());
  EXPECT_TRUE(tiles<sta::ClockSpec>());
  EXPECT_TRUE(tiles<synth::SynthesisOptions>());
  EXPECT_TRUE(tiles<tuning::TuningConfig>());
  EXPECT_TRUE(tiles<clocktree::TuningElementSpec>());
  EXPECT_TRUE(testing_support::tilesLayout<core::FlowJob>(
      [](const core::FlowJob& job, auto& v) {
        server::FlowKind::fields(job, v);
      }));
}

/// A struct whose field list skips a member: the layout check must see it.
struct Forgetful {
  std::uint64_t kept = 0;
  std::uint64_t forgotten = 0;
  double tail = 0.0;
};

TEST(FieldListTest, LayoutCheckCatchesAForgottenMember) {
  EXPECT_FALSE(testing_support::tilesLayout<Forgetful>(
      [](const Forgetful& s, auto& v) {
        v("kept", s.kept);
        v("tail", s.tail);
      }));
  EXPECT_FALSE(testing_support::tilesLayout<Forgetful>(
      [](const Forgetful& s, auto& v) {
        v("kept", s.kept);
        v("forgotten", s.forgotten);
      }));
}

TEST(JobDigestTest, RequestDigestsArePinned) {
  // Every field of each kind mutated once. These digests key the daemon's
  // response cache: a change here invalidates every cached response.
  const std::map<std::string, std::string> pinned = {
      {"flow", "e75ff5056c8b3db4cbdb865978c2da6f"},
      {"scenario", "4271569248cd88ba1a2b32b475ab5485"},
      {"evolve", "9c5f41c1d88b37ee6d47bcc29885972f"},
      {"lint", "5c7c94b27b492d486e60d7392cb81536"},
      {"sta", "04656d2b930d7b79532e52540b2aef03"}};
  server::anyKind([&]<class Kind>(std::type_identity<Kind>) {
    typename Kind::Job job{};
    Kind::fields(job, Mutate{});
    EXPECT_EQ(server::requestDigest<Kind>(job).hex(), pinned.at(Kind::kName))
        << Kind::kName;
    return false;
  });
}

}  // namespace
}  // namespace sct

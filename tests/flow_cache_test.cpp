// Cold-vs-warm equivalence of the resumable flow: a second TuningFlow over
// the same cache directory must serve characterization, stat-merge, tuning
// and synthesis from the artifact store and produce bit-identical results.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/flow.hpp"
#include "core/flow_job.hpp"
#include "liberty/liberty_io.hpp"
#include "statlib/stat_io.hpp"
#include "tuning/constraints_io.hpp"

namespace sct::core {
namespace {

namespace fs = std::filesystem;

FlowConfig smallConfig(const fs::path& cacheDir) {
  FlowJob job;
  job.profile = "small";
  job.mcCount = 6;
  FlowConfig config = makeFlowConfig(job);
  config.cacheDir = cacheDir.string();
  return config;
}

void expectBitIdentical(const DesignMeasurement& warm,
                        const DesignMeasurement& cold) {
  // Exact comparisons throughout: the cache contract is bit-identity, not
  // tolerance-level agreement.
  EXPECT_EQ(warm.synthesis.timingMet, cold.synthesis.timingMet);
  EXPECT_EQ(warm.synthesis.legal, cold.synthesis.legal);
  EXPECT_EQ(warm.synthesis.worstSlack, cold.synthesis.worstSlack);
  EXPECT_EQ(warm.synthesis.tns, cold.synthesis.tns);
  EXPECT_EQ(warm.synthesis.area, cold.synthesis.area);
  EXPECT_EQ(warm.synthesis.design.gateCount(),
            cold.synthesis.design.gateCount());
  EXPECT_EQ(warm.design.sigma, cold.design.sigma);
  ASSERT_EQ(warm.paths.size(), cold.paths.size());
  for (std::size_t i = 0; i < warm.paths.size(); ++i) {
    EXPECT_EQ(warm.paths[i].endpoint, cold.paths[i].endpoint);
    EXPECT_EQ(warm.paths[i].depth, cold.paths[i].depth);
    EXPECT_EQ(warm.paths[i].mean, cold.paths[i].mean);
    EXPECT_EQ(warm.paths[i].sigma, cold.paths[i].sigma);
    EXPECT_EQ(warm.paths[i].arrival, cold.paths[i].arrival);
    EXPECT_EQ(warm.paths[i].slack, cold.paths[i].slack);
  }
}

TEST(FlowCache, WarmRunHitsEveryStageBitIdentically) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_cache_test";
  fs::remove_all(dir);
  const tuning::TuningConfig tc = tuning::TuningConfig::forMethod(
      tuning::TuningMethod::kSigmaCeiling, 0.02);

  TuningFlow cold(smallConfig(dir));
  ASSERT_NE(cold.cache(), nullptr);
  const DesignMeasurement coldRun = cold.synthesizeTuned(8.0, tc);
  ASSERT_TRUE(coldRun.success());
  EXPECT_GE(cold.cache()->stats().stores, 4u);  // nominal+stat+tune+synth
  const std::string coldLib = liberty::writeLibraryToString(
      cold.nominalLibrary());
  const std::string coldStat =
      statlib::writeStatLibraryToString(cold.statLibrary());
  const std::string coldConstraints =
      tuning::writeConstraintsToString(cold.tune(tc));

  // A fresh flow over the same cache directory: every stage must be served
  // from the store (zero misses) and reproduce the cold results exactly.
  TuningFlow warm(smallConfig(dir));
  const DesignMeasurement warmRun = warm.synthesizeTuned(8.0, tc);
  ASSERT_NE(warm.cache(), nullptr);
  EXPECT_EQ(warm.cache()->stats().misses, 0u);
  EXPECT_EQ(warm.cache()->stats().corrupt, 0u);
  EXPECT_EQ(warm.cache()->stats().stores, 0u);
  EXPECT_GE(warm.cache()->stats().hits, 3u);  // nominal, stat, synth
  expectBitIdentical(warmRun, coldRun);
  EXPECT_EQ(liberty::writeLibraryToString(warm.nominalLibrary()), coldLib);
  EXPECT_EQ(statlib::writeStatLibraryToString(warm.statLibrary()), coldStat);
  EXPECT_EQ(tuning::writeConstraintsToString(warm.tune(tc)), coldConstraints);

  fs::remove_all(dir);
}

TEST(FlowCache, CorruptCacheDegradesToRecompute) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_corrupt_test";
  fs::remove_all(dir);

  TuningFlow cold(smallConfig(dir));
  const DesignMeasurement coldRun = cold.synthesizeBaseline(8.0);
  ASSERT_TRUE(coldRun.success());

  // Vandalize every cached artifact; the warm flow must detect it, evict,
  // recompute and still match the cold run exactly.
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
      out << "not an artifact";
    }
  }
  TuningFlow warm(smallConfig(dir));
  const DesignMeasurement warmRun = warm.synthesizeBaseline(8.0);
  EXPECT_GE(warm.cache()->stats().corrupt, 1u);
  expectBitIdentical(warmRun, coldRun);

  fs::remove_all(dir);
}

TEST(FlowCache, DifferentInputsUseDifferentKeys) {
  const fs::path dir = fs::temp_directory_path() / "sct_flow_keys_test";
  fs::remove_all(dir);

  TuningFlow first(smallConfig(dir));
  (void)first.statLibrary();
  const auto usageAfterFirst = first.cache()->diskUsage();

  // A different MC seed must miss the stat-stage entry and publish a new
  // one (the nominal characterization is seed-independent and hits).
  FlowConfig other = smallConfig(dir);
  other.mcSeed += 1;
  TuningFlow second(other);
  (void)second.statLibrary();
  EXPECT_GE(second.cache()->stats().misses, 1u);
  EXPECT_GT(second.cache()->diskUsage().first, usageAfterFirst.first);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace sct::core

#pragma once
// Evolve-parameter struct, kept dependency-free (plain ints/doubles/string)
// so the lint layer can validate configs without linking the tuner.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace sct::evo {

/// Knobs of the NSGA-II window tuner (src/evo/tuner.hpp). Validated by the
/// lint `evo.*` pack before a run starts.
struct EvolveParams {
  std::size_t population = 16;  ///< survivors per generation (>= 2)
  std::size_t generations = 6;  ///< variation rounds after the seeded gen 0
  /// Comma-separated subset of sigma,area,power used for dominance; all
  /// three objectives are always measured and reported.
  std::string objectives = "sigma,area,power";
  double geneMin = 0.002;  ///< sigma-threshold gene lower bound [ns]
  double geneMax = 0.06;   ///< sigma-threshold gene upper bound [ns]
  std::uint64_t seed = 2014;  ///< master stream for init + variation
};

/// The objectives in canonical order; ObjectiveSet indices point here.
inline constexpr const char* kObjectiveNames[] = {"sigma", "area", "power"};

/// An objective list parsed by parseObjectives: the enabled indices into
/// kObjectiveNames, deduplicated and sorted (so "power,sigma" and
/// "sigma,power" are the same search), or why the list is invalid.
struct ObjectiveSet {
  std::vector<std::size_t> enabled;
  std::string error;  ///< empty when the list is valid
};

/// Parses a comma-separated objective list (empty tokens are skipped). The
/// tuner and the `evo.objectives.invalid` lint rule both read it, so they
/// cannot disagree on which lists are valid.
[[nodiscard]] inline ObjectiveSet parseObjectives(const std::string& list) {
  ObjectiveSet set;
  std::istringstream stream(list);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    const auto* name = std::find(std::begin(kObjectiveNames),
                                 std::end(kObjectiveNames), token);
    if (name == std::end(kObjectiveNames)) {
      set.error = "unknown objective '" + token + "' (sigma/area/power)";
      set.enabled.clear();
      return set;
    }
    set.enabled.push_back(
        static_cast<std::size_t>(name - std::begin(kObjectiveNames)));
  }
  std::sort(set.enabled.begin(), set.enabled.end());
  set.enabled.erase(std::unique(set.enabled.begin(), set.enabled.end()),
                    set.enabled.end());
  if (set.enabled.empty()) {
    set.error = "objective set '" + list + "' selects nothing to optimize";
  }
  return set;
}

}  // namespace sct::evo

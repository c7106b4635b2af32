#pragma once
// Library characterization (paper section II): sweeps every cell of the
// catalogue over an input-slew x output-load grid and emits Liberty-style
// libraries. Three characterization flavours:
//   - nominal:      no mismatch (the synthesis library),
//   - Monte Carlo:  N library instances, each with fresh per-cell local
//                   mismatch draws (inputs to the statistical library, Fig. 2),
//   - corners:      nominal at FF/TT/SS (Fig. 15 validation).

#include <cstdint>
#include <vector>

#include "charlib/catalogue.hpp"
#include "charlib/delay_model.hpp"
#include "charlib/process.hpp"
#include "liberty/library.hpp"

namespace sct::charlib {

struct CharacterizationConfig {
  TechnologyParams tech{};
  VariationParams variation{};
  /// Input-slew breakpoints shared by all cells [ns]. The paper notes the
  /// slew range is identical across drive strengths (Fig. 4).
  numeric::Axis slewAxis = {0.002, 0.008, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6};
  /// Load breakpoints as fractions of each cell's max load; the absolute
  /// load range therefore grows with drive strength, as in Fig. 4.
  std::vector<double> loadFractions = {0.008, 0.02, 0.05, 0.1,
                                       0.2,   0.4,  0.7,  1.0};

  template <class S, class V>
  static void fields(S& s, V&& v) {
    v("tech", s.tech);
    v("variation", s.variation);
    v("slewAxis", s.slewAxis);
    v("loadFractions", s.loadFractions);
  }
};

/// Deterministic arc-level factor applied on top of the raw delay model
/// during characterization: input-position factor x output-pin factor x
/// rise/fall skew. Exposed so the Monte-Carlo path simulator reproduces the
/// exact table values.
[[nodiscard]] double arcDelayFactor(liberty::CellFunction f,
                                    std::string_view relatedPin,
                                    std::string_view outputPin,
                                    bool rise) noexcept;

class Characterizer {
 public:
  explicit Characterizer(CharacterizationConfig config = {});

  [[nodiscard]] const CharacterizationConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const DelayModel& model() const noexcept { return model_; }
  [[nodiscard]] const SpecRegistry& specs() const noexcept { return specs_; }

  /// Absolute load axis of one cell [pF].
  [[nodiscard]] numeric::Axis loadAxisFor(const CellSpec& spec) const;

  /// Mismatch-free library at the given corner.
  [[nodiscard]] liberty::Library characterizeNominal(
      const ProcessCorner& corner) const;

  /// One Monte-Carlo library instance: every cell receives one local
  /// mismatch draw applied consistently across all of its table entries
  /// (one "die" worth of libraries, as in section IV).
  [[nodiscard]] liberty::Library characterizeSample(const ProcessCorner& corner,
                                                    std::uint64_t seed,
                                                    std::uint64_t sampleIndex) const;

  /// N Monte-Carlo library instances (paper uses N = 50). Batched: cells
  /// are characterized per-entry-across-instances (one axis sweep fills one
  /// LUT entry of all N instances at once, see DESIGN.md §13), bit-identical
  /// to calling characterizeSample() for k = 0..n-1 — which stays available
  /// as the scalar oracle.
  [[nodiscard]] std::vector<liberty::Library> characterizeMonteCarlo(
      const ProcessCorner& corner, std::size_t n, std::uint64_t seed) const;

 private:
  liberty::Library characterizeWith(
      const ProcessCorner& corner, const std::string& libraryName,
      std::uint64_t seed, bool withMismatch) const;
  /// All MC instances of one cell, built per-entry-across-instances from
  /// pre-drawn mismatch batches. cells[k] is bit-identical to the cell the
  /// scalar path characterizes for instance k.
  [[nodiscard]] std::vector<liberty::Cell> characterizeCellBatch(
      const CellSpec& spec, const ProcessCorner& corner,
      const LocalDeltasBatch& deltas) const;

  CharacterizationConfig config_;
  DelayModel model_;
  SpecRegistry specs_;
  /// config_.slewAxis as a shared axis: every batched LUT references this
  /// one allocation instead of carrying a copy.
  liberty::Lut::AxisPtr slew_axis_;
};

}  // namespace sct::charlib

// Extension experiment (section III's generalization hook): tune the
// library on *transition-power* sigma instead of delay sigma, and compare
// what each metric does to the design's delay spread and dynamic-power
// spread. The method is the paper's (windows from largest low-sigma
// rectangles); only the LUT being thresholded changes.

#include "bench_common.hpp"
#include "power/power_stats.hpp"

int main() {
  using namespace sct;
  bench::printHeader("Extension — power-sigma library tuning",
                     "section III: 'other properties, such as transition "
                     "power'");

  core::FlowConfig config = bench::standardConfig();
  config.powerActivity = 0.15;
  core::TuningFlow flow(config);
  const bench::ClockSet clocks = bench::paperClockSet(flow);
  const double period = clocks.highPerf;
  const power::PowerModel powerModel(flow.characterizer().model());
  const double activity = config.powerActivity;

  auto evaluate = [&](const char* label,
                      const tuning::LibraryConstraints* constraints) {
    synth::Synthesizer synth(flow.nominalLibrary(), constraints);
    synth::SynthesisResult run = synth.run(flow.subject(), flow.clockAt(period));
    const core::DesignMeasurement m = flow.measure(std::move(run), period);
    const power::DesignPower& p = m.power;
    std::printf("%-26s %9s %11.4f %11.1f %12.1f %12.3f\n", label,
                m.success() ? "ok" : "FAIL", m.sigma(), m.area() / 1000.0,
                p.meanPower, p.sigmaPower);
    return std::pair{m.sigma(), p.sigmaPower};
  };

  std::printf("clock %.3f ns, activity %.2f\n\n", period, activity);
  std::printf("%-26s %9s %11s %11s %12s %12s\n", "tuner", "status",
              "dly sig", "area[k]", "P mean[uW]", "P sig[uW]");
  bench::printRule();
  const auto [baseDly, basePow] = evaluate("baseline", nullptr);

  // Delay-sigma tuning (the paper's method).
  const auto delayConstraints = flow.tune(
      tuning::TuningConfig::forMethod(tuning::TuningMethod::kSigmaCeiling,
                                      0.02));
  evaluate("delay sigma ceiling 0.02", &delayConstraints);

  // Power-sigma tuning at a few energy ceilings [fJ].
  for (double ceiling : {2.0, 1.0, 0.5}) {
    const auto powerConstraints = power::tuneLibraryOnPower(
        flow.characterizer(), powerModel, ceiling);
    char label[64];
    std::snprintf(label, sizeof label, "power sigma ceiling %.1f fJ", ceiling);
    evaluate(label, &powerConstraints);
  }
  bench::printRule();
  std::printf("baseline: delay sigma %.4f ns, power sigma %.3f uW\n", baseDly,
              basePow);
  std::printf("expected: each metric reduces its own spread most; both "
              "correlate (weak cells are\nbad for both), so power tuning "
              "also helps delay sigma and vice versa.\n");
  return 0;
}

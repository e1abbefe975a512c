/// Config-file-driven experiment runner (paper Sec. IV-B: "The platform can
/// be parameterized based on configuration files"): pass an INI file to run
/// any attack variant without recompiling; without arguments a documented
/// default configuration is used and printed.
///
/// Usage:  ./examples/configurable_attack [experiment.ini]
///
/// Exit status: 0 on a bit-flip, 1 when the budget ran out without one, 2 on
/// an invalid configuration (the message names the offending key or field).

#include <cstdio>
#include <exception>

#include "core/configio.hpp"

namespace {

const char* kDefaultIni = R"ini(
; NeuroHammer experiment configuration (defaults shown)
[array]
rows = 5
cols = 5
[geometry]
spacing_nm = 10          ; Fig. 3b sweep point: dense technology
fem_alphas = false       ; true = run the FEM extraction for this geometry
[environment]
ambient_K = 300
[attack]
pattern = row-pair       ; single|row-pair|column-pair|cross|ring
amplitude_V = 1.05
width_ns = 50
duty = 0.5
max_pulses = 1000000
scheme = half            ; half|third
)ini";

}  // namespace

int main(int argc, char** argv) try {
  using namespace nh;
  util::Config ini;
  if (argc > 1) {
    std::printf("loading configuration from %s\n\n", argv[1]);
    ini = util::Config::load(argv[1]);
  } else {
    std::printf("no config given -- using the built-in default:\n%s\n",
                kDefaultIni);
    ini = util::Config::fromString(kDefaultIni);
  }

  const core::StudyConfig studyConfig = core::studyConfigFrom(ini);
  core::AttackStudy study(studyConfig);
  const core::AttackConfig attack =
      core::attackConfigFrom(ini, studyConfig.rows, studyConfig.cols);

  std::printf("study: %zux%zu crossbar, spacing %.0f nm, T0 = %.0f K, "
              "R_th = %.3g K/W\n",
              studyConfig.rows, studyConfig.cols, studyConfig.spacing * 1e9,
              studyConfig.ambientK, study.rThEff());
  std::printf("attack: %zu aggressor(s), %.2f V / %.0f ns pulses at %.0f%% "
              "duty, budget %zu pulses\n\n",
              attack.aggressors.size(), attack.pulse.amplitude,
              attack.pulse.width * 1e9, 100.0 * attack.pulse.dutyCycle,
              attack.maxPulses);

  const core::AttackResult result = study.attack(attack);
  if (result.flipped) {
    std::printf("bit-flip at cell (%zu,%zu) after %zu pulses "
                "(%.3g s of victim stress)\n",
                result.flippedCell.row, result.flippedCell.col,
                result.pulsesToFlip, result.stressTime);
  } else {
    std::printf("no flip within %zu pulses\n", result.pulsesApplied);
  }

  std::printf("\nequivalent INI of the resolved study config:\n%s",
              core::toConfigText(studyConfig).c_str());
  return result.flipped ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "configurable_attack: %s\n", e.what());
  return 2;
}

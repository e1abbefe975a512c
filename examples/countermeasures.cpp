/// Countermeasure exploration (the paper's stated future work): evaluates
/// the defences implemented in nh::core against the reference attack and
/// prints a deployment-oriented summary -- what stops the attack, what only
/// detects it, and what does not work at all.
///
/// Build & run:  ./examples/countermeasures

#include <cstdio>

#include "core/defense.hpp"

int main() {
  using namespace nh;
  std::printf("=== NeuroHammer countermeasure evaluation ===\n\n");

  core::StudyConfig config;
  config.spacing = 10e-9;  // dense (most vulnerable) technology point
  core::HammerPulse pulse;

  core::AttackStudy reference(config);
  const auto undefended = reference.attackCenter(pulse, 1'000'000);
  if (!undefended.flipped) {
    std::printf("reference attack did not flip -- nothing to defend against\n");
    return 1;
  }
  std::printf("reference attack (no defence): flip after %zu pulses\n\n",
              undefended.pulsesToFlip);

  // 1. Refresh scrubbing at a quarter of the flip time.
  core::ScrubbingConfig scrub;
  scrub.intervalPulses = undefended.pulsesToFlip / 4;
  const auto scrubbed =
      core::evaluateScrubbing(config, pulse, scrub, 4 * undefended.pulsesToFlip);
  std::printf("[scrubbing]   interval %zu pulses: %s (%zu passes, %zu refreshes)\n",
              scrub.intervalPulses,
              scrubbed.attackSucceeded ? "FLIPPED -- too slow"
                                       : "attack defeated",
              scrubbed.scrubPasses, scrubbed.cellsRefreshed);

  // 2. Hammer-count monitoring at 10% of the flip count.
  core::MonitorConfig monitor;
  monitor.lineThreshold = undefended.pulsesToFlip / 10;
  const auto monitored =
      core::evaluateMonitor(config, pulse, monitor, 2 * undefended.pulsesToFlip);
  std::printf("[monitoring]  threshold %zu activations: detected at pulse %zu, "
              "flip at %zu -> %s\n",
              monitor.lineThreshold, monitored.pulsesUntilDetection,
              monitored.pulsesUntilFlip,
              monitored.flippedBeforeDetection ? "TOO LATE" : "in time");

  // 3. Duty-cycle throttling (does not work -- heating is intra-pulse).
  const auto throttled = core::evaluateThrottling(
      config, pulse.width, {0.5, 0.05}, 2 * undefended.pulsesToFlip);
  std::printf("[throttling]  duty 0.50: %zu pulses; duty 0.05: %zu pulses "
              "(ratio %.2f -> no protection, only slower wall clock)\n",
              throttled[0].pulses, throttled[1].pulses,
              static_cast<double>(throttled[1].pulses) /
                  static_cast<double>(throttled[0].pulses));

  // 4. Layout-level defence: wider electrode spacing.
  core::StudyConfig wide = config;
  wide.spacing = 90e-9;
  const auto spaced = core::AttackStudy(wide).attackCenter(pulse, 10'000'000);
  std::printf("[layout]      spacing 10 nm -> 90 nm: %zu -> %zu pulses "
              "(%.0fx more attacker effort, at a 2.5x area cost)\n\n",
              undefended.pulsesToFlip, spaced.pulsesToFlip,
              static_cast<double>(spaced.pulsesToFlip) /
                  static_cast<double>(undefended.pulsesToFlip));

  std::printf("summary: scrubbing and V/3 biasing stop the attack; activation\n");
  std::printf("monitors detect it early; throttling is useless; spacing trades\n");
  std::printf("density for attacker effort (see nh_sweep run ablation_scheme_defense).\n");
  return 0;
}

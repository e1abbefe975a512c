/// Quickstart: the NeuroHammer pipeline in ~40 lines of user code.
///  1. pick a crossbar geometry (electrode spacing) and environment,
///  2. build an AttackStudy (alpha extraction + compact-model wiring),
///  3. hammer the centre cell and see which neighbour flips.
///
/// Build & run:  ./examples/quickstart

#include <cstdio>

#include "core/study.hpp"

int main() {
  using namespace nh;

  // 1. Experiment setup: 5x5 crossbar, 50 nm electrode spacing, room
  //    temperature. The study wires the FEM-calibrated thermal-crosstalk
  //    table and the JART-style compact model together.
  core::StudyConfig config;
  config.spacing = 50e-9;
  config.ambientK = 300.0;
  core::AttackStudy study(config);

  std::printf("NeuroHammer quickstart\n");
  std::printf("  crossbar:      %zux%zu, spacing %.0f nm\n", config.rows,
              config.cols, config.spacing * 1e9);
  std::printf("  R_th (FEM):    %.3g K/W\n", study.rThEff());
  std::printf("  alpha to word-line neighbour: %.3f\n", study.alphas().at(0, 1));
  std::printf("  alpha to bit-line neighbour:  %.3f\n\n", study.alphas().at(1, 0));

  // 2. The attack: rectangular V_SET pulses on the centre cell under the
  //    V/2 scheme (paper Sec. III). Every other cell starts as HRS ('0').
  core::HammerPulse pulse;  // 1.05 V, 50 ns, 50% duty cycle
  const core::AttackResult result = study.attackCenter(pulse, 1'000'000);

  // 3. Outcome.
  if (result.flipped) {
    std::printf("bit-flip! cell (%zu,%zu) went HRS -> LRS after %zu pulses\n",
                result.flippedCell.row, result.flippedCell.col,
                result.pulsesToFlip);
    std::printf("  victim stress time: %.3g s of V/2 pulses\n", result.stressTime);
    std::printf("  attack wall clock at 50%% duty: %.3g s\n",
                2.0 * result.stressTime);
  } else {
    std::printf("no flip within %zu pulses -- try a tighter spacing or a\n"
                "hotter ambient (see nh_sweep run fig3b_electrode_spacing).\n",
                result.pulsesApplied);
  }
  return result.flipped ? 0 : 1;
}

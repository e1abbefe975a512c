#pragma once
/// \file fastsim.hpp
/// Fast quasi-static crossbar engine. Pulse lengths (10-100 ns) are much
/// longer than both the electrical line time constants (~ps) and the
/// filament thermal time constant (~ns), so within a pulse the circuit is
/// solved quasi-statically: a small Newton solve of the line network, the
/// crosstalk hub update (Eq. 5), then state/temperature integration inside
/// each compact model. A deterministic pulse-batching accelerator with
/// bounded state-drift per batch makes the 10^5..10^6-pulse sweeps of
/// Fig. 3 tractable; tests verify it against the unbatched engine and the
/// full SPICE transient.

#include <cstddef>
#include <functional>

#include "util/linsolve.hpp"
#include "util/matrix.hpp"
#include "xbar/array.hpp"
#include "xbar/crosstalk.hpp"
#include "xbar/scheme.hpp"

namespace nh::xbar {

struct FastEngineOptions {
  /// Crosstalk-hub refresh points per pulse.
  std::size_t substepsPerPulse = 4;
  /// Solve the resistive line network (driver impedance) instead of
  /// assuming ideal drivers.
  bool solveLineNetwork = true;
  /// Simulate the idle gap between pulses (temperature relaxation).
  bool relaxBetweenPulses = true;
  /// Pulse-batching accelerator (see applyPulseTrain).
  bool enableBatching = true;
  /// Max fraction of the N_disc window any cell may drift per batch.
  double batchDriftLimit = 0.002;
  /// Hard cap on the batch size.
  std::size_t maxBatch = 1024;
  /// Newton controls for the line-network solve. A solve that reaches the
  /// iteration cap throws nh::util::SolverError("fastsim.newton").
  double newtonTol = 1e-9;
  std::size_t maxNewtonIterations = 60;
  /// Solve each Newton update through the Schur complement on the bit-line
  /// block. The line-network Jacobian's diagonal blocks are diagonal (every
  /// word line couples to every bit line but never to another word line), so
  /// eliminating the word-line block costs O(rows*cols^2) instead of the
  /// O((rows+cols)^3) dense factorisation; from
  /// SchurComplementSolver::kIterativeMinCols bit lines up, a matrix-free CG
  /// on the complement takes 1024x1024 arrays past the O(rows*cols^2)
  /// dense-assembly wall. False keeps the seed dense solve (equivalence-test
  /// reference).
  bool useSchurSolve = true;

  /// Exact comparison (study-dedup cache key component).
  bool operator==(const FastEngineOptions&) const = default;
};

/// Result of an applyPulseTrain run.
struct PulseTrainResult {
  std::size_t pulsesApplied = 0;     ///< Includes batched (extrapolated) pulses.
  std::size_t pulsesSimulated = 0;   ///< Pulses integrated in full detail.
  bool stoppedEarly = false;         ///< Callback requested stop.
};

/// Quasi-static simulation engine bound to one array.
class FastEngine {
 public:
  /// \p table provides the crosstalk alphas; when the table carries a FEM
  /// R_th it overrides the compact-model default for every cell's Eq. 6,
  /// mirroring the paper's COMSOL -> Virtuoso parameter hand-off.
  FastEngine(CrossbarArray& array, AlphaTable table,
             FastEngineOptions options = {});

  CrossbarArray& array() { return *array_; }
  const CrossbarArray& array() const { return *array_; }
  const CrosstalkHub& hub() const { return hub_; }
  const FastEngineOptions& options() const { return options_; }
  /// Accumulated simulated time [s].
  double time() const { return time_; }

  /// Hold \p bias for \p duration (no pulse shape; used for reads and for
  /// the idle gap).
  void applyBias(const LineBias& bias, double duration);

  /// One rectangular pulse: \p bias for \p width, then idle for \p gap.
  void applyPulse(const LineBias& bias, double width, double gap);

  /// Called after every applied pulse with the 1-based cumulative pulse
  /// count; return true to stop the train (e.g. a bit-flip was detected).
  using PulseCallback = std::function<bool(std::size_t pulseIndex)>;

  /// Apply \p count identical pulses. With batching enabled, stretches of
  /// near-identical pulses are extrapolated: one pulse is integrated in
  /// detail, the per-cell state delta is replayed M-1 times with M chosen so
  /// no cell drifts more than batchDriftLimit of its window per batch. The
  /// callback fires after every detailed pulse and after every batch.
  PulseTrainResult applyPulseTrain(const LineBias& bias, double width, double gap,
                                   std::size_t count,
                                   const PulseCallback& callback = {});

  /// Line node voltages of the last network solve (diagnostics/tests):
  /// word lines then bit lines.
  const nh::util::Vector& lastLineVoltages() const { return lineVoltages_; }
  /// Total Newton iterations spent in line-network solves.
  std::size_t newtonIterationsTotal() const { return newtonTotal_; }

  /// Energy dissipated in the array since construction / resetEnergy() [J].
  /// Batched pulses contribute their extrapolated share, so the value is
  /// meaningful for attack-cost accounting (see the attack_energy experiment).
  double totalEnergy() const { return totalEnergy_; }
  /// Per-cell energy breakdown [J] (rows x cols).
  const nh::util::Matrix& energyByCell() const { return energyByCell_; }
  void resetEnergy();

 private:
  /// One quasi-static substep of length h under a fixed bias.
  void step(const LineBias& bias, double h);
  /// Update every device's crosstalk input from the hub.
  void refreshCrosstalk();
  /// Solve the line network; fills lineVoltages_.
  void solveNetwork(const LineBias& bias);
  /// Newton update via the bit-line Schur complement; fills delta_.
  void solveNetworkSchur();
  /// Newton update via the seed dense factorisation; fills delta_.
  void solveNetworkDense(std::size_t rows, std::size_t cols);

  CrossbarArray* array_;
  CrosstalkHub hub_;
  FastEngineOptions options_;
  nh::util::Vector lineVoltages_;
  double time_ = 0.0;
  std::size_t newtonTotal_ = 0;
  double totalEnergy_ = 0.0;
  nh::util::Matrix energyByCell_;

  // Line-network solve workspace, persistent across substeps and pulses so
  // the million-pulse sweeps never reallocate it. gMat_/dRow_/dCol_ hold the
  // Jacobian in factored block form [diag(dRow_), -G; -G^T, diag(dCol_)].
  nh::util::Matrix gMat_;       ///< Device small-signal conductances (rows x cols).
  nh::util::Vector dRow_;       ///< Word-line block diagonal.
  nh::util::Vector dCol_;       ///< Bit-line block diagonal.
  nh::util::Vector residual_;   ///< KCL residual (rows + cols).
  nh::util::Vector delta_;      ///< Newton update (rows + cols).
  nh::util::SchurComplementSolver schurSolver_;
  nh::util::Matrix jacobian_;   ///< Dense path only (rows+cols square).
  nh::util::LuFactorization lu_;

  // Crosstalk-hub refresh workspace (rows x cols), reused every substep.
  nh::util::Matrix selfExcess_;   ///< Hub input: per-cell self-heating excess.
  nh::util::Matrix crosstalkIn_;  ///< Hub output: per-cell input temperature.
};

}  // namespace nh::xbar

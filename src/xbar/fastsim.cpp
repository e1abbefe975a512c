#include "xbar/fastsim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/linsolve.hpp"

namespace nh::xbar {

FastEngine::FastEngine(CrossbarArray& array, AlphaTable table,
                       FastEngineOptions options)
    : array_(&array),
      hub_(array.rows(), array.cols(), std::move(table)),
      options_(options) {
  if (options_.substepsPerPulse == 0) {
    throw std::invalid_argument("FastEngine: substepsPerPulse must be >= 1");
  }
  if (!(options_.batchDriftLimit > 0.0)) {
    throw std::invalid_argument("FastEngine: batchDriftLimit must be > 0");
  }
  // FEM-extracted R_th overrides the compact-model default (paper hand-off).
  // JartDevice reads R_th from its immutable Params, so the override happens
  // at array construction time via config; here we only validate coherence.
  lineVoltages_.assign(array.rows() + array.cols(), 0.0);
  energyByCell_.resize(array.rows(), array.cols(), 0.0);
}

void FastEngine::resetEnergy() {
  totalEnergy_ = 0.0;
  energyByCell_.fill(0.0);
}

void FastEngine::refreshCrosstalk() {
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  if (selfExcess_.rows() != rows || selfExcess_.cols() != cols) {
    selfExcess_.resize(rows, cols, 0.0);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      selfExcess_(r, c) = array_->cell(r, c).selfExcessTemperature();
    }
  }
  hub_.inputTemperatures(selfExcess_, crosstalkIn_);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      array_->cell(r, c).setCrosstalk(crosstalkIn_(r, c));
    }
  }
}

void FastEngine::solveNetwork(const LineBias& bias) {
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  const std::size_t n = rows + cols;
  const double rDrv = array_->config().driverResistance;

  if (!options_.solveLineNetwork || rDrv <= 0.0) {
    for (std::size_t r = 0; r < rows; ++r) lineVoltages_[r] = bias.wordLine[r];
    for (std::size_t c = 0; c < cols; ++c) lineVoltages_[rows + c] = bias.bitLine[c];
    return;
  }

  // Warm start from the ideal bias (previous solution can belong to a very
  // different bias, e.g. after a scheme change).
  for (std::size_t r = 0; r < rows; ++r) lineVoltages_[r] = bias.wordLine[r];
  for (std::size_t c = 0; c < cols; ++c) lineVoltages_[rows + c] = bias.bitLine[c];

  const double gDrv = 1.0 / rDrv;
  if (gMat_.rows() != rows || gMat_.cols() != cols) gMat_.resize(rows, cols, 0.0);
  dRow_.resize(rows);
  dCol_.resize(cols);
  residual_.assign(n, 0.0);
  delta_.resize(n);

  bool converged = false;
  std::size_t iter = 0;
  double maxStep = 0.0;
  for (; iter < options_.maxNewtonIterations; ++iter) {
    // Evaluate the Jacobian in block form: the word/bit diagonal blocks are
    // diagonal (dRow_/dCol_) and the coupling block is the dense device
    // conductance matrix gMat_.
    std::fill(residual_.begin(), residual_.end(), 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      residual_[r] += gDrv * (lineVoltages_[r] - bias.wordLine[r]);
      dRow_[r] = gDrv;
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t bc = rows + c;
      residual_[bc] += gDrv * (lineVoltages_[bc] - bias.bitLine[c]);
      dCol_[c] = gDrv;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t bc = rows + c;
        const auto& device = array_->cell(r, c);
        const double v = lineVoltages_[r] - lineVoltages_[bc];
        const nh::spice::OperatingPoint op = device.operatingPoint(v);
        double g = op.conductance;
        if (!(g > 0.0)) g = 1e-12;
        residual_[r] += op.current;
        residual_[bc] -= op.current;
        gMat_(r, c) = g;
        dRow_[r] += g;
        dCol_[c] += g;
      }
    }

    if (options_.useSchurSolve) {
      solveNetworkSchur();
    } else {
      solveNetworkDense(rows, cols);
    }

    maxStep = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::clamp(delta_[i], -0.5, 0.5);
      lineVoltages_[i] -= d;
      maxStep = std::max(maxStep, std::fabs(d));
    }
    ++newtonTotal_;
    // NaN/Inf guard: std::clamp passes NaN through, so a poisoned solve
    // would otherwise iterate to the cap and leave NaN line voltages behind.
    if (!std::isfinite(maxStep)) {
      throw nh::util::SolverError("fastsim.newton",
                                  "non-finite update in line-network solve",
                                  iter + 1, maxStep);
    }
    if (maxStep < options_.newtonTol) {
      converged = true;
      break;
    }
  }
  // Fault site: tests force a non-converged solve to exercise the per-point
  // isolation above the attack engine.
  if (nh::util::faultinject::shouldFire("fastsim.newton")) converged = false;
  if (!converged) {
    throw nh::util::SolverError("fastsim.newton",
                                "line-network Newton did not converge",
                                iter, maxStep);
  }
}

void FastEngine::solveNetworkSchur() {
  // Word lines couple only to bit lines: the Jacobian is the bipartite block
  // system SchurComplementSolver handles in O(rows*cols^2) instead of the
  // O((rows+cols)^3) dense factorisation, or O(rows*cols) per CG iteration
  // on wide arrays.
  if (!schurSolver_.solve(dRow_, dCol_, gMat_, residual_, delta_)) {
    // The CG path carries diagnostics; the dense path reports a plain
    // singular factorisation (iterations/residual stay zero).
    const nh::util::IterativeResult& cg = schurSolver_.lastIterative();
    throw nh::util::SolverError(
        "fastsim.schur",
        cg.iterations > 0 ? "line-network Schur CG did not converge"
                          : "singular line-network Schur complement",
        cg.iterations, cg.residualNorm);
  }
}

void FastEngine::solveNetworkDense(std::size_t rows, std::size_t cols) {
  // Seed-equivalent dense path: assemble the full Jacobian and factor it.
  const std::size_t n = rows + cols;
  if (jacobian_.rows() != n || jacobian_.cols() != n) jacobian_.resize(n, n, 0.0);
  jacobian_.fill(0.0);
  for (std::size_t r = 0; r < rows; ++r) jacobian_(r, r) = dRow_[r];
  for (std::size_t c = 0; c < cols; ++c) jacobian_(rows + c, rows + c) = dCol_[c];
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t bc = rows + c;
      jacobian_(r, bc) = -gMat_(r, c);
      jacobian_(bc, r) = -gMat_(r, c);
    }
  }
  if (!lu_.refactor(jacobian_)) {
    throw nh::util::SolverError("fastsim.dense",
                                "singular line-network Jacobian");
  }
  std::copy(residual_.begin(), residual_.end(), delta_.begin());
  lu_.solveInPlace(delta_);
}

void FastEngine::step(const LineBias& bias, double h) {
  solveNetwork(bias);
  refreshCrosstalk();
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = lineVoltages_[r] - lineVoltages_[rows + c];
      auto& device = array_->cell(r, c);
      device.advance(v, h);
      // Energy accounting from the device's final conduction operating
      // point of this substep (quasi-static within a substep).
      const double e = std::fabs(v * device.lastConduction().current) * h;
      totalEnergy_ += e;
      energyByCell_(r, c) += e;
    }
  }
  time_ += h;
}

void FastEngine::applyBias(const LineBias& bias, double duration) {
  if (bias.wordLine.size() != array_->rows() ||
      bias.bitLine.size() != array_->cols()) {
    throw std::invalid_argument("FastEngine: bias shape mismatch");
  }
  if (duration <= 0.0) return;
  // The crosstalk hub is refreshed once per substep, so a neighbour's input
  // temperature is stale within a substep. Keep the first substep near the
  // filament thermal time constant: the sources heat up during it, and from
  // the second substep on every cell sees the settled crosstalk level.
  const double tau = array_->config().cellParams.tauThermal;
  const std::size_t n = options_.substepsPerPulse;
  double first = std::min(2.0 * tau, duration / static_cast<double>(n));
  if (n == 1) first = duration;
  step(bias, first);
  const double remaining = duration - first;
  if (remaining <= 0.0) return;
  const std::size_t rest = n > 1 ? n - 1 : 1;
  const double h = remaining / static_cast<double>(rest);
  for (std::size_t s = 0; s < rest; ++s) step(bias, h);
}

void FastEngine::applyPulse(const LineBias& bias, double width, double gap) {
  applyBias(bias, width);
  if (options_.relaxBetweenPulses && gap > 0.0) {
    // Idle: all drivers at 0 V; devices cool toward ambient. A couple of
    // coarse steps suffice (the thermal relaxation is handled adaptively
    // inside each device).
    const LineBias idle = idleBias(array_->rows(), array_->cols());
    solveNetwork(idle);
    refreshCrosstalk();
    for (std::size_t r = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c) {
        array_->cell(r, c).advance(0.0, gap);
      }
    }
    // Crosstalk inputs decay with the sources; clear for the next pulse.
    refreshCrosstalk();
    time_ += gap;
  } else {
    time_ += gap;
  }
}

PulseTrainResult FastEngine::applyPulseTrain(const LineBias& bias, double width,
                                             double gap, std::size_t count,
                                             const PulseCallback& callback) {
  PulseTrainResult result;
  const auto& params = array_->config().cellParams;
  const double window = params.nDiscMax - params.nDiscMin;
  const std::size_t cells = array_->cellCount();

  std::vector<double> before(cells), delta(cells);
  nh::util::Matrix energyBeforeByCell;
  std::size_t applied = 0;
  while (applied < count) {
    nh::util::checkCancellation("pulse train");
    // Snapshot, then one fully detailed pulse.
    for (std::size_t r = 0, k = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c, ++k) {
        before[k] = array_->cell(r, c).nDisc();
      }
    }
    const double energyBefore = totalEnergy_;
    energyBeforeByCell = energyByCell_;
    applyPulse(bias, width, gap);
    const double energyPerPulse = totalEnergy_ - energyBefore;
    ++applied;
    ++result.pulsesSimulated;
    if (callback && callback(applied)) {
      result.stoppedEarly = true;
      break;
    }
    if (applied >= count) break;

    if (!options_.enableBatching) continue;

    // Batch: replay the per-cell delta while drift stays bounded.
    double maxDelta = 0.0;
    for (std::size_t r = 0, k = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c, ++k) {
        delta[k] = array_->cell(r, c).nDisc() - before[k];
        maxDelta = std::max(maxDelta, std::fabs(delta[k]));
      }
    }
    std::size_t batch = options_.maxBatch;
    if (maxDelta > 0.0) {
      const double allowed = options_.batchDriftLimit * window / maxDelta;
      batch = static_cast<std::size_t>(std::min<double>(
          static_cast<double>(options_.maxBatch), std::max(0.0, allowed)));
    }
    batch = std::min(batch, count - applied);
    if (batch <= 1) continue;

    for (std::size_t r = 0, k = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c, ++k) {
        auto& device = array_->cell(r, c);
        device.setNDisc(device.nDisc() + static_cast<double>(batch) * delta[k]);
      }
    }
    applied += batch;
    time_ += static_cast<double>(batch) * (width + gap);
    totalEnergy_ += static_cast<double>(batch) * energyPerPulse;
    for (std::size_t r = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c) {
        energyByCell_(r, c) += static_cast<double>(batch) *
                               (energyByCell_(r, c) - energyBeforeByCell(r, c));
      }
    }
    if (callback && callback(applied)) {
      result.stoppedEarly = true;
      break;
    }
  }
  result.pulsesApplied = applied;
  return result;
}

}  // namespace nh::xbar

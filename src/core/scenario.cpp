#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "xbar/controller.hpp"
#include "xbar/vmm.hpp"

namespace nh::core {

// ---- PrivilegeEscalationScenario ---------------------------------------------

PrivilegeEscalationScenario::PrivilegeEscalationScenario(StudyConfig config)
    : config_(std::move(config)) {}

PrivilegeEscalationReport PrivilegeEscalationScenario::run(const HammerPulse& pulse,
                                                           std::size_t budget) {
  AttackStudy study(config_);
  auto bench = study.makeBench();
  auto& array = *bench.array;
  auto& engine = *bench.engine;
  xbar::MemoryController controller(engine);

  // Page-table fragment: the victim bit is the write-permission bit of a
  // kernel page (must stay 0); the attacker legitimately owns the adjacent
  // cell on the same word line and may write it at will.
  PrivilegeEscalationReport report;
  report.victimBit = {config_.rows / 2, config_.cols / 2 - 1};
  report.attackerCell = {config_.rows / 2, config_.cols / 2};

  // Initial memory image: a deterministic checkerboard-ish pattern with the
  // victim bit cleared and the attacker's cell set (it wrote it itself).
  std::vector<bool> image(array.cellCount());
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      image[r * array.cols() + c] = ((r * 3 + c * 5) % 7) < 3;
    }
  }
  image[report.victimBit.row * array.cols() + report.victimBit.col] = false;
  image[report.attackerCell.row * array.cols() + report.attackerCell.col] = true;
  controller.writeImage(image);
  report.memoryBefore = controller.readImage();

  // The hammer loop: repeated SET writes to the attacker-owned cell.
  BitFlipDetector detector(config_.detector);
  bool flipped = false;
  std::size_t pulsesToFlip = 0;
  const auto stop = [&](std::size_t pulseIndex) {
    if (detector.classify(array.cell(report.victimBit.row, report.victimBit.col)) ==
        ReadState::Lrs) {
      flipped = true;
      pulsesToFlip = pulseIndex;
      return true;
    }
    return false;
  };
  const std::size_t applied =
      controller.hammer(report.attackerCell.row, report.attackerCell.col, budget,
                        pulse.width, pulse.period(), stop);

  report.succeeded = flipped;
  report.pulses = flipped ? pulsesToFlip : applied;
  report.attackSeconds = static_cast<double>(report.pulses) * pulse.period();
  report.memoryAfter = controller.readImage();

  for (std::size_t i = 0; i < image.size(); ++i) {
    const std::size_t victimIndex =
        report.victimBit.row * array.cols() + report.victimBit.col;
    if (i != victimIndex && report.memoryAfter[i] != report.memoryBefore[i]) {
      ++report.collateralFlips;
    }
  }
  return report;
}

// ---- WeightAttackScenario ------------------------------------------------------

WeightAttackScenario::WeightAttackScenario(StudyConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {
  if (config_.rows != 5 || config_.cols != 5) {
    throw std::invalid_argument("WeightAttackScenario: requires a 5x5 array");
  }
  generateData();
  train();
}

void WeightAttackScenario::generateData() {
  // Two Gaussian blobs in [0,1]^4. Feature 0 carries almost all of the
  // class signal (a deliberately non-redundant model, so corrupting its
  // weight is observable); the rest are weakly informative.
  const double mean0[4] = {0.30, 0.55, 0.47, 0.52};
  const double mean1[4] = {0.70, 0.45, 0.53, 0.48};
  const double sigma = 0.13;
  const auto sample = [&](const double* mean, std::vector<double>& x) {
    x.resize(4);
    for (int d = 0; d < 4; ++d) {
      x[d] = std::clamp(mean[d] + rng_.normal(0.0, sigma), 0.0, 1.0);
    }
  };
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x;
    const int y = i % 2;
    sample(y == 0 ? mean0 : mean1, x);
    trainX_.push_back(x);
    trainY_.push_back(y);
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x;
    const int y = i % 2;
    sample(y == 0 ? mean0 : mean1, x);
    testX_.push_back(x);
    testY_.push_back(y);
  }
}

void WeightAttackScenario::train() {
  // Perceptron-style training of two one-vs-other scorers on (x, bias=1).
  const double lr = 0.05;
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (std::size_t i = 0; i < trainX_.size(); ++i) {
      const auto& x = trainX_[i];
      double score[2];
      for (int k = 0; k < 2; ++k) {
        score[k] = weights_[k][4];
        for (int d = 0; d < 4; ++d) score[k] += weights_[k][d] * x[d];
      }
      const int predicted = score[1] > score[0] ? 1 : 0;
      const int actual = trainY_[i];
      if (predicted != actual) {
        for (int d = 0; d < 4; ++d) {
          weights_[actual][d] += lr * x[d];
          weights_[predicted][d] -= lr * x[d];
        }
        weights_[actual][4] += lr;
        weights_[predicted][4] -= lr;
      }
    }
  }
  // Ternarise: +-1 where the weight is significant, 0 elsewhere.
  double maxAbs = 1e-12;
  for (const auto& row : weights_) {
    for (const double w : row) maxAbs = std::max(maxAbs, std::fabs(w));
  }
  for (int k = 0; k < 2; ++k) {
    for (int d = 0; d < 5; ++d) {
      const double w = weights_[k][d];
      ternary_[k][d] = std::fabs(w) < 0.25 * maxAbs ? 0 : (w > 0 ? 1 : -1);
    }
  }
}

int WeightAttackScenario::digitalPredict(const std::vector<double>& x) const {
  double score[2];
  for (int k = 0; k < 2; ++k) {
    score[k] = weights_[k][4];
    for (int d = 0; d < 4; ++d) score[k] += weights_[k][d] * x[d];
  }
  return score[1] > score[0] ? 1 : 0;
}

int WeightAttackScenario::analogPredict(const xbar::CrossbarArray& array,
                                        const std::vector<double>& x) const {
  // Word-line voltages: features scaled to [0, 0.2 V]. The bias row is
  // driven at the feature midpoint (0.1 V = 0.2 * 0.5): with ternary +-1
  // weights the differential score then crosses zero at the decision
  // boundary of the trained float classifier.
  nh::util::Vector inputs(5, 0.0);
  for (int d = 0; d < 4; ++d) inputs[d] = 0.2 * x[d];
  inputs[4] = 0.1;
  const nh::util::Vector currents = xbar::vmmCurrents(array, inputs);
  // Differential column pairs: class k score = I(2k) - I(2k+1).
  const double score0 = currents[0] - currents[1];
  const double score1 = currents[2] - currents[3];
  return score1 > score0 ? 1 : 0;
}

double WeightAttackScenario::analogAccuracy(const xbar::CrossbarArray& array) const {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < testX_.size(); ++i) {
    if (analogPredict(array, testX_[i]) == testY_[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(testX_.size());
}

WeightAttackReport WeightAttackScenario::run(const HammerPulse& pulse,
                                             std::size_t budget) {
  AttackStudy study(config_);
  auto bench = study.makeBench();
  auto& array = *bench.array;
  auto& engine = *bench.engine;

  // Map ternary weights: weight (k, d) = G(d, 2k) - G(d, 2k+1); column 4 is
  // scratch space the attacker may write.
  for (int k = 0; k < 2; ++k) {
    for (int d = 0; d < 5; ++d) {
      if (ternary_[k][d] > 0) {
        array.setState(static_cast<std::size_t>(d), static_cast<std::size_t>(2 * k),
                       xbar::CellState::Lrs);
      } else if (ternary_[k][d] < 0) {
        array.setState(static_cast<std::size_t>(d),
                       static_cast<std::size_t>(2 * k + 1), xbar::CellState::Lrs);
      }
    }
  }

  WeightAttackReport report;
  {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < testX_.size(); ++i) {
      if (digitalPredict(testX_[i]) == testY_[i]) ++correct;
    }
    report.digitalAccuracy =
        static_cast<double>(correct) / static_cast<double>(testX_.size());
  }
  report.accuracyBefore = analogAccuracy(array);

  // Target: the negative-column cell of the strongest positive class-1
  // weight -- flipping it HRS->LRS cancels that weight differentially.
  int targetRow = -1;
  for (int d = 0; d < 5; ++d) {
    if (ternary_[1][d] > 0 &&
        (targetRow < 0 ||
         std::fabs(weights_[1][d]) > std::fabs(weights_[1][targetRow]))) {
      targetRow = d;
    }
  }
  if (targetRow < 0) {
    // Fall back to any HRS cell in the negative column of class 1.
    for (int d = 0; d < 5; ++d) {
      if (array.stateOf(static_cast<std::size_t>(d), 3) == xbar::CellState::Hrs) {
        targetRow = d;
        break;
      }
    }
  }
  if (targetRow < 0) throw std::runtime_error("WeightAttackScenario: no target cell");

  const xbar::CellCoord victim{static_cast<std::size_t>(targetRow), 3};
  const xbar::CellCoord aggressor{static_cast<std::size_t>(targetRow), 4};
  array.setState(aggressor.row, aggressor.col, xbar::CellState::Lrs);

  const xbar::LineBias bias =
      xbar::selectBias(xbar::BiasScheme::Half, array.rows(), array.cols(),
                       aggressor.row, aggressor.col, pulse.amplitude);
  bool flipped = false;
  std::size_t pulsesToFlip = 0;
  // Hammer until the weight cell saturates near deep LRS: the Schottky
  // barrier depends exponentially on the state, so even x = 0.9 leaves the
  // cell ~2x more resistive than its differential partner and the weight
  // would only shrink, not cancel.
  const auto stop = [&](std::size_t pulseIndex) {
    if (array.cell(victim.row, victim.col).normalisedState() >= 0.98) {
      flipped = true;
      pulsesToFlip = pulseIndex;
      return true;
    }
    return false;
  };
  const auto train =
      engine.applyPulseTrain(bias, pulse.width, pulse.gap(), budget, stop);

  report.weightFlipped = flipped;
  report.pulses = flipped ? pulsesToFlip : train.pulsesApplied;
  report.flippedWeightCell = victim;
  report.accuracyAfter = analogAccuracy(array);
  return report;
}

}  // namespace nh::core

#pragma once
/// \file scenario.hpp
/// Security scenarios (paper Sec. VI): transfers the RowHammer attack
/// narratives to ReRAM main memory and to neuromorphic accelerators.
///  * PrivilegeEscalationScenario -- a page-table permission bit stored in
///    the crossbar is flipped by hammering an attacker-owned adjacent cell
///    (Seaborn et al.'s kernel-privilege attack, Sec. VI).
///  * WeightAttackScenario -- a linear classifier whose ternary weights live
///    in crossbar conductances (computing-in-memory) is corrupted by
///    flipping a weight cell, degrading accuracy.

#include <cstdint>
#include <vector>

#include "core/study.hpp"
#include "util/rng.hpp"

namespace nh::core {

/// ---- privilege escalation ------------------------------------------------------

struct PrivilegeEscalationReport {
  bool succeeded = false;            ///< Victim permission bit flipped.
  std::size_t pulses = 0;            ///< Hammer pulses needed.
  double attackSeconds = 0.0;        ///< Wall-clock at the hammer duty cycle.
  std::size_t collateralFlips = 0;   ///< Other bits corrupted (should be 0).
  std::vector<bool> memoryBefore;    ///< Row-major bit image before.
  std::vector<bool> memoryAfter;     ///< After the attack.
  xbar::CellCoord victimBit{};
  xbar::CellCoord attackerCell{};
};

/// The crossbar stores a page-table fragment; bit (victim) = 1 would grant
/// the attacker write access to a page table page. The attacker can only
/// write its own cell, adjacent on the same word line.
class PrivilegeEscalationScenario {
 public:
  explicit PrivilegeEscalationScenario(StudyConfig config = {});

  /// Run the attack with the given hammer pulse; budget caps the attempt.
  PrivilegeEscalationReport run(const HammerPulse& pulse, std::size_t budget);

 private:
  StudyConfig config_;
};

/// ---- neuromorphic weight corruption ----------------------------------------------

struct WeightAttackReport {
  double accuracyBefore = 0.0;     ///< Analog (crossbar VMM) accuracy.
  double accuracyAfter = 0.0;
  double digitalAccuracy = 0.0;    ///< Float-weight reference accuracy.
  bool weightFlipped = false;
  std::size_t pulses = 0;
  xbar::CellCoord flippedWeightCell{};  ///< Column 3 = class 1's negative half.
};

/// A ternary-weight linear classifier (2 classes, 4 features + bias) mapped
/// onto the 5x5 crossbar with differential column pairs. Trained on a
/// deterministic synthetic two-blob dataset, then attacked.
class WeightAttackScenario {
 public:
  explicit WeightAttackScenario(StudyConfig config = {}, std::uint64_t seed = 42);

  WeightAttackReport run(const HammerPulse& pulse, std::size_t budget);

  /// Number of samples in the held-out evaluation set.
  std::size_t testSetSize() const { return testX_.size(); }

 private:
  void generateData();
  void train();
  /// Classify one sample with float weights.
  int digitalPredict(const std::vector<double>& x) const;
  /// Classify via crossbar currents.
  int analogPredict(const xbar::CrossbarArray& array,
                    const std::vector<double>& x) const;
  double analogAccuracy(const xbar::CrossbarArray& array) const;

  StudyConfig config_;
  nh::util::Rng rng_;
  std::vector<std::vector<double>> trainX_, testX_;
  std::vector<int> trainY_, testY_;
  /// Float weights [class][feature+bias] and their ternarised form in
  /// {-1, 0, +1}.
  double weights_[2][5] = {};
  int ternary_[2][5] = {};
};

}  // namespace nh::core

/// End-to-end pipeline tests: FEM-calibrated crosstalk table -> circuit
/// engine -> attack, and the normal-operation safety property the security
/// claim rests on. The table's tie to the FEM extraction is checked by the
/// registry tests against the alpha_extraction baseline.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_registry.hpp"
#include "core/study.hpp"
#include "xbar/controller.hpp"

namespace nh::core {
namespace {

TEST(Pipeline, NormalOperationIsSafeAttackIsNot) {
  // The security property: writing ordinary data (including rewriting the
  // aggressor cell a modest number of times) leaves neighbours intact;
  // hammering flips one.
  StudyConfig cfg;
  cfg.spacing = 10e-9;
  AttackStudy study(cfg);
  auto bench = study.makeBench();
  xbar::MemoryController controller(*bench.engine);

  // Regular use: write a pattern, rewrite some cells, read everything.
  controller.writeBit(2, 2, true);
  controller.writeBit(2, 0, true);
  for (int i = 0; i < 10; ++i) {
    controller.writeBit(2, 2, i % 2 == 0);
  }
  controller.writeBit(2, 2, true);
  EXPECT_EQ(controller.readBit(2, 1).state, xbar::CellState::Hrs);
  EXPECT_EQ(controller.readBit(2, 3).state, xbar::CellState::Hrs);

  // Now hammer: the neighbour flips within the budget.
  BitFlipDetector detector;
  bool flipped = false;
  controller.hammer(2, 2, 100000, 50e-9, 0.0, [&](std::size_t) {
    flipped = detector.classify(bench.array->cell(2, 1)) == ReadState::Lrs ||
              detector.classify(bench.array->cell(2, 3)) == ReadState::Lrs;
    return flipped;
  });
  EXPECT_TRUE(flipped);
}

TEST(Pipeline, VictimFollowsFourPhaseMechanics) {
  // Fig. 1 storyline: aggressor hot during hammering, victim temperature
  // elevated via crosstalk, victim state ratchets up, flip occurs.
  StudyConfig cfg;
  cfg.spacing = 10e-9;
  AttackStudy study(cfg);
  AttackConfig attack;
  attack.aggressors = {{2, 2}};
  attack.victims = {{2, 1}};
  attack.maxPulses = 100000;
  attack.traceSamples = 2000;
  const AttackResult r = study.attack(attack);
  ASSERT_TRUE(r.flipped);
  ASSERT_GT(r.tracePulse.size(), 5u);

  // Phase 2: aggressor filament runs hundreds of kelvin above ambient
  // somewhere in the trace (trace samples after the gap read ~ambient, but
  // the in-pulse callback samples catch hot instants).
  double maxAggressor = 0.0;
  double maxVictim = 0.0;
  for (std::size_t i = 0; i < r.tracePulse.size(); ++i) {
    maxAggressor = std::max(maxAggressor, r.traceAggressorTemperature[i]);
    maxVictim = std::max(maxVictim, r.traceVictimTemperature[i]);
  }
  EXPECT_GT(maxAggressor, 450.0);
  EXPECT_GT(maxVictim, 350.0);
  // Phase 4: state ends beyond the detection level.
  EXPECT_GT(r.traceVictimState.back(), 0.4);
}

TEST(Pipeline, StudyRejectsTinyArrays) {
  StudyConfig cfg;
  cfg.rows = 2;
  EXPECT_THROW(AttackStudy{cfg}, std::invalid_argument);
}

/// A Fig. 3 registry experiment moved to the fast 10 nm regime, with the
/// given axis values and pulse budget.
ExperimentResult runFig3(const std::string& name,
                         std::map<std::string, std::vector<double>> axes,
                         std::size_t maxPulses) {
  ExperimentSpec spec = makeExperiment(name);
  spec.base.spacing = 10e-9;
  RunOptions options;
  options.axisOverrides = std::move(axes);
  options.maxPulsesOverride = maxPulses;
  return runExperiment(spec, options);
}

/// Cell \p column of row \p row.
const ResultValue& cell(const ExperimentResult& r, std::size_t row,
                        const std::string& column) {
  for (std::size_t c = 0; c < r.columns.size(); ++c) {
    if (r.columns[c].name == column) return r.rows.at(row).at(c);
  }
  throw std::out_of_range("no column " + column);
}

bool flipped(const ExperimentResult& r, std::size_t row) {
  return cell(r, row, "flipped").number == 1.0;
}

double pulses(const ExperimentResult& r, std::size_t row) {
  return cell(r, row, "pulses").number;
}

TEST(Pipeline, SweepHarnessesProduceOrderedSeries) {
  const auto byLength =
      runFig3("fig3a_pulse_length", {{"width", {30e-9, 90e-9}}}, 300000);
  ASSERT_EQ(byLength.rows.size(), 2u);
  ASSERT_TRUE(flipped(byLength, 0) && flipped(byLength, 1));
  EXPECT_GT(pulses(byLength, 0), pulses(byLength, 1));

  const auto bySpacing = runFig3(
      "fig3b_electrode_spacing",
      {{"spacing", {10e-9, 30e-9}}, {"width", {50e-9}}}, 2000000);
  ASSERT_EQ(bySpacing.rows.size(), 2u);
  ASSERT_TRUE(flipped(bySpacing, 0) && flipped(bySpacing, 1));
  EXPECT_LT(pulses(bySpacing, 0), pulses(bySpacing, 1));

  const auto byAmbient =
      runFig3("fig3c_ambient_temperature",
              {{"ambient", {300.0, 348.0}}, {"width", {50e-9}}}, 2000000);
  ASSERT_EQ(byAmbient.rows.size(), 2u);
  ASSERT_TRUE(flipped(byAmbient, 0) && flipped(byAmbient, 1));
  EXPECT_GT(pulses(byAmbient, 0), pulses(byAmbient, 1));

  const auto byPattern = runFig3("fig3d_attack_patterns", {}, 500000);
  ASSERT_EQ(byPattern.rows.size(), 5u);
  // Ring (8 aggressors) is the most effective pattern.
  double ringPulses = 0.0, singlePulses = 0.0;
  for (std::size_t i = 0; i < byPattern.rows.size(); ++i) {
    const std::string& pattern = cell(byPattern, i, "pattern").text;
    ASSERT_TRUE(flipped(byPattern, i)) << pattern;
    if (pattern == patternName(AttackPattern::Ring)) {
      ringPulses = pulses(byPattern, i);
    }
    if (pattern == patternName(AttackPattern::SingleAggressor)) {
      singlePulses = pulses(byPattern, i);
    }
  }
  EXPECT_LT(ringPulses, singlePulses);
}

}  // namespace
}  // namespace nh::core

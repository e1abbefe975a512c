#include "core/attack.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/study.hpp"
#include "util/cancellation.hpp"

namespace nh::core {
namespace {

/// 10 nm spacing keeps flip times at a few hundred pulses: fast tests.
StudyConfig fastConfig() {
  StudyConfig cfg;
  cfg.spacing = 10e-9;
  return cfg;
}

TEST(AttackEngine, CentreAttackFlipsWordLineNeighbour) {
  AttackStudy study(fastConfig());
  HammerPulse pulse;  // 1.05 V, 50 ns, 50% duty
  const AttackResult r = study.attackCenter(pulse, 100000);
  ASSERT_TRUE(r.flipped);
  // Strongest coupling is along the word line: the flipped victim is one of
  // the row neighbours of the aggressor (2,2).
  EXPECT_EQ(r.flippedCell.row, 2u);
  EXPECT_TRUE(r.flippedCell.col == 1 || r.flippedCell.col == 3);
  EXPECT_GT(r.pulsesToFlip, 10u);
  EXPECT_LT(r.pulsesToFlip, 20000u);
  EXPECT_DOUBLE_EQ(r.stressTime, static_cast<double>(r.pulsesToFlip) * 50e-9);
  EXPECT_GE(r.pulsesApplied, r.pulsesToFlip);
}

TEST(AttackEngine, NoFlipWithinTinyBudget) {
  AttackStudy study(fastConfig());
  HammerPulse pulse;
  const AttackResult r = study.attackCenter(pulse, 5);
  EXPECT_FALSE(r.flipped);
  EXPECT_EQ(r.pulsesApplied, 5u);
}

TEST(AttackEngine, TraceRecordsFourPhases) {
  AttackStudy study(fastConfig());
  HammerPulse pulse;
  AttackConfig cfg;
  cfg.aggressors = {{2, 2}};
  cfg.pulse = pulse;
  cfg.maxPulses = 20000;  // keeps the trace interval fine-grained
  cfg.victims = {{2, 1}};
  cfg.traceSamples = 1000;
  const AttackResult r = study.attack(cfg);
  ASSERT_TRUE(r.flipped);
  ASSERT_GT(r.tracePulse.size(), 3u);
  ASSERT_EQ(r.traceVictimState.size(), r.tracePulse.size());
  // Victim state is monotically increasing toward the flip.
  for (std::size_t i = 1; i < r.traceVictimState.size(); ++i) {
    EXPECT_GE(r.traceVictimState[i], r.traceVictimState[i - 1] - 1e-9);
  }
  EXPECT_GT(r.traceVictimState.back(), r.traceVictimState.front());
}

TEST(AttackEngine, ExplicitVictimRespected) {
  AttackStudy study(fastConfig());
  AttackConfig cfg;
  cfg.aggressors = {{2, 2}};
  cfg.pulse = HammerPulse{};
  cfg.maxPulses = 200000;
  cfg.victims = {{1, 2}};  // bit-line neighbour (weaker coupling)
  const AttackResult r = study.attack(cfg);
  ASSERT_TRUE(r.flipped);
  EXPECT_EQ(r.flippedCell, (xbar::CellCoord{1, 2}));
}

TEST(AttackEngine, InputValidation) {
  AttackStudy study(fastConfig());
  auto bench = study.makeBench();
  AttackEngine engine(*bench.engine);
  // Bounds the zero-chunk case below: a rotation that applies no pulse
  // would otherwise spin until cancelled instead of throwing.
  const auto deadline = nh::util::CancellationSource::withDeadline(2.0);
  const nh::util::CancellationScope scope(deadline.token());

  AttackConfig cfg;  // no aggressors
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);

  cfg.aggressors = {{9, 9}};
  EXPECT_THROW(engine.run(cfg), std::out_of_range);

  cfg.aggressors = {{2, 2}};
  cfg.pulse.dutyCycle = 0.0;
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);

  // Non-finite pulse parameters are input errors, not solver failures.
  cfg.pulse = HammerPulse{};
  cfg.pulse.width = std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);
  cfg.pulse = HammerPulse{};
  cfg.pulse.width = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);
  cfg.pulse = HammerPulse{};
  cfg.pulse.amplitude = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);
  cfg.pulse = HammerPulse{};
  cfg.pulse.amplitude = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);
  cfg.pulse = HammerPulse{};

  cfg.pulse.dutyCycle = 0.5;
  cfg.aggressors = {{2, 1}, {2, 3}};
  cfg.victims = {{2, 2}};
  cfg.roundRobinChunk = 0;
  cfg.maxPulses = 1000;
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);

  // One aggressor takes the whole budget as one chunk: zero is harmless.
  cfg.aggressors = {{2, 1}};
  cfg.maxPulses = 1;
  EXPECT_NO_THROW(engine.run(cfg));
}

TEST(AttackEngine, AllLrsArrayHasNoVictims) {
  AttackStudy study(fastConfig());
  auto bench = study.makeBench();
  bench.array->fill(xbar::CellState::Lrs);
  AttackEngine engine(*bench.engine);
  AttackConfig cfg;
  cfg.aggressors = {{2, 2}};
  EXPECT_THROW(engine.run(cfg), std::invalid_argument);
}

TEST(AttackEngine, AggressorsPreparedLrs) {
  AttackStudy study(fastConfig());
  auto bench = study.makeBench();
  AttackEngine engine(*bench.engine);
  AttackConfig cfg;
  cfg.aggressors = {{2, 2}};
  cfg.maxPulses = 1;  // one pulse is enough to check preparation
  const AttackResult r = engine.run(cfg);
  (void)r;
  EXPECT_EQ(bench.array->stateOf(2, 2), xbar::CellState::Lrs);
}

TEST(AttackEngine, HammerPulseDerivedQuantities) {
  HammerPulse p;
  p.width = 50e-9;
  p.dutyCycle = 0.5;
  EXPECT_DOUBLE_EQ(p.period(), 100e-9);
  EXPECT_DOUBLE_EQ(p.gap(), 50e-9);
  p.dutyCycle = 0.25;
  EXPECT_DOUBLE_EQ(p.period(), 200e-9);
}

// ---- shape properties of the paper's figures (cheap versions) --------------------

TEST(AttackShape, LongerPulsesNeedFewerPulses) {
  // Fig. 3a downward trend.
  AttackStudy study(fastConfig());
  HammerPulse shortPulse;
  shortPulse.width = 20e-9;
  HammerPulse longPulse;
  longPulse.width = 80e-9;
  const auto a = study.attackCenter(shortPulse, 500000);
  const auto b = study.attackCenter(longPulse, 500000);
  ASSERT_TRUE(a.flipped && b.flipped);
  EXPECT_GT(a.pulsesToFlip, b.pulsesToFlip);
}

TEST(AttackShape, TighterSpacingFlipsFaster) {
  // Fig. 3b ordering (10 nm vs 50 nm; 90 nm is covered by the bench).
  StudyConfig near = fastConfig();
  StudyConfig far = fastConfig();
  far.spacing = 50e-9;
  const auto a = AttackStudy(near).attackCenter(HammerPulse{}, 2000000);
  const auto b = AttackStudy(far).attackCenter(HammerPulse{}, 2000000);
  ASSERT_TRUE(a.flipped && b.flipped);
  EXPECT_LT(a.pulsesToFlip * 5, b.pulsesToFlip);
}

TEST(AttackShape, HotterAmbientFlipsFaster) {
  // Fig. 3c ordering.
  StudyConfig cold = fastConfig();
  cold.ambientK = 273.0;
  StudyConfig hot = fastConfig();
  hot.ambientK = 348.0;
  const auto a = AttackStudy(cold).attackCenter(HammerPulse{}, 2000000);
  const auto b = AttackStudy(hot).attackCenter(HammerPulse{}, 2000000);
  ASSERT_TRUE(a.flipped && b.flipped);
  EXPECT_GT(a.pulsesToFlip, 10 * b.pulsesToFlip);
}

TEST(AttackShape, MoreAggressorsFlipFaster) {
  // Fig. 3d ordering: the ring pattern beats the single aggressor.
  StudyConfig cfg = fastConfig();
  AttackStudy study(cfg);
  const auto single =
      study.attackPattern(AttackPattern::SingleAggressor, HammerPulse{}, 500000);
  const auto ring = study.attackPattern(AttackPattern::Ring, HammerPulse{}, 500000);
  ASSERT_TRUE(single.flipped && ring.flipped);
  EXPECT_LT(ring.pulsesToFlip, single.pulsesToFlip);
}

TEST(AttackShape, ColumnPairSlowerThanRowPair) {
  // Word-line coupling dominates (filament sits on the bottom electrode).
  AttackStudy study(fastConfig());
  const auto row = study.attackPattern(AttackPattern::RowPair, HammerPulse{}, 500000);
  const auto col =
      study.attackPattern(AttackPattern::ColumnPair, HammerPulse{}, 2000000);
  ASSERT_TRUE(row.flipped && col.flipped);
  EXPECT_LT(row.pulsesToFlip, col.pulsesToFlip);
}

}  // namespace
}  // namespace nh::core

#include <gtest/gtest.h>

#include <cmath>

#include "xbar/fastsim.hpp"
#include "xbar/spicesim.hpp"

namespace nh::xbar {
namespace {

ArrayConfig config3x3() {
  ArrayConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  return cfg;
}

TEST(FastEngine, IdealAndNetworkVoltagesClose) {
  // With a 50-Ohm driver and uA-level currents the line nodes sit within a
  // few mV of the ideal bias.
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngineOptions opt;
  FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyBias(bias, 10e-9);
  const auto& lv = engine.lastLineVoltages();
  EXPECT_NEAR(lv[1], 1.05, 0.02);      // selected word line
  EXPECT_NEAR(lv[3 + 1], 0.0, 0.02);   // selected bit line
  EXPECT_NEAR(lv[0], 0.525, 0.02);     // half bias lines
  EXPECT_GT(engine.newtonIterationsTotal(), 0u);
}

TEST(FastEngine, IdealModeSkipsNetworkSolve) {
  CrossbarArray array(config3x3());
  FastEngineOptions opt;
  opt.solveLineNetwork = false;
  FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyBias(bias, 10e-9);
  EXPECT_DOUBLE_EQ(engine.lastLineVoltages()[1], 1.05);
  EXPECT_EQ(engine.newtonIterationsTotal(), 0u);
}

TEST(FastEngine, NewtonIterationCapIsReported) {
  // A line-network solve that runs out of iterations is an error, not a
  // silently unconverged set of line voltages.
  CrossbarArray array(config3x3());
  array.fill(CellState::Lrs);
  FastEngineOptions opt;
  opt.maxNewtonIterations = 1;
  FastEngine engine(array, AlphaTable::analytic(50e-9), opt);
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  try {
    engine.applyBias(bias, 10e-9);
    FAIL() << "expected SolverError";
  } catch (const nh::util::SolverError& e) {
    EXPECT_EQ(e.solve(), "fastsim.newton");
    EXPECT_EQ(e.iterations(), 1u);
    EXPECT_GT(e.residualNorm(), opt.newtonTol);
  }
}

TEST(FastEngine, TimeAdvances) {
  CrossbarArray array(config3x3());
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 50e-9);
  EXPECT_NEAR(engine.time(), 100e-9, 1e-15);
}

TEST(FastEngine, HammeringHeatsWordLineNeighbourMost) {
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyBias(bias, 50e-9);  // stay inside the pulse: temps are hot

  const double tAggressor = array.cell(1, 1).temperature();
  const double tWordNeighbour = array.cell(1, 0).temperature();
  const double tBitNeighbour = array.cell(0, 1).temperature();
  const double tDiagonal = array.cell(0, 0).temperature();
  EXPECT_GT(tAggressor, 450.0);
  EXPECT_GT(tWordNeighbour, tBitNeighbour);
  EXPECT_GT(tBitNeighbour, tDiagonal);
  EXPECT_GT(tDiagonal, 300.0);
}

TEST(FastEngine, GapCoolsArray) {
  CrossbarArray array(config3x3());
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  engine.applyPulse(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9, 50e-9);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(array.cell(r, c).temperature(), 300.0, 1.0);
    }
  }
}

TEST(FastEngine, UnselectedCellsDoNotDrift) {
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  FastEngine engine(array, AlphaTable::analytic(50e-9));
  const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
  engine.applyPulseTrain(bias, 50e-9, 50e-9, 200);
  // Cells sharing no line with (1,1) see no voltage; they must stay put.
  EXPECT_LT(array.cell(0, 0).normalisedState(), 1e-6);
  EXPECT_LT(array.cell(2, 0).normalisedState(), 1e-6);
  // Half-selected neighbours have started to drift.
  EXPECT_GT(array.cell(1, 0).normalisedState(), 1e-5);
}

TEST(FastEngine, BatchingMatchesUnbatchedPulseCount) {
  // The accelerated train must flip within a few percent of the exact one.
  const auto runAttack = [](bool batching) {
    CrossbarArray array(config3x3());
    array.fill(CellState::Hrs);
    array.setState(1, 1, CellState::Lrs);
    FastEngineOptions opt;
    opt.enableBatching = batching;
    FastEngine engine(array, AlphaTable::analytic(10e-9), opt);
    const LineBias bias = selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05);
    std::size_t flipAt = 0;
    engine.applyPulseTrain(bias, 50e-9, 50e-9, 20000, [&](std::size_t pulse) {
      if (array.cell(1, 0).normalisedState() >= 0.5) {
        flipAt = pulse;
        return true;
      }
      return false;
    });
    return flipAt;
  };
  const std::size_t exact = runAttack(false);
  const std::size_t batched = runAttack(true);
  ASSERT_GT(exact, 0u);
  ASSERT_GT(batched, 0u);
  EXPECT_NEAR(static_cast<double>(batched), static_cast<double>(exact),
              0.08 * static_cast<double>(exact) + 3.0);
}

TEST(FastEngine, PulseTrainStopsEarlyViaCallback) {
  // Without batching the stop is exact; with batching the callback still
  // fires and stops the train, but only at batch granularity.
  CrossbarArray array(config3x3());
  FastEngineOptions opt;
  opt.enableBatching = false;
  FastEngine exact(array, AlphaTable::analytic(50e-9), opt);
  const LineBias bias = idleBias(3, 3);
  const auto precise = exact.applyPulseTrain(bias, 10e-9, 10e-9, 100,
                                             [](std::size_t p) { return p >= 7; });
  EXPECT_TRUE(precise.stoppedEarly);
  EXPECT_EQ(precise.pulsesApplied, 7u);

  FastEngine batched(array, AlphaTable::analytic(50e-9));
  const auto coarse = batched.applyPulseTrain(
      bias, 10e-9, 10e-9, 100, [](std::size_t p) { return p >= 7; });
  EXPECT_TRUE(coarse.stoppedEarly);
  EXPECT_LE(coarse.pulsesApplied, 100u);
}

TEST(FastEngine, OptionValidation) {
  CrossbarArray array(config3x3());
  FastEngineOptions opt;
  opt.substepsPerPulse = 0;
  EXPECT_THROW(FastEngine(array, AlphaTable::analytic(50e-9), opt),
               std::invalid_argument);
  FastEngineOptions opt2;
  opt2.batchDriftLimit = 0.0;
  EXPECT_THROW(FastEngine(array, AlphaTable::analytic(50e-9), opt2),
               std::invalid_argument);
  FastEngine ok(array, AlphaTable::analytic(50e-9));
  LineBias wrong;
  wrong.wordLine.assign(2, 0.0);
  wrong.bitLine.assign(3, 0.0);
  EXPECT_THROW(ok.applyBias(wrong, 1e-9), std::invalid_argument);
}

// ---- SPICE engine ------------------------------------------------------------------

TEST(SpiceCrossbar, DcLevelsMatchScheme) {
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  SpiceEngineOptions opt;
  opt.traceCells = false;
  SpiceCrossbar spice(array, AlphaTable::analytic(50e-9), opt);
  spice.programDrivers(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), {});

  auto& ckt = spice.circuit();
  const auto result = nh::spice::solveDc(ckt);
  ASSERT_TRUE(result.converged);
  const auto v = [&](const std::string& name) {
    const auto id = ckt.findNode(name);
    return id == 0 ? 0.0 : result.x[id - 1];
  };
  EXPECT_NEAR(v(spice.wordLineNode(1, 1)), 1.05, 0.02);
  EXPECT_NEAR(v(spice.bitLineNode(1, 1)), 0.0, 0.02);
  EXPECT_NEAR(v(spice.wordLineNode(0, 0)), 0.525, 0.02);
}

TEST(SpiceCrossbar, TransientHammerAdvancesVictim) {
  CrossbarArray array(config3x3());
  array.fill(CellState::Hrs);
  array.setState(1, 1, CellState::Lrs);
  SpiceEngineOptions opt;
  opt.traceCells = true;
  SpiceCrossbar spice(array, AlphaTable::analytic(10e-9), opt);
  spice.programHammer(1, 1, 1.05, 50e-9, 100e-9, 5);
  const auto result = spice.run(500e-9);
  ASSERT_TRUE(result.completed) << result.failureReason;
  // Victim drifted up, unselected cell did not.
  EXPECT_GT(array.cell(1, 0).normalisedState(), 1e-5);
  EXPECT_LT(array.cell(0, 0).normalisedState(), 1e-6);
  // Traces exist and show the aggressor heating during pulses.
  const auto& tAgg = result.seriesFor("T(1,1)");
  double maxT = 0.0;
  for (const double t : tAgg) maxT = std::max(maxT, t);
  EXPECT_GT(maxT, 450.0);
}

TEST(SpiceVsFast, VictimDriftAgreesOverShortTrain) {
  // The quasi-static engine must agree with the full transient on the
  // victim state drift over a short pulse train (10 pulses, 10 nm spacing).
  const std::size_t pulses = 10;

  CrossbarArray arrayFast(config3x3());
  arrayFast.fill(CellState::Hrs);
  arrayFast.setState(1, 1, CellState::Lrs);
  FastEngine fast(arrayFast, AlphaTable::analytic(10e-9));
  fast.applyPulseTrain(selectBias(BiasScheme::Half, 3, 3, 1, 1, 1.05), 50e-9,
                       50e-9, pulses);

  CrossbarArray arraySpice(config3x3());
  arraySpice.fill(CellState::Hrs);
  arraySpice.setState(1, 1, CellState::Lrs);
  SpiceEngineOptions opt;
  opt.traceCells = false;
  SpiceCrossbar spice(arraySpice, AlphaTable::analytic(10e-9), opt);
  spice.programHammer(1, 1, 1.05, 50e-9, 100e-9,
                      static_cast<long long>(pulses));
  const auto result = spice.run(static_cast<double>(pulses) * 100e-9);
  ASSERT_TRUE(result.completed) << result.failureReason;

  const double xFast = arrayFast.cell(1, 0).normalisedState();
  const double xSpice = arraySpice.cell(1, 0).normalisedState();
  ASSERT_GT(xSpice, 0.0);
  EXPECT_NEAR(xFast / xSpice, 1.0, 0.30);
}

TEST(SpiceCrossbar, StimulusValidation) {
  CrossbarArray array(config3x3());
  SpiceEngineOptions opt;
  opt.traceCells = false;
  SpiceCrossbar spice(array, AlphaTable::analytic(50e-9), opt);
  LineStimulus bad;
  bad.isWordLine = false;
  bad.index = 9;
  bad.pulse.amplitude = 1.0;
  bad.pulse.width = 10e-9;
  EXPECT_THROW(spice.programDrivers(idleBias(3, 3), {bad}), std::out_of_range);
  LineBias wrong;
  wrong.wordLine.assign(2, 0.0);
  wrong.bitLine.assign(3, 0.0);
  EXPECT_THROW(spice.programDrivers(wrong, {}), std::invalid_argument);
}

}  // namespace
}  // namespace nh::xbar

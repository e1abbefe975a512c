#include <gtest/gtest.h>

#include <cmath>

#include "jart/model.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace nh::jart {
namespace {

Model defaultModel() { return Model(Params::paperDefaults()); }

TEST(Params, DerivedQuantities) {
  const Params p = Params::paperDefaults();
  EXPECT_NEAR(p.filamentArea(), 7.0686e-16, 1e-19);
  EXPECT_GT(p.conductivity(p.nDiscMax), 1000.0 * p.conductivity(p.nDiscMin));
  EXPECT_GT(p.discResistance(p.nDiscMin), 1e6);
  EXPECT_LT(p.discResistance(p.nDiscMax), 5e3);
  EXPECT_GT(p.fieldCoefficient(), 1e3);  // K/V
  EXPECT_NEAR(p.normalisedState(p.nDiscMin), 0.0, 1e-12);
  EXPECT_NEAR(p.normalisedState(p.nDiscMax), 1.0, 1e-12);
  EXPECT_NEAR(p.normalisedState(std::sqrt(p.nDiscMin * p.nDiscMax)), 0.5, 1e-12);
}

TEST(Params, ValidationCatchesBadValues) {
  Params p = Params::paperDefaults();
  p.lDisc = 2e-9;  // breaks lDisc + lPlug == lCell
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params::paperDefaults();
  p.nDiscMin = p.nDiscMax;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params::paperDefaults();
  p.rThEff = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Params::paperDefaults();
  p.activationEnergySet = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Params, VariabilityStaysValidAndDeterministic) {
  const Params base = Params::paperDefaults();
  nh::util::Rng rngA(7), rngB(7);
  const Params a = base.withVariability(rngA, 0.05);
  const Params b = base.withVariability(rngB, 0.05);
  EXPECT_DOUBLE_EQ(a.rFilament, b.rFilament);
  EXPECT_NE(a.rFilament, base.rFilament);
  EXPECT_NO_THROW(a.validate());
  EXPECT_THROW(base.withVariability(rngA, -0.1), std::invalid_argument);
}

TEST(Conduction, ZeroVoltageZeroCurrent) {
  const Model m = defaultModel();
  const auto c = m.solveConduction(0.0, 1e25, 300.0);
  EXPECT_DOUBLE_EQ(c.current, 0.0);
  EXPECT_DOUBLE_EQ(c.powerFilament, 0.0);
}

TEST(Conduction, MonotoneInVoltage) {
  const Model m = defaultModel();
  const Params& p = m.params();
  for (const double n : {p.nDiscMin, 1e25, p.nDiscMax}) {
    double prev = 0.0;
    for (double v = 0.05; v <= 1.5; v += 0.05) {
      const auto c = m.solveConduction(v, n, 300.0);
      EXPECT_GT(c.current, prev) << "n=" << n << " v=" << v;
      prev = c.current;
    }
  }
}

TEST(Conduction, MonotoneInState) {
  const Model m = defaultModel();
  double prev = 0.0;
  for (double n = m.params().nDiscMin; n <= m.params().nDiscMax; n *= 3.0) {
    const auto c = m.solveConduction(0.525, n, 300.0);
    EXPECT_GT(c.current, prev);
    prev = c.current;
  }
}

TEST(Conduction, LrsHrsWindowAtReadVoltage) {
  const Model m = defaultModel();
  const Params& p = m.params();
  const double rHrs = m.resistance(0.2, p.nDiscMin, 300.0);
  const double rLrs = m.resistance(0.2, p.nDiscMax, 300.0);
  EXPECT_GT(rHrs, 5e6);    // deep HRS reads in the MOhm range
  EXPECT_LT(rLrs, 1e5);    // deep LRS reads in the 10-kOhm range
  EXPECT_GT(rHrs / rLrs, 50.0);
}

TEST(Conduction, PolarityAsymmetry) {
  // Same |V|: the device is a bipolar (asymmetric) stack.
  const Model m = defaultModel();
  const auto fwd = m.solveConduction(0.6, 1e26, 300.0);
  const auto rev = m.solveConduction(-0.6, 1e26, 300.0);
  EXPECT_GT(fwd.current, 0.0);
  EXPECT_LT(rev.current, 0.0);
  EXPECT_NE(std::fabs(fwd.current / rev.current), 1.0);
}

TEST(Conduction, VoltageDivisionSumsToApplied) {
  const Model m = defaultModel();
  const Params& p = m.params();
  for (const double n : {p.nDiscMin, 4e25, p.nDiscMax}) {
    for (const double v : {0.2, 0.525, 1.05}) {
      const auto c = m.solveConduction(v, n, 300.0);
      const double vOhmic =
          c.current * (p.discResistance(n) + p.plugResistance() + p.rSeries);
      EXPECT_NEAR(c.vSchottky + vOhmic, v, 1e-6 * v);
      EXPECT_GT(c.vDisc, 0.0);
      EXPECT_LT(c.vDisc, v);
    }
  }
}

TEST(Conduction, HigherTemperatureMoreCurrent) {
  // Thermionic emission grows steeply with T.
  const Model m = defaultModel();
  const auto cold = m.solveConduction(0.525, 1e25, 300.0);
  const auto hot = m.solveConduction(0.525, 1e25, 400.0);
  EXPECT_GT(hot.current, cold.current);
}

TEST(Conduction, HrsDropsMostVoltageOnDisc) {
  const Model m = defaultModel();
  const Params& p = m.params();
  const auto hrs = m.solveConduction(1.05, p.nDiscMin, 300.0);
  const auto lrs = m.solveConduction(1.05, p.nDiscMax, 300.0);
  EXPECT_GT(hrs.vDisc, 0.4);  // disc dominates in HRS
  EXPECT_LT(lrs.vDisc, 0.3);  // interface/series dominate in LRS
}

// ---- analytic dI/dV ----------------------------------------------------------

/// Centred finite difference of the terminal current.
double centredSlope(const Model& m, double v, double n, double t, double h) {
  return (m.solveConduction(v + h, n, t).current -
          m.solveConduction(v - h, n, t).current) /
         (2.0 * h);
}

TEST(Conductance, MatchesCentredDifferenceAtRandomPoints) {
  // Both polarities in equal numbers; |V| >= 10 mV keeps V +- h on one side
  // of the vs = 0 branch kink.
  const Model m = defaultModel();
  const Params& p = m.params();
  nh::util::Rng rng(20260417);
  constexpr int kPoints = 800;
  constexpr double kStep = 1e-6;
  for (int k = 0; k < kPoints; ++k) {
    const double sign = k % 2 == 0 ? 1.0 : -1.0;
    const double v = sign * rng.uniform(0.01, 1.5);
    const double n = p.nDiscMin * std::pow(p.nDiscMax / p.nDiscMin, rng.uniform());
    const double t = rng.uniform(250.0, 600.0);
    const Conduction c = m.solveConduction(v, n, t);
    const double fd = centredSlope(m, v, n, t, kStep);
    ASSERT_GT(fd, 0.0) << "v=" << v << " n=" << n << " T=" << t;
    EXPECT_NEAR(c.conductance, fd, 1e-5 * fd) << "v=" << v << " n=" << n << " T=" << t;
    // The solver and schottkyCurrent evaluate one and the same formula.
    EXPECT_EQ(m.schottkyCurrent(c.vSchottky, n, t), c.current);
  }
}

TEST(Conductance, ZeroVoltageTakesTheForwardBranchSlope) {
  // vs = 0 belongs to the forward branch, so the slope at V = 0 is the
  // right-hand derivative; I(0) = 0 and a second-order one-sided difference
  // resolves it without cancellation.
  const Model m = defaultModel();
  const Params& p = m.params();
  constexpr double kStep = 1e-5;
  for (const double n : {p.nDiscMin, 1e25, p.nDiscMax}) {
    for (const double t : {250.0, 300.0, 450.0}) {
      const Conduction c = m.solveConduction(0.0, n, t);
      EXPECT_DOUBLE_EQ(c.current, 0.0);
      const double i1 = m.solveConduction(kStep, n, t).current;
      const double i2 = m.solveConduction(2.0 * kStep, n, t).current;
      const double oneSided = (4.0 * i1 - i2) / (2.0 * kStep);
      ASSERT_GT(c.conductance, 0.0);
      EXPECT_NEAR(c.conductance, oneSided, 1e-5 * oneSided)
          << "n=" << n << " T=" << t;
    }
  }
}

TEST(Conductance, ClampedExponentIsFlat) {
  // Past |vs|/vt = 60 the Schottky exponent is clamped, the current no
  // longer depends on V and both the analytic and the numerical slope are 0.
  const Model m = defaultModel();
  const Params& p = m.params();
  const double t = 300.0;
  for (const double v : {1e30, -1e30}) {
    const Conduction c = m.solveConduction(v, 1e25, t);
    const double ideality = v > 0.0 ? p.idealityFwd : p.idealityRev;
    EXPECT_GE(std::fabs(c.vSchottky) / (ideality * nh::util::kBoltzmannEv * t), 60.0);
    EXPECT_EQ(c.conductance, 0.0);
    EXPECT_EQ(centredSlope(m, v, 1e25, t, 1e-6 * std::fabs(v)), 0.0);
  }
}

TEST(Thermal, SteadyTemperatureEquation) {
  const Model m = defaultModel();
  const double rth = m.params().rThEff;
  EXPECT_DOUBLE_EQ(m.steadyTemperature(0.0, 300.0, 0.0), 300.0);
  EXPECT_DOUBLE_EQ(m.steadyTemperature(1e-4, 300.0, 50.0), 350.0 + rth * 1e-4);
}

TEST(Window, SoftClampBehaviour) {
  const Model m = defaultModel();
  const Params& p = m.params();
  EXPECT_NEAR(m.windowSet(p.nDiscMax), 0.0, 1e-12);
  EXPECT_GT(m.windowSet(p.nDiscMin), 0.99);
  EXPECT_NEAR(m.windowReset(p.nDiscMin), 0.0, 1e-12);
  EXPECT_GT(m.windowReset(p.nDiscMax), 0.99);
}

TEST(Kinetics, RateSignsFollowPolarity) {
  const Model m = defaultModel();
  EXPECT_GT(m.ionicRate(0.3, 1e25, 400.0), 0.0);   // SET direction
  EXPECT_LT(m.ionicRate(-0.3, 1e25, 400.0), 0.0);  // RESET direction
  EXPECT_DOUBLE_EQ(m.ionicRate(0.0, 1e25, 400.0), 0.0);
}

TEST(Kinetics, ArrheniusAcceleration) {
  const Model m = defaultModel();
  const double cold = m.ionicRate(0.25, 1e25, 300.0);
  const double hot = m.ionicRate(0.25, 1e25, 375.0);
  // ~3 decades per 75 K is the calibrated regime of the attack.
  EXPECT_GT(hot / cold, 1e2);
  EXPECT_LT(hot / cold, 1e5);
}

TEST(Kinetics, FieldNonlinearity) {
  const Model m = defaultModel();
  const double low = m.ionicRate(0.15, 1e25, 350.0);
  const double high = m.ionicRate(0.30, 1e25, 350.0);
  // Doubling the disc voltage must accelerate switching far more than 2x
  // (ultra-nonlinear kinetics, Menzel et al.).
  EXPECT_GT(high / low, 50.0);
}

TEST(Resistance, RejectsZeroReadVoltage) {
  const Model m = defaultModel();
  EXPECT_THROW(m.resistance(0.0, 1e25, 300.0), std::invalid_argument);
}

}  // namespace
}  // namespace nh::jart

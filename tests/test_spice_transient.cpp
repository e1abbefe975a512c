#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/cancellation.hpp"
#include "util/sparse.hpp"

namespace nh::spice {
namespace {

TEST(Transient, RcChargingMatchesAnalytic) {
  // 1 V step into R = 1k, C = 1 nF: tau = 1 us.
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  PulseSpec step;
  step.base = 0.0;
  step.amplitude = 1.0;
  step.delay = 0.0;
  step.rise = 1e-9;
  step.fall = 1e-9;
  step.width = 1.0;  // effectively a step
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(step));
  ckt.emplace<Resistor>("R1", in, out, 1000.0);
  ckt.emplace<Capacitor>("C1", out, ckt.ground(), 1e-9);

  TransientOptions opt;
  opt.tStop = 3e-6;
  opt.dtMax = 10e-9;
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "out")});
  ASSERT_TRUE(result.completed) << result.failureReason;

  const auto& vout = result.seriesFor("v(out)");
  for (std::size_t k = 0; k < result.time.size(); k += 25) {
    const double t = result.time[k];
    if (t < 5e-9) continue;
    const double expected = 1.0 - std::exp(-t / 1e-6);
    EXPECT_NEAR(vout[k], expected, 0.02) << "at t=" << t;
  }
  // After 3 tau the capacitor is ~95% charged.
  EXPECT_GT(vout.back(), 0.94);
}

TEST(Transient, PulseEdgesAreResolved) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  PulseSpec pulse;
  pulse.base = 0.0;
  pulse.amplitude = 1.0;
  pulse.delay = 100e-9;
  pulse.rise = 1e-9;
  pulse.fall = 1e-9;
  pulse.width = 50e-9;
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(pulse));
  ckt.emplace<Resistor>("R1", in, ckt.ground(), 1000.0);

  TransientOptions opt;
  opt.tStop = 300e-9;
  opt.dtMax = 20e-9;  // coarser than the edges; breakpoints must kick in
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "in")});
  ASSERT_TRUE(result.completed);

  // The recorded series must contain the exact plateau values.
  const auto& vin = result.seriesFor("v(in)");
  double maxV = 0.0;
  for (std::size_t k = 0; k < result.time.size(); ++k) {
    maxV = std::max(maxV, vin[k]);
    if (result.time[k] < 100e-9 - 1e-12) {
      EXPECT_NEAR(vin[k], 0.0, 1e-9) << "before delay at t=" << result.time[k];
    }
  }
  EXPECT_NEAR(maxV, 1.0, 1e-9);
}

TEST(Transient, CapacitorHoldsChargeWhenDisconnected) {
  // Charged capacitor with only gmin leakage keeps its voltage over 1 us.
  Circuit ckt;
  const NodeId n = ckt.node("n");
  ckt.emplace<Capacitor>("C1", n, ckt.ground(), 1e-9);
  // One 1 mA pulse: 1 ns rise, 9.5 ns flat, 1 ns fall, then open circuit.
  PulseSpec charge;
  charge.amplitude = 1e-3;
  charge.rise = 1e-9;
  charge.width = 9.5e-9;
  charge.fall = 1e-9;
  charge.count = 1;
  ckt.emplace<CurrentSource>("I1", ckt.ground(), n,
                             std::make_unique<PulseWaveform>(charge));
  TransientOptions opt;
  opt.tStop = 1e-6;
  opt.dtMax = 5e-9;
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "n")});
  ASSERT_TRUE(result.completed);
  const auto& vn = result.seriesFor("v(n)");
  // Charge delivered ~ 1 mA * 10.5 ns / 1 nF ~ 10.5 mV; held afterwards.
  EXPECT_GT(vn.back(), 0.009);
}

/// Minimal memristive model for engine tests: conductance grows linearly
/// with the time integral of |v| (no temperature).
class ToyMemristor final : public MemristiveModel {
 public:
  double current(double v) const override { return g_ * v; }
  void advance(double v, double dt) override {
    g_ += 1e-2 * std::fabs(v) * dt / 1e-9;  // 10 mS per V*ns
  }
  double conductanceNow() const { return g_; }

 private:
  double g_ = 1e-4;
};

TEST(Transient, MemristorStateAdvancesOnlyWithBias) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  ToyMemristor model;
  PulseSpec pulse;
  pulse.base = 0.0;
  pulse.amplitude = 1.0;
  pulse.delay = 20e-9;
  pulse.rise = 0.5e-9;
  pulse.fall = 0.5e-9;
  pulse.width = 30e-9;
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(pulse));
  ckt.emplace<Memristor>("M1", in, ckt.ground(), &model);

  TransientOptions opt;
  opt.tStop = 100e-9;
  opt.dtMax = 1e-9;
  const auto result = runTransient(ckt, opt);
  ASSERT_TRUE(result.completed);
  // Integral of |v| dt ~ 1 V * ~30.5 ns -> dG ~ 0.305 S.
  EXPECT_NEAR(model.conductanceNow(), 1e-4 + 0.305, 0.02);
}

TEST(MemristiveModelInterface, DefaultOperatingPointIsCurrentPlusFiniteDifference) {
  // The base-class combined call is the toy-model path and the oracle the
  // analytic overrides are checked against: current() plus the symmetric
  // finite-difference conductance(), nothing else.
  ToyMemristor model;
  model.advance(0.7, 2e-9);
  for (const double v : {-1.2, -0.3, 0.0, 1e-6, 0.45, 2.0}) {
    const OperatingPoint op = model.operatingPoint(v);
    EXPECT_EQ(op.current, model.current(v)) << "v=" << v;
    EXPECT_EQ(op.conductance, model.conductance(v)) << "v=" << v;
    const double h = 1e-5 + 1e-7 * std::fabs(v);
    EXPECT_EQ(op.conductance, (model.current(v + h) - model.current(v - h)) / (2.0 * h))
        << "v=" << v;
  }
}

/// Linear device that counts which interface calls the engine makes.
class CountingMemristor final : public MemristiveModel {
 public:
  double current(double v) const override {
    ++currentCalls;
    return kG * v;
  }
  double conductance(double) const override {
    ++conductanceCalls;
    return kG;
  }
  OperatingPoint operatingPoint(double v) const override {
    ++operatingPointCalls;
    return {kG * v, kG};
  }
  void advance(double, double) override {}

  static constexpr double kG = 1e-3;
  mutable int currentCalls = 0;
  mutable int conductanceCalls = 0;
  mutable int operatingPointCalls = 0;
};

TEST(MemristorStamp, MakesOneCombinedCallPerStamp) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  CountingMemristor model;
  const Memristor element("M1", a, ckt.ground(), &model);

  nh::util::TripletBuilder triplets(1, 1);
  nh::util::Vector rhs(1, 0.0);
  const nh::util::Vector x{0.4};
  const nh::util::Vector xPrev{0.0};
  StampContext ctx{triplets, rhs, x, xPrev};
  element.stamp(ctx);
  EXPECT_EQ(model.operatingPointCalls, 1);
  EXPECT_EQ(model.currentCalls, 0);
  EXPECT_EQ(model.conductanceCalls, 0);
  // Linear device: the companion current source cancels exactly.
  EXPECT_DOUBLE_EQ(nh::util::SparseMatrix::fromTriplets(triplets).at(0, 0),
                   CountingMemristor::kG);
  EXPECT_DOUBLE_EQ(rhs[0], 0.0);

  // A whole DC solve: one combined call per Newton iteration.
  CountingMemristor solved;
  Circuit divider;
  const NodeId in = divider.node("in");
  const NodeId mid = divider.node("mid");
  divider.emplace<VoltageSource>("V1", in, divider.ground(), 1.0);
  divider.emplace<Resistor>("R1", in, mid, 1000.0);
  divider.emplace<Memristor>("M1", mid, divider.ground(), &solved);
  const SolveResult op = solveDc(divider);
  ASSERT_TRUE(op.converged);
  EXPECT_EQ(solved.operatingPointCalls, static_cast<int>(op.iterations));
  EXPECT_EQ(solved.currentCalls, 0);
  EXPECT_EQ(solved.conductanceCalls, 0);
}

TEST(Transient, RejectsInvalidTimeBounds) {
  // A zero or negative step never advances time, so a missing check spins
  // forever; the deadline turns that into a failure (CancelledError instead
  // of invalid_argument) rather than a hang.
  struct BadCase {
    const char* label;
    double tStop, dtInitial, dtMax, dtMin;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const BadCase cases[] = {
      {"tStop = 0", 0.0, 1e-10, 1e-9, 1e-15},
      {"tStop < 0", -1e-9, 1e-10, 1e-9, 1e-15},
      {"tStop = inf", inf, 1e-10, 1e-9, 1e-15},
      {"tStop = NaN", nan, 1e-10, 1e-9, 1e-15},
      {"dtInitial = 0", 1e-8, 0.0, 1e-9, 1e-15},
      {"dtInitial < 0", 1e-8, -1e-10, 1e-9, 1e-15},
      {"dtInitial = NaN", 1e-8, nan, 1e-9, 1e-15},
      {"dtMax = 0", 1e-8, 1e-10, 0.0, 1e-15},
      {"dtMax < 0", 1e-8, 1e-10, -1e-9, 1e-15},
      {"dtMax = inf", 1e-8, 1e-10, inf, 1e-15},
      {"dtMin = 0", 1e-8, 1e-10, 1e-9, 0.0},
      {"dtMin < 0", 1e-8, 1e-10, 1e-9, -1e-15},
      {"dtMin > dtMax", 1e-8, 1e-10, 1e-9, 1e-8},
  };
  for (const BadCase& c : cases) {
    SCOPED_TRACE(c.label);
    Circuit ckt;
    const NodeId in = ckt.node("in");
    ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 1.0);
    ckt.emplace<Resistor>("R1", in, ckt.ground(), 1000.0);
    TransientOptions opt;
    opt.tStop = c.tStop;
    opt.dtInitial = c.dtInitial;
    opt.dtMax = c.dtMax;
    opt.dtMin = c.dtMin;
    const auto source = nh::util::CancellationSource::withDeadline(2.0);
    const nh::util::CancellationScope scope(source.token());
    EXPECT_THROW(runTransient(ckt, opt), std::invalid_argument);
  }
}

TEST(Transient, StepHookFires) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 1.0);
  ckt.emplace<Resistor>("R1", in, ckt.ground(), 1000.0);
  TransientOptions opt;
  opt.tStop = 10e-9;
  opt.dtMax = 1e-9;
  std::size_t calls = 0;
  double lastTime = 0.0;
  opt.onStepAccepted = [&](const nh::util::Vector&, double t, double) {
    ++calls;
    EXPECT_GT(t, lastTime);
    lastTime = t;
  };
  const auto result = runTransient(ckt, opt);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(calls, 10u);
  EXPECT_NEAR(lastTime, 10e-9, 1e-12);
}

}  // namespace
}  // namespace nh::spice

#include "spice/waveform.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace nh::spice {
namespace {

PulseSpec hammerPulse() {
  PulseSpec s;
  s.base = 0.525;
  s.amplitude = 1.05;
  s.delay = 10e-9;
  s.rise = 1e-9;
  s.fall = 1e-9;
  s.width = 50e-9;
  s.period = 100e-9;
  s.count = 3;
  return s;
}

TEST(PulseWaveform, LevelsThroughOnePeriod) {
  const PulseWaveform w(hammerPulse());
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.525);              // before delay
  EXPECT_NEAR(w.value(10.5e-9), 0.7875, 1e-9);        // mid-rise
  EXPECT_DOUBLE_EQ(w.value(30e-9), 1.05);             // active
  EXPECT_NEAR(w.value(10e-9 + 51.5e-9), 0.7875, 1e-9);  // mid-fall
  EXPECT_DOUBLE_EQ(w.value(80e-9), 0.525);            // between pulses
}

TEST(PulseWaveform, RepeatsForCountThenStops) {
  const PulseWaveform w(hammerPulse());
  // Second and third pulses active.
  EXPECT_DOUBLE_EQ(w.value(10e-9 + 100e-9 + 25e-9), 1.05);
  EXPECT_DOUBLE_EQ(w.value(10e-9 + 200e-9 + 25e-9), 1.05);
  // Fourth pulse does not exist (count = 3).
  EXPECT_DOUBLE_EQ(w.value(10e-9 + 300e-9 + 25e-9), 0.525);
}

TEST(PulseWaveform, DutyCycle) {
  EXPECT_DOUBLE_EQ(hammerPulse().dutyCycle(), 0.5);
  PulseSpec single = hammerPulse();
  single.period = 0.0;
  EXPECT_DOUBLE_EQ(single.dutyCycle(), 0.0);
}

TEST(PulseWaveform, BreakpointsAlignToEdges) {
  const PulseWaveform w(hammerPulse());
  EXPECT_DOUBLE_EQ(w.nextBreakpoint(0.0), 10e-9);          // first rise start
  EXPECT_DOUBLE_EQ(w.nextBreakpoint(10e-9), 11e-9);        // rise end
  EXPECT_DOUBLE_EQ(w.nextBreakpoint(11e-9), 61e-9);        // fall start
  EXPECT_DOUBLE_EQ(w.nextBreakpoint(61e-9), 62e-9);        // fall end
  EXPECT_DOUBLE_EQ(w.nextBreakpoint(62e-9), 110e-9);       // next period
  // After the final pulse there are no more breakpoints.
  EXPECT_TRUE(std::isinf(w.nextBreakpoint(10e-9 + 3 * 100e-9)));
}

TEST(PulseWaveform, RejectsInvalidShapes) {
  PulseSpec s = hammerPulse();
  s.rise = 0.0;
  EXPECT_THROW(PulseWaveform w(s), std::invalid_argument);
  s = hammerPulse();
  s.period = 20e-9;  // shorter than rise+width+fall
  EXPECT_THROW(PulseWaveform w(s), std::invalid_argument);
  s = hammerPulse();
  s.width = -1.0;
  EXPECT_THROW(PulseWaveform w(s), std::invalid_argument);
}

TEST(DcWaveform, ConstantEverywhere) {
  const DcWaveform w(0.7);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.7);
  EXPECT_DOUBLE_EQ(w.value(1.0), 0.7);
  EXPECT_TRUE(std::isinf(w.nextBreakpoint(0.0)));
}

TEST(Waveform, CloneIsIndependentCopy) {
  const PulseWaveform w(hammerPulse());
  const auto copy = w.clone();
  EXPECT_DOUBLE_EQ(copy->value(30e-9), w.value(30e-9));
}

}  // namespace
}  // namespace nh::spice

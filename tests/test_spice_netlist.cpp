#include "spice/netlist_parser.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"

namespace nh::spice {
namespace {

TEST(SpiceValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parseSpiceValue("42"), 42.0);
  EXPECT_DOUBLE_EQ(parseSpiceValue("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("2.5E3"), 2500.0);
}

TEST(SpiceValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceValue("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parseSpiceValue("4.7K"), 4700.0);
  EXPECT_DOUBLE_EQ(parseSpiceValue("50n"), 50e-9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("2.2u"), 2.2e-6);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1m"), 1e-3);
  EXPECT_DOUBLE_EQ(parseSpiceValue("3MEG"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1f"), 1e-15);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1p"), 1e-12);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1t"), 1e12);
}

TEST(SpiceValue, Malformed) {
  EXPECT_THROW(parseSpiceValue(""), std::invalid_argument);
  EXPECT_THROW(parseSpiceValue("abc"), std::invalid_argument);
  EXPECT_THROW(parseSpiceValue("1x"), std::invalid_argument);
  EXPECT_THROW(parseSpiceValue("1kk"), std::invalid_argument);
}

TEST(NetlistParser, DividerSolvesCorrectly) {
  Circuit ckt;
  const auto summary = parseNetlist(ckt,
                                    "* resistor divider\n"
                                    "V1 in 0 DC 10\n"
                                    "R1 in mid 1k\n"
                                    "R2 mid gnd 3k\n"
                                    ".end\n");
  EXPECT_EQ(summary.resistors, 2u);
  EXPECT_EQ(summary.voltageSources, 1u);
  EXPECT_EQ(summary.total(), 3u);

  const auto op = solveDc(ckt);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.x[ckt.findNode("mid") - 1], 7.5, 1e-6);
}

TEST(NetlistParser, PulseSourceRoundTrip) {
  Circuit ckt;
  parseNetlist(ckt, "Vp in 0 PULSE(0.525 1.05 10n 1n 1n 50n 100n 3)\n");
  ASSERT_EQ(ckt.elements().size(), 1u);
  const auto* src = dynamic_cast<const VoltageSource*>(ckt.elements()[0].get());
  ASSERT_NE(src, nullptr);
  EXPECT_DOUBLE_EQ(src->waveform().value(0.0), 0.525);
  EXPECT_DOUBLE_EQ(src->waveform().value(40e-9), 1.05);
  // Count = 3: the 4th pulse is absent.
  EXPECT_DOUBLE_EQ(src->waveform().value(10e-9 + 3 * 100e-9 + 25e-9), 0.525);
}

TEST(NetlistParser, PwlSourceWithCommas) {
  Circuit ckt;
  parseNetlist(ckt, "Vw a 0 PWL(0 0, 1u 1, 2u 0)\n");
  const auto* src = dynamic_cast<const VoltageSource*>(ckt.elements()[0].get());
  ASSERT_NE(src, nullptr);
  EXPECT_DOUBLE_EQ(src->waveform().value(0.5e-6), 0.5);
}

TEST(NetlistParser, BareValueIsDc) {
  Circuit ckt;
  parseNetlist(ckt, "V1 a 0 3.3\nI1 0 a 1m\n");
  const auto op = solveDc(ckt);
  EXPECT_TRUE(op.converged);
  // V source pins the node regardless of the current source.
  EXPECT_NEAR(op.x[ckt.findNode("a") - 1], 3.3, 1e-9);
}

TEST(NetlistParser, DiodeDefaultsAndOverrides) {
  Circuit ckt;
  const auto summary = parseNetlist(ckt,
                                    "V1 in 0 DC 5\n"
                                    "R1 in d 1k\n"
                                    "D1 d 0 1e-12 1.5\n");
  EXPECT_EQ(summary.diodes, 1u);
  const auto op = solveDc(ckt);
  ASSERT_TRUE(op.converged);
  const double vd = op.x[ckt.findNode("d") - 1];
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 1.0);
}

TEST(NetlistParser, CommentsAndTermination) {
  Circuit ckt;
  const auto summary = parseNetlist(ckt,
                                    "* header comment\n"
                                    "R1 a 0 1k ; trailing comment\n"
                                    "\n"
                                    ".end\n"
                                    "R2 b 0 1k  (ignored after .end)\n");
  EXPECT_EQ(summary.resistors, 1u);
}

TEST(NetlistParser, GndAliasesToGround) {
  Circuit ckt;
  parseNetlist(ckt, "R1 a GND 1k\nR2 a 0 1k\n");
  EXPECT_EQ(ckt.nodeCount(), 2u);  // ground + "a" only
}

TEST(NetlistParser, ErrorsCarryLineContext) {
  Circuit ckt;
  try {
    parseNetlist(ckt, "R1 a 0 1k\nXBAD a 0 1\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parseNetlist(ckt, "R1 a 0\n"), std::runtime_error);
  EXPECT_THROW(parseNetlist(ckt, "V1 a 0 PULSE(1 2 3)\n"), std::runtime_error);
  EXPECT_THROW(parseNetlist(ckt, "V1 a 0 PWL(0 0 1)\n"), std::runtime_error);
  EXPECT_THROW(parseNetlist(ckt, ".tran 1n 1u\n"), std::runtime_error);
}

TEST(NetlistParser, PulseCountMustBeAWholeNumberInRange) {
  // A fractional count would truncate silently and an out-of-range one
  // would make the integer conversion undefined: both are named errors.
  for (const char* count : {"2.5", "1e30", "-2"}) {
    SCOPED_TRACE(count);
    Circuit ckt;
    const std::string netlist = std::string("R1 a 0 1k\nV1 a 0 PULSE(0 1 0 1n 1n 5n 10n ") +
                                count + ")\n";
    try {
      parseNetlist(ckt, netlist);
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find("PULSE count"), std::string::npos) << what;
    }
  }
  for (const char* count : {"-1", "0", "3", "9007199254740992"}) {
    SCOPED_TRACE(count);
    Circuit ckt;
    EXPECT_NO_THROW(parseNetlist(
        ckt, std::string("V1 a 0 PULSE(0 1 0 1n 1n 5n 10n ") + count + ")\n"));
  }
}

TEST(NetlistParser, TransientOfParsedRcMatchesAnalytic) {
  Circuit ckt;
  parseNetlist(ckt,
               "Vs in 0 PULSE(0 1 0 1n 1n 1 2)\n"
               "R1 in out 1k\n"
               "C1 out 0 1n\n");
  TransientOptions opt;
  opt.tStop = 2e-6;
  opt.dtMax = 10e-9;
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "out")});
  ASSERT_TRUE(result.completed);
  const auto& vout = result.seriesFor("v(out)");
  EXPECT_NEAR(vout.back(), 1.0 - std::exp(-2.0), 0.03);
}

}  // namespace
}  // namespace nh::spice

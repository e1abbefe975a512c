#include "xbar/crosstalk.hpp"

#include <gtest/gtest.h>

namespace nh::xbar {
namespace {

TEST(AlphaTable, AnalyticMatchesCanonicalSpacings) {
  // At the canonical FEM spacings the interpolation must return the
  // extracted values themselves.
  const AlphaTable at50 = AlphaTable::analytic(50e-9);
  EXPECT_NEAR(at50.at(0, 1), 0.2572, 1e-4);
  EXPECT_NEAR(at50.at(1, 0), 0.1265, 1e-4);
  EXPECT_NEAR(at50.at(1, 1), 0.1011, 1e-4);
  EXPECT_NEAR(at50.at(2, 2), 0.0577, 1e-4);
  EXPECT_NEAR(at50.rTh(), 1.93e6, 1e4);

  const AlphaTable at10 = AlphaTable::analytic(10e-9);
  EXPECT_NEAR(at10.at(0, 1), 0.4362, 1e-4);
  const AlphaTable at90 = AlphaTable::analytic(90e-9);
  EXPECT_NEAR(at90.at(0, 1), 0.1609, 1e-4);
}

TEST(AlphaTable, AnalyticInterpolatesMonotonically) {
  double previous = 1.0;
  for (const double s : {10e-9, 30e-9, 50e-9, 70e-9, 90e-9}) {
    const AlphaTable t = AlphaTable::analytic(s);
    EXPECT_LT(t.at(0, 1), previous) << "spacing " << s;
    previous = t.at(0, 1);
    // Structure holds at every spacing.
    EXPECT_GT(t.at(0, 1), t.at(1, 0));   // word-line > bit-line coupling
    EXPECT_GT(t.at(1, 0), t.at(2, 2));   // near > far
    EXPECT_DOUBLE_EQ(t.at(0, 0), 0.0);   // self-coupling excluded
  }
}

TEST(AlphaTable, SymmetryOfOffsets) {
  const AlphaTable t = AlphaTable::analytic(50e-9);
  EXPECT_DOUBLE_EQ(t.at(0, 1), t.at(0, -1));
  EXPECT_DOUBLE_EQ(t.at(1, 0), t.at(-1, 0));
  EXPECT_DOUBLE_EQ(t.at(1, -2), t.at(-1, 2));
}

TEST(AlphaTable, OutsideRadiusIsZero) {
  const AlphaTable t = AlphaTable::analytic(50e-9);
  EXPECT_DOUBLE_EQ(t.at(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(0, -3), 0.0);
}

TEST(AlphaTable, SetAndTruncate) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  t.set(2, 2, 0.5);
  EXPECT_DOUBLE_EQ(t.at(2, 2), 0.5);
  EXPECT_THROW(t.set(0, 0, 0.1), std::invalid_argument);
  EXPECT_THROW(t.set(5, 0, 0.1), std::out_of_range);
  const double before = t.totalCoupling();
  t.truncate(1);
  EXPECT_LT(t.totalCoupling(), before);
  EXPECT_DOUBLE_EQ(t.at(2, 2), 0.0);
  EXPECT_GT(t.at(1, 1), 0.0);
}

TEST(CrosstalkHub, Eq5MatchesHandComputation) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix excess(5, 5, 0.0);
  excess(2, 2) = 200.0;  // only the centre cell is hot
  const auto tin = hub.inputTemperatures(excess);
  EXPECT_DOUBLE_EQ(tin(2, 2), 0.0);  // no self-coupling
  EXPECT_NEAR(tin(2, 1), t.at(0, 1) * 200.0, 1e-9);
  EXPECT_NEAR(tin(1, 2), t.at(1, 0) * 200.0, 1e-9);
  EXPECT_NEAR(tin(0, 0), t.at(2, 2) * 200.0, 1e-9);
}

TEST(CrosstalkHub, SuperpositionOfTwoSources) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix a(5, 5, 0.0), b(5, 5, 0.0), both(5, 5, 0.0);
  a(2, 1) = 100.0;
  b(2, 3) = 150.0;
  both(2, 1) = 100.0;
  both(2, 3) = 150.0;
  const auto ta = hub.inputTemperatures(a);
  const auto tb = hub.inputTemperatures(b);
  const auto tBoth = hub.inputTemperatures(both);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(tBoth(r, c), ta(r, c) + tb(r, c), 1e-9);
    }
  }
}

TEST(CrosstalkHub, EdgeCellsSeeFewerNeighbours) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix uniform(5, 5, 100.0);
  const auto tin = hub.inputTemperatures(uniform);
  EXPECT_GT(tin(2, 2), tin(0, 0));  // interior receives from all sides
}

TEST(CrosstalkHub, SolveCoupledExcessIncludesSelfAndNeighbours) {
  AlphaTable t = AlphaTable::analytic(50e-9);
  CrosstalkHub hub(5, 5, t);
  nh::util::Matrix power(5, 5, 0.0);
  power(2, 2) = 1e-4;
  const double rth = 2e6;
  const auto excess = hub.solveCoupledExcess(power, rth);
  EXPECT_NEAR(excess(2, 2), rth * 1e-4, 1e-6);
  EXPECT_NEAR(excess(2, 1), t.at(0, 1) * rth * 1e-4, 1e-6);
}

TEST(CrosstalkHub, OutputParameterOverloadIsBitIdenticalAndReusesStorage) {
  CrosstalkHub hub(6, 7, AlphaTable::analytic(30e-9));
  nh::util::Matrix excess(6, 7, 0.0);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 7; ++c) excess(r, c) = 3.0 * r + 0.7 * c * c + 1.0;
  }
  const nh::util::Matrix expected = hub.inputTemperatures(excess);
  nh::util::Matrix out(6, 7, -1.0);  // stale contents must be overwritten
  const double* storage = &out(0, 0);
  hub.inputTemperatures(excess, out);
  EXPECT_EQ(&out(0, 0), storage);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 7; ++c) EXPECT_EQ(out(r, c), expected(r, c));
  }
  nh::util::Matrix unsized;
  hub.inputTemperatures(excess, unsized);
  ASSERT_EQ(unsized.rows(), 6u);
  ASSERT_EQ(unsized.cols(), 7u);
  EXPECT_EQ(unsized(5, 6), expected(5, 6));
  EXPECT_THROW(hub.inputTemperatures(excess, excess), std::invalid_argument);
}

TEST(CrosstalkHub, ShapeValidation) {
  CrosstalkHub hub(3, 3, AlphaTable::analytic(50e-9));
  nh::util::Matrix wrong(2, 3, 0.0);
  EXPECT_THROW(hub.inputTemperatures(wrong), std::invalid_argument);
  EXPECT_THROW(hub.solveCoupledExcess(wrong, 1e6), std::invalid_argument);
  EXPECT_THROW(CrosstalkHub(0, 3, AlphaTable::analytic(50e-9)),
               std::invalid_argument);
}

TEST(AlphaTable, InvalidSpacingThrows) {
  EXPECT_THROW(AlphaTable::analytic(0.0), std::invalid_argument);
  EXPECT_THROW(AlphaTable::analytic(-1e-9), std::invalid_argument);
}

}  // namespace
}  // namespace nh::xbar

#include "fem/alpha.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fem/thermal.hpp"

namespace nh::fem {
namespace {

/// Small, coarse model so the extraction runs in well under a second.
CrossbarModel3D smallModel(double spacing = 50e-9) {
  CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.spacing = spacing;
  layout.margin = 20e-9;
  layout.voxelSize = 5e-9;
  return CrossbarModel3D::build(layout);
}

TEST(SolveThermal, HeatsSelectedCellAboveNeighbours) {
  const auto model = smallModel();
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.ambientK = 300.0;
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 0.1e-3;
  const auto sol = solveThermal(scenario);
  ASSERT_TRUE(sol.converged());
  const double centre = sol.cellTemperature(1, 1);
  EXPECT_GT(centre, 400.0);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GE(sol.cellTemperature(r, c), 300.0 - 1e-6);
      if (!(r == 1 && c == 1)) EXPECT_LT(sol.cellTemperature(r, c), centre);
    }
  }
}

TEST(SolveThermal, LinearInPower) {
  const auto model = smallModel();
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 0.05e-3;
  const auto a = solveThermal(scenario, {1e-10, 40000});
  scenario.cellPower(1, 1) = 0.10e-3;
  const auto b = solveThermal(scenario, {1e-10, 40000});
  ASSERT_TRUE(a.converged() && b.converged());
  const double riseA = a.cellTemperature(1, 1) - 300.0;
  const double riseB = b.cellTemperature(1, 1) - 300.0;
  EXPECT_NEAR(riseB / riseA, 2.0, 1e-3);
}

TEST(SolveThermal, InputValidation) {
  const auto model = smallModel();
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = nh::util::Matrix(2, 2, 0.0);  // wrong shape
  EXPECT_THROW(solveThermal(scenario), std::invalid_argument);
  scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
  scenario.cellPower(0, 0) = -1.0;
  EXPECT_THROW(solveThermal(scenario), std::invalid_argument);
  // Non-finite powers are named errors, not a silent non-converged solve.
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    scenario.cellPower(0, 0) = bad;
    EXPECT_THROW(solveThermal(scenario), std::invalid_argument) << bad;
  }
  scenario.cellPower(0, 0) = 0.0;
  scenario.model = nullptr;
  EXPECT_THROW(solveThermal(scenario), std::invalid_argument);
}

TEST(ExtractAlpha, LinearFitsAreNearPerfect) {
  const auto model = smallModel();
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   {0.05e-3, 0.1e-3, 0.15e-3}, 300.0);
  EXPECT_GT(result.rTh, 1e5);
  EXPECT_GT(result.rThRSquared, 0.9999);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_GT(result.alphaRSquared(r, c), 0.999) << r << "," << c;
    }
  }
}

TEST(ExtractAlpha, SuperpositionMatchesThreeSolveRegression) {
  // The paper's procedure as the oracle: one absolute thermal solve per
  // power point, then a least-squares line per cell (Eq. 3 on the selected
  // cell, Eq. 4 on the others). extractAlpha's single unit-power solve must
  // reproduce it to solver precision.
  const auto model = smallModel();
  const std::vector<double> powers = {0.05e-3, 0.10e-3, 0.15e-3};
  const DiffusionOptions tight{1e-12, 40000};

  ThermalSolver solver;
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.ambientK = 300.0;
  std::vector<nh::util::Matrix> temperatures;
  for (const double p : powers) {
    scenario.cellPower = nh::util::Matrix(3, 3, 0.0);
    scenario.cellPower(1, 1) = p;
    const auto sol = solver.solve(scenario, tight);
    ASSERT_TRUE(sol.converged());
    temperatures.push_back(sol.cellTemperature);
  }
  const auto cellFit = [&](std::size_t r, std::size_t c) {
    std::vector<double> t;
    for (const auto& tm : temperatures) t.push_back(tm(r, c));
    return nh::util::fitLinear(powers, t);
  };
  const double rThRef = cellFit(1, 1).slope;

  const auto result =
      extractAlpha(model, MaterialTable::defaults(), 1, 1, powers, 300.0, tight);
  EXPECT_NEAR(result.rTh, rThRef, 1e-8 * rThRef);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const double alphaRef = cellFit(r, c).slope / rThRef;
      EXPECT_NEAR(result.alpha(r, c), alphaRef, 1e-8 * alphaRef) << r << "," << c;
    }
  }
}

TEST(ExtractAlpha, AlphaStructure) {
  const auto model = smallModel();
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   {0.05e-3, 0.1e-3}, 300.0);
  EXPECT_DOUBLE_EQ(result.alpha(1, 1), 1.0);
  // Same-word-line neighbours couple more strongly than same-bit-line ones
  // (the filament sits on the bottom electrode).
  EXPECT_GT(result.alpha(1, 0), result.alpha(0, 1));
  // Nearest neighbours couple more strongly than diagonal ones.
  EXPECT_GT(result.alpha(1, 0), result.alpha(0, 0));
  EXPECT_GT(result.alpha(0, 1), result.alpha(0, 0));
  // All couplings in (0, 1).
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (r == 1 && c == 1) continue;
      EXPECT_GT(result.alpha(r, c), 0.0);
      EXPECT_LT(result.alpha(r, c), 1.0);
    }
  }
  // Geometry is mirror symmetric around the centre cell.
  EXPECT_NEAR(result.alpha(1, 0), result.alpha(1, 2), 0.02);
  EXPECT_NEAR(result.alpha(0, 1), result.alpha(2, 1), 0.02);
}

TEST(ExtractAlpha, TighterSpacingCouplesMore) {
  const auto near = smallModel(10e-9);
  const auto far = smallModel(90e-9);
  const auto alphaNear = extractAlpha(near, MaterialTable::defaults(), 1, 1,
                                      {0.05e-3, 0.1e-3}, 300.0);
  const auto alphaFar = extractAlpha(far, MaterialTable::defaults(), 1, 1,
                                     {0.05e-3, 0.1e-3}, 300.0);
  EXPECT_GT(alphaNear.alpha(1, 0), 1.2 * alphaFar.alpha(1, 0));
  EXPECT_GT(alphaNear.alpha(0, 1), 1.2 * alphaFar.alpha(0, 1));
}

TEST(ExtractAlpha, PredictTemperaturesMatchesSolution) {
  const auto model = smallModel();
  const auto result = extractAlpha(model, MaterialTable::defaults(), 1, 1,
                                   {0.05e-3, 0.1e-3, 0.15e-3}, 300.0);
  const auto predicted = result.predictTemperatures(0.1e-3);
  const auto& actual = result.temperatureMatrices[1];
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(predicted(r, c), actual(r, c),
                  0.01 * (actual(r, c) - 300.0) + 0.05);
    }
  }
}

TEST(ExtractAlpha, Validation) {
  const auto model = smallModel();
  EXPECT_THROW(
      extractAlpha(model, MaterialTable::defaults(), 5, 1, {1e-4, 2e-4}, 300.0),
      std::out_of_range);
  EXPECT_THROW(extractAlpha(model, MaterialTable::defaults(), 1, 1, {1e-4}, 300.0),
               std::invalid_argument);
  EXPECT_THROW(
      extractAlpha(model, MaterialTable::defaults(), 1, 1, {1e-4, -1e-4}, 300.0),
      std::invalid_argument);
  EXPECT_THROW(extractAlpha(model, MaterialTable::defaults(), 1, 1,
                            {1e-4, std::nan("")}, 300.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nh::fem

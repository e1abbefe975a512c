#include "fem/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

namespace nh::fem {
namespace {

const CrossbarModel3D& smallModel() {
  static const CrossbarModel3D model = [] {
    CrossbarLayout layout;
    layout.rows = 3;
    layout.cols = 3;
    layout.margin = 20e-9;
    return CrossbarModel3D::build(layout);
  }();
  return model;
}

TransientScenario quickScenario(const CrossbarModel3D& model) {
  TransientScenario s;
  s.model = &model;
  s.heatedRow = 1;
  s.heatedCol = 1;
  s.power = 1e-4;
  s.tStop = 10e-9;
  s.dt = 0.5e-9;
  return s;
}

/// quickScenario's step response stopped at \p tStop, solved once per stop
/// time and shared by the tests below (each march takes seconds under the
/// sanitizers).
const TransientSolution& stepResponse(double tStop) {
  static std::map<double, TransientSolution> cache;
  auto it = cache.find(tStop);
  if (it == cache.end()) {
    TransientScenario scenario = quickScenario(smallModel());
    scenario.tStop = tStop;
    it = cache.emplace(tStop, solveThermalStep(scenario)).first;
  }
  return it->second;
}

TEST(HeatCapacity, DefaultsArePositive) {
  const auto t = HeatCapacityTable::defaults();
  for (int m = 0; m < static_cast<int>(Material::Count); ++m) {
    EXPECT_GT(t.capacity(static_cast<Material>(m)), 1e5);
  }
}

TEST(TransientThermal, MonotoneRiseTowardSteadyState) {
  const auto& model = smallModel();
  const auto scenario = quickScenario(model);
  const auto& sol = stepResponse(scenario.tStop);
  ASSERT_TRUE(sol.converged);
  ASSERT_GE(sol.cellTemperature.size(), 3u);
  const auto& heated = sol.cellTemperature[0];
  for (std::size_t i = 1; i < heated.size(); ++i) {
    EXPECT_GE(heated[i], heated[i - 1] - 1e-9);
  }
  // Final value matches the steady solver within a few percent.
  ThermalScenario steady;
  steady.model = &model;
  steady.cellPower = nh::util::Matrix(3, 3, 0.0);
  steady.cellPower(1, 1) = scenario.power;
  const auto ss = solveThermal(steady);
  ASSERT_TRUE(ss.converged());
  const double steadyRise = ss.cellTemperature(1, 1) - 300.0;
  const double transientRise = heated.back() - 300.0;
  EXPECT_GT(transientRise, 0.85 * steadyRise);
  EXPECT_LT(transientRise, 1.02 * steadyRise);
}

TEST(TransientThermal, FilamentTauIsNanoseconds) {
  const auto& sol = stepResponse(10e-9);
  ASSERT_TRUE(sol.converged);
  const double tau = sol.riseTimeConstant(0);
  ASSERT_FALSE(std::isnan(tau));
  // The compact model assumes tauThermal ~ 2 ns; the FEM should agree on
  // the order of magnitude.
  EXPECT_GT(tau, 0.2e-9);
  EXPECT_LT(tau, 10e-9);
}

TEST(TransientThermal, NeighbourLagsTheHeatedCell) {
  const auto& sol = stepResponse(20e-9);
  ASSERT_TRUE(sol.converged);
  const double tauHeated = sol.riseTimeConstant(0);
  const double tauNeighbour = sol.riseTimeConstant(1);
  ASSERT_FALSE(std::isnan(tauHeated));
  ASSERT_FALSE(std::isnan(tauNeighbour));
  EXPECT_GT(tauNeighbour, tauHeated);
}

TEST(TransientThermal, NeighbourOrderingMatchesAlphas) {
  const auto& sol = stepResponse(20e-9);
  ASSERT_TRUE(sol.converged);
  // Word-line neighbour ends hotter than bit-line, which ends hotter than
  // the diagonal -- same ordering as the steady alpha extraction.
  const double word = sol.cellTemperature[1].back();
  const double bit = sol.cellTemperature[2].back();
  const double diag = sol.cellTemperature[3].back();
  EXPECT_GT(word, bit);
  EXPECT_GT(bit, diag);
  EXPECT_GT(diag, 300.0);
}

/// The rise tau is measured against the steady state of the same scenario,
/// so stopping the march later must not move it (against the last sample
/// it grew with tStop).
TEST(TransientThermal, RiseTauDoesNotDependOnStopTime) {
  const auto& shortRun = stepResponse(10e-9);
  const auto& longRun = stepResponse(20e-9);
  const double dt = quickScenario(smallModel()).dt;
  ASSERT_TRUE(shortRun.converged);
  ASSERT_TRUE(longRun.converged);
  ASSERT_EQ(shortRun.steadyTemperature.size(), shortRun.cellLabels.size());
  std::size_t compared = 0;
  for (std::size_t s = 0; s < shortRun.cellLabels.size(); ++s) {
    SCOPED_TRACE(shortRun.cellLabels[s]);
    EXPECT_NEAR(shortRun.steadyTemperature[s], longRun.steadyTemperature[s],
                1e-3);
    const double tauShort = shortRun.riseTimeConstant(s);
    const double tauLong = longRun.riseTimeConstant(s);
    ASSERT_FALSE(std::isnan(tauLong));
    if (std::isnan(tauShort)) continue;  // short run stops before the mark
    EXPECT_NEAR(tauShort, tauLong, dt);
    ++compared;
  }
  // The heated cell and its word-line neighbour reach the mark in both.
  EXPECT_GE(compared, 2u);
}

/// The rise taus are measured against steadyTemperature, so it must be the
/// steady state of the same model, materials and power -- the operator A
/// alone, without the march's C/dt lump.
TEST(TransientThermal, SteadyReferenceMatchesSolveThermal) {
  const auto& model = smallModel();
  const auto scenario = quickScenario(model);
  const auto& sol = stepResponse(scenario.tStop);
  ASSERT_TRUE(sol.converged);

  ThermalScenario steady;
  steady.model = &model;
  steady.materials = scenario.materials;
  steady.ambientK = scenario.ambientK;
  steady.cellPower = nh::util::Matrix(3, 3, 0.0);
  steady.cellPower(scenario.heatedRow, scenario.heatedCol) = scenario.power;
  const auto reference = solveThermal(steady);
  ASSERT_TRUE(reference.converged());

  // Observed cells in TransientSolution order: heated, word-line (next
  // column), bit-line (next row) and diagonal neighbour.
  const std::size_t r = scenario.heatedRow;
  const std::size_t c = scenario.heatedCol;
  const std::pair<std::size_t, std::size_t> cells[] = {
      {r, c}, {r, c + 1}, {r + 1, c}, {r + 1, c + 1}};
  ASSERT_EQ(sol.steadyTemperature.size(), std::size(cells));
  const double rise = reference.cellTemperature(r, c) - scenario.ambientK;
  ASSERT_GT(rise, 0.0);
  for (std::size_t s = 0; s < std::size(cells); ++s) {
    SCOPED_TRACE(sol.cellLabels[s]);
    EXPECT_NEAR(sol.steadyTemperature[s],
                reference.cellTemperature(cells[s].first, cells[s].second),
                1e-7 * rise);
  }
}

TEST(TransientThermal, Validation) {
  const auto& model = smallModel();
  TransientScenario bad = quickScenario(model);
  bad.dt = 0.0;
  EXPECT_THROW(solveThermalStep(bad), std::invalid_argument);
  bad = quickScenario(model);
  bad.heatedRow = 9;
  EXPECT_THROW(solveThermalStep(bad), std::out_of_range);
  bad = quickScenario(model);
  bad.model = nullptr;
  EXPECT_THROW(solveThermalStep(bad), std::invalid_argument);
  for (const double power :
       {-1e-4, std::nan(""), std::numeric_limits<double>::infinity()}) {
    bad = quickScenario(model);
    bad.power = power;
    EXPECT_THROW(solveThermalStep(bad), std::invalid_argument) << power;
  }
  // A user-edited material table with a non-positive conductivity is
  // rejected by the operator stamp.
  bad = quickScenario(model);
  bad.materials.props(Material::SiO2).kappa = 0.0;
  EXPECT_THROW(solveThermalStep(bad), std::invalid_argument);
}

}  // namespace
}  // namespace nh::fem

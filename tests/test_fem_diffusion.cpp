#include "fem/diffusion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nh::fem {
namespace {

/// 1-D column of uniform material with the bottom held at T0 and a heat
/// source Q in the top voxel: the analytic steady profile through n voxels
/// of conductance g = kappa*h is T(k) = T0 + Q * (k + 1/2) / g... verified
/// against the finite-volume solution below.
TEST(Diffusion, OneDimensionalColumnMatchesAnalytic) {
  const std::size_t nz = 20;
  const double h = 1e-9;
  const double kappa = 2.0;
  VoxelGrid grid(1, 1, nz, h);

  DiffusionProblem problem;
  problem.grid = &grid;
  problem.coefficient.assign(nz, kappa);
  problem.sourcePerVoxel.assign(nz, 0.0);
  const double q = 1e-6;  // 1 uW into the top voxel
  problem.sourcePerVoxel[nz - 1] = q;
  problem.bottomPlaneValue = 300.0;

  const auto sol = solveDiffusion(problem);
  ASSERT_TRUE(sol.converged());

  // Face conductance g = kappa*h; bottom half-cell conductance 2*kappa*h.
  const double g = kappa * h;
  for (std::size_t k = 0; k < nz; ++k) {
    // Heat q flows down through all faces below voxel k.
    double expected = 300.0 + q / (2.0 * g);  // half cell to the boundary
    expected += q * static_cast<double>(k) / g;
    EXPECT_NEAR(sol.field[grid.index(0, 0, k)], expected, expected * 1e-6);
  }
}

TEST(Diffusion, EnergyConservationFluxEqualsSource) {
  // Total flux into the Dirichlet bottom must equal the injected power.
  VoxelGrid grid(6, 6, 6, 2e-9);
  DiffusionProblem problem;
  problem.grid = &grid;
  problem.coefficient.assign(grid.voxelCount(), 1.5);
  problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
  problem.sourcePerVoxel[grid.index(3, 3, 4)] = 2e-6;
  problem.bottomPlaneValue = 300.0;
  const auto sol = solveDiffusion(problem, {1e-12, 20000});
  ASSERT_TRUE(sol.converged());

  // Flux through the bottom faces: sum over k=0 voxels of 2*kappa*h*(T-T0).
  double flux = 0.0;
  for (std::size_t j = 0; j < grid.ny(); ++j) {
    for (std::size_t i = 0; i < grid.nx(); ++i) {
      const double t = sol.field[grid.index(i, j, 0)];
      flux += 2.0 * 1.5 * grid.voxelSize() * (t - 300.0);
    }
  }
  EXPECT_NEAR(flux, 2e-6, 2e-6 * 1e-5);
}

TEST(Diffusion, SymmetricSourceGivesSymmetricField) {
  VoxelGrid grid(7, 7, 4, 1e-9);
  DiffusionProblem problem;
  problem.grid = &grid;
  problem.coefficient.assign(grid.voxelCount(), 1.0);
  problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
  problem.sourcePerVoxel[grid.index(3, 3, 2)] = 1e-6;
  problem.bottomPlaneValue = 0.0;
  const auto sol = solveDiffusion(problem, {1e-11, 20000});
  ASSERT_TRUE(sol.converged());
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t d = 1; d <= 3; ++d) {
      const double left = sol.field[grid.index(3 - d, 3, k)];
      const double right = sol.field[grid.index(3 + d, 3, k)];
      const double up = sol.field[grid.index(3, 3 - d, k)];
      const double down = sol.field[grid.index(3, 3 + d, k)];
      EXPECT_NEAR(left, right, 1e-9 * std::max(1.0, left));
      EXPECT_NEAR(up, down, 1e-9 * std::max(1.0, up));
      EXPECT_NEAR(left, up, 1e-9 * std::max(1.0, left));
    }
  }
}

TEST(Diffusion, TemperatureDecaysAwayFromSource) {
  VoxelGrid grid(9, 9, 4, 1e-9);
  DiffusionProblem problem;
  problem.grid = &grid;
  problem.coefficient.assign(grid.voxelCount(), 1.0);
  problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
  problem.sourcePerVoxel[grid.index(4, 4, 3)] = 1e-6;
  problem.bottomPlaneValue = 300.0;
  const auto sol = solveDiffusion(problem);
  ASSERT_TRUE(sol.converged());
  double previous = sol.field[grid.index(4, 4, 3)];
  for (std::size_t d = 1; d <= 4; ++d) {
    const double t = sol.field[grid.index(4 + d, 4, 3)];
    EXPECT_LT(t, previous);
    EXPECT_GE(t, 300.0 - 1e-9);
    previous = t;
  }
}

TEST(Diffusion, WrongSizesRejected) {
  VoxelGrid grid(2, 2, 2, 1e-9);
  DiffusionProblem problem;
  problem.grid = &grid;
  problem.coefficient.assign(3, 1.0);  // wrong size
  EXPECT_THROW(solveDiffusion(problem), std::invalid_argument);
  problem.coefficient.assign(8, 1.0);
  problem.sourcePerVoxel.assign(3, 0.0);  // wrong size
  EXPECT_THROW(solveDiffusion(problem), std::invalid_argument);
  problem.sourcePerVoxel.clear();
  ASSERT_TRUE(solveDiffusion(problem).converged());

  // Coefficients must be finite and > 0: the operator has no other guard
  // against a zero or NaN diagonal.
  for (const double bad : {0.0, -1.0, std::nan(""),
                           std::numeric_limits<double>::infinity()}) {
    problem.coefficient.assign(8, 1.0);
    problem.coefficient[5] = bad;
    EXPECT_THROW(solveDiffusion(problem), std::invalid_argument) << bad;
  }
  problem.grid = nullptr;
  problem.coefficient.assign(8, 1.0);
  EXPECT_THROW(solveDiffusion(problem), std::invalid_argument);
}

}  // namespace
}  // namespace nh::fem

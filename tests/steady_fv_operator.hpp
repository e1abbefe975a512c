#pragma once
/// \file steady_fv_operator.hpp
/// The synthetic operator the solver tests share with bench/perf_solvers.cpp:
/// fem::HeatOperator on an m^3 grid of unit voxels with uniform conductivity
/// \p scale. Every face conductance is \p scale and the bottom (k == 0)
/// plane carries the 2*scale Dirichlet lump; no mass term. Its condition
/// number grows O(m^2) -- the regime where IC(0)'s CG iteration count climbs
/// with the grid edge and the multigrid preconditioner stays flat.

#include <cstddef>
#include <vector>

#include "fem/diffusion.hpp"
#include "fem/grid.hpp"
#include "util/sparse.hpp"

inline nh::util::SparseMatrix steadyFvOperator(std::size_t m, double scale) {
  const nh::fem::VoxelGrid grid(m, m, m, 1.0);
  nh::fem::HeatOperator op;
  std::vector<double> boundaryRhs;
  op.assemble(grid, std::vector<double>(grid.voxelCount(), scale), nullptr,
              0.0, boundaryRhs);
  return op.matrix();
}

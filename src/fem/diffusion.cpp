#include "fem/diffusion.hpp"

#include <cmath>
#include <stdexcept>

namespace nh::fem {

nh::util::CgOptions toCgOptions(const DiffusionOptions& options,
                                const VoxelGrid& grid) {
  nh::util::CgOptions cg;
  cg.relTol = options.relTol;
  cg.maxIter = options.maxIterations;
  cg.preconditioner = options.preconditioner;
  cg.gridNx = grid.nx();
  cg.gridNy = grid.ny();
  cg.gridNz = grid.nz();
  if (options.multigridMinVoxels > 0 &&
      grid.voxelCount() >= options.multigridMinVoxels &&
      options.preconditioner ==
          nh::util::CgPreconditioner::IncompleteCholesky) {
    cg.preconditioner = nh::util::CgPreconditioner::Multigrid;
  }
  return cg;
}

bool HeatOperator::assemble(const VoxelGrid& grid,
                            const std::vector<double>& coefficient,
                            const std::vector<double>* extraDiagonal,
                            double bottomValue,
                            std::vector<double>& boundaryRhs) {
  const std::size_t n = grid.voxelCount();
  if (coefficient.size() != n) {
    throw std::invalid_argument("HeatOperator: coefficient size mismatch");
  }
  if (extraDiagonal != nullptr && extraDiagonal->size() != n) {
    throw std::invalid_argument("HeatOperator: extra diagonal size mismatch");
  }
  for (const double c : coefficient) {
    if (!std::isfinite(c) || !(c > 0.0)) {
      throw std::invalid_argument(
          "HeatOperator: coefficient must be finite and > 0");
    }
  }

  const bool reuse = nx_ > 0 && grid.nx() == nx_ && grid.ny() == ny_ &&
                     grid.nz() == nz_;
  if (reuse) {
    builder_.clear();
  } else {
    builder_ = nh::util::TripletBuilder(n, n);
  }
  boundaryRhs.assign(n, 0.0);

  // Numeric stamp: one identical (row, col) sequence per grid shape, values
  // free to change -- the contract SparsityPattern::assemble relies on. The
  // face conductance for cubic voxels of edge h is the harmonic-mean face
  // coefficient (area h^2 over distance h) times h.
  const double h = grid.voxelSize();
  for (std::size_t k = 0; k < grid.nz(); ++k) {
    for (std::size_t j = 0; j < grid.ny(); ++j) {
      for (std::size_t i = 0; i < grid.nx(); ++i) {
        const std::size_t v = grid.index(i, j, k);
        const double cv = coefficient[v];
        double diag = extraDiagonal != nullptr ? (*extraDiagonal)[v] : 0.0;
        const auto visit = [&](std::size_t nv) {
          const double cn = coefficient[nv];
          const double g = 2.0 * cv * cn / (cv + cn) * h;
          diag += g;
          builder_.add(v, nv, -g);
        };
        if (i > 0) visit(grid.index(i - 1, j, k));
        if (i + 1 < grid.nx()) visit(grid.index(i + 1, j, k));
        if (j > 0) visit(grid.index(i, j - 1, k));
        if (j + 1 < grid.ny()) visit(grid.index(i, j + 1, k));
        if (k > 0) visit(grid.index(i, j, k - 1));
        if (k + 1 < grid.nz()) visit(grid.index(i, j, k + 1));
        if (k == 0) {  // Dirichlet bottom: half-cell distance to the face
          const double g = 2.0 * cv * h;
          diag += g;
          boundaryRhs[v] += g * bottomValue;
        }
        builder_.add(v, v, diag);
      }
    }
  }

  if (!reuse) {
    pattern_ = nh::util::SparsityPattern::fromTriplets(builder_);
    nx_ = grid.nx();
    ny_ = grid.ny();
    nz_ = grid.nz();
  }
  pattern_.assemble(builder_, matrix_);
  return reuse;
}

DiffusionSolution DiffusionSolver::solve(const DiffusionProblem& problem,
                                         const DiffusionOptions& options) {
  if (problem.grid == nullptr) {
    throw std::invalid_argument("DiffusionProblem: null grid");
  }
  const VoxelGrid& grid = *problem.grid;
  const std::size_t n = grid.voxelCount();
  if (!problem.sourcePerVoxel.empty() && problem.sourcePerVoxel.size() != n) {
    throw std::invalid_argument("DiffusionProblem: source size mismatch");
  }

  const bool reuseStructure = operator_.assemble(
      grid, problem.coefficient, nullptr, problem.bottomPlaneValue, rhs_);
  if (!problem.sourcePerVoxel.empty()) {
    for (std::size_t v = 0; v < n; ++v) rhs_[v] += problem.sourcePerVoxel[v];
  }
  // O(nnz) value comparison: frozen-operator sweep points skip the
  // preconditioner rebuild (the dominant cost of a multigrid solve).
  const nh::util::SparseMatrix& matrix = operator_.matrix();
  const bool sameOperator = reuseStructure && matrix.values() == lastValues_;
  if (!sameOperator) lastValues_ = matrix.values();

  x_.assign(n, problem.bottomPlaneValue);
  nh::util::CgOptions cgOptions = toCgOptions(options, grid);
  cgOptions.reusePreconditioner = sameOperator;

  DiffusionSolution solution;
  solution.stats =
      nh::util::solveConjugateGradient(matrix, rhs_, x_, cgOptions, &cg_);
  solution.field = x_;
  return solution;
}

DiffusionSolution solveDiffusion(const DiffusionProblem& problem,
                                 const DiffusionOptions& options) {
  DiffusionSolver solver;
  return solver.solve(problem, options);
}

}  // namespace nh::fem

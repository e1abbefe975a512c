#pragma once
/// \file diffusion.hpp
/// Steady-state heat conduction on a voxel grid (paper Eq. 1):
///   -div( kappa(x) grad T ) = q(x)
/// discretised with the finite-volume method (harmonic-mean face
/// coefficients, which is the consistent choice across material
/// discontinuities).
///
/// Boundary conditions: the grid bottom (z = 0 outer face) is held at a
/// Dirichlet value, every other surface is insulated (Neumann). The system
/// is symmetric positive definite, solved by preconditioned conjugate
/// gradients. HeatOperator owns the 7-point stencil; this steady solver and
/// the implicit-Euler transient (fem/transient.hpp) both stamp through it.

#include <cstddef>
#include <vector>

#include "fem/grid.hpp"
#include "util/linsolve.hpp"
#include "util/sparse.hpp"

namespace nh::fem {

/// Problem description for solveDiffusion().
struct DiffusionProblem {
  const VoxelGrid* grid = nullptr;
  /// Per-voxel conductivity kappa, finite and > 0; size == voxelCount().
  std::vector<double> coefficient;
  /// Heat source integrated per voxel [W]; empty means zero.
  std::vector<double> sourcePerVoxel;
  /// Dirichlet value of the grid bottom (z = 0 outer face).
  double bottomPlaneValue = 0.0;
};

/// Solver tolerances.
struct DiffusionOptions {
  double relTol = 1e-8;
  std::size_t maxIterations = 20000;
  /// CG preconditioner. IC(0) sharply cuts the iteration count on the FV
  /// operators and falls back to Jacobi automatically on breakdown;
  /// Multigrid keeps the count (near) grid-size independent.
  nh::util::CgPreconditioner preconditioner =
      nh::util::CgPreconditioner::IncompleteCholesky;
  /// Auto-upgrade IC(0) to the geometric-multigrid preconditioner when the
  /// grid has at least this many voxels -- the regime where IC(0)'s growing
  /// iteration count becomes the scaling wall. 0 disables the upgrade; an
  /// explicit preconditioner other than IC(0) is never overridden.
  std::size_t multigridMinVoxels = 32768;
};

/// Translate DiffusionOptions into the CG controls for the FV system of
/// \p grid, applying the multigrid auto-upgrade policy. Shared by
/// DiffusionSolver and ThermalTransientSolver so the policy has one home.
nh::util::CgOptions toCgOptions(const DiffusionOptions& options,
                                const VoxelGrid& grid);

/// The 7-point FV heat operator A of one grid in a CSR matrix. The sparsity
/// structure is a function of the grid dimensions alone, so it is built
/// once and later assemblies on a grid of the same shape refill the cached
/// matrix in O(nnz) without sorting or allocating.
class HeatOperator {
 public:
  /// Stamp A + diag(\p extraDiagonal) for the conductivities \p coefficient
  /// (one per voxel, finite and > 0) and write the Dirichlet bottom plane's
  /// right-hand side into \p boundaryRhs (g * bottomValue on the z = 0
  /// voxels, zero elsewhere). \p extraDiagonal (nullptr, or one value per
  /// voxel: the implicit-Euler C/dt lump) starts each row's diagonal before
  /// the face conductances are added. Returns true when the cached
  /// structure was reused.
  bool assemble(const VoxelGrid& grid, const std::vector<double>& coefficient,
                const std::vector<double>* extraDiagonal, double bottomValue,
                std::vector<double>& boundaryRhs);

  const nh::util::SparseMatrix& matrix() const { return matrix_; }

 private:
  /// Structure cache key: the grid dimensions (a grid pointer could match a
  /// different grid at a reused address; voxelCount alone would match
  /// permuted dimensions).
  std::size_t nx_ = 0, ny_ = 0, nz_ = 0;
  nh::util::TripletBuilder builder_{0, 0};
  nh::util::SparsityPattern pattern_;
  nh::util::SparseMatrix matrix_;
};

/// Result of a diffusion solve.
struct DiffusionSolution {
  std::vector<double> field;            ///< Per-voxel solution.
  nh::util::IterativeResult stats;      ///< CG convergence report.
  bool converged() const { return stats.converged; }
};

/// Structure-reusing diffusion solver. Sweeps change coefficients and
/// sources on a fixed grid: the cached HeatOperator, right-hand side,
/// solution vector and CG scratch are refilled in place, so repeated solves
/// allocate nothing beyond the returned field. A different grid shape
/// triggers a fresh symbolic phase.
class DiffusionSolver {
 public:
  /// Solve; equivalent to solveDiffusion() but with cross-call reuse.
  DiffusionSolution solve(const DiffusionProblem& problem,
                          const DiffusionOptions& options = {});

 private:
  HeatOperator operator_;
  nh::util::Vector rhs_;
  nh::util::Vector x_;
  nh::util::CgWorkspace cg_;
  /// Matrix values of the previous solve: when a re-assembly reproduces
  /// them bit-for-bit (sweeps that only change sources), the cached
  /// preconditioner -- IC(0) factor or multigrid hierarchy -- is still exact
  /// and is reused instead of rebuilt.
  std::vector<double> lastValues_;
};

/// One-shot convenience wrapper around DiffusionSolver.
DiffusionSolution solveDiffusion(const DiffusionProblem& problem,
                                 const DiffusionOptions& options = {});

}  // namespace nh::fem

#pragma once
/// \file multigrid.hpp
/// Geometric multigrid (GMG) V-cycle preconditioner for the SPD operators
/// the finite-volume PDE solvers assemble on structured nx x ny x nz voxel
/// grids (7-point stencils and their Galerkin coarsenings).
///
/// Why: IC(0) halves the CG iteration count but the count still grows with
/// grid resolution (~O(nx) for the steady heat operator), so the 10^5-10^6
/// voxel grids hit a scaling wall. One GMG V-cycle per CG iteration keeps
/// the iteration count (near) grid-size independent.
///
/// Construction per level, coarsest last:
///  * cell-centred coarsening by 2 in each dimension (odd tails clamp),
///  * trilinear prolongation P, full-weighting restriction R = P^T,
///  * Galerkin coarse operator A_c = R A P (keeps SPD symmetry exactly),
///  * symmetric smoothing: forward Gauss-Seidel sweeps before the coarse
///    correction, backward sweeps after -- the adjoint pairing that makes
///    the V-cycle a symmetric preconditioner, as CG requires,
///  * a dense LU solve at the coarsest level.
///
/// compute() returns false when the grid cannot be coarsened (dimensions
/// that do not match the matrix, pinned/eliminated systems, or grids small
/// enough that IC(0) is already cheap); callers fall back to IC(0)/Jacobi.

#include <cstddef>
#include <vector>

#include "util/linsolve.hpp"
#include "util/matrix.hpp"
#include "util/sparse.hpp"

namespace nh::util {

class GeometricMultigrid {
 public:
  struct Options {
    /// Structured-grid dimensions; their product must equal the matrix size.
    std::size_t nx = 0, ny = 0, nz = 0;
    /// Forward Gauss-Seidel sweeps before the coarse correction.
    std::size_t preSmooth = 1;
    /// Backward sweeps after it (keep equal to preSmooth for symmetry).
    std::size_t postSmooth = 1;
    /// Coarsen until at most this many rows remain, then solve densely.
    /// Doubles as the applicability floor: systems no larger than this are
    /// rejected by compute() -- IC(0) already handles them well.
    std::size_t maxCoarseRows = 64;
  };

  /// Build (or rebuild) the hierarchy for \p a. The transfer operators are
  /// reused when the grid dimensions are unchanged from the previous call,
  /// so sweeps re-solving on one grid only redo the Galerkin products.
  /// Keeps a pointer to \p a: the matrix must outlive apply() calls (its
  /// values must not change between compute() and apply()).
  /// Returns false -- leaving valid() false -- when the grid is unknown,
  /// mismatched, or too small to coarsen.
  bool compute(const SparseMatrix& a, const Options& options);
  bool valid() const { return valid_; }
  /// The fine operator the hierarchy was built for (nullptr before
  /// compute()); reuse paths check it to avoid smoothing with a stale
  /// pointer when the caller switched matrix objects.
  const SparseMatrix* fineMatrix() const { return fine_; }

  /// z = M^{-1} r: one V-cycle from a zero initial guess. Requires valid().
  void apply(const Vector& r, Vector& z) const;

  /// Hierarchy depth including the fine level (0 when not valid()).
  std::size_t levelCount() const { return valid_ ? levels_.size() + 1 : 0; }

 private:
  /// Coarse level l+1 plus its coupling to level l (level 0 = the fine
  /// matrix, held by pointer).
  struct Level {
    std::size_t nx = 0, ny = 0, nz = 0;  ///< This coarse level's dims.
    SparseMatrix prolong;                ///< maps this level -> finer level.
    SparseMatrix restrict_;              ///< prolong transposed.
    SparseMatrix coarseA;                ///< Galerkin operator here.
    mutable Vector b, x, scratch;        ///< V-cycle storage for this level.
  };

  void cycle(std::size_t l, const Vector& b, Vector& x) const;

  const SparseMatrix* fine_ = nullptr;
  Options options_;
  std::vector<Level> levels_;
  Matrix coarseDense_;
  LuFactorization coarseLu_;
  mutable Vector fineScratch_;
  bool valid_ = false;
};

/// Cell-centred trilinear prolongation from an (ncx, ncy, ncz) coarse grid
/// to an (nx, ny, nz) fine grid, where nc* = (n* + 1) / 2. Each fine cell
/// interpolates from up to 8 coarse cells; every row sums to 1 (exposed for
/// the unit tests).
SparseMatrix buildTrilinearProlongation(std::size_t nx, std::size_t ny,
                                        std::size_t nz, std::size_t ncx,
                                        std::size_t ncy, std::size_t ncz);

}  // namespace nh::util

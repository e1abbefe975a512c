#pragma once
/// \file linsolve.hpp
/// Linear solvers: dense LU with partial pivoting for the small MNA systems,
/// and preconditioned conjugate gradient (Jacobi or zero-fill incomplete
/// Cholesky) for the large symmetric-positive-definite systems produced by
/// the finite-volume PDE discretisations.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/matrix.hpp"
#include "util/sparse.hpp"

namespace nh::util {

class GeometricMultigrid;  // util/multigrid.hpp
class CgWorkspace;         // declared below

/// Outcome of an iterative solve.
struct IterativeResult {
  bool converged = false;
  std::size_t iterations = 0;
  double residualNorm = 0.0;  ///< Final ||b - A x|| / ||b||.
  /// True when the solve stopped because its values went non-finite (or the
  /// operator lost positive-definiteness) rather than merely hitting the
  /// iteration cap: the NaN/Inf guards fail fast instead of iterating to
  /// maxIter on poisoned values.
  bool breakdown = false;
};

/// Structured failure report thrown by the higher-level solve drivers
/// (Newton loops, the fast-engine network solves) when a linear or nonlinear
/// solve cannot produce a usable answer. Carries which solve failed, how far
/// it got, and the final residual -- so callers (the experiment engine's
/// per-point isolation, logs, tests) see a diagnosis instead of a bare
/// std::runtime_error.
class SolverError : public std::runtime_error {
 public:
  SolverError(const std::string& solve, const std::string& detail,
              std::size_t iterations = 0, double residualNorm = 0.0);

  /// Which solve failed, e.g. "schur-cg" or "fastsim.newton".
  const std::string& solve() const { return solve_; }
  /// Iterations completed before the failure (0 when not applicable).
  std::size_t iterations() const { return iterations_; }
  /// Residual norm at the failure (0 when not applicable).
  double residualNorm() const { return residualNorm_; }

 private:
  std::string solve_;
  std::size_t iterations_;
  double residualNorm_;
};

/// LU factorisation with partial pivoting of a square dense matrix.
/// Factor once, solve many right-hand sides; refactor() re-runs the
/// elimination in the already-allocated storage, so transient loops that
/// re-factor a same-sized Jacobian never touch the heap.
class LuFactorization {
 public:
  /// Empty factorization; call refactor() before solving.
  LuFactorization() = default;

  /// Factor \p a. Returns std::nullopt when the matrix is singular to
  /// working precision.
  static std::optional<LuFactorization> factor(const Matrix& a);

  /// Re-factor \p a in place, reusing this object's storage when the size
  /// matches. Returns false (leaving the factorization invalid) when \p a is
  /// singular to working precision.
  bool refactor(const Matrix& a);

  /// True when the object holds a usable factorization.
  bool valid() const { return valid_; }

  /// Solve A x = b for one right-hand side.
  Vector solve(const Vector& b) const;

  /// Solve A x = b with b overwritten by the solution; no allocation.
  void solveInPlace(Vector& b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  mutable Vector scratch_;  ///< Permutation scratch for solveInPlace.
  bool valid_ = false;
};

/// Convenience one-shot dense solve. Throws std::runtime_error on singular A.
Vector solveDense(const Matrix& a, const Vector& b);

/// Solver for the bipartite block system with diagonal blocks
///   [ diag(d1)  -G       ] [x1]   [r1]
///   [ -G^T      diag(d2) ] [x2] = [r2]
/// via the Schur complement on the second block:
///   (diag(d2) - G^T diag(d1)^-1 G) x2 = r2 + G^T diag(d1)^-1 r1
///   x1 = diag(d1)^-1 (r1 + G x2)
/// The crossbar line network has exactly this shape: word lines couple only
/// to bit lines, never to each other. solve() picks the path by size:
///  * n2 < kIterativeMinCols: assemble the dense complement and LU-factor
///    it, O(n1 n2^2 + n2^3) instead of the O((n1+n2)^3) dense factorisation;
///  * otherwise: matrix-free Jacobi-preconditioned CG applying
///    S x = diag(d2) x - G^T (diag(d1)^-1 (G x)) in O(n1 n2) per iteration,
///    which is what takes megabit arrays past the dense-assembly wall.
/// The workspace is reused across calls, so Newton loops allocate nothing
/// after the first.
class SchurComplementSolver {
 public:
  /// Column count at which solve() switches to CG: the dense assembly is
  /// O(n1 n2^2) per solve, the matrix-free CG is O(n1 n2) per iteration, so
  /// CG wins once the column count clears the CG iteration count (tens for
  /// these diagonally dominant complements).
  static constexpr std::size_t kIterativeMinCols = 128;

  SchurComplementSolver();
  ~SchurComplementSolver();
  SchurComplementSolver(SchurComplementSolver&&) noexcept;
  SchurComplementSolver& operator=(SchurComplementSolver&&) noexcept;

  /// \p g of shape n1 x n2, \p d1 (size n1, entries nonzero), \p d2 (size
  /// n2), residual \p r (size n1+n2; first block first). \p x receives the
  /// solution (resized to n1+n2). Returns false when the complement is
  /// singular to working precision or the CG path did not converge.
  bool solve(const Vector& d1, const Vector& d2, const Matrix& g,
             const Vector& r, Vector& x);

  /// Diagnostics of the last solve() on the CG path (zeros after a dense
  /// solve).
  const IterativeResult& lastIterative() const { return lastIterative_; }

 private:
  bool solveDenseComplement(const Vector& d1, const Vector& d2,
                            const Matrix& g, const Vector& r, Vector& x);
  bool solveIterative(const Vector& d1, const Vector& d2, const Matrix& g,
                      const Vector& r, Vector& x);

  Matrix schur_;
  Vector rhs_;
  LuFactorization lu_;
  IterativeResult lastIterative_;
  // Iterative-path workspace.
  Vector t1_, x2_, invDiag_;
  std::unique_ptr<CgWorkspace> cgWs_;  ///< Created on first iterative solve.
};

/// Zero-fill incomplete Cholesky factorisation IC(0) of an SPD sparse
/// matrix: L has exactly the sparsity of A's lower triangle, and the
/// preconditioner application is two triangular solves. compute() reuses the
/// previous allocation when the structure size is unchanged, so re-factoring
/// a sweep's matrices is allocation-free after the first.
class IncompleteCholesky {
 public:
  /// Factor \p a (must be square; only the lower triangle is read).
  /// Returns false on pivot breakdown -- the matrix is not SPD enough for
  /// IC(0) -- in which case valid() stays false and callers should fall back
  /// to the Jacobi preconditioner.
  bool compute(const SparseMatrix& a);
  bool valid() const { return valid_; }

  /// z = (L L^T)^{-1} r. Requires valid().
  void apply(const Vector& r, Vector& z) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> rowPtr_;   ///< CSR of L (lower triangle incl. diag).
  std::vector<std::size_t> colIdx_;
  std::vector<double> val_;
  bool valid_ = false;
};

/// Preconditioner choice for solveConjugateGradient.
enum class CgPreconditioner {
  Jacobi,              ///< Diagonal scaling; always applicable.
  IncompleteCholesky,  ///< IC(0); silently falls back to Jacobi on breakdown.
  /// Geometric multigrid V-cycle for structured-voxel FV operators; needs
  /// CgOptions::gridNx/Ny/Nz and silently falls back to IC(0) (then Jacobi)
  /// when the grid is unknown, mismatched, or too small to coarsen.
  Multigrid,
};

/// Conjugate-gradient controls.
struct CgOptions {
  double relTol = 1e-8;
  std::size_t maxIter = 10000;
  CgPreconditioner preconditioner = CgPreconditioner::Jacobi;
  /// Reuse the workspace's preconditioner from the previous solve instead of
  /// recomputing it. Only valid when the matrix values are unchanged since
  /// that solve (e.g. the frozen operator of an implicit-Euler time loop).
  /// The Multigrid hierarchy additionally references the fine matrix by
  /// pointer, so it is only reused when the same SparseMatrix object is
  /// passed again (a different object triggers a rebuild, not a stale read).
  bool reusePreconditioner = false;
  /// Structured-grid dimensions of the operator for the Multigrid
  /// preconditioner (0 = unknown; their product must equal the matrix size
  /// or Multigrid falls back to IC(0)).
  std::size_t gridNx = 0, gridNy = 0, gridNz = 0;
};

/// Scratch vectors and preconditioner state for solveConjugateGradient.
/// Passing the same workspace to repeated solves makes the CG internals
/// allocation-free after the first call.
class CgWorkspace {
 public:
  CgWorkspace();
  ~CgWorkspace();
  CgWorkspace(CgWorkspace&&) noexcept;
  CgWorkspace& operator=(CgWorkspace&&) noexcept;

  const IncompleteCholesky& preconditioner() const { return ic_; }
  /// Multigrid hierarchy of the last Multigrid solve (nullptr before one).
  const GeometricMultigrid* multigrid() const { return mg_.get(); }

 private:
  friend IterativeResult solveConjugateGradient(const SparseMatrix&,
                                                const Vector&, Vector&,
                                                const CgOptions&, CgWorkspace*);
  friend IterativeResult solveConjugateGradientOperator(
      std::size_t, const std::function<void(const Vector&, Vector&)>&,
      const Vector&, const Vector&, Vector&, double, std::size_t,
      CgWorkspace*);
  Vector r_, z_, p_, ap_, invDiag_;
  IncompleteCholesky ic_;
  std::unique_ptr<GeometricMultigrid> mg_;  ///< Created on first MG solve.
  /// Remembers an IC(0) breakdown so reusePreconditioner solves on the same
  /// frozen matrix go straight to Jacobi instead of re-failing every call.
  bool icFailed_ = false;
  bool mgFailed_ = false;  ///< Same, for a multigrid hierarchy that failed.
};

/// Preconditioned conjugate gradient for SPD systems.
/// \p x is used as the initial guess and holds the solution on return.
/// \p workspace (optional) carries scratch vectors and the IC(0) factor
/// across calls; without it the call allocates its own.
IterativeResult solveConjugateGradient(const SparseMatrix& a, const Vector& b,
                                       Vector& x, const CgOptions& options,
                                       CgWorkspace* workspace = nullptr);

/// Backward-compatible Jacobi-preconditioned overload.
IterativeResult solveConjugateGradient(const SparseMatrix& a, const Vector& b,
                                       Vector& x, double relTol = 1e-8,
                                       std::size_t maxIter = 10000);

/// Matrix-free CG: \p applyA computes y = A x for the SPD operator and
/// \p invDiag is the (approximate) inverse diagonal used as the Jacobi
/// preconditioner. Used where the operator is cheap to apply but expensive
/// to assemble -- the Schur complement of the bipartite line network is
/// fully dense (every word line couples every pair of bit lines), so at
/// megabit-array sizes only the operator form is affordable. \p x is the
/// initial guess and holds the solution on return.
IterativeResult solveConjugateGradientOperator(
    std::size_t n, const std::function<void(const Vector&, Vector&)>& applyA,
    const Vector& invDiag, const Vector& b, Vector& x, double relTol = 1e-8,
    std::size_t maxIter = 10000, CgWorkspace* workspace = nullptr);

/// Thomas algorithm for tridiagonal systems (used by 1-D analytic
/// verification problems in the FEM tests).
/// \p lower has n-1 entries, \p diag n, \p upper n-1.
Vector solveTridiagonal(const Vector& lower, const Vector& diag,
                        const Vector& upper, const Vector& rhs);

/// Sparse LU factorisation with partial pivoting (left-looking
/// Gilbert-Peierls, natural column order). Built for the MNA jacobians of
/// large netlists: a full-array crossbar netlist has thousands of unknowns
/// but only a handful of entries per row, so the dense O(n^3) factorisation
/// (and its O(n^2) storage) is the scaling wall the sparse path removes.
/// refactor() reuses every allocation, so Newton loops and transient
/// marches refactor without touching the heap once the fill pattern has
/// stabilised.
class SparseLu {
 public:
  /// Factor the square matrix \p a. Returns false (leaving the
  /// factorisation invalid) when \p a is singular to working precision.
  ///
  /// Fill control: the first factorisation of a structure computes a
  /// reverse Cuthill-McKee ordering of the (symmetrised) pattern and
  /// factors P A P^T instead of A -- netlists numbered line-by-line (the
  /// crossbar's word-then-bit segment order has bandwidth O(n)) would
  /// otherwise fill near-densely. Re-factorisations with an unchanged
  /// structure (Newton loops) reuse the cached ordering; solveInPlace is
  /// permutation-transparent.
  bool refactor(const SparseMatrix& a);
  bool valid() const { return valid_; }
  std::size_t size() const { return n_; }
  /// Entries stored in L + U (fill diagnostic).
  std::size_t factorNonZeros() const { return lVal_.size() + uVal_.size(); }

  /// Solve A x = b with b overwritten by the solution; no allocation.
  void solveInPlace(Vector& b) const;

 private:
  /// Recompute perm_/iperm_ (reverse Cuthill-McKee) for a's structure.
  void computeOrdering(const SparseMatrix& a);

  std::size_t n_ = 0;
  // Fill-reducing symmetric ordering: factor rows/cols are perm_[k] of the
  // input; iperm_ is the inverse map. Cached against the input structure.
  std::vector<std::size_t> perm_, iperm_;
  std::vector<std::size_t> structRowPtr_, structColIdx_;
  // CSC factors: L unit-lower-triangular (unit diagonal stored), U upper
  // triangular with the pivot last in each column.
  std::vector<std::size_t> lPtr_, lIdx_, uPtr_, uIdx_;
  std::vector<double> lVal_, uVal_;
  std::vector<std::size_t> pinv_;  ///< Row -> pivot position.
  // CSC copy of the input (built by transposing the CSR) and workspaces.
  std::vector<std::size_t> cscPtr_, cscIdx_;
  std::vector<double> cscVal_;
  std::vector<double> x_;  ///< Dense numeric scatter.
  std::vector<std::size_t> stack_, pstack_, found_, xi_;  ///< DFS state.
  mutable Vector scratch_;                   ///< Permutation scratch.
  bool valid_ = false;
};

}  // namespace nh::util

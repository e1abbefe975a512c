#include "util/linsolve.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/multigrid.hpp"

namespace nh::util {

namespace {
/// Sentinel for SparseLu's row -> pivot-position map.
constexpr std::size_t kUnpivoted = static_cast<std::size_t>(-1);

// Convergence controls of the Schur-complement CG path.
constexpr double kSchurCgRelTol = 1e-12;
constexpr std::size_t kSchurCgMaxIter = 4000;

std::string solverErrorMessage(const std::string& solve,
                               const std::string& detail,
                               std::size_t iterations, double residualNorm) {
  std::ostringstream out;
  out << solve << ": " << detail;
  if (iterations > 0 || residualNorm != 0.0) {
    out << " (iterations=" << iterations << ", residual=" << residualNorm
        << ")";
  }
  return out.str();
}
}  // namespace

SolverError::SolverError(const std::string& solve, const std::string& detail,
                         std::size_t iterations, double residualNorm)
    : std::runtime_error(
          solverErrorMessage(solve, detail, iterations, residualNorm)),
      solve_(solve),
      iterations_(iterations),
      residualNorm_(residualNorm) {}

CgWorkspace::CgWorkspace() = default;
CgWorkspace::~CgWorkspace() = default;
CgWorkspace::CgWorkspace(CgWorkspace&&) noexcept = default;
CgWorkspace& CgWorkspace::operator=(CgWorkspace&&) noexcept = default;

std::optional<LuFactorization> LuFactorization::factor(const Matrix& a) {
  LuFactorization f;
  if (!f.refactor(a)) return std::nullopt;
  return f;
}

bool LuFactorization::refactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("LuFactorization: matrix must be square");
  }
  const std::size_t n = a.rows();
  valid_ = false;
  // Fault site: tests force a "numerically singular" outcome to exercise the
  // failure paths downstream of a real pivot breakdown.
  if (faultinject::shouldFire("linsolve.dense_lu")) return false;
  lu_ = a;  // reuses the existing allocation when the size is unchanged
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |value| in column k at/below the diagonal.
    std::size_t pivot = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) return false;  // numerically singular
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot, c));
      std::swap(perm_[k], perm_[pivot]);
    }
    const double inv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = lu_(r, k) * inv;
      lu_(r, k) = m;
      if (m == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= m * lu_(k, c);
    }
  }
  valid_ = true;
  return true;
}

Vector LuFactorization::solve(const Vector& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LuFactorization::solve: size mismatch");
  Vector x(n);
  // Apply permutation, then forward substitution (unit lower triangle).
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Back substitution (upper triangle).
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

void LuFactorization::solveInPlace(Vector& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) {
    throw std::invalid_argument("LuFactorization::solveInPlace: size mismatch");
  }
  scratch_.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch_[i] = b[perm_[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = scratch_[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * scratch_[j];
    scratch_[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = scratch_[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * scratch_[j];
    scratch_[ii] = acc / lu_(ii, ii);
  }
  std::copy(scratch_.begin(), scratch_.end(), b.begin());
}

Vector solveDense(const Matrix& a, const Vector& b) {
  auto f = LuFactorization::factor(a);
  if (!f) throw std::runtime_error("solveDense: singular matrix");
  return f->solve(b);
}

SchurComplementSolver::SchurComplementSolver() = default;
SchurComplementSolver::~SchurComplementSolver() = default;
SchurComplementSolver::SchurComplementSolver(SchurComplementSolver&&) noexcept =
    default;
SchurComplementSolver& SchurComplementSolver::operator=(
    SchurComplementSolver&&) noexcept = default;

bool SchurComplementSolver::solve(const Vector& d1, const Vector& d2,
                                  const Matrix& g, const Vector& r, Vector& x) {
  if (g.rows() != d1.size() || g.cols() != d2.size() ||
      r.size() != d1.size() + d2.size()) {
    throw std::invalid_argument("SchurComplementSolver: shape mismatch");
  }
  lastIterative_ = {};
  return d2.size() < kIterativeMinCols ? solveDenseComplement(d1, d2, g, r, x)
                                       : solveIterative(d1, d2, g, r, x);
}

bool SchurComplementSolver::solveDenseComplement(const Vector& d1,
                                                 const Vector& d2,
                                                 const Matrix& g,
                                                 const Vector& r, Vector& x) {
  const std::size_t n1 = d1.size();
  const std::size_t n2 = d2.size();
  if (schur_.rows() != n2 || schur_.cols() != n2) schur_.resize(n2, n2, 0.0);
  schur_.fill(0.0);
  rhs_.resize(n2);
  for (std::size_t c = 0; c < n2; ++c) rhs_[c] = r[n1 + c];

  // S = diag(d2) - G^T diag(d1)^-1 G, accumulated row-by-row of G so the
  // inner loops stream one cached row; S is symmetric, fill the upper
  // triangle and mirror.
  for (std::size_t i = 0; i < n1; ++i) {
    const double invD = 1.0 / d1[i];
    const double scaledRes = r[i] * invD;
    const double* row = g.data() + i * n2;
    for (std::size_t c1 = 0; c1 < n2; ++c1) {
      const double gScaled = row[c1] * invD;
      rhs_[c1] += row[c1] * scaledRes;
      double* s = schur_.data() + c1 * n2;
      for (std::size_t c2 = c1; c2 < n2; ++c2) s[c2] -= gScaled * row[c2];
    }
  }
  for (std::size_t c1 = 0; c1 < n2; ++c1) {
    schur_(c1, c1) += d2[c1];
    for (std::size_t c2 = 0; c2 < c1; ++c2) schur_(c1, c2) = schur_(c2, c1);
  }

  if (!lu_.refactor(schur_)) return false;
  lu_.solveInPlace(rhs_);  // now x2

  x.resize(n1 + n2);
  for (std::size_t i = 0; i < n1; ++i) {
    double acc = r[i];
    const double* row = g.data() + i * n2;
    for (std::size_t c = 0; c < n2; ++c) acc += row[c] * rhs_[c];
    x[i] = acc / d1[i];
  }
  for (std::size_t c = 0; c < n2; ++c) x[n1 + c] = rhs_[c];
  return true;
}

bool SchurComplementSolver::solveIterative(const Vector& d1, const Vector& d2,
                                           const Matrix& g, const Vector& r,
                                           Vector& x) {
  const std::size_t n1 = d1.size();
  const std::size_t n2 = d2.size();

  // rhs2 = r2 + G^T (diag(d1)^-1 r1).
  t1_.resize(n1);
  for (std::size_t i = 0; i < n1; ++i) t1_[i] = r[i] / d1[i];
  rhs_.resize(n2);
  for (std::size_t c = 0; c < n2; ++c) rhs_[c] = r[n1 + c];
  for (std::size_t i = 0; i < n1; ++i) {
    const double* gRow = g.data() + i * n2;
    const double t1i = t1_[i];
    if (t1i == 0.0) continue;
    for (std::size_t c = 0; c < n2; ++c) rhs_[c] += gRow[c] * t1i;
  }

  // Exact Jacobi preconditioner: diag(S) = d2 - sum_i g(i,c)^2 / d1(i).
  invDiag_.assign(n2, 0.0);
  for (std::size_t i = 0; i < n1; ++i) {
    const double* gRow = g.data() + i * n2;
    const double invD1 = 1.0 / d1[i];
    for (std::size_t c = 0; c < n2; ++c) {
      invDiag_[c] += gRow[c] * gRow[c] * invD1;
    }
  }
  for (std::size_t c = 0; c < n2; ++c) {
    const double d = d2[c] - invDiag_[c];
    invDiag_[c] = std::fabs(d) > 1e-300 ? 1.0 / d : 1.0;
  }

  // Matrix-free S x = diag(d2) x - G^T (diag(d1)^-1 (G x)): O(n1 n2) per
  // application, never materialising the (fully dense) complement.
  const auto applyS = [&](const Vector& v, Vector& y) {
    for (std::size_t i = 0; i < n1; ++i) {
      const double* gRow = g.data() + i * n2;
      double acc = 0.0;
      for (std::size_t c = 0; c < n2; ++c) acc += gRow[c] * v[c];
      t1_[i] = acc / d1[i];
    }
    for (std::size_t c = 0; c < n2; ++c) y[c] = d2[c] * v[c];
    for (std::size_t i = 0; i < n1; ++i) {
      const double* gRow = g.data() + i * n2;
      const double t1i = t1_[i];
      if (t1i == 0.0) continue;
      for (std::size_t c = 0; c < n2; ++c) y[c] -= gRow[c] * t1i;
    }
  };

  if (!cgWs_) cgWs_ = std::make_unique<CgWorkspace>();
  x2_.assign(n2, 0.0);
  lastIterative_ = solveConjugateGradientOperator(
      n2, applyS, invDiag_, rhs_, x2_, kSchurCgRelTol, kSchurCgMaxIter,
      cgWs_.get());
  if (!lastIterative_.converged) return false;

  x.resize(n1 + n2);
  for (std::size_t i = 0; i < n1; ++i) {
    double acc = r[i];
    const double* gRow = g.data() + i * n2;
    for (std::size_t c = 0; c < n2; ++c) acc += gRow[c] * x2_[c];
    x[i] = acc / d1[i];
  }
  for (std::size_t c = 0; c < n2; ++c) x[n1 + c] = x2_[c];
  return true;
}

bool IncompleteCholesky::compute(const SparseMatrix& a) {
  valid_ = false;
  if (a.rows() != a.cols()) return false;
  n_ = a.rows();
  const auto& aRowPtr = a.rowPtr();
  const auto& aColIdx = a.colIdx();
  const auto& aValues = a.values();

  // Extract the lower-triangle structure (cols <= r, diagonal last in each
  // row since CSR rows are column-sorted). Buffers keep their allocation
  // across refactorisations of same-structure matrices.
  rowPtr_.resize(n_ + 1);
  rowPtr_[0] = 0;
  std::size_t nnz = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = aRowPtr[r]; k < aRowPtr[r + 1] && aColIdx[k] <= r; ++k) {
      ++nnz;
    }
    rowPtr_[r + 1] = nnz;
  }
  colIdx_.resize(nnz);
  val_.resize(nnz);
  for (std::size_t r = 0; r < n_; ++r) {
    std::size_t out = rowPtr_[r];
    for (std::size_t k = aRowPtr[r]; k < aRowPtr[r + 1] && aColIdx[k] <= r; ++k) {
      colIdx_[out] = aColIdx[k];
      val_[out] = aValues[k];
      ++out;
    }
    // IC(0) needs every diagonal entry present.
    if (rowPtr_[r + 1] == rowPtr_[r] || colIdx_[rowPtr_[r + 1] - 1] != r) {
      return false;
    }
  }

  // Up-looking factorisation restricted to the pattern of L:
  //   L(i,j) = (A(i,j) - sum_{p<j} L(i,p) L(j,p)) / L(j,j)     for j < i
  //   L(i,i) = sqrt(A(i,i) - sum_{p<i} L(i,p)^2)
  // The inner sums intersect two already-computed sparse rows (two-pointer
  // merge); with the ~7-entry stencil rows of the FV operators this is O(nnz).
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t rowBegin = rowPtr_[i];
    const std::size_t rowEnd = rowPtr_[i + 1];
    for (std::size_t idx = rowBegin; idx < rowEnd; ++idx) {
      const std::size_t j = colIdx_[idx];
      double s = val_[idx];
      const std::size_t jEnd = rowPtr_[j + 1] - 1;  // exclude L(j,j)
      std::size_t ka = rowBegin;
      std::size_t kb = rowPtr_[j];
      while (ka < idx && kb < jEnd) {
        const std::size_t ca = colIdx_[ka];
        const std::size_t cb = colIdx_[kb];
        if (ca == cb) {
          s -= val_[ka] * val_[kb];
          ++ka;
          ++kb;
        } else if (ca < cb) {
          ++ka;
        } else {
          ++kb;
        }
      }
      if (j < i) {
        val_[idx] = s / val_[jEnd];  // jEnd points at L(j,j)
      } else {
        if (!(s > 0.0) || !std::isfinite(s)) return false;  // not SPD
        val_[idx] = std::sqrt(s);
      }
    }
  }
  valid_ = true;
  return true;
}

void IncompleteCholesky::apply(const Vector& r, Vector& z) const {
  assert(valid_);
  assert(r.size() == n_);
  if (z.size() != n_) z.resize(n_);
  const double* val = val_.data();
  const std::size_t* col = colIdx_.data();
  // Forward solve L y = r (diagonal is the last entry of each row). The
  // gather is unrolled two-wide with independent accumulators -- the FV
  // stencil rows carry 3-4 strictly-lower entries, so wider unrolls only
  // add cleanup overhead.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t diag = rowPtr_[i + 1] - 1;
    std::size_t k = rowPtr_[i];
    double a0 = 0.0, a1 = 0.0;
    for (; k + 2 <= diag; k += 2) {
      a0 += val[k] * z[col[k]];
      a1 += val[k + 1] * z[col[k + 1]];
    }
    double acc = r[i] - (a0 + a1);
    for (; k < diag; ++k) acc -= val[k] * z[col[k]];
    z[i] = acc / val[diag];
  }
  // Backward solve L^T z = y, column-oriented over the rows of L (a scatter:
  // each row's updates hit distinct columns, so the pair is independent).
  for (std::size_t ii = n_; ii-- > 0;) {
    const std::size_t diag = rowPtr_[ii + 1] - 1;
    const double zi = z[ii] / val[diag];
    z[ii] = zi;
    std::size_t k = rowPtr_[ii];
    for (; k + 2 <= diag; k += 2) {
      z[col[k]] -= val[k] * zi;
      z[col[k + 1]] -= val[k + 1] * zi;
    }
    for (; k < diag; ++k) z[col[k]] -= val[k] * zi;
  }
}

IterativeResult solveConjugateGradient(const SparseMatrix& a, const Vector& b,
                                       Vector& x, const CgOptions& options,
                                       CgWorkspace* workspace) {
  const std::size_t n = b.size();
  assert(a.rows() == n && a.cols() == n);
  if (x.size() != n) x.assign(n, 0.0);

  CgWorkspace local;
  CgWorkspace& ws = workspace != nullptr ? *workspace : local;

  // Preconditioner ladder: Multigrid -> IC(0) -> Jacobi, each rung falling
  // back to the next when it is inapplicable or breaks down.
  bool useMg = options.preconditioner == CgPreconditioner::Multigrid;
  if (useMg) {
    if (!ws.mg_) ws.mg_ = std::make_unique<GeometricMultigrid>();
    if (options.reusePreconditioner && ws.mgFailed_) {
      useMg = false;  // same frozen matrix was already rejected once
    } else if (!(options.reusePreconditioner && ws.mg_->valid() &&
                 ws.mg_->fineMatrix() == &a)) {
      // The address check downgrades a reuse request on a *different*
      // matrix object to a rebuild: the hierarchy smooths through a pointer
      // to the fine matrix, unlike IC(0) which copies its factor.
      GeometricMultigrid::Options mgOptions;
      mgOptions.nx = options.gridNx;
      mgOptions.ny = options.gridNy;
      mgOptions.nz = options.gridNz;
      useMg = ws.mg_->compute(a, mgOptions);
      ws.mgFailed_ = !useMg;
    }
  }
  bool useIc =
      !useMg && options.preconditioner != CgPreconditioner::Jacobi;
  if (useIc) {
    if (options.reusePreconditioner && ws.icFailed_) {
      useIc = false;  // same frozen matrix already broke down once
    } else if (!(options.reusePreconditioner && ws.ic_.valid())) {
      useIc = ws.ic_.compute(a);  // breakdown -> Jacobi fallback
      ws.icFailed_ = !useIc;
    }
  }
  if (!useMg && !useIc) {
    // Jacobi preconditioner M^-1 = 1/diag(A).
    a.diagonalInto(ws.invDiag_);
    for (auto& d : ws.invDiag_) d = (std::fabs(d) > 1e-300) ? 1.0 / d : 1.0;
  }

  Vector& r = ws.r_;
  Vector& z = ws.z_;
  Vector& p = ws.p_;
  Vector& ap = ws.ap_;
  r.resize(n);
  z.resize(n);
  p.resize(n);
  ap.resize(n);

  a.multiplyInto(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  const double bNorm = norm2(b);
  if (bNorm == 0.0) {
    x.assign(n, 0.0);
    return {true, 0, 0.0};
  }

  const auto applyPreconditioner = [&] {
    if (useMg) {
      ws.mg_->apply(r, z);
    } else if (useIc) {
      ws.ic_.apply(r, z);
    } else {
      for (std::size_t i = 0; i < n; ++i) z[i] = ws.invDiag_[i] * r[i];
    }
  };

  applyPreconditioner();
  std::copy(z.begin(), z.end(), p.begin());
  double rz = dot(r, z);

  IterativeResult result;
  // Fault site: force an immediate non-converged return so tests can walk
  // the "CG did not converge" paths without constructing a hard system.
  if (faultinject::shouldFire("linsolve.cg")) {
    result.breakdown = true;
    return result;
  }
  for (std::size_t it = 0; it < options.maxIter; ++it) {
    checkCancellation("conjugate gradient");
    a.multiplyInto(p, ap);
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {  // not SPD, breakdown, or NaN/Inf poisoning
      result.breakdown = !std::isfinite(pap);
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double res = norm2(r) / bNorm;
    result.iterations = it + 1;
    result.residualNorm = res;
    if (!std::isfinite(res)) {  // fail fast instead of iterating to the cap
      result.breakdown = true;
      break;
    }
    if (res < options.relTol) {
      result.converged = true;
      return result;
    }
    applyPreconditioner();
    const double rzNew = dot(r, z);
    const double beta = rzNew / rz;
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

IterativeResult solveConjugateGradient(const SparseMatrix& a, const Vector& b,
                                       Vector& x, double relTol,
                                       std::size_t maxIter) {
  CgOptions options;
  options.relTol = relTol;
  options.maxIter = maxIter;
  return solveConjugateGradient(a, b, x, options, nullptr);
}

IterativeResult solveConjugateGradientOperator(
    std::size_t n, const std::function<void(const Vector&, Vector&)>& applyA,
    const Vector& invDiag, const Vector& b, Vector& x, double relTol,
    std::size_t maxIter, CgWorkspace* workspace) {
  assert(invDiag.size() == n && b.size() == n);
  if (x.size() != n) x.assign(n, 0.0);

  CgWorkspace local;
  CgWorkspace& ws = workspace != nullptr ? *workspace : local;
  Vector& r = ws.r_;
  Vector& z = ws.z_;
  Vector& p = ws.p_;
  Vector& ap = ws.ap_;
  r.resize(n);
  z.resize(n);
  p.resize(n);
  ap.resize(n);

  applyA(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  const double bNorm = norm2(b);
  if (bNorm == 0.0) {
    x.assign(n, 0.0);
    return {true, 0, 0.0};
  }

  for (std::size_t i = 0; i < n; ++i) z[i] = invDiag[i] * r[i];
  std::copy(z.begin(), z.end(), p.begin());
  double rz = dot(r, z);

  IterativeResult result;
  // Same fault site as the assembled-matrix CG: both are "CG convergence".
  if (faultinject::shouldFire("linsolve.cg")) {
    result.breakdown = true;
    return result;
  }
  for (std::size_t it = 0; it < maxIter; ++it) {
    checkCancellation("conjugate gradient");
    applyA(p, ap);
    const double pap = dot(p, ap);
    if (!(pap > 0.0)) {  // not SPD, breakdown, or NaN/Inf poisoning
      result.breakdown = !std::isfinite(pap);
      break;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double res = norm2(r) / bNorm;
    result.iterations = it + 1;
    result.residualNorm = res;
    if (!std::isfinite(res)) {  // fail fast instead of iterating to the cap
      result.breakdown = true;
      break;
    }
    if (res < relTol) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = invDiag[i] * r[i];
    const double rzNew = dot(r, z);
    const double beta = rzNew / rz;
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

Vector solveTridiagonal(const Vector& lower, const Vector& diag,
                        const Vector& upper, const Vector& rhs) {
  const std::size_t n = diag.size();
  if (lower.size() != n - 1 || upper.size() != n - 1 || rhs.size() != n) {
    throw std::invalid_argument("solveTridiagonal: size mismatch");
  }
  Vector c(n - 1), d(n);
  c[0] = upper[0] / diag[0];
  d[0] = rhs[0] / diag[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double m = diag[i] - lower[i - 1] * (i - 1 < c.size() ? c[i - 1] : 0.0);
    if (i < n - 1) c[i] = upper[i] / m;
    d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / m;
  }
  Vector x(n);
  x[n - 1] = d[n - 1];
  for (std::size_t ii = n - 1; ii-- > 0;) x[ii] = d[ii] - c[ii] * x[ii + 1];
  return x;
}

void SparseLu::computeOrdering(const SparseMatrix& a) {
  const auto& rowPtr = a.rowPtr();
  const auto& colIdx = a.colIdx();
  const std::size_t n = a.rows();
  perm_.resize(n);
  iperm_.resize(n);
  if (n == 0) return;

  // Symmetrised adjacency: the pattern of A + A^T with the diagonal
  // dropped. Entries present in both triangles appear twice; BFS dedups
  // them via the seen marks and RCM only uses degrees as a heuristic, so
  // the duplicates are harmless.
  std::vector<std::size_t> adjPtr(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      const std::size_t c = colIdx[k];
      if (c == r) continue;
      ++adjPtr[r + 1];
      ++adjPtr[c + 1];
    }
  }
  for (std::size_t v = 0; v < n; ++v) adjPtr[v + 1] += adjPtr[v];
  std::vector<std::size_t> adj(adjPtr[n]);
  std::vector<std::size_t> cursor(adjPtr.begin(), adjPtr.begin() + n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      const std::size_t c = colIdx[k];
      if (c == r) continue;
      adj[cursor[r]++] = c;
      adj[cursor[c]++] = r;
    }
  }
  std::vector<std::size_t> deg(n);
  for (std::size_t v = 0; v < n; ++v) deg[v] = adjPtr[v + 1] - adjPtr[v];
  const auto byDegree = [&](std::size_t x, std::size_t y) {
    return deg[x] < deg[y] || (deg[x] == deg[y] && x < y);
  };

  // Level-structure BFS with degree-sorted neighbour visits (Cuthill-McKee
  // order). Fills `out` with the start's component and returns a
  // minimum-degree vertex of the deepest level (for the pseudo-peripheral
  // start refinement).
  std::vector<std::size_t> seen(n, 0);
  std::size_t stamp = 0;
  const auto bfs = [&](std::size_t start, std::vector<std::size_t>& out) {
    ++stamp;
    out.clear();
    out.push_back(start);
    seen[start] = stamp;
    std::size_t levelBegin = 0;
    std::size_t levelEnd = 1;
    while (true) {
      for (std::size_t h = levelBegin; h < levelEnd; ++h) {
        const std::size_t v = out[h];
        const std::size_t first = out.size();
        for (std::size_t p = adjPtr[v]; p < adjPtr[v + 1]; ++p) {
          const std::size_t w = adj[p];
          if (seen[w] == stamp) continue;
          seen[w] = stamp;
          out.push_back(w);
        }
        std::sort(out.begin() + first, out.end(), byDegree);
      }
      if (out.size() == levelEnd) break;  // deepest level reached
      levelBegin = levelEnd;
      levelEnd = out.size();
    }
    return *std::min_element(out.begin() + levelBegin, out.begin() + levelEnd,
                             byDegree);
  };

  // Component starts: lowest-degree unvisited vertex, via a degree-sorted
  // candidate sweep (amortised O(n log n) across all components).
  std::vector<std::size_t> candidates(n);
  for (std::size_t v = 0; v < n; ++v) candidates[v] = v;
  std::sort(candidates.begin(), candidates.end(), byDegree);
  std::vector<char> placed(n, 0);
  std::vector<std::size_t> component;
  std::size_t next = 0;
  std::size_t written = 0;
  while (written < n) {
    while (placed[candidates[next]]) ++next;
    std::size_t start = candidates[next];
    // Two refinement sweeps toward a pseudo-peripheral vertex.
    for (int sweep = 0; sweep < 2; ++sweep) {
      const std::size_t far = bfs(start, component);
      if (far == start) break;
      start = far;
    }
    bfs(start, component);
    for (const std::size_t v : component) {
      placed[v] = 1;
      perm_[written++] = v;
    }
  }
  // Reverse Cuthill-McKee: reversing the CM order keeps the bandwidth and
  // tends to reduce fill in the triangular factors.
  std::reverse(perm_.begin(), perm_.end());
  for (std::size_t v = 0; v < n; ++v) iperm_[perm_[v]] = v;
}

bool SparseLu::refactor(const SparseMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("SparseLu: matrix must be square");
  }
  valid_ = false;
  n_ = a.rows();
  // Fault site: tests force the singular-factorisation exit to exercise the
  // sparse backend's failure handling.
  if (faultinject::shouldFire("linsolve.sparse_lu")) return false;
  const auto& aRowPtr = a.rowPtr();
  const auto& aColIdx = a.colIdx();
  const auto& aValues = a.values();
  const std::size_t nnz = aValues.size();

  // Reuse the fill-reducing ordering across same-structure refactors (the
  // Newton loop re-stamps values into an unchanged pattern).
  if (structRowPtr_ != aRowPtr || structColIdx_ != aColIdx) {
    computeOrdering(a);
    structRowPtr_ = aRowPtr;
    structColIdx_ = aColIdx;
  }

  // CSC copy of the symmetrically permuted matrix B = P A P^T (count /
  // cumsum / scatter). Row indices within a column follow the input's row
  // sweep, which keeps the DFS below deterministic.
  cscPtr_.assign(n_ + 1, 0);
  for (std::size_t k = 0; k < nnz; ++k) ++cscPtr_[iperm_[aColIdx[k]] + 1];
  for (std::size_t c = 0; c < n_; ++c) cscPtr_[c + 1] += cscPtr_[c];
  cscIdx_.resize(nnz);
  cscVal_.resize(nnz);
  pstack_.assign(cscPtr_.begin(), cscPtr_.begin() + n_);  // scatter cursors
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t pr = iperm_[r];
    for (std::size_t k = aRowPtr[r]; k < aRowPtr[r + 1]; ++k) {
      const std::size_t slot = pstack_[iperm_[aColIdx[k]]]++;
      cscIdx_[slot] = pr;
      cscVal_[slot] = aValues[k];
    }
  }

  // Left-looking Gilbert-Peierls with partial pivoting: for each column k,
  // solve x = L \ A(:,k) (symbolic reach by DFS through the graph of L,
  // then a sparse numeric forward substitution), pick the largest
  // unpivoted |x| as the pivot, and append the column to L and U. All row
  // indices stay in original (unpermuted) space until the final remap.
  lPtr_.assign(n_ + 1, 0);
  uPtr_.assign(n_ + 1, 0);
  lIdx_.clear();
  lVal_.clear();
  uIdx_.clear();
  uVal_.clear();
  pinv_.assign(n_, kUnpivoted);
  x_.assign(n_, 0.0);
  found_.assign(n_, 0);
  stack_.resize(n_);
  pstack_.resize(n_);
  xi_.resize(n_);

  for (std::size_t k = 0; k < n_; ++k) {
    lPtr_[k] = lVal_.size();
    uPtr_[k] = uVal_.size();
    const std::size_t mark = k + 1;

    // Symbolic: the nonzero pattern of x is the set of nodes reachable from
    // pattern(A(:,k)) through edges j -> rows(L(:, pinv[j])). xi_[top..n)
    // ends up in an order where every node precedes the nodes it updates.
    std::size_t top = n_;
    for (std::size_t p = cscPtr_[k]; p < cscPtr_[k + 1]; ++p) {
      const std::size_t root = cscIdx_[p];
      if (found_[root] == mark) continue;
      std::size_t head = 0;
      stack_[0] = root;
      while (true) {
        const std::size_t i = stack_[head];
        const std::size_t j = pinv_[i];
        if (found_[i] != mark) {
          found_[i] = mark;
          pstack_[head] = j == kUnpivoted ? 0 : lPtr_[j] + 1;  // skip unit diag
        }
        bool descend = false;
        if (j != kUnpivoted) {
          for (std::size_t q = pstack_[head]; q < lPtr_[j + 1]; ++q) {
            const std::size_t child = lIdx_[q];
            if (found_[child] != mark) {
              pstack_[head] = q + 1;
              stack_[++head] = child;
              descend = true;
              break;
            }
          }
        }
        if (descend) continue;
        xi_[--top] = i;
        if (head == 0) break;
        --head;
      }
    }

    // Numeric: scatter A(:,k), then eliminate along the topological order.
    for (std::size_t px = top; px < n_; ++px) x_[xi_[px]] = 0.0;
    for (std::size_t p = cscPtr_[k]; p < cscPtr_[k + 1]; ++p) {
      x_[cscIdx_[p]] = cscVal_[p];
    }
    for (std::size_t px = top; px < n_; ++px) {
      const std::size_t i = xi_[px];
      const std::size_t j = pinv_[i];
      if (j == kUnpivoted) continue;
      const double xj = x_[i];
      if (xj == 0.0) continue;
      for (std::size_t q = lPtr_[j] + 1; q < lPtr_[j + 1]; ++q) {
        x_[lIdx_[q]] -= lVal_[q] * xj;
      }
    }

    // Partial pivot over the unpivoted pattern rows; already-pivoted rows
    // are finished U entries.
    std::size_t ipiv = kUnpivoted;
    double best = 0.0;
    for (std::size_t px = top; px < n_; ++px) {
      const std::size_t i = xi_[px];
      if (pinv_[i] != kUnpivoted) {
        uIdx_.push_back(pinv_[i]);
        uVal_.push_back(x_[i]);
        continue;
      }
      const double t = std::fabs(x_[i]);
      if (ipiv == kUnpivoted || t > best) {
        best = t;
        ipiv = i;
      }
    }
    if (ipiv == kUnpivoted || best < 1e-300) return false;  // singular
    const double pivot = x_[ipiv];
    uIdx_.push_back(k);  // pivot stored last in the U column
    uVal_.push_back(pivot);
    pinv_[ipiv] = k;
    lIdx_.push_back(ipiv);  // unit diagonal stored first in the L column
    lVal_.push_back(1.0);
    const double invPivot = 1.0 / pivot;
    for (std::size_t px = top; px < n_; ++px) {
      const std::size_t i = xi_[px];
      if (pinv_[i] == kUnpivoted) {
        lIdx_.push_back(i);
        lVal_.push_back(x_[i] * invPivot);
      }
      x_[i] = 0.0;
    }
  }
  lPtr_[n_] = lVal_.size();
  uPtr_[n_] = uVal_.size();
  // Remap L's row indices into pivot space for the triangular solves.
  for (auto& idx : lIdx_) idx = pinv_[idx];
  valid_ = true;
  return true;
}

void SparseLu::solveInPlace(Vector& b) const {
  assert(valid_);
  if (b.size() != n_) {
    throw std::invalid_argument("SparseLu::solveInPlace: size mismatch");
  }
  scratch_.resize(n_);
  // Map b into the fill-reducing ordering and through the pivot permutation
  // in one gather; the result is scattered back below.
  for (std::size_t i = 0; i < n_; ++i) scratch_[pinv_[i]] = b[perm_[i]];
  // Forward solve L y = P b (unit diagonal is the first entry per column).
  for (std::size_t j = 0; j < n_; ++j) {
    const double xj = scratch_[j];
    if (xj == 0.0) continue;
    for (std::size_t p = lPtr_[j] + 1; p < lPtr_[j + 1]; ++p) {
      scratch_[lIdx_[p]] -= lVal_[p] * xj;
    }
  }
  // Backward solve U x = y (pivot is the last entry per column).
  for (std::size_t jj = n_; jj-- > 0;) {
    const std::size_t diag = uPtr_[jj + 1] - 1;
    const double xj = scratch_[jj] / uVal_[diag];
    scratch_[jj] = xj;
    if (xj == 0.0) continue;
    for (std::size_t p = uPtr_[jj]; p < diag; ++p) {
      scratch_[uIdx_[p]] -= uVal_[p] * xj;
    }
  }
  for (std::size_t i = 0; i < n_; ++i) b[perm_[i]] = scratch_[i];
}

}  // namespace nh::util

#include "util/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/spmv.hpp"
#include "util/threadpool.hpp"

namespace nh::util {

namespace {

/// Row range below which the SpMV stays on the calling thread: the fork/join
/// overhead of the shared pool only pays off for FEM-sized operators.
constexpr std::size_t kParallelSpmvMinRows = 16384;

std::uint64_t nextPatternId() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;  // first id is 1; 0 means "no pattern".
}

}  // namespace

void TripletBuilder::add(std::size_t r, std::size_t c, double value) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("TripletBuilder::add: index out of range");
  }
  entries_.push_back({r, c, value});
}

SparseMatrix SparseMatrix::fromTriplets(const TripletBuilder& builder) {
  SparseMatrix m;
  m.rows_ = builder.rows();
  m.cols_ = builder.cols();

  // Count entries per row, then bucket-sort into CSR order.
  std::vector<std::size_t> counts(m.rows_ + 1, 0);
  for (const auto& e : builder.entries()) counts[e.row + 1]++;
  for (std::size_t r = 0; r < m.rows_; ++r) counts[r + 1] += counts[r];

  std::vector<std::size_t> cols(builder.entryCount());
  std::vector<double> vals(builder.entryCount());
  {
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (const auto& e : builder.entries()) {
      const std::size_t slot = cursor[e.row]++;
      cols[slot] = e.col;
      vals[slot] = e.value;
    }
  }

  // Sort each row by column and merge duplicates. The sort must be stable so
  // duplicates accumulate in insertion order -- the exact summation order
  // SparsityPattern::assemble replays, keeping cached refills bit-identical.
  m.rowPtr_.assign(m.rows_ + 1, 0);
  m.colIdx_.reserve(cols.size());
  m.values_.reserve(vals.size());
  for (std::size_t r = 0; r < m.rows_; ++r) {
    const std::size_t begin = counts[r];
    const std::size_t end = counts[r + 1];
    std::vector<std::size_t> order(end - begin);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = begin + i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return cols[a] < cols[b]; });
    for (std::size_t i = 0; i < order.size();) {
      const std::size_t c = cols[order[i]];
      double acc = 0.0;
      while (i < order.size() && cols[order[i]] == c) {
        acc += vals[order[i]];
        ++i;
      }
      m.colIdx_.push_back(c);
      m.values_.push_back(acc);
    }
    m.rowPtr_[r + 1] = m.colIdx_.size();
  }
  return m;
}

Vector SparseMatrix::multiply(const Vector& x) const {
  Vector y(rows_, 0.0);
  multiplyInto(x, y);
  return y;
}

void SparseMatrix::multiplyInto(const Vector& x, Vector& y) const {
  assert(x.size() == cols_);
  assert(y.size() == rows_);
  // The row kernel (util/spmv) picks 4- or 8-accumulator blocking per row
  // width; the order per row is fixed, so results stay deterministic for any
  // thread count.
  const std::size_t* rp = rowPtr_.data();
  const std::size_t* col = colIdx_.data();
  const double* val = values_.data();
  const double* xs = x.data();
  double* ys = y.data();
  const auto rowRange = [&](std::size_t begin, std::size_t end) {
    spmv::rowRangeReference(rp, col, val, xs, ys, begin, end);
  };
  if (rows_ < kParallelSpmvMinRows) {
    rowRange(0, rows_);
    return;
  }
  ThreadPool& pool = ThreadPool::shared();
  if (pool.size() < 2) {  // single-core: fork/join is pure overhead
    rowRange(0, rows_);
    return;
  }
  const std::size_t chunks = std::min(rows_, pool.size() + 1);
  const std::size_t per = (rows_ + chunks - 1) / chunks;
  pool.parallelFor(chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * per;
    rowRange(begin, std::min(rows_, begin + per));
  });
}

void SparseMatrix::multiplyIntoReference(const Vector& x, Vector& y) const {
  assert(x.size() == cols_);
  assert(y.size() == rows_);
  spmv::rowRangeReference(rowPtr_.data(), colIdx_.data(), values_.data(),
                          x.data(), y.data(), 0, rows_);
}

SparseMatrix SparseMatrix::transposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.rowPtr_.assign(cols_ + 1, 0);
  for (const std::size_t c : colIdx_) t.rowPtr_[c + 1]++;
  for (std::size_t c = 0; c < cols_; ++c) t.rowPtr_[c + 1] += t.rowPtr_[c];
  t.colIdx_.resize(colIdx_.size());
  t.values_.resize(values_.size());
  std::vector<std::size_t> cursor(t.rowPtr_.begin(), t.rowPtr_.end() - 1);
  // Scanning rows in order writes each transposed row's entries with
  // increasing source row = sorted columns, preserving the CSR invariant.
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
      const std::size_t slot = cursor[colIdx_[k]]++;
      t.colIdx_[slot] = r;
      t.values_[slot] = values_[k];
    }
  }
  return t;
}

void multiplySparseInto(const SparseMatrix& a, const SparseMatrix& b,
                        SparseMatrix& out) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("multiplySparse: inner dimension mismatch");
  }
  out.rows_ = a.rows();
  out.cols_ = b.cols();
  out.patternId_ = 0;
  out.rowPtr_.assign(a.rows() + 1, 0);
  out.colIdx_.clear();
  out.values_.clear();
  // The Galerkin products this feeds roughly preserve nnz; reserving the
  // larger operand's count avoids most growth reallocations.
  out.colIdx_.reserve(std::max(a.nonZeros(), b.nonZeros()));
  out.values_.reserve(std::max(a.nonZeros(), b.nonZeros()));

  // Gustavson: per output row, scatter-accumulate into a dense workspace
  // keyed by column; a row-stamp marker detects first touches in O(1).
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::vector<double> acc(b.cols(), 0.0);
  std::vector<std::size_t> lastRow(b.cols(), kNever);
  std::vector<std::size_t> touched;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (std::size_t ka = a.rowPtr_[r]; ka < a.rowPtr_[r + 1]; ++ka) {
      const std::size_t mid = a.colIdx_[ka];
      const double av = a.values_[ka];
      for (std::size_t kb = b.rowPtr_[mid]; kb < b.rowPtr_[mid + 1]; ++kb) {
        const std::size_t col = b.colIdx_[kb];
        if (lastRow[col] != r) {
          lastRow[col] = r;
          acc[col] = 0.0;
          touched.push_back(col);
        }
        acc[col] += av * b.values_[kb];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const std::size_t col : touched) {
      out.colIdx_.push_back(col);
      out.values_.push_back(acc[col]);
    }
    out.rowPtr_[r + 1] = out.colIdx_.size();
  }
}

SparseMatrix multiplySparse(const SparseMatrix& a, const SparseMatrix& b) {
  SparseMatrix c;
  multiplySparseInto(a, b, c);
  return c;
}

bool SpGemmPlan::matches(const SparseMatrix& a, const SparseMatrix& b) const {
  return b.cols_ == bCols_ && a.rowPtr_ == aRowPtr_ && a.colIdx_ == aColIdx_ &&
         b.rowPtr_ == bRowPtr_ && b.colIdx_ == bColIdx_;
}

void SpGemmPlan::multiply(const SparseMatrix& a, const SparseMatrix& b,
                          SparseMatrix& out) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("SpGemmPlan::multiply: inner dimension mismatch");
  }
  if (id_ == 0 || !matches(a, b)) {
    // Structure changed (or first use): full symbolic + numeric SpGEMM, then
    // snapshot the structures so the next same-structure call can refill.
    multiplySparseInto(a, b, out);
    aRowPtr_ = a.rowPtr_;
    aColIdx_ = a.colIdx_;
    bRowPtr_ = b.rowPtr_;
    bColIdx_ = b.colIdx_;
    bCols_ = b.cols_;
    outRowPtr_ = out.rowPtr_;
    outColIdx_ = out.colIdx_;
    acc_.assign(b.cols(), 0.0);
    id_ = nextPatternId();
    out.patternId_ = id_;
    ++symbolicCount_;
    lastWasRefill_ = false;
    return;
  }
  // Refill path. Copy the cached product structure into `out` only when it
  // does not already carry it (same skip SparsityPattern::assemble uses).
  if (out.patternId_ != id_) {
    out.rows_ = aRowPtr_.size() - 1;
    out.cols_ = b.cols();
    out.rowPtr_ = outRowPtr_;
    out.colIdx_ = outColIdx_;
    out.values_.resize(outColIdx_.size());
    out.patternId_ = id_;
  }
  // Per row: zero the accumulator over exactly the product row's columns,
  // replay the Gustavson accumulation in its original order (bit-identical
  // sums), and gather back through the known structure. No sort, no
  // first-touch bookkeeping, no allocation.
  const std::size_t rows = outRowPtr_.size() - 1;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = outRowPtr_[r]; k < outRowPtr_[r + 1]; ++k) {
      acc_[outColIdx_[k]] = 0.0;
    }
    for (std::size_t ka = aRowPtr_[r]; ka < aRowPtr_[r + 1]; ++ka) {
      const std::size_t mid = aColIdx_[ka];
      const double av = a.values_[ka];
      for (std::size_t kb = bRowPtr_[mid]; kb < bRowPtr_[mid + 1]; ++kb) {
        acc_[bColIdx_[kb]] += av * b.values_[kb];
      }
    }
    for (std::size_t k = outRowPtr_[r]; k < outRowPtr_[r + 1]; ++k) {
      out.values_[k] = acc_[outColIdx_[k]];
    }
  }
  lastWasRefill_ = true;
}

void TransposePlan::transpose(const SparseMatrix& a, SparseMatrix& out) {
  if (id_ != 0 && a.rowPtr_ == aRowPtr_ && a.colIdx_ == aColIdx_) {
    if (out.patternId_ != id_) {
      out.rows_ = a.cols_;
      out.cols_ = a.rows_;
      out.rowPtr_ = outRowPtr_;
      out.colIdx_ = outColIdx_;
      out.values_.resize(outColIdx_.size());
      out.patternId_ = id_;
    }
    for (std::size_t k = 0; k < scatter_.size(); ++k) {
      out.values_[scatter_[k]] = a.values_[k];
    }
    lastWasRefill_ = true;
    return;
  }
  // Symbolic pass: the same counting sort as SparseMatrix::transposed, but
  // recording where each source slot lands so refills become a straight
  // value permutation.
  out = a.transposed();
  scatter_.resize(a.colIdx_.size());
  {
    std::vector<std::size_t> cursor(out.rowPtr_.begin(), out.rowPtr_.end() - 1);
    for (std::size_t r = 0; r < a.rows_; ++r) {
      for (std::size_t k = a.rowPtr_[r]; k < a.rowPtr_[r + 1]; ++k) {
        scatter_[k] = cursor[a.colIdx_[k]]++;
      }
    }
  }
  aRowPtr_ = a.rowPtr_;
  aColIdx_ = a.colIdx_;
  outRowPtr_ = out.rowPtr_;
  outColIdx_ = out.colIdx_;
  id_ = nextPatternId();
  out.patternId_ = id_;
  ++symbolicCount_;
  lastWasRefill_ = false;
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("SparseMatrix::at");
  const auto begin = colIdx_.begin() + static_cast<std::ptrdiff_t>(rowPtr_[r]);
  const auto end = colIdx_.begin() + static_cast<std::ptrdiff_t>(rowPtr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - colIdx_.begin())];
}

Vector SparseMatrix::diagonal() const {
  Vector d(rows_, 0.0);
  diagonalInto(d);
  return d;
}

void SparseMatrix::diagonalInto(Vector& d) const {
  if (d.size() != rows_) d.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) d[r] = r < cols_ ? at(r, r) : 0.0;
}

bool SparseMatrix::isSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
      const std::size_t c = colIdx_[k];
      if (std::fabs(values_[k] - at(c, r)) > tol) return false;
    }
  }
  return true;
}

SparsityPattern SparsityPattern::fromTriplets(const TripletBuilder& builder) {
  SparsityPattern p;
  p.rows_ = builder.rows();
  p.cols_ = builder.cols();
  p.id_ = nextPatternId();

  // Bucket entries per row, remembering each entry's insertion index.
  std::vector<std::size_t> counts(p.rows_ + 1, 0);
  for (const auto& e : builder.entries()) counts[e.row + 1]++;
  for (std::size_t r = 0; r < p.rows_; ++r) counts[r + 1] += counts[r];

  const std::size_t entryCount = builder.entryCount();
  std::vector<std::size_t> cols(entryCount);
  std::vector<std::size_t> origin(entryCount);
  {
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (std::size_t k = 0; k < entryCount; ++k) {
      const auto& e = builder.entries()[k];
      const std::size_t slot = cursor[e.row]++;
      cols[slot] = e.col;
      origin[slot] = k;
    }
  }

  // Column-sort each row (stable: duplicates keep insertion order, matching
  // fromTriplets), merge duplicates, and record each entry's CSR slot.
  p.rowPtr_.assign(p.rows_ + 1, 0);
  p.scatter_.resize(entryCount);
  for (std::size_t r = 0; r < p.rows_; ++r) {
    const std::size_t begin = counts[r];
    const std::size_t end = counts[r + 1];
    std::vector<std::size_t> order(end - begin);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = begin + i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return cols[a] < cols[b]; });
    for (std::size_t i = 0; i < order.size();) {
      const std::size_t c = cols[order[i]];
      const std::size_t slot = p.colIdx_.size();
      p.colIdx_.push_back(c);
      while (i < order.size() && cols[order[i]] == c) {
        p.scatter_[origin[order[i]]] = slot;
        ++i;
      }
    }
    p.rowPtr_[r + 1] = p.colIdx_.size();
  }
  return p;
}

void SparsityPattern::assemble(const TripletBuilder& builder,
                               SparseMatrix& out) const {
  if (builder.entryCount() != scatter_.size() || builder.rows() != rows_ ||
      builder.cols() != cols_) {
    throw std::invalid_argument(
        "SparsityPattern::assemble: builder does not match the pattern's "
        "stamp sequence");
  }
  if (out.patternId_ != id_) {
    out.rows_ = rows_;
    out.cols_ = cols_;
    out.rowPtr_ = rowPtr_;
    out.colIdx_ = colIdx_;
    out.values_.resize(colIdx_.size());
    out.patternId_ = id_;
  }
  std::fill(out.values_.begin(), out.values_.end(), 0.0);
  const auto& entries = builder.entries();
  for (std::size_t k = 0; k < entries.size(); ++k) {
    out.values_[scatter_[k]] += entries[k].value;
  }
}

}  // namespace nh::util

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

/// Row count below which the row-parallel kernels (SpMV, SpGEMM) stay on the
/// calling thread: the fork/join overhead of the shared pool only pays off
/// for FEM-sized operators.
constexpr std::size_t kParallelSpmvMinRows = 16384;

/// Row blocks a row-independent kernel splits into: one (serial) below the
/// size threshold or on a single-core pool -- where fork/join is pure
/// overhead -- else one per concurrent executor of the shared pool.
std::size_t parallelRowBlocks(std::size_t rows) {
  if (rows < kParallelSpmvMinRows) return 1;
  const std::size_t workers = ThreadPool::shared().size();
  return workers < 2 ? 1 : std::min(rows, workers + 1);
}

/// Gustavson rows [begin, end) of a * b, appended to \p cols / \p vals;
/// rowEnd[r + 1] receives row r's end offset into those arrays. Per output
/// row, products scatter-accumulate into a dense workspace keyed by column
/// (a row-stamp marker detects first touches in O(1)) in the operands'
/// storage order, so a row's sums do not depend on which block computes it.
void gustavsonRows(const SparseMatrix& a, const SparseMatrix& b,
                   std::size_t begin, std::size_t end,
                   std::vector<std::size_t>& cols, std::vector<double>& vals,
                   std::size_t* rowEnd) {
  const auto& aRowPtr = a.rowPtr();
  const auto& aColIdx = a.colIdx();
  const auto& aValues = a.values();
  const auto& bRowPtr = b.rowPtr();
  const auto& bColIdx = b.colIdx();
  const auto& bValues = b.values();
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::vector<double> acc(b.cols(), 0.0);
  std::vector<std::size_t> lastRow(b.cols(), kNever);
  std::vector<std::size_t> touched;
  for (std::size_t r = begin; r < end; ++r) {
    touched.clear();
    for (std::size_t ka = aRowPtr[r]; ka < aRowPtr[r + 1]; ++ka) {
      const std::size_t mid = aColIdx[ka];
      const double av = aValues[ka];
      for (std::size_t kb = bRowPtr[mid]; kb < bRowPtr[mid + 1]; ++kb) {
        const std::size_t col = bColIdx[kb];
        if (lastRow[col] != r) {
          lastRow[col] = r;
          acc[col] = 0.0;
          touched.push_back(col);
        }
        acc[col] += av * bValues[kb];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const std::size_t col : touched) {
      cols.push_back(col);
      vals.push_back(acc[col]);
    }
    rowEnd[r + 1] = cols.size();
  }
}

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
  const std::size_t chunks = parallelRowBlocks(rows_);
  if (chunks == 1) {
    rowRange(0, rows_);
    return;
  }
  const std::size_t per = (rows_ + chunks - 1) / chunks;
  ThreadPool::shared().parallelFor(chunks, [&](std::size_t chunk) {
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
  const std::size_t rows = a.rows();
  out.rows_ = rows;
  out.cols_ = b.cols();
  out.patternId_ = 0;
  out.rowPtr_.assign(rows + 1, 0);
  out.colIdx_.clear();
  out.values_.clear();
  // The Galerkin products this feeds roughly preserve nnz; reserving the
  // larger operand's count avoids most growth reallocations.
  const std::size_t nnzHint = std::max(a.nonZeros(), b.nonZeros());

  const std::size_t blocks = parallelRowBlocks(rows);
  if (blocks == 1) {
    out.colIdx_.reserve(nnzHint);
    out.values_.reserve(nnzHint);
    gustavsonRows(a, b, 0, rows, out.colIdx_, out.values_, out.rowPtr_.data());
    return;
  }

  // Each block runs the serial loop on its rows into private buffers (row
  // ends relative to the block), then a prefix sum over the block sizes
  // places every block in the joined arrays.
  struct Block {
    std::size_t begin = 0, end = 0, offset = 0;
    std::vector<std::size_t> cols;
    std::vector<double> vals;
  };
  std::vector<Block> parts(blocks);
  const std::size_t per = (rows + blocks - 1) / blocks;
  ThreadPool& pool = ThreadPool::shared();
  pool.parallelFor(blocks, [&](std::size_t k) {
    Block& part = parts[k];
    part.begin = std::min(rows, k * per);
    part.end = std::min(rows, part.begin + per);
    part.cols.reserve(nnzHint / blocks);
    part.vals.reserve(nnzHint / blocks);
    gustavsonRows(a, b, part.begin, part.end, part.cols, part.vals,
                  out.rowPtr_.data());
  });
  std::size_t total = 0;
  for (Block& part : parts) {
    part.offset = total;
    total += part.cols.size();
  }
  out.colIdx_.resize(total);
  out.values_.resize(total);
  pool.parallelFor(blocks, [&](std::size_t k) {
    const Block& part = parts[k];
    for (std::size_t r = part.begin; r < part.end; ++r) {
      out.rowPtr_[r + 1] += part.offset;
    }
    std::copy(part.cols.begin(), part.cols.end(),
              out.colIdx_.begin() + static_cast<std::ptrdiff_t>(part.offset));
    std::copy(part.vals.begin(), part.vals.end(),
              out.values_.begin() + static_cast<std::ptrdiff_t>(part.offset));
  });
}

SparseMatrix multiplySparse(const SparseMatrix& a, const SparseMatrix& b) {
  SparseMatrix c;
  multiplySparseInto(a, b, c);
  return c;
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

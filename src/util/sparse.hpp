#pragma once
/// \file sparse.hpp
/// Compressed-sparse-row matrix plus a triplet (COO) builder. Used by the
/// finite-volume PDE solvers in nh::fem, where systems reach ~10^6 unknowns.
///
/// For solvers that repeatedly assemble a matrix with a fixed sparsity
/// structure (every sweep point re-stamps the same grid), the symbolic work
/// (bucketing, column sorting, duplicate merging) is split from the numeric
/// work: SparsityPattern captures the structure of one stamp sequence once,
/// after which SparsityPattern::assemble() refills a SparseMatrix in O(nnz)
/// with no sorting and no allocation.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/matrix.hpp"

namespace nh::util {

/// Coordinate-format accumulator: duplicate entries are summed on conversion,
/// which is exactly what stamp-style FEM/MNA assembly wants.
class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  /// Accumulate \p value at (\p r, \p c).
  void add(std::size_t r, std::size_t c, double value);
  /// Drop all entries but keep the allocation, so a cached builder can be
  /// re-stamped every solve without touching the heap.
  void clear() { entries_.clear(); }
  /// Number of accumulated (possibly duplicate) entries.
  std::size_t entryCount() const { return entries_.size(); }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

class SparsityPattern;

/// CSR sparse matrix. Immutable through the public interface; refilled in
/// place by SparsityPattern::assemble() for structure-reusing solvers.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  /// Build from a triplet accumulator (duplicates summed, rows sorted).
  static SparseMatrix fromTriplets(const TripletBuilder& builder);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonZeros() const { return values_.size(); }

  /// y = A * x.
  Vector multiply(const Vector& x) const;
  /// y = A * x without allocation; \p y must have rows() elements. Rows run
  /// through spmv::rowRangeReference (util/spmv.hpp). Large matrices split
  /// the row range over the shared thread pool; the result is bit-identical
  /// to the serial loop for any thread count (each row is one independent
  /// ordered accumulation).
  void multiplyInto(const Vector& x, Vector& y) const;

  /// y = A * x on the same row kernel, single-threaded. The serial oracle
  /// the thread-pool split is verified against; tests assert multiplyInto
  /// agrees with this bit-for-bit.
  void multiplyIntoReference(const Vector& x, Vector& y) const;

  /// Transposed copy, O(nnz); rows of the result keep sorted columns. Used
  /// to derive the multigrid restriction from the prolongation (R = P^T).
  SparseMatrix transposed() const;

  /// Value at (r, c); zero when the entry is not stored. O(log nnz(row)).
  double at(std::size_t r, std::size_t c) const;
  /// Extract the diagonal (missing entries read as zero).
  Vector diagonal() const;
  /// Extract the diagonal into \p d without allocation.
  void diagonalInto(Vector& d) const;
  /// True when the matrix equals its transpose within \p tol (used by tests
  /// and to validate that FEM assembly produced a symmetric operator).
  bool isSymmetric(double tol = 1e-12) const;

  // Raw CSR access for solver kernels.
  const std::vector<std::size_t>& rowPtr() const { return rowPtr_; }
  const std::vector<std::size_t>& colIdx() const { return colIdx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  friend class SparsityPattern;
  friend void multiplySparseInto(const SparseMatrix&, const SparseMatrix&,
                                 SparseMatrix&);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colIdx_;
  std::vector<double> values_;
  /// Identity of the SparsityPattern whose structure this matrix carries
  /// (0 = none); lets assemble() skip the structure copy on refills.
  std::uint64_t patternId_ = 0;
};

/// Symbolic half of a CSR assembly: the merged, column-sorted structure of
/// one triplet stamp sequence plus the scatter map from each triplet entry
/// (in insertion order) to its CSR value slot.
///
/// Contract: every refill must issue the *same stamp sequence* (same
/// (row, col) pairs in the same order, values free to change) that built the
/// pattern -- exactly what a fixed-grid FEM/MNA assembly loop does. Duplicate
/// entries accumulate in insertion order both here and in
/// SparseMatrix::fromTriplets, so a cached refill is bit-identical to a fresh
/// build.
class SparsityPattern {
 public:
  SparsityPattern() = default;
  /// Symbolic phase: analyse \p builder once (bucket, stable-sort, merge).
  static SparsityPattern fromTriplets(const TripletBuilder& builder);

  bool empty() const { return rows_ == 0 && cols_ == 0; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonZeros() const { return colIdx_.size(); }
  /// Number of triplet entries the pattern was built from (every refill
  /// must present exactly this many).
  std::size_t entryCount() const { return scatter_.size(); }

  /// Numeric phase: refill \p out from \p builder in O(entryCount()).
  /// The structure is copied into \p out on first use; subsequent refills
  /// into the same matrix only rewrite the value array (no allocation).
  /// Throws std::invalid_argument when the entry count does not match.
  void assemble(const TripletBuilder& builder, SparseMatrix& out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colIdx_;
  std::vector<std::size_t> scatter_;  ///< triplet entry k -> CSR value slot.
  std::uint64_t id_ = 0;              ///< Process-unique (nonzero) identity.
};

/// Sparse-sparse product C = A * B (Gustavson row merge with a dense
/// accumulator; output rows column-sorted). The workhorse of the multigrid
/// Galerkin coarse-operator build A_c = R (A P).
SparseMatrix multiplySparse(const SparseMatrix& a, const SparseMatrix& b);

/// As multiplySparse, but writing into \p out: the CSR arrays are cleared
/// and refilled, so a caller that keeps \p out alive across calls reuses its
/// capacity instead of allocating a fresh product each time. Large products
/// split their rows into blocks over the shared thread pool (the SpMV
/// policy of multiplyInto); each row is accumulated exactly as the serial
/// loop does, so the result is bit-identical for any thread count.
void multiplySparseInto(const SparseMatrix& a, const SparseMatrix& b,
                        SparseMatrix& out);

}  // namespace nh::util

#include "util/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/spmv.hpp"

namespace nh::util {
namespace {

TEST(TripletBuilder, AccumulatesDuplicates) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  b.add(1, 1, 5.0);
  const auto m = SparseMatrix::fromTriplets(b);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_EQ(m.nonZeros(), 2u);
}

TEST(TripletBuilder, OutOfRangeThrows) {
  TripletBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 2, 1.0), std::out_of_range);
}

TEST(SparseMatrix, RowsSortedByColumn) {
  TripletBuilder b(1, 4);
  b.add(0, 3, 3.0);
  b.add(0, 1, 1.0);
  b.add(0, 2, 2.0);
  const auto m = SparseMatrix::fromTriplets(b);
  ASSERT_EQ(m.colIdx().size(), 3u);
  EXPECT_EQ(m.colIdx()[0], 1u);
  EXPECT_EQ(m.colIdx()[1], 2u);
  EXPECT_EQ(m.colIdx()[2], 3u);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  Rng rng(7);
  const std::size_t n = 20;
  TripletBuilder b(n, n);
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  for (int k = 0; k < 120; ++k) {
    const std::size_t r = rng.uniformInt(n);
    const std::size_t c = rng.uniformInt(n);
    const double v = rng.uniform(-1.0, 1.0);
    b.add(r, c, v);
    dense[r][c] += v;
  }
  const auto m = SparseMatrix::fromTriplets(b);
  Vector x(n);
  for (auto& xi : x) xi = rng.uniform(-1.0, 1.0);
  const Vector y = m.multiply(x);
  for (std::size_t r = 0; r < n; ++r) {
    double expect = 0.0;
    for (std::size_t c = 0; c < n; ++c) expect += dense[r][c] * x[c];
    EXPECT_NEAR(y[r], expect, 1e-12);
  }
}

TEST(SparseMatrix, Diagonal) {
  TripletBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(2, 2, 3.0);
  b.add(0, 1, 9.0);
  const auto m = SparseMatrix::fromTriplets(b);
  const Vector d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(SparseMatrix, SymmetryCheck) {
  TripletBuilder b(2, 2);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  EXPECT_TRUE(SparseMatrix::fromTriplets(b).isSymmetric());

  TripletBuilder b2(2, 2);
  b2.add(0, 1, 2.0);
  EXPECT_FALSE(SparseMatrix::fromTriplets(b2).isSymmetric());
}

TEST(SparseMatrix, AtOutOfRangeThrows) {
  TripletBuilder b(2, 2);
  const auto m = SparseMatrix::fromTriplets(b);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
}

TEST(SparseMatrix, TransposedMatchesAt) {
  Rng rng(11);
  TripletBuilder b(6, 9);
  for (int k = 0; k < 25; ++k) {
    b.add(rng.uniformInt(6), rng.uniformInt(9), rng.uniform(-2.0, 2.0));
  }
  const auto m = SparseMatrix::fromTriplets(b);
  const auto t = m.transposed();
  ASSERT_EQ(t.rows(), m.cols());
  ASSERT_EQ(t.cols(), m.rows());
  ASSERT_EQ(t.nonZeros(), m.nonZeros());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_DOUBLE_EQ(t.at(c, r), m.at(r, c));
    }
  }
  // CSR invariant: every transposed row keeps strictly increasing columns.
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t k = t.rowPtr()[r] + 1; k < t.rowPtr()[r + 1]; ++k) {
      EXPECT_LT(t.colIdx()[k - 1], t.colIdx()[k]);
    }
  }
}

TEST(SparseMatrix, MultiplySparseMatchesDenseProduct) {
  Rng rng(23);
  TripletBuilder ba(5, 7);
  TripletBuilder bb(7, 4);
  for (int k = 0; k < 20; ++k) {
    ba.add(rng.uniformInt(5), rng.uniformInt(7), rng.uniform(-1.0, 1.0));
    bb.add(rng.uniformInt(7), rng.uniformInt(4), rng.uniform(-1.0, 1.0));
  }
  const auto a = SparseMatrix::fromTriplets(ba);
  const auto b = SparseMatrix::fromTriplets(bb);
  const auto c = multiplySparse(a, b);
  ASSERT_EQ(c.rows(), 5u);
  ASSERT_EQ(c.cols(), 4u);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t col = 0; col < 4; ++col) {
      double ref = 0.0;
      for (std::size_t k = 0; k < 7; ++k) ref += a.at(r, k) * b.at(k, col);
      EXPECT_NEAR(c.at(r, col), ref, 1e-14) << r << "," << col;
    }
  }
  // Sorted-column invariant holds for the product rows too.
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t k = c.rowPtr()[r] + 1; k < c.rowPtr()[r + 1]; ++k) {
      EXPECT_LT(c.colIdx()[k - 1], c.colIdx()[k]);
    }
  }
}

TEST(SparseMatrix, MultiplySparseShapeMismatchThrows) {
  TripletBuilder ba(2, 3);
  TripletBuilder bb(2, 2);
  EXPECT_THROW(multiplySparse(SparseMatrix::fromTriplets(ba),
                              SparseMatrix::fromTriplets(bb)),
               std::invalid_argument);
}

// ---- SpMV row kernel ---------------------------------------------------------

/// Matrix whose row r has exactly rowWidths[r] entries at distinct random
/// columns -- the shape harness for the row-kernel sweeps.
SparseMatrix matrixWithRowWidths(const std::vector<std::size_t>& rowWidths,
                                 std::size_t cols, Rng& rng) {
  TripletBuilder b(rowWidths.size(), cols);
  std::vector<std::size_t> perm(cols);
  for (std::size_t r = 0; r < rowWidths.size(); ++r) {
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = 0; i < rowWidths[r]; ++i) {  // partial Fisher-Yates
      const std::size_t j = i + rng.uniformInt(cols - i);
      std::swap(perm[i], perm[j]);
      b.add(r, perm[i], rng.uniform(-2.0, 2.0));
    }
  }
  return SparseMatrix::fromTriplets(b);
}

TEST(SpMvKernel, ReferenceKernelMatchesNaiveSumOnAdversarialShapes) {
  // Every row shape the kernel branches on: empty rows, single entries,
  // widths straddling the 4-wide unroll (3/4/5), the wide-row threshold
  // (15/16/17), the 8-wide block boundary (23/24/25), stencil widths (7, 27),
  // and unaligned widths past the threshold.
  const std::vector<std::size_t> widths = {0,  1,  2,  3,  4,  5,  7,  8,
                                           9,  15, 16, 17, 23, 24, 25, 27,
                                           31, 32, 33, 0,  16, 1,  40, 27};
  Rng rng(913);
  const std::size_t cols = 64;
  const SparseMatrix m = matrixWithRowWidths(widths, cols, rng);
  Vector x(cols);
  for (auto& v : x) v = rng.uniform(-3.0, 3.0);

  Vector yRef(m.rows(), -1.0);
  spmv::rowRangeReference(m.rowPtr().data(), m.colIdx().data(),
                          m.values().data(), x.data(), yRef.data(), 0,
                          m.rows());
  // Empty rows must write an exact 0.0, not skip the slot.
  EXPECT_EQ(yRef[0], 0.0);
  EXPECT_EQ(yRef[19], 0.0);

  // The blocked accumulation agrees with the naive ordered sum within float
  // tolerance on every width.
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double naive = 0.0;
    for (std::size_t k = m.rowPtr()[r]; k < m.rowPtr()[r + 1]; ++k) {
      naive += m.values()[k] * x[m.colIdx()[k]];
    }
    EXPECT_NEAR(yRef[r], naive, 1e-12) << "row " << r << " width "
                                       << m.rowPtr()[r + 1] - m.rowPtr()[r];
  }
}

TEST(SpMvKernel, MultiplyIntoMatchesReferenceEntryPoint) {
  // The matrix-level entry points route through the same kernel: the
  // thread-pool multiplyInto must be bit-identical to the serial
  // multiplyIntoReference on a mixed narrow/wide operator with an unaligned
  // nnz total.
  Rng rng(77);
  std::vector<std::size_t> widths;
  for (std::size_t r = 0; r < 300; ++r) widths.push_back(r % 41);
  const std::size_t cols = 64;
  const SparseMatrix m = matrixWithRowWidths(widths, cols, rng);
  Vector x(cols);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  Vector yFast(m.rows(), 0.0), yRef(m.rows(), 0.0);
  m.multiplyInto(x, yFast);
  m.multiplyIntoReference(x, yRef);
  EXPECT_EQ(yFast, yRef);  // bit-identical
}

// ---- SpGemm / transpose plans ----------------------------------------------

/// Stamp the same random structure with values scaled by \p scale: re-runs
/// produce structurally identical matrices whose values differ -- the
/// frozen-hierarchy rebuild shape the plans exist for.
SparseMatrix stampScaled(std::size_t rows, std::size_t cols, int entries,
                         double scale, unsigned seed) {
  Rng rng(seed);
  TripletBuilder b(rows, cols);
  for (int k = 0; k < entries; ++k) {
    b.add(rng.uniformInt(rows), rng.uniformInt(cols),
          scale * rng.uniform(-1.0, 1.0));
  }
  return SparseMatrix::fromTriplets(b);
}

TEST(SpGemmPlan, RefillBitIdenticalToFreshSpGemm) {
  const auto a1 = stampScaled(40, 30, 220, 1.0, 5);
  const auto b1 = stampScaled(30, 35, 200, 1.0, 6);
  SpGemmPlan plan;
  SparseMatrix c;
  plan.multiply(a1, b1, c);
  EXPECT_FALSE(plan.lastWasRefill());
  EXPECT_EQ(plan.symbolicCount(), 1u);

  // Same structures, new values: the refill must be bit-identical to a
  // fresh Gustavson product (it replays the same accumulation order).
  const auto a2 = stampScaled(40, 30, 220, 1.7, 5);
  const auto b2 = stampScaled(30, 35, 200, -0.3, 6);
  ASSERT_EQ(a2.colIdx(), a1.colIdx());  // harness sanity: structure reused
  const double* valuesPtr = c.values().data();
  plan.multiply(a2, b2, c);
  EXPECT_TRUE(plan.lastWasRefill());
  EXPECT_EQ(plan.symbolicCount(), 1u);
  EXPECT_EQ(c.values().data(), valuesPtr);  // no reallocation

  const SparseMatrix fresh = multiplySparse(a2, b2);
  EXPECT_EQ(c.rowPtr(), fresh.rowPtr());
  EXPECT_EQ(c.colIdx(), fresh.colIdx());
  EXPECT_EQ(c.values(), fresh.values());  // bit-identical
}

TEST(SpGemmPlan, StructureChangeFallsBackToSymbolic) {
  SpGemmPlan plan;
  SparseMatrix c;
  plan.multiply(stampScaled(20, 20, 80, 1.0, 9), stampScaled(20, 20, 80, 1.0, 10),
                c);
  const auto aNew = stampScaled(20, 20, 95, 1.0, 11);  // different pattern
  const auto bNew = stampScaled(20, 20, 80, 1.0, 10);
  plan.multiply(aNew, bNew, c);
  EXPECT_FALSE(plan.lastWasRefill());
  EXPECT_EQ(plan.symbolicCount(), 2u);
  const SparseMatrix fresh = multiplySparse(aNew, bNew);
  EXPECT_EQ(c.colIdx(), fresh.colIdx());
  EXPECT_EQ(c.values(), fresh.values());

  // A fresh output matrix fed to a matching plan gets the cached structure
  // copied in (the SparsityPattern::assemble contract).
  SparseMatrix other;
  plan.multiply(aNew, bNew, other);
  EXPECT_TRUE(plan.lastWasRefill());
  EXPECT_EQ(other.colIdx(), fresh.colIdx());
  EXPECT_EQ(other.values(), fresh.values());
}

TEST(SpGemmPlan, ShapeMismatchThrows) {
  SpGemmPlan plan;
  SparseMatrix c;
  EXPECT_THROW(plan.multiply(stampScaled(4, 3, 6, 1.0, 1),
                             stampScaled(2, 2, 3, 1.0, 2), c),
               std::invalid_argument);
}

TEST(TransposePlan, RefillBitIdenticalToTransposed) {
  TransposePlan plan;
  SparseMatrix t;
  const auto a1 = stampScaled(25, 40, 160, 1.0, 21);
  plan.transpose(a1, t);
  EXPECT_FALSE(plan.lastWasRefill());
  EXPECT_EQ(plan.symbolicCount(), 1u);

  const auto a2 = stampScaled(25, 40, 160, 2.5, 21);  // values changed only
  const double* valuesPtr = t.values().data();
  plan.transpose(a2, t);
  EXPECT_TRUE(plan.lastWasRefill());
  EXPECT_EQ(plan.symbolicCount(), 1u);
  EXPECT_EQ(t.values().data(), valuesPtr);  // no reallocation
  const SparseMatrix fresh = a2.transposed();
  EXPECT_EQ(t.rowPtr(), fresh.rowPtr());
  EXPECT_EQ(t.colIdx(), fresh.colIdx());
  EXPECT_EQ(t.values(), fresh.values());  // bit-identical

  const auto aWider = stampScaled(25, 40, 200, 1.0, 22);  // new structure
  plan.transpose(aWider, t);
  EXPECT_FALSE(plan.lastWasRefill());
  EXPECT_EQ(plan.symbolicCount(), 2u);
  const SparseMatrix freshWider = aWider.transposed();
  EXPECT_EQ(t.colIdx(), freshWider.colIdx());
  EXPECT_EQ(t.values(), freshWider.values());
}

}  // namespace
}  // namespace nh::util

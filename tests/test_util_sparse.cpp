#include "util/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/fvstencil.hpp"
#include "util/multigrid.hpp"
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

// ---- row-parallel SpGEMM ------------------------------------------------------

/// CSR arrays of a product, as the serial oracle produces them.
struct CsrArrays {
  std::vector<std::size_t> rowPtr;
  std::vector<std::size_t> colIdx;
  std::vector<double> values;
};

/// Oracle for the row-blocked multiplySparseInto: the Gustavson loop over
/// all rows on one thread, with one dense accumulator, a row-stamp marker
/// for first touches and column-sorted output rows.
CsrArrays serialGustavson(const SparseMatrix& a, const SparseMatrix& b) {
  CsrArrays out;
  out.rowPtr.assign(a.rows() + 1, 0);
  constexpr std::size_t kNever = static_cast<std::size_t>(-1);
  std::vector<double> acc(b.cols(), 0.0);
  std::vector<std::size_t> lastRow(b.cols(), kNever);
  std::vector<std::size_t> touched;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (std::size_t ka = a.rowPtr()[r]; ka < a.rowPtr()[r + 1]; ++ka) {
      const std::size_t mid = a.colIdx()[ka];
      const double av = a.values()[ka];
      for (std::size_t kb = b.rowPtr()[mid]; kb < b.rowPtr()[mid + 1]; ++kb) {
        const std::size_t col = b.colIdx()[kb];
        if (lastRow[col] != r) {
          lastRow[col] = r;
          acc[col] = 0.0;
          touched.push_back(col);
        }
        acc[col] += av * b.values()[kb];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const std::size_t col : touched) {
      out.colIdx.push_back(col);
      out.values.push_back(acc[col]);
    }
    out.rowPtr[r + 1] = out.colIdx.size();
  }
  return out;
}

TEST(SpGemm, GalerkinProductsBitIdenticalToSerialOracle) {
  // A 32^3 FV operator has 32,768 rows: past the row-parallel threshold, so
  // on a host with >= 2 cores A * P splits its rows over the shared pool.
  // Every row is accumulated in the serial loop's order, so the joined CSR
  // arrays must equal the oracle's exactly for both Galerkin products.
  const std::size_t m = 32;
  const std::size_t mc = m / 2;
  const SparseMatrix a = makeSteadyFvOperator3d(m, 2.0);
  const SparseMatrix p = buildTrilinearProlongation(m, m, m, mc, mc, mc);
  const SparseMatrix r = p.transposed();

  const SparseMatrix ap = multiplySparse(a, p);
  const CsrArrays apRef = serialGustavson(a, p);
  EXPECT_EQ(ap.rowPtr(), apRef.rowPtr);
  EXPECT_EQ(ap.colIdx(), apRef.colIdx);
  EXPECT_EQ(ap.values(), apRef.values);  // bit-identical

  // Refilling a product that already holds data must not leak old entries.
  SparseMatrix rap = ap;
  multiplySparseInto(r, ap, rap);
  const CsrArrays rapRef = serialGustavson(r, ap);
  EXPECT_EQ(rap.rowPtr(), rapRef.rowPtr);
  EXPECT_EQ(rap.colIdx(), rapRef.colIdx);
  EXPECT_EQ(rap.values(), rapRef.values);
}

}  // namespace
}  // namespace nh::util

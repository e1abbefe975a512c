#include "util/linsolve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace nh::util {
namespace {

Matrix randomSpdDense(std::size_t n, Rng& rng) {
  // A = B^T B + n*I is SPD.
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  }
  Matrix a = b.transposed().multiply(b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  return a;
}

SparseMatrix toSparse(const Matrix& a) {
  TripletBuilder builder(a.rows(), a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != 0.0) builder.add(r, c, a(r, c));
    }
  }
  return SparseMatrix::fromTriplets(builder);
}

TEST(LuFactorization, SolvesKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = solveDense(a, Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuFactorization, PivotsZeroDiagonal) {
  // Leading zero forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solveDense(a, Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuFactorization, SingularReturnsNullopt) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(LuFactorization::factor(a).has_value());
  EXPECT_THROW(solveDense(a, Vector{1.0, 1.0}), std::runtime_error);
}

TEST(LuFactorization, ReusableForMultipleRhs) {
  const Matrix a{{4.0, 1.0}, {2.0, 3.0}};
  const auto lu = LuFactorization::factor(a);
  ASSERT_TRUE(lu.has_value());
  const Vector x1 = lu->solve(Vector{1.0, 0.0});
  const Vector x2 = lu->solve(Vector{0.0, 1.0});
  // A * x1 == e1, A * x2 == e2.
  EXPECT_NEAR(4 * x1[0] + 1 * x1[1], 1.0, 1e-12);
  EXPECT_NEAR(2 * x2[0] + 3 * x2[1], 1.0, 1e-12);
}

class SolverSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolverSizes, LuResidualSmallOnRandomSystems) {
  Rng rng(17 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = randomSpdDense(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = solveDense(a, b);
  const Vector ax = a.multiply(x);
  EXPECT_LT(norm2(subtract(ax, b)) / norm2(b), 1e-10);
}

TEST_P(SolverSizes, ConjugateGradientMatchesLu) {
  Rng rng(99 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = randomSpdDense(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector xRef = solveDense(a, b);

  Vector x;
  const auto result = solveConjugateGradient(toSparse(a), b, x, 1e-12, 10000);
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xRef[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverSizes,
                         ::testing::Values<std::size_t>(2, 5, 10, 25, 50));

TEST(ConjugateGradient, ZeroRhsGivesZero) {
  TripletBuilder builder(3, 3);
  for (std::size_t i = 0; i < 3; ++i) builder.add(i, i, 2.0);
  const auto a = SparseMatrix::fromTriplets(builder);
  Vector x{1.0, 1.0, 1.0};
  const auto result = solveConjugateGradient(a, Vector(3, 0.0), x);
  EXPECT_TRUE(result.converged);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  const Vector x = solveTridiagonal({1.0, 1.0}, {2.0, 2.0, 2.0}, {1.0, 1.0},
                                    {4.0, 8.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Tridiagonal, SizeMismatchThrows) {
  EXPECT_THROW(solveTridiagonal({1.0}, {2.0, 2.0, 2.0}, {1.0, 1.0}, {1.0, 1.0, 1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nh::util

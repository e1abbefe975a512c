/// Equivalence tests for the structure-reusing solver core: cached sparse
/// assembly vs fresh builds (bit-identical), IC(0)- vs Jacobi-preconditioned
/// CG (same solution, fewer iterations), dense LU refactor/solveInPlace vs
/// one-shot factor/solve, frozen-LU and chord-Newton SPICE transients vs
/// closed-form backward-Euler references, and the Schur-complement
/// line-network solve vs the seed dense factorisation.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "fem/geometry.hpp"
#include "fem/thermal.hpp"
#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/fvstencil.hpp"
#include "util/linsolve.hpp"
#include "util/multigrid.hpp"
#include "util/rng.hpp"
#include "util/sparse.hpp"
#include "xbar/fastsim.hpp"

namespace {

using nh::util::CgOptions;
using nh::util::CgPreconditioner;
using nh::util::CgWorkspace;
using nh::util::Matrix;
using nh::util::Rng;
using nh::util::SparseMatrix;
using nh::util::SparsityPattern;
using nh::util::TripletBuilder;
using nh::util::Vector;

// ---- cached assembly ---------------------------------------------------------

void stampRandom(TripletBuilder& b, Rng& rng, std::size_t n, int entries,
                 double scale) {
  for (int k = 0; k < entries; ++k) {
    b.add(rng.uniformInt(n), rng.uniformInt(n), scale * rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < n; ++i) b.add(i, i, scale * 10.0);
}

TEST(SparsityPattern, CachedRefillBitIdenticalToFreshBuild) {
  const std::size_t n = 30;
  Rng rng(321);
  TripletBuilder builder(n, n);
  stampRandom(builder, rng, n, 200, 1.0);

  const SparsityPattern pattern = SparsityPattern::fromTriplets(builder);
  SparseMatrix cached;
  pattern.assemble(builder, cached);
  const SparseMatrix fresh = SparseMatrix::fromTriplets(builder);

  ASSERT_EQ(cached.rowPtr(), fresh.rowPtr());
  ASSERT_EQ(cached.colIdx(), fresh.colIdx());
  ASSERT_EQ(cached.values(), fresh.values());  // bit-identical

  // Refill with different coefficients but the identical stamp sequence.
  Rng rng2(321);
  builder.clear();
  stampRandom(builder, rng2, n, 200, 3.5);
  pattern.assemble(builder, cached);
  const SparseMatrix fresh2 = SparseMatrix::fromTriplets(builder);
  ASSERT_EQ(cached.rowPtr(), fresh2.rowPtr());
  ASSERT_EQ(cached.colIdx(), fresh2.colIdx());
  ASSERT_EQ(cached.values(), fresh2.values());
}

TEST(SparsityPattern, MismatchedStampSequenceThrows) {
  TripletBuilder builder(4, 4);
  builder.add(0, 0, 1.0);
  builder.add(1, 2, 2.0);
  const SparsityPattern pattern = SparsityPattern::fromTriplets(builder);
  builder.add(3, 3, 4.0);  // extra entry: different sequence
  SparseMatrix out;
  EXPECT_THROW(pattern.assemble(builder, out), std::invalid_argument);
}

TEST(SparsityPattern, EmptyBuilderClearsKeepCapacity) {
  TripletBuilder builder(3, 3);
  builder.add(1, 1, 5.0);
  builder.clear();
  EXPECT_EQ(builder.entryCount(), 0u);
  builder.add(1, 1, 7.0);
  const auto m = SparseMatrix::fromTriplets(builder);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 7.0);
}

// ---- IC(0) preconditioned CG -------------------------------------------------

TEST(IncompleteCholesky, BreaksDownOnIndefiniteMatrix) {
  TripletBuilder b(2, 2);
  b.add(0, 0, -1.0);
  b.add(1, 1, 2.0);
  nh::util::IncompleteCholesky ic;
  EXPECT_FALSE(ic.compute(SparseMatrix::fromTriplets(b)));
  EXPECT_FALSE(ic.valid());
}

TEST(ConjugateGradient, Ic0MatchesJacobiAndConvergesFaster) {
  // The real FEM thermal system of a 3x3 crossbar model.
  nh::fem::CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.margin = 20e-9;
  const auto model = nh::fem::CrossbarModel3D::build(layout);
  nh::fem::ThermalScenario scenario;
  scenario.model = &model;
  scenario.cellPower = Matrix(3, 3, 0.0);
  scenario.cellPower(1, 1) = 1e-4;

  nh::fem::DiffusionOptions jacobi;
  jacobi.relTol = 1e-10;
  jacobi.preconditioner = CgPreconditioner::Jacobi;
  nh::fem::DiffusionOptions ic0;
  ic0.relTol = 1e-10;
  ic0.preconditioner = CgPreconditioner::IncompleteCholesky;

  const auto a = nh::fem::solveThermal(scenario, jacobi);
  const auto b = nh::fem::solveThermal(scenario, ic0);
  ASSERT_TRUE(a.converged());
  ASSERT_TRUE(b.converged());
  // Strictly fewer iterations with the stronger preconditioner.
  EXPECT_LT(b.stats.iterations, a.stats.iterations);
  // Same solution within the CG tolerance (fields are O(300..600) K).
  ASSERT_EQ(a.temperature.size(), b.temperature.size());
  for (std::size_t v = 0; v < a.temperature.size(); ++v) {
    EXPECT_NEAR(a.temperature[v], b.temperature[v], 1e-3);
  }
}

TEST(ConjugateGradient, WorkspaceReuseAcrossDifferentSystems) {
  // A shared workspace must not leak state between unrelated solves.
  Rng rng(7);
  CgWorkspace workspace;
  for (std::size_t n : {10u, 25u, 10u}) {
    TripletBuilder b(n, n);
    std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < r; ++c) {
        const double v = rng.uniform(-0.5, 0.5);
        b.add(r, c, v);
        b.add(c, r, v);
        dense[r][c] = dense[c][r] = v;
      }
      b.add(r, r, static_cast<double>(n));
      dense[r][r] = static_cast<double>(n);
    }
    const auto a = SparseMatrix::fromTriplets(b);
    Vector rhs(n);
    for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);

    CgOptions options;
    options.relTol = 1e-12;
    options.preconditioner = CgPreconditioner::IncompleteCholesky;
    Vector x;
    const auto stats = nh::util::solveConjugateGradient(a, rhs, x, options,
                                                        &workspace);
    ASSERT_TRUE(stats.converged);
    const Vector ax = a.multiply(x);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
  }
}

// ---- geometric multigrid -----------------------------------------------------

/// Steady FV heat operator on an m^3 grid: conditioning grows O(m^2), the
/// regime the multigrid preconditioner targets. Shared with the benchmarks
/// (util/fvstencil.hpp) so the asserted iteration scaling and the recorded
/// baseline describe the same operator.
SparseMatrix steadyFvOperator(std::size_t m, double scale) {
  return nh::util::makeSteadyFvOperator3d(m, scale);
}

TEST(GeometricMultigrid, ProlongationRowsSumToOne) {
  // Partition of unity: constants interpolate exactly, the property that
  // makes the coarse correction consistent.
  for (const auto [nx, ny, nz] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{8, 8, 8},
        {7, 5, 9},
        {4, 4, 6}}) {
    const auto p = nh::util::buildTrilinearProlongation(
        nx, ny, nz, (nx + 1) / 2, (ny + 1) / 2, (nz + 1) / 2);
    ASSERT_EQ(p.rows(), nx * ny * nz);
    for (std::size_t r = 0; r < p.rows(); ++r) {
      double sum = 0.0;
      for (std::size_t k = p.rowPtr()[r]; k < p.rowPtr()[r + 1]; ++k) {
        sum += p.values()[k];
      }
      EXPECT_NEAR(sum, 1.0, 1e-14) << "row " << r;
    }
  }
}

TEST(GeometricMultigrid, AgreesWithIc0AndJacobiWithinTolerance) {
  const std::size_t m = 12;
  const std::size_t n = m * m * m;
  const SparseMatrix a = steadyFvOperator(m, 2.0);
  Vector b(n);
  Rng rng(5);
  for (auto& v : b) v = rng.uniform(0.0, 1e-6);

  const auto solveWith = [&](CgPreconditioner pre, std::size_t* iters) {
    CgOptions options;
    options.relTol = 1e-10;
    options.preconditioner = pre;
    options.gridNx = m;
    options.gridNy = m;
    options.gridNz = m;
    Vector x(n, 0.0);
    CgWorkspace ws;
    const auto stats = nh::util::solveConjugateGradient(a, b, x, options, &ws);
    EXPECT_TRUE(stats.converged);
    if (iters != nullptr) *iters = stats.iterations;
    return x;
  };

  std::size_t itersJacobi = 0, itersIc = 0, itersMg = 0;
  const Vector xJacobi = solveWith(CgPreconditioner::Jacobi, &itersJacobi);
  const Vector xIc = solveWith(CgPreconditioner::IncompleteCholesky, &itersIc);
  const Vector xMg = solveWith(CgPreconditioner::Multigrid, &itersMg);
  // Solutions agree within the CG tolerance; the preconditioner ladder
  // strictly cuts iterations at each rung on this operator.
  const double fieldScale = nh::util::normInf(xJacobi);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(xIc[i], xJacobi[i], 1e-8 * fieldScale);
    EXPECT_NEAR(xMg[i], xJacobi[i], 1e-8 * fieldScale);
  }
  EXPECT_LT(itersIc, itersJacobi);
  EXPECT_LT(itersMg, itersIc);
}

TEST(GeometricMultigrid, IterationCountNearGridSizeIndependent) {
  // The whole point of GMG: iteration counts stay (near) flat as the grid
  // is refined, where IC(0)'s grow with the edge length.
  const auto iterationsAt = [](std::size_t m, CgPreconditioner pre) {
    const SparseMatrix a = steadyFvOperator(m, 2.0);
    Vector b(a.rows(), 1e-6);
    Vector x(a.rows(), 0.0);
    CgOptions options;
    options.relTol = 1e-8;
    options.preconditioner = pre;
    options.gridNx = m;
    options.gridNy = m;
    options.gridNz = m;
    CgWorkspace ws;
    const auto stats = nh::util::solveConjugateGradient(a, b, x, options, &ws);
    EXPECT_TRUE(stats.converged) << "m=" << m;
    return stats.iterations;
  };
  const std::size_t mgCoarse = iterationsAt(12, CgPreconditioner::Multigrid);
  const std::size_t mgFine = iterationsAt(24, CgPreconditioner::Multigrid);
  const std::size_t icCoarse =
      iterationsAt(12, CgPreconditioner::IncompleteCholesky);
  const std::size_t icFine =
      iterationsAt(24, CgPreconditioner::IncompleteCholesky);
  // GMG: at most a couple of extra iterations after doubling the edge.
  EXPECT_LE(mgFine, mgCoarse + 3);
  // IC(0): the count visibly grows -- the wall GMG removes.
  EXPECT_GT(icFine, icCoarse + 3);
  EXPECT_LT(mgFine, icFine);
}

TEST(GeometricMultigrid, FallsBackWithoutGridDimensions) {
  // Multigrid requested but no dims supplied: the solve must silently run
  // on the IC(0) rung and still converge to the right answer.
  const std::size_t m = 8;
  const SparseMatrix a = steadyFvOperator(m, 2.0);
  Vector b(a.rows(), 1e-6);
  Vector x(a.rows(), 0.0);
  CgOptions options;
  options.relTol = 1e-10;
  options.preconditioner = CgPreconditioner::Multigrid;  // gridN* left 0
  CgWorkspace ws;
  const auto stats = nh::util::solveConjugateGradient(a, b, x, options, &ws);
  ASSERT_TRUE(stats.converged);
  EXPECT_TRUE(ws.multigrid() == nullptr || !ws.multigrid()->valid());
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < a.rows(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-12);
}

TEST(GeometricMultigrid, FrozenHierarchyRecomputeBitIdenticalToFreshBuild) {
  // Same grid, new operator values: the second compute() reuses the
  // transfer operators and redoes the Galerkin products into the existing
  // level storage. The resulting V-cycle must be bit-identical to one from
  // a from-scratch hierarchy on the same matrix.
  const std::size_t m = 12;
  const SparseMatrix a1 = steadyFvOperator(m, 2.0);
  const SparseMatrix a2 = steadyFvOperator(m, 2.7);  // same structure
  nh::util::GeometricMultigrid::Options options;
  options.nx = options.ny = options.nz = m;

  nh::util::GeometricMultigrid reused;
  ASSERT_TRUE(reused.compute(a1, options));
  ASSERT_TRUE(reused.compute(a2, options));  // frozen-structure recompute

  nh::util::GeometricMultigrid fresh;
  ASSERT_TRUE(fresh.compute(a2, options));

  Vector r(a2.rows());
  Rng rng(31);
  for (auto& v : r) v = rng.uniform(-1.0, 1.0);
  Vector zReused, zFresh;
  reused.apply(r, zReused);
  fresh.apply(r, zFresh);
  EXPECT_EQ(zReused, zFresh);  // bit-identical
}

TEST(GeometricMultigrid, RejectsTinyGrids) {
  nh::util::GeometricMultigrid mg;
  const SparseMatrix a = steadyFvOperator(4, 1.0);  // 64 rows
  nh::util::GeometricMultigrid::Options options;
  options.nx = options.ny = options.nz = 4;
  EXPECT_FALSE(mg.compute(a, options));  // <= maxCoarseRows: IC(0) territory
  EXPECT_FALSE(mg.valid());
}

TEST(GeometricMultigrid, DiffusionSolverAutoUpgradeMatchesExplicitIc0Solution) {
  // A diffusion problem big enough to trip the auto-upgrade (lowered
  // threshold): the GMG solution must agree with IC(0)'s within tolerance.
  nh::fem::VoxelGrid grid(16, 16, 16, 2e-9);
  nh::fem::DiffusionProblem problem;
  problem.grid = &grid;
  problem.coefficient.assign(grid.voxelCount(), 1.5);
  problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
  problem.sourcePerVoxel[grid.index(8, 8, 12)] = 3e-6;
  problem.bottomPlaneValue = 300.0;

  nh::fem::DiffusionOptions upgraded;
  upgraded.relTol = 1e-10;
  upgraded.multigridMinVoxels = 1024;  // force the upgrade at 16^3
  nh::fem::DiffusionOptions plain;
  plain.relTol = 1e-10;
  plain.multigridMinVoxels = 0;  // stay on IC(0)

  const auto viaMg = nh::fem::solveDiffusion(problem, upgraded);
  const auto viaIc = nh::fem::solveDiffusion(problem, plain);
  ASSERT_TRUE(viaMg.converged());
  ASSERT_TRUE(viaIc.converged());
  EXPECT_LT(viaMg.stats.iterations, viaIc.stats.iterations);
  for (std::size_t v = 0; v < viaMg.field.size(); ++v) {
    EXPECT_NEAR(viaMg.field[v], viaIc.field[v], 1e-6);
  }
}

// ---- warm-started re-solves --------------------------------------------------

TEST(ConjugateGradient, WarmStartReducesIterationsOnPerturbedResolve) {
  const std::size_t m = 16;
  const std::size_t n = m * m * m;
  const SparseMatrix a = steadyFvOperator(m, 2.0);
  Vector b(n, 1e-6);
  CgOptions options;
  options.relTol = 1e-10;
  options.preconditioner = CgPreconditioner::IncompleteCholesky;
  CgWorkspace ws;

  Vector base(n, 0.0);
  const auto first = nh::util::solveConjugateGradient(a, b, base, options, &ws);
  ASSERT_TRUE(first.converged);

  // Perturb the load by 1% and re-solve cold vs warm.
  Vector bNext = b;
  for (auto& v : bNext) v *= 1.01;
  options.reusePreconditioner = true;  // matrix unchanged

  Vector cold(n, 0.0);
  const auto coldStats =
      nh::util::solveConjugateGradient(a, bNext, cold, options, &ws);
  Vector warm = base;
  const auto warmStats =
      nh::util::solveConjugateGradient(a, bNext, warm, options, &ws);
  ASSERT_TRUE(coldStats.converged);
  ASSERT_TRUE(warmStats.converged);
  EXPECT_LT(warmStats.iterations, coldStats.iterations);
  const double fieldScale = nh::util::normInf(cold);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(warm[i], cold[i], 1e-7 * fieldScale);
  }
}

// ---- dense LU reuse ----------------------------------------------------------

TEST(LuFactorization, RefactorAndSolveInPlaceMatchOneShot) {
  Rng rng(99);
  nh::util::LuFactorization lu;
  for (const std::size_t n : {4u, 12u, 4u}) {  // shrinking size reuses storage
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
      a(r, r) += static_cast<double>(n);
    }
    Vector b(n);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);

    ASSERT_TRUE(lu.refactor(a));
    ASSERT_TRUE(lu.valid());
    const auto oneShot = nh::util::LuFactorization::factor(a);
    ASSERT_TRUE(oneShot.has_value());
    const Vector xRef = oneShot->solve(b);

    const Vector xSolve = lu.solve(b);
    Vector xInPlace = b;
    lu.solveInPlace(xInPlace);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(xSolve[i], xRef[i]);
      EXPECT_DOUBLE_EQ(xInPlace[i], xRef[i]);
    }
  }
}

TEST(LuFactorization, RefactorSingularReturnsFalse) {
  nh::util::LuFactorization lu;
  EXPECT_FALSE(lu.refactor(Matrix{{1.0, 2.0}, {2.0, 4.0}}));
  EXPECT_FALSE(lu.valid());
  // Recovers on the next nonsingular refactor.
  EXPECT_TRUE(lu.refactor(Matrix{{2.0, 1.0}, {1.0, 3.0}}));
  const Vector x = lu.solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

// ---- SPICE factorisation reuse ----------------------------------------------

nh::spice::PulseSpec rcStep() {
  nh::spice::PulseSpec step;
  step.base = 0.0;
  step.amplitude = 1.0;
  step.delay = 0.0;
  step.rise = 1e-9;
  step.fall = 1e-9;
  step.width = 1.0;
  return step;
}

TEST(SpiceReuse, LinearTransientFrozenLuMatchesBackwardEulerRecurrence) {
  // A linear circuit factors once per dt and then only rebuilds the rhs
  // against the frozen LU. The reference is the backward-Euler RC update
  // evaluated on the returned time grid (which includes every dt change):
  //   (C/h + 1/R + gmin) v_k = (C/h) v_{k-1} + Vin(t_k)/R.
  using namespace nh::spice;
  constexpr double kR = 1000.0;
  constexpr double kC = 1e-9;
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(rcStep()));
  ckt.emplace<Resistor>("R1", in, out, kR);
  ckt.emplace<Capacitor>("C1", out, ckt.ground(), kC);
  TransientOptions opt;
  opt.tStop = 3e-6;
  opt.dtMax = 10e-9;
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "out")});
  ASSERT_TRUE(result.completed) << result.failureReason;

  const PulseWaveform vin(rcStep());
  const auto& v = result.seriesFor("v(out)");
  ASSERT_GT(v.size(), 100u);
  EXPECT_EQ(v[0], 0.0);
  double ref = 0.0;
  for (std::size_t k = 1; k < v.size(); ++k) {
    const double cOverH = kC / (result.time[k] - result.time[k - 1]);
    ref = (cOverH * ref + vin.value(result.time[k]) / kR) /
          (cOverH + 1.0 / kR + ckt.gmin());
    EXPECT_NEAR(v[k], ref, 1e-12) << "at sample " << k;
  }
  EXPECT_NEAR(v.back(), 1.0 - std::exp(-3.0), 0.01);
}

/// Minimal memristive model (same shape as the engine tests): conductance
/// grows with the integral of |v|, making every transient step nonlinear.
class ToyMemristor final : public nh::spice::MemristiveModel {
 public:
  double current(double v) const override { return g_ * v; }
  void advance(double v, double dt) override { g_ += growth(v, dt); }
  double conductanceNow() const { return g_; }
  static double growth(double v, double dt) {
    return 1e-2 * std::fabs(v) * dt / 1e-9;
  }
  static constexpr double kG0 = 1e-4;

 private:
  double g_ = kG0;
};

TEST(SpiceReuse, ChordNewtonMatchesClosedFormDividerWithinTolerance) {
  // Resistor into a memristor whose conductance only changes between steps:
  // within a step the divider is v = Vin / (1 + (g + gmin) R), and g then
  // advances by the accepted v over the accepted step. Chord-Newton's stale
  // LU (g drifts every step) must land on that fixed point within the
  // Newton tolerances, with the same state trajectory.
  using namespace nh::spice;
  constexpr double kR = 500.0;
  PulseSpec pulse;
  pulse.base = 0.0;
  pulse.amplitude = 1.0;
  pulse.delay = 20e-9;
  pulse.rise = 0.5e-9;
  pulse.fall = 0.5e-9;
  pulse.width = 30e-9;
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId mid = ckt.node("mid");
  ToyMemristor model;
  ckt.emplace<VoltageSource>("V1", in, ckt.ground(),
                             std::make_unique<PulseWaveform>(pulse));
  ckt.emplace<Resistor>("R1", in, mid, kR);
  ckt.emplace<Memristor>("M1", mid, ckt.ground(), &model);
  TransientOptions opt;
  opt.tStop = 100e-9;
  opt.dtMax = 1e-9;
  const auto result = runTransient(ckt, opt, {probeNodeVoltage(ckt, "mid")});
  ASSERT_TRUE(result.completed) << result.failureReason;

  const PulseWaveform vin(pulse);
  const auto& v = result.seriesFor("v(mid)");
  double g = ToyMemristor::kG0;
  double peak = 0.0;
  for (std::size_t k = 1; k < v.size(); ++k) {
    const double expected = vin.value(result.time[k]) / (1.0 + (g + ckt.gmin()) * kR);
    EXPECT_NEAR(v[k], expected, 1e-6) << "at sample " << k;
    g += ToyMemristor::growth(v[k], result.time[k] - result.time[k - 1]);
    peak = std::max(peak, std::fabs(v[k]));
  }
  EXPECT_NEAR(model.conductanceNow(), g, 1e-12 * g);
  // The pulse really drove the state: g grew by orders of magnitude.
  EXPECT_GT(g, 100.0 * ToyMemristor::kG0);
  EXPECT_GT(peak, 0.01);
}

// ---- Schur-complement line-network solve ------------------------------------

TEST(SchurComplementSolver, MatchesDenseSolveOnRandomBlockSystems) {
  Rng rng(77);
  nh::util::SchurComplementSolver solver;
  for (const auto [n1, n2] : {std::pair<std::size_t, std::size_t>{5, 5},
                              {12, 7},
                              {3, 9}}) {
    Matrix g(n1, n2);
    Vector d1(n1, 0.02), d2(n2, 0.02);  // driver conductance
    for (std::size_t r = 0; r < n1; ++r) {
      for (std::size_t c = 0; c < n2; ++c) {
        const double gc = std::pow(10.0, rng.uniform(-6.0, -3.0));
        g(r, c) = gc;
        d1[r] += gc;
        d2[c] += gc;
      }
    }
    Vector r(n1 + n2);
    for (auto& v : r) v = rng.uniform(-1e-3, 1e-3);

    // Reference: assemble the full Jacobian and solve densely.
    const std::size_t n = n1 + n2;
    Matrix j(n, n, 0.0);
    for (std::size_t i = 0; i < n1; ++i) j(i, i) = d1[i];
    for (std::size_t c = 0; c < n2; ++c) j(n1 + c, n1 + c) = d2[c];
    for (std::size_t i = 0; i < n1; ++i) {
      for (std::size_t c = 0; c < n2; ++c) {
        j(i, n1 + c) = -g(i, c);
        j(n1 + c, i) = -g(i, c);
      }
    }
    const Vector xRef = nh::util::solveDense(j, r);

    Vector x;
    ASSERT_TRUE(solver.solve(d1, d2, g, r, x));
    ASSERT_EQ(x.size(), xRef.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], xRef[i], 1e-9 * std::max(1.0, std::fabs(xRef[i])));
    }
  }
}

TEST(SchurComplementSolver, ShapeMismatchThrows) {
  nh::util::SchurComplementSolver solver;
  Vector x;
  EXPECT_THROW(solver.solve(Vector(2, 1.0), Vector(3, 1.0), Matrix(2, 2, 0.0),
                            Vector(5, 0.0), x),
               std::invalid_argument);
}

TEST(FastEngineSchur, MatchesDenseSolveOnRandomCrossbars) {
  Rng rng(2024);
  for (int trial = 0; trial < 3; ++trial) {
    nh::xbar::ArrayConfig cfg;
    cfg.rows = 4 + static_cast<std::size_t>(trial);  // non-square too
    cfg.cols = 6;
    nh::xbar::CrossbarArray dense(cfg);
    nh::xbar::CrossbarArray schur(cfg);
    for (std::size_t r = 0; r < cfg.rows; ++r) {
      for (std::size_t c = 0; c < cfg.cols; ++c) {
        const auto state = rng.uniform(0.0, 1.0) < 0.5 ? nh::xbar::CellState::Hrs
                                                       : nh::xbar::CellState::Lrs;
        dense.setState(r, c, state);
        schur.setState(r, c, state);
      }
    }
    nh::xbar::FastEngineOptions denseOpt;
    denseOpt.useSchurSolve = false;
    nh::xbar::FastEngineOptions schurOpt;
    schurOpt.useSchurSolve = true;
    nh::xbar::FastEngine engineDense(dense, nh::xbar::AlphaTable::analytic(50e-9),
                                     denseOpt);
    nh::xbar::FastEngine engineSchur(schur, nh::xbar::AlphaTable::analytic(50e-9),
                                     schurOpt);
    const auto bias = nh::xbar::selectBias(nh::xbar::BiasScheme::Half, cfg.rows,
                                           cfg.cols, 1, 2, 1.05);
    engineDense.applyBias(bias, 10e-9);
    engineSchur.applyBias(bias, 10e-9);

    const auto& lvDense = engineDense.lastLineVoltages();
    const auto& lvSchur = engineSchur.lastLineVoltages();
    ASSERT_EQ(lvDense.size(), lvSchur.size());
    for (std::size_t i = 0; i < lvDense.size(); ++i) {
      EXPECT_NEAR(lvDense[i], lvSchur[i], 1e-9) << "line " << i;
    }
    for (std::size_t r = 0; r < cfg.rows; ++r) {
      for (std::size_t c = 0; c < cfg.cols; ++c) {
        EXPECT_NEAR(dense.cell(r, c).temperature(), schur.cell(r, c).temperature(),
                    1e-6);
      }
    }
  }
}

// ---- FEM structure reuse -----------------------------------------------------

TEST(DiffusionSolver, CachedSolveMatchesFreshSolveBitIdentical) {
  nh::fem::VoxelGrid grid(6, 6, 6, 2e-9);
  nh::fem::DiffusionSolver solver;
  for (int sweep = 0; sweep < 4; ++sweep) {
    nh::fem::DiffusionProblem problem;
    problem.grid = &grid;
    // Values change, structure fixed; odd sweeps change only the source, so
    // the cached solve reuses its preconditioner.
    const double kappa = 1.0 + 0.5 * (sweep / 2);
    problem.coefficient.assign(grid.voxelCount(), kappa);
    problem.sourcePerVoxel.assign(grid.voxelCount(), 0.0);
    problem.sourcePerVoxel[grid.index(3, 3, 4)] = 2e-6 * (1 + sweep);
    problem.bottomPlaneValue = 300.0;

    const auto cached = solver.solve(problem, {1e-12, 20000});
    const auto fresh = nh::fem::solveDiffusion(problem, {1e-12, 20000});
    ASSERT_TRUE(cached.converged());
    ASSERT_TRUE(fresh.converged());
    ASSERT_EQ(cached.field.size(), fresh.field.size());
    for (std::size_t v = 0; v < cached.field.size(); ++v) {
      // Identical assembly + identical CG trajectory => identical bits.
      EXPECT_DOUBLE_EQ(cached.field[v], fresh.field[v]);
    }
    EXPECT_EQ(cached.stats.iterations, fresh.stats.iterations);
  }
}

TEST(DiffusionSolver, DetectsStructureChange) {
  nh::fem::VoxelGrid gridA(4, 4, 4, 1e-9);
  nh::fem::VoxelGrid gridB(5, 5, 5, 1e-9);
  nh::fem::DiffusionSolver solver;
  for (const auto* grid : {&gridA, &gridB, &gridA}) {
    nh::fem::DiffusionProblem problem;
    problem.grid = grid;
    problem.coefficient.assign(grid->voxelCount(), 2.0);
    problem.sourcePerVoxel.assign(grid->voxelCount(), 0.0);
    problem.sourcePerVoxel[grid->index(1, 1, 2)] = 1e-6;
    problem.bottomPlaneValue = 300.0;
    const auto cached = solver.solve(problem);
    const auto fresh = nh::fem::solveDiffusion(problem);
    ASSERT_TRUE(cached.converged());
    for (std::size_t v = 0; v < cached.field.size(); ++v) {
      EXPECT_DOUBLE_EQ(cached.field[v], fresh.field[v]);
    }
  }
}

// ---- size-selected Schur paths ----------------------------------------------

// Shared fixture: a random diagonally dominant bipartite block system plus
// its dense reference solution.
struct BlockSystem {
  Vector d1, d2, r, xRef;
  Matrix g;
};

BlockSystem makeBlockSystem(Rng& rng, std::size_t n1, std::size_t n2) {
  BlockSystem s;
  s.g = Matrix(n1, n2);
  s.d1 = Vector(n1, 0.02);
  s.d2 = Vector(n2, 0.02);
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t c = 0; c < n2; ++c) {
      const double gc = std::pow(10.0, rng.uniform(-6.0, -3.0));
      s.g(i, c) = gc;
      s.d1[i] += gc;
      s.d2[c] += gc;
    }
  }
  s.r = Vector(n1 + n2);
  for (auto& v : s.r) v = rng.uniform(-1e-3, 1e-3);
  const std::size_t n = n1 + n2;
  Matrix j(n, n, 0.0);
  for (std::size_t i = 0; i < n1; ++i) j(i, i) = s.d1[i];
  for (std::size_t c = 0; c < n2; ++c) j(n1 + c, n1 + c) = s.d2[c];
  for (std::size_t i = 0; i < n1; ++i) {
    for (std::size_t c = 0; c < n2; ++c) {
      j(i, n1 + c) = -s.g(i, c);
      j(n1 + c, i) = -s.g(i, c);
    }
  }
  s.xRef = nh::util::solveDense(j, s.r);
  return s;
}

/// Tolerance against the dense block reference: the dense-complement path
/// is a direct solve, the CG path stops at its relative tolerance.
double schurTolerance(std::size_t n2) {
  return n2 < nh::util::SchurComplementSolver::kIterativeMinCols ? 1e-9 : 1e-8;
}

TEST(SchurComplementSolver, DegenerateShapesMatchDense) {
  // 1xN, Nx1, and the single-cell 1x1 block system, plus a single word line
  // across the CG crossover: the Schur complement machinery must not assume
  // either block has more than one entry.
  Rng rng(321);
  nh::util::SchurComplementSolver solver;
  for (const auto& [n1, n2] : {std::pair<std::size_t, std::size_t>{1, 9},
                               {9, 1},
                               {1, 1},
                               {1, 128}}) {
    const BlockSystem s = makeBlockSystem(rng, n1, n2);
    Vector x;
    ASSERT_TRUE(solver.solve(s.d1, s.d2, s.g, s.r, x)) << n1 << "x" << n2;
    ASSERT_EQ(x.size(), s.xRef.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], s.xRef[i],
                  schurTolerance(n2) * std::max(1.0, std::fabs(s.xRef[i])))
          << n1 << "x" << n2 << " entry " << i;
    }
  }
}

TEST(SchurComplementSolver, ColumnCountSelectsDenseOrCgPath) {
  // 127 bit lines stay on the dense complement (no CG diagnostics); 128 is
  // the crossover, where the matrix-free CG carries the solve. Both must
  // match the dense block reference.
  ASSERT_EQ(nh::util::SchurComplementSolver::kIterativeMinCols, 128u);
  Rng rng(99);
  nh::util::SchurComplementSolver solver;
  for (const std::size_t n2 : {std::size_t{127}, std::size_t{128}}) {
    const BlockSystem s = makeBlockSystem(rng, 24, n2);
    Vector x;
    ASSERT_TRUE(solver.solve(s.d1, s.d2, s.g, s.r, x)) << "n2=" << n2;
    ASSERT_EQ(x.size(), s.xRef.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(x[i], s.xRef[i], 1e-8 * std::max(1.0, std::fabs(s.xRef[i])))
          << "n2=" << n2 << " entry " << i;
    }
    if (n2 < 128) {
      EXPECT_EQ(solver.lastIterative().iterations, 0u);
    } else {
      EXPECT_TRUE(solver.lastIterative().converged);
      EXPECT_GT(solver.lastIterative().iterations, 0u);
    }
  }
}

// ---- sparse LU ---------------------------------------------------------------

// 2D grid Laplacian numbered in the fill-hostile order the crossbar MNA
// produces naturally (all of one line family, then the other).
SparseMatrix gridSystem(std::size_t m, Rng& rng) {
  TripletBuilder b(m * m, m * m);
  const auto id = [m](std::size_t r, std::size_t c) { return r * m + c; };
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const double d = 4.2 + rng.uniform(0.0, 0.4);
      b.add(id(r, c), id(r, c), d);
      if (r + 1 < m) {
        b.add(id(r, c), id(r + 1, c), -1.0);
        b.add(id(r + 1, c), id(r, c), -1.0);
      }
      if (c + 1 < m) {
        b.add(id(r, c), id(r, c + 1), -1.0);
        b.add(id(r, c + 1), id(r, c), -1.0);
      }
    }
  }
  return SparseMatrix::fromTriplets(b);
}

TEST(SparseLu, MatchesDenseLuOnGridSystem) {
  Rng rng(7);
  const std::size_t m = 12;
  const SparseMatrix a = gridSystem(m, rng);
  const std::size_t n = a.rows();
  Matrix dense(n, n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = a.rowPtr()[r]; k < a.rowPtr()[r + 1]; ++k) {
      dense(r, a.colIdx()[k]) += a.values()[k];
    }
  }
  Vector b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector xRef = nh::util::solveDense(dense, b);

  nh::util::SparseLu lu;
  ASSERT_TRUE(lu.refactor(a));
  Vector x = b;
  lu.solveInPlace(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xRef[i], 1e-10);

  // The RCM ordering must keep the factors sparse: a banded factorisation
  // of an m x m grid stores O(n * m) entries, nowhere near the dense n^2
  // (which the natural-order elimination of this numbering approaches).
  EXPECT_LT(lu.factorNonZeros(), n * (4 * m));
}

TEST(SparseLu, SameStructureRefactorIsBitIdenticalToFresh) {
  Rng rng(11);
  const std::size_t m = 6;
  const SparseMatrix a1 = gridSystem(m, rng);
  const SparseMatrix a2 = gridSystem(m, rng);  // same pattern, new values

  nh::util::SparseLu reused;
  ASSERT_TRUE(reused.refactor(a1));
  ASSERT_TRUE(reused.refactor(a2));  // exercises the cached-ordering path

  nh::util::SparseLu fresh;
  ASSERT_TRUE(fresh.refactor(a2));

  Vector b(a2.rows());
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  Vector xReused = b, xFresh = b;
  reused.solveInPlace(xReused);
  fresh.solveInPlace(xFresh);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_DOUBLE_EQ(xReused[i], xFresh[i]);
  }
}

TEST(SparseLu, SingularMatrixReturnsFalse) {
  TripletBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 2.0);  // row 1 = 2 * row 0
  b.add(2, 2, 1.0);
  const SparseMatrix a = SparseMatrix::fromTriplets(b);
  nh::util::SparseLu lu;
  EXPECT_FALSE(lu.refactor(a));
  EXPECT_FALSE(lu.valid());
}

// ---- FastEngine Schur-path equivalence ---------------------------------------

TEST(FastEngineSchur, BothSchurPathsMatchTheDenseJacobian) {
  // A 7x9 array takes the dense-complement path, a 4x128 array the
  // matrix-free CG path; each must reproduce the full dense Jacobian solve
  // (useSchurSolve = false) on the same crossbar within solver tolerance.
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{7, 9}, {4, 128}}) {
    nh::xbar::ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    const auto runWith = [&](bool useSchur) {
      nh::xbar::CrossbarArray array(cfg);
      array.fill(nh::xbar::CellState::Hrs);
      array.setState(3, 4, nh::xbar::CellState::Lrs);
      array.setState(2, 6, nh::xbar::CellState::Lrs);
      nh::xbar::FastEngineOptions opt;
      opt.useSchurSolve = useSchur;
      nh::xbar::FastEngine engine(array, nh::xbar::AlphaTable::analytic(50e-9),
                                  opt);
      const auto bias = nh::xbar::selectBias(nh::xbar::BiasScheme::Half,
                                             cfg.rows, cfg.cols, 3, 4, 1.05);
      engine.applyBias(bias, 10e-9);
      return engine.lastLineVoltages();
    };
    const auto oracle = runWith(false);
    const auto schur = runWith(true);
    ASSERT_EQ(schur.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_NEAR(schur[i], oracle[i], 1e-9)
          << rows << "x" << cols << " line " << i;
    }
  }
}

}  // namespace

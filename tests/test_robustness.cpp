/// \file test_robustness.cpp
/// Fault-tolerance primitives and their end-to-end acceptance: cancellation
/// tokens/scopes, the fault-injection registry, parallelFor's
/// drain-after-throw contract, solver fault sites with their fallback
/// ladders, and the acceptance scenarios on a registered experiment (an
/// injected singular factorization or non-converged Newton solve flags
/// exactly one grid point; a cancelled-then-resumed run reproduces the
/// uninterrupted result exactly).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_registry.hpp"
#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/fvstencil.hpp"
#include "util/linsolve.hpp"
#include "util/multigrid.hpp"
#include "util/sparse.hpp"
#include "util/threadpool.hpp"

namespace {

using nh::util::CancellationScope;
using nh::util::CancellationSource;
using nh::util::CancellationToken;
using nh::util::CancelledError;
using nh::util::CgOptions;
using nh::util::CgPreconditioner;
using nh::util::CgWorkspace;
using nh::util::SparseMatrix;
using nh::util::TripletBuilder;
using nh::util::Vector;

// ---- cancellation primitives ------------------------------------------------

TEST(Cancellation, DefaultTokenIsNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.attached());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadlineExpired());
  EXPECT_NO_THROW(token.throwIfCancelled("unit"));
  // Outside any scope the ambient checkpoint is a no-op.
  EXPECT_NO_THROW(nh::util::checkCancellation("unit"));
}

TEST(Cancellation, ExplicitCancelTripsEveryOutstandingToken) {
  CancellationSource source;
  const CancellationToken token = source.token();
  EXPECT_TRUE(token.attached());
  EXPECT_FALSE(token.cancelled());

  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.deadlineExpired());
  try {
    token.throwIfCancelled("unit test site");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("unit test site"), std::string::npos);
    EXPECT_FALSE(e.deadlineExpired());
  }
}

TEST(Cancellation, ExpiredDeadlineReportsDeadlineExpired) {
  const CancellationSource expired = CancellationSource::withDeadline(-1.0);
  const CancellationToken token = expired.token();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.deadlineExpired());
  try {
    token.throwIfCancelled("deadline site");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_TRUE(e.deadlineExpired());
  }

  // A generous deadline has not expired yet.
  const CancellationSource future = CancellationSource::withDeadline(3600.0);
  EXPECT_FALSE(future.token().cancelled());
}

TEST(Cancellation, ScopeInstallsNestsAndRestoresTheAmbientToken) {
  EXPECT_FALSE(nh::util::currentCancellation().attached());

  CancellationSource outer;
  {
    CancellationScope outerScope(outer.token());
    EXPECT_TRUE(nh::util::currentCancellation().attached());
    EXPECT_NO_THROW(nh::util::checkCancellation("outer"));

    CancellationSource inner;
    inner.cancel();
    {
      CancellationScope innerScope(inner.token());
      EXPECT_THROW(nh::util::checkCancellation("inner"), CancelledError);
    }
    // The outer (uncancelled) token is restored on inner-scope exit.
    EXPECT_NO_THROW(nh::util::checkCancellation("outer again"));

    outer.cancel();
    EXPECT_THROW(nh::util::checkCancellation("outer cancelled"),
                 CancelledError);
  }
  EXPECT_FALSE(nh::util::currentCancellation().attached());
  EXPECT_NO_THROW(nh::util::checkCancellation("no scope"));
}

// ---- fault-injection registry ----------------------------------------------

/// The registry is process-global: every test arms from and tears down to a
/// clean slate so suites cannot leak policies into each other.
class FaultInject : public ::testing::Test {
 protected:
  void SetUp() override { nh::util::faultinject::clearAll(); }
  void TearDown() override { nh::util::faultinject::clearAll(); }
};

TEST_F(FaultInject, FiresExactlyOnTheNthMatchingCall) {
  namespace fi = nh::util::faultinject;
  EXPECT_FALSE(fi::enabled());
  EXPECT_FALSE(fi::shouldFire("unit.site"));  // unarmed: never fires

  fi::arm("unit.site", 3);
  EXPECT_TRUE(fi::enabled());
  EXPECT_FALSE(fi::fired("unit.site"));
  EXPECT_FALSE(fi::shouldFire("unit.site"));
  EXPECT_FALSE(fi::shouldFire("unit.site"));
  EXPECT_TRUE(fi::shouldFire("unit.site"));  // the 3rd call
  EXPECT_TRUE(fi::fired("unit.site"));
  EXPECT_FALSE(fi::shouldFire("unit.site"));  // fires exactly once
  EXPECT_GE(fi::callCount("unit.site"), 3u);
}

TEST_F(FaultInject, ScopeFilterOnlyCountsMatchingCalls) {
  namespace fi = nh::util::faultinject;
  fi::arm("unit.scoped", 1, "point:7");

  EXPECT_EQ(fi::currentScope(), "");
  EXPECT_FALSE(fi::shouldFire("unit.scoped"));  // unscoped call: not counted
  {
    fi::Scope wrong("point:3");
    EXPECT_EQ(fi::currentScope(), "point:3");
    EXPECT_FALSE(fi::shouldFire("unit.scoped"));
  }
  EXPECT_FALSE(fi::fired("unit.scoped"));
  {
    fi::Scope right("point:7");
    {
      fi::Scope nested("point:9");
      EXPECT_EQ(fi::currentScope(), "point:9");
      EXPECT_FALSE(fi::shouldFire("unit.scoped"));
    }
    EXPECT_EQ(fi::currentScope(), "point:7");  // nesting restores
    EXPECT_TRUE(fi::shouldFire("unit.scoped"));
  }
  EXPECT_TRUE(fi::fired("unit.scoped"));
}

TEST_F(FaultInject, RearmingResetsTheCounterAndDisarmRemoves) {
  namespace fi = nh::util::faultinject;
  fi::arm("unit.rearm", 2);
  EXPECT_FALSE(fi::shouldFire("unit.rearm"));  // call 1 of 2

  fi::arm("unit.rearm", 2);                    // re-arm: counter resets
  EXPECT_FALSE(fi::shouldFire("unit.rearm"));  // back to call 1 of 2
  EXPECT_TRUE(fi::shouldFire("unit.rearm"));

  fi::arm("unit.rearm", 1);
  fi::disarm("unit.rearm");
  EXPECT_FALSE(fi::enabled());
  EXPECT_FALSE(fi::shouldFire("unit.rearm"));
}

// ---- parallelFor fault semantics -------------------------------------------

TEST(ParallelForFaults, DrainsEveryIndexAfterABodyThrows) {
  std::atomic<std::size_t> visited{0};
  try {
    nh::util::parallelFor(
        64,
        [&](std::size_t i) {
          visited.fetch_add(1);
          if (i == 7) throw std::runtime_error("boom at seven");
        },
        4);
    FAIL() << "expected the body's exception at the barrier";
  } catch (const CancelledError&) {
    FAIL() << "a plain failure must not surface as cancellation";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index 7"), std::string::npos) << what;
    EXPECT_NE(what.find("boom at seven"), std::string::npos) << what;
  }
  // Per-slot isolation: the throw at index 7 must not strand the others.
  EXPECT_EQ(visited.load(), 64u);
}

TEST(ParallelForFaults, AlreadyCancelledAmbientTokenStopsClaimingIndices) {
  CancellationSource source;
  source.cancel();
  CancellationScope scope(source.token());

  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      nh::util::parallelFor(16, [&](std::size_t) { ran.fetch_add(1); }, 4),
      CancelledError);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ParallelForFaults, BodyThrownCancelledErrorPassesThroughUnwrapped) {
  EXPECT_THROW(nh::util::parallelFor(
                   8,
                   [&](std::size_t i) {
                     if (i == 3) throw CancelledError("body stop");
                   },
                   2),
               CancelledError);
}

// ---- solver fault sites and fallback ladders --------------------------------

class SolverFaults : public ::testing::Test {
 protected:
  void SetUp() override { nh::util::faultinject::clearAll(); }
  void TearDown() override { nh::util::faultinject::clearAll(); }
};

TEST_F(SolverFaults, CgFaultSiteReportsBreakdownThenRecovers) {
  namespace fi = nh::util::faultinject;
  const std::size_t m = 4;
  const SparseMatrix a = nh::util::makeSteadyFvOperator3d(m, 1.0);
  Vector b(a.rows(), 1.0);

  fi::arm("linsolve.cg", 1);
  Vector x(a.rows(), 0.0);
  const auto faulted = nh::util::solveConjugateGradient(a, b, x);
  EXPECT_FALSE(faulted.converged);
  EXPECT_TRUE(faulted.breakdown);
  EXPECT_TRUE(fi::fired("linsolve.cg"));

  fi::clearAll();
  Vector x2(a.rows(), 0.0);
  const auto clean = nh::util::solveConjugateGradient(a, b, x2);
  EXPECT_TRUE(clean.converged);
  EXPECT_FALSE(clean.breakdown);
}

TEST_F(SolverFaults, NonFiniteRhsFailsFastAsBreakdown) {
  const SparseMatrix a = nh::util::makeSteadyFvOperator3d(4, 1.0);
  Vector b(a.rows(), 1.0);
  b[5] = std::numeric_limits<double>::quiet_NaN();

  Vector x(a.rows(), 0.0);
  const auto r = nh::util::solveConjugateGradient(a, b, x);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.breakdown);
  // Fail-fast: the guard trips within the first iterations instead of
  // spinning to maxIter on poisoned values.
  EXPECT_LE(r.iterations, 2u);
}

TEST_F(SolverFaults, MultigridSetupRejectsAZeroDiagonalRecoverably) {
  // 7-point Laplacian on a 5x5x5 grid (125 rows clears the 64-row floor),
  // with one diagonal entry zeroed: the Gauss-Seidel smoothers divide by the
  // diagonal, so setup must report failure instead of building a hierarchy
  // that produces NaNs (the seed asserted here, which NDEBUG silently
  // skipped).
  const std::size_t m = 5;
  const std::size_t n = m * m * m;
  TripletBuilder builder(n, n);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t row = (k * m + j) * m + i;
        builder.add(row, row, row == 62 ? 0.0 : 6.0);
        if (i > 0) builder.add(row, row - 1, -1.0);
        if (i + 1 < m) builder.add(row, row + 1, -1.0);
        if (j > 0) builder.add(row, row - m, -1.0);
        if (j + 1 < m) builder.add(row, row + m, -1.0);
        if (k > 0) builder.add(row, row - m * m, -1.0);
        if (k + 1 < m) builder.add(row, row + m * m, -1.0);
      }
    }
  }
  const SparseMatrix bad = SparseMatrix::fromTriplets(builder);

  nh::util::GeometricMultigrid mg;
  nh::util::GeometricMultigrid::Options options;
  options.nx = options.ny = options.nz = m;
  EXPECT_FALSE(mg.compute(bad, options));
  EXPECT_FALSE(mg.valid());

  // Control: the well-formed operator of the same size builds a hierarchy.
  const SparseMatrix good = nh::util::makeSteadyFvOperator3d(m, 1.0);
  EXPECT_TRUE(mg.compute(good, options));
  EXPECT_TRUE(mg.valid());
  EXPECT_GE(mg.levelCount(), 2u);
}

TEST_F(SolverFaults, MultigridSetupFaultTripsTheFallbackLadder) {
  namespace fi = nh::util::faultinject;
  const std::size_t m = 8;
  const std::size_t n = m * m * m;
  const SparseMatrix a = nh::util::makeSteadyFvOperator3d(m, 2.0);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = 1e-6 * double(i % 17);

  fi::arm("multigrid.setup", 1);
  CgOptions options;
  options.relTol = 1e-10;
  options.preconditioner = CgPreconditioner::Multigrid;
  options.gridNx = options.gridNy = options.gridNz = m;
  Vector x(n, 0.0);
  CgWorkspace workspace;
  const auto stats =
      nh::util::solveConjugateGradient(a, b, x, options, &workspace);

  // The injected setup failure must not fail the solve: the ladder falls
  // back to IC(0)/Jacobi and still converges.
  EXPECT_TRUE(fi::fired("multigrid.setup"));
  ASSERT_TRUE(stats.converged);
  const Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST_F(SolverFaults, NewtonFaultSiteFailsTheDcSolveCleanly) {
  namespace fi = nh::util::faultinject;
  // The circuit must be nonlinear: linear circuits take the single-solve
  // fast path that never enters the Newton loop (where the site lives).
  nh::spice::Circuit ckt;
  const nh::spice::NodeId in = ckt.node("in");
  const nh::spice::NodeId mid = ckt.node("mid");
  ckt.emplace<nh::spice::VoltageSource>("V1", in, ckt.ground(), 10.0);
  ckt.emplace<nh::spice::Resistor>("R1", in, mid, 1000.0);
  ckt.emplace<nh::spice::Diode>("D1", mid, ckt.ground());

  fi::arm("spice.newton", 1);
  const nh::spice::SolveResult faulted = nh::spice::solveDc(ckt);
  EXPECT_FALSE(faulted.converged);
  EXPECT_TRUE(fi::fired("spice.newton"));

  fi::clearAll();
  const nh::spice::SolveResult clean = nh::spice::solveDc(ckt);
  ASSERT_TRUE(clean.converged);
  // Forward diode drop: a few hundred millivolts at ~9 mA.
  EXPECT_GT(clean.x[mid - 1], 0.3);
  EXPECT_LT(clean.x[mid - 1], 1.0);
}

// ---- registered-experiment acceptance ---------------------------------------

class RegisteredExperimentFaults : public ::testing::Test {
 protected:
  void SetUp() override { nh::util::faultinject::clearAll(); }
  void TearDown() override { nh::util::faultinject::clearAll(); }
};

TEST_F(RegisteredExperimentFaults, InjectedSingularFactorizationFlagsOneRow) {
  namespace fi = nh::util::faultinject;
  using nh::core::PointOutcome;

  nh::core::RunOptions options;
  options.fast = true;
  options.threads = 2;

  const nh::core::ExperimentResult reference = nh::core::runExperiment(
      nh::core::makeExperiment("fig3b_electrode_spacing"), options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.rows.size(), 3u);

  // Fail the first dense factorization inside grid point 1 only. The scope
  // filter makes this deterministic at any thread count: calls made during
  // study construction or by other points never match "point:1".
  fi::arm("linsolve.dense_lu", 1, "point:1");
  options.onPointFailure = nh::core::PointFailurePolicy::Skip;
  const nh::core::ExperimentResult degraded = nh::core::runExperiment(
      nh::core::makeExperiment("fig3b_electrode_spacing"), options);
  EXPECT_TRUE(fi::fired("linsolve.dense_lu"));

  EXPECT_FALSE(degraded.complete());
  EXPECT_EQ(degraded.pointsFailed, 1u);
  EXPECT_EQ(degraded.pointsOk, 2u);
  ASSERT_EQ(degraded.rows.size(), reference.rows.size());
  ASSERT_EQ(degraded.outcomes.size(), 3u);

  EXPECT_EQ(degraded.outcomes[1].status, PointOutcome::Status::Failed);
  EXPECT_FALSE(degraded.outcomes[1].error.empty());
  for (const auto& cell : degraded.rows[1]) {
    EXPECT_EQ(cell, nh::core::ResultValue::str("-"));
  }
  // Every other row is bit-identical to the fault-free baseline.
  EXPECT_EQ(degraded.outcomes[0].status, PointOutcome::Status::Ok);
  EXPECT_EQ(degraded.outcomes[2].status, PointOutcome::Status::Ok);
  EXPECT_EQ(degraded.rows[0], reference.rows[0]);
  EXPECT_EQ(degraded.rows[2], reference.rows[2]);
}

TEST_F(RegisteredExperimentFaults, DeviceAndLineNetworkNewtonFailuresFlagOneRow) {
  // The JART conduction solve and the line-network Newton loop report a
  // non-converged solve as SolverError; under keep-going (Skip) it becomes a
  // structured Failed outcome naming the solve, and the other rows are
  // untouched.
  namespace fi = nh::util::faultinject;
  using nh::core::PointOutcome;

  nh::core::RunOptions options;
  options.fast = true;
  options.threads = 2;
  const nh::core::ExperimentResult reference = nh::core::runExperiment(
      nh::core::makeExperiment("fig3b_electrode_spacing"), options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.rows.size(), 3u);

  options.onPointFailure = nh::core::PointFailurePolicy::Skip;
  for (const char* site : {"jart.conduction", "fastsim.newton"}) {
    SCOPED_TRACE(site);
    fi::clearAll();
    fi::arm(site, 1, "point:1");
    const nh::core::ExperimentResult degraded = nh::core::runExperiment(
        nh::core::makeExperiment("fig3b_electrode_spacing"), options);
    EXPECT_TRUE(fi::fired(site));
    EXPECT_EQ(degraded.pointsFailed, 1u);
    EXPECT_EQ(degraded.pointsOk, 2u);
    ASSERT_EQ(degraded.outcomes.size(), 3u);
    EXPECT_EQ(degraded.outcomes[1].status, PointOutcome::Status::Failed);
    EXPECT_NE(degraded.outcomes[1].error.find(site), std::string::npos)
        << degraded.outcomes[1].error;
    EXPECT_EQ(degraded.rows[0], reference.rows[0]);
    EXPECT_EQ(degraded.rows[2], reference.rows[2]);
  }
}

TEST_F(RegisteredExperimentFaults, SneakPathDcFailureFlagsThePoint) {
  // analyzeSneak reports a non-converged DC solve as
  // SolverError("spice.newton"), so under keep-going the point settles as a
  // Failed outcome that names the solve.
  namespace fi = nh::util::faultinject;
  using nh::core::PointOutcome;

  nh::core::RunOptions options;
  options.fast = true;
  options.threads = 1;
  options.axisOverrides = {{"size", {5}}, {"scheme", {0}}};
  options.onPointFailure = nh::core::PointFailurePolicy::Skip;
  fi::arm("spice.newton", 1);
  const nh::core::ExperimentResult result = nh::core::runExperiment(
      nh::core::makeExperiment("sneak_path_margin"), options);
  EXPECT_TRUE(fi::fired("spice.newton"));
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.pointsFailed, 1u);
  EXPECT_EQ(result.outcomes[0].status, PointOutcome::Status::Failed);
  EXPECT_EQ(result.outcomes[0].error.rfind("spice.newton", 0), 0u)
      << result.outcomes[0].error;
}

TEST_F(RegisteredExperimentFaults, CancelledThenResumedRunMatchesExactly) {
  using nh::core::PointOutcome;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "nh_ckpt_fig3b";
  std::filesystem::remove_all(dir);

  nh::core::RunOptions options;
  options.fast = true;
  options.threads = 1;  // deterministic settle order for the mid-run cancel

  const nh::core::ExperimentResult reference = nh::core::runExperiment(
      nh::core::makeExperiment("fig3b_electrode_spacing"), options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.rows.size(), 3u);

  // Interrupt after two settled points.
  CancellationSource source;
  nh::core::RunOptions interruptedOptions = options;
  interruptedOptions.checkpointDir = dir;
  interruptedOptions.cancel = source.token();
  interruptedOptions.onPointComplete = [&](std::size_t, const PointOutcome&,
                                           std::size_t completed) {
    if (completed == 2) source.cancel();
  };
  const nh::core::ExperimentResult interrupted = nh::core::runExperiment(
      nh::core::makeExperiment("fig3b_electrode_spacing"), interruptedOptions);
  EXPECT_FALSE(interrupted.complete());
  EXPECT_EQ(interrupted.pointsOk, 2u);
  EXPECT_EQ(interrupted.pointsCancelled, 1u);
  const std::filesystem::path ckpt =
      nh::core::checkpointPath(dir, "fig3b_electrode_spacing");
  EXPECT_TRUE(std::filesystem::exists(ckpt));

  // Resume: the two checkpointed rows load, the third runs, and the final
  // table is bit-identical to the uninterrupted reference.
  nh::core::RunOptions resumeOptions = options;
  resumeOptions.checkpointDir = dir;
  resumeOptions.resume = true;
  const nh::core::ExperimentResult resumed = nh::core::runExperiment(
      nh::core::makeExperiment("fig3b_electrode_spacing"), resumeOptions);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.pointsResumed, 2u);
  ASSERT_EQ(resumed.rows.size(), reference.rows.size());
  for (std::size_t r = 0; r < reference.rows.size(); ++r) {
    EXPECT_EQ(resumed.rows[r], reference.rows[r]) << "row " << r;
  }
  // A completed run cleans its checkpoint up.
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}

}  // namespace

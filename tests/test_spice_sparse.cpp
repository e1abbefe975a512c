/// Sparse MNA solve path vs a dense full-Newton reference. The engine has
/// one path (triplet stamping, cached CSR, RCM-ordered SparseLu,
/// chord-Newton); these tests hold it to a test-local classic Newton that
/// densifies the same stamps and solves them with util::solveDense, over
/// every netlist shape the suite builds -- linear dividers, stacked sources,
/// diodes, gmin-only floating nodes, and the distributed-segment crossbar.
/// The two pivot in different orders, so the comparison is within
/// Newton/solver tolerance rather than bit-exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/linsolve.hpp"
#include "util/sparse.hpp"
#include "xbar/array.hpp"
#include "xbar/scheme.hpp"
#include "xbar/spicesim.hpp"

namespace nh::spice {
namespace {

using nh::util::Matrix;
using nh::util::SparseMatrix;
using nh::util::TripletBuilder;
using nh::util::Vector;

/// Classic full Newton on a dense Jacobian at the DC operating point: every
/// iteration stamps a TripletBuilder, densifies it via SparseMatrix::at,
/// solves J x_new = b with util::solveDense, and limits the node-voltage
/// update with the engine's clamp and tolerances.
SolveResult denseFullNewton(Circuit& circuit) {
  constexpr double kAbsTol = 1e-9;
  constexpr double kRelTol = 1e-6;
  constexpr double kMaxStepVoltage = 0.5;
  circuit.finalize();
  const std::size_t n = circuit.unknownCount();
  const std::size_t nodeUnknowns = circuit.nodeCount() - 1;
  const Vector xPrev(n, 0.0);
  SolveResult result;
  result.x.assign(n, 0.0);
  for (std::size_t iter = 0; iter < 100; ++iter) {
    TripletBuilder triplets(n, n);
    Vector rhs(n, 0.0);
    StampContext ctx{triplets, rhs, result.x, xPrev};
    for (const auto& e : circuit.elements()) e->stamp(ctx);
    for (std::size_t i = 0; i < nodeUnknowns; ++i) {
      triplets.add(i, i, circuit.gmin());
    }
    const SparseMatrix csr = SparseMatrix::fromTriplets(triplets);
    Matrix jacobian(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) jacobian(r, c) = csr.at(r, c);
    }
    const Vector xNew = nh::util::solveDense(jacobian, rhs);
    double maxUpdate = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double delta = xNew[i] - result.x[i];
      if (i < nodeUnknowns) {
        delta = std::clamp(delta, -kMaxStepVoltage, kMaxStepVoltage);
        maxUpdate = std::max(maxUpdate, std::fabs(delta));
      }
      result.x[i] += delta;
    }
    result.iterations = iter + 1;
    result.maxUpdate = maxUpdate;
    double tolerance = kAbsTol;
    for (std::size_t i = 0; i < nodeUnknowns; ++i) {
      tolerance = std::max(tolerance, kAbsTol + kRelTol * std::fabs(result.x[i]));
    }
    if (maxUpdate < tolerance) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

void expectSameSolution(const SolveResult& ref, const SolveResult& got, double tol) {
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(got.converged);
  ASSERT_EQ(ref.x.size(), got.x.size());
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    EXPECT_NEAR(got.x[i], ref.x[i], tol * std::max(1.0, std::fabs(ref.x[i])))
        << "unknown " << i;
  }
}

/// Solve the circuit built by \p build with the engine and with the dense
/// reference (fresh circuit each time, since nonlinear elements keep state)
/// and compare the full solution vectors.
template <typename BuildFn>
void expectDcEquivalence(BuildFn build, double tol = 1e-9) {
  Circuit reference;
  build(reference);
  const SolveResult refResult = denseFullNewton(reference);

  Circuit engine;
  build(engine);
  expectSameSolution(refResult, solveDc(engine), tol);
}

TEST(SparseStamping, ResistorDividerMatchesDense) {
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId in = ckt.node("in");
    const NodeId mid = ckt.node("mid");
    ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 10.0);
    ckt.emplace<Resistor>("R1", in, mid, 1000.0);
    ckt.emplace<Resistor>("R2", mid, ckt.ground(), 3000.0);
  });
}

TEST(SparseStamping, StackedSourcesAndCurrentSourceMatchDense) {
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId a = ckt.node("a");
    const NodeId b = ckt.node("b");
    const NodeId n = ckt.node("n");
    ckt.emplace<VoltageSource>("V1", a, ckt.ground(), 1.0);
    ckt.emplace<VoltageSource>("V2", b, a, 2.0);
    ckt.emplace<Resistor>("RL", b, ckt.ground(), 1e4);
    ckt.emplace<CurrentSource>("I1", ckt.ground(), n, 1e-3);
    ckt.emplace<Resistor>("R1", n, ckt.ground(), 2000.0);
  });
}

TEST(SparseStamping, NonlinearDiodeNetworkMatchesDense) {
  // Forward and reverse diodes in one netlist: chord-Newton on the sparse LU
  // must land where dense full Newton does through the exponential.
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId in = ckt.node("in");
    const NodeId d = ckt.node("d");
    const NodeId rn = ckt.node("rn");
    ckt.emplace<VoltageSource>("V1", in, ckt.ground(), 5.0);
    ckt.emplace<Resistor>("R1", in, d, 1000.0);
    ckt.emplace<Diode>("D1", d, ckt.ground());
    ckt.emplace<Resistor>("R2", in, rn, 1000.0);
    ckt.emplace<Diode>("D2", ckt.ground(), rn);  // reverse-biased
  });
}

TEST(SparseStamping, FloatingNodeGminOnlyRowMatchesDense) {
  // A never-connected node leaves an all-gmin row: the weakest diagonal the
  // stamper produces, and a pivoting stress for the sparse LU.
  expectDcEquivalence([](Circuit& ckt) {
    const NodeId a = ckt.node("a");
    ckt.node("floating");
    ckt.emplace<VoltageSource>("V1", a, ckt.ground(), 1.0);
    ckt.emplace<Resistor>("R1", a, ckt.ground(), 1000.0);
  });
}

TEST(SparseStamping, DistributedCrossbarDcMatchesDense) {
  // The real seed netlist: SpiceCrossbar's distributed-segment crossbar
  // with drivers, line-segment chains, and memristor bridges.
  using namespace nh::xbar;
  ArrayConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;

  const auto solveWith = [&](SolveResult (*solve)(Circuit&)) {
    CrossbarArray array(cfg);
    array.fill(CellState::Hrs);
    array.setState(1, 2, CellState::Lrs);
    SpiceEngineOptions opt;
    opt.traceCells = false;
    SpiceCrossbar spice(array, AlphaTable::analytic(50e-9), opt);
    spice.programDrivers(selectBias(BiasScheme::Half, cfg.rows, cfg.cols, 1, 2, 1.05),
                         {});
    return solve(spice.circuit());
  };

  expectSameSolution(solveWith(denseFullNewton), solveWith(solveDc), 1e-8);
}

}  // namespace
}  // namespace nh::spice

#include "spice/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/linsolve.hpp"
#include "util/sparse.hpp"

namespace nh::spice {

namespace {

using nh::util::Vector;

constexpr std::size_t kMaxNewtonIterations = 100;
constexpr double kAbsTol = 1e-9;         ///< Absolute voltage tolerance [V].
constexpr double kRelTol = 1e-6;         ///< Relative voltage tolerance.
constexpr double kMaxStepVoltage = 0.5;  ///< Per-iteration update limiter [V].
/// Steps between stale-LU probes once the chord has been distrusted.
constexpr std::size_t kChordProbeInterval = 8;

/// Newton solver with persistent storage and LU reuse. One engine lives for
/// a whole analysis (every timestep of a transient), so the triplet stream,
/// the sparsity pattern, the CSR and the factorisation survive between
/// solves:
///  * linear circuits re-factor only when dt (or the analysis kind) changes;
///    with a frozen LU the matrix is not even re-stamped -- elements only
///    rebuild the rhs (time-dependent sources);
///  * nonlinear circuits run chord-Newton on the true KCL residual
///    r = b(x) - J(x) x, which converges to the same solution for any
///    (nonsingular) frozen factorisation; the stale factorisation gets the
///    first iteration of a solve, every later iteration re-factors, and an
///    adaptive probe skips even that shot while it keeps missing.
class NewtonEngine {
 public:
  /// Solve at (\p time, \p dt), iterating from the previous accepted
  /// solution \p xPrev (all zeros for a DC operating point).
  SolveResult solve(Circuit& circuit, double time, double dt, bool transient,
                    const Vector& xPrev) {
    const std::size_t n = circuit.unknownCount();
    const std::size_t nodeUnknowns = circuit.nodeCount() - 1;

    SolveResult result;
    result.x = xPrev;

    if (n != sysN_) {
      sysN_ = n;
      rhs_.assign(n, 0.0);
      triplets_ = nh::util::TripletBuilder(n, n);
      patternValid_ = false;
      luValid_ = false;
    }
    const bool frozenLuUsable =
        luValid_ && dt == luDt_ && transient == luTransient_;

    if (!circuit.hasNonlinear()) {
      return solveLinear(circuit, time, dt, transient, xPrev, frozenLuUsable,
                         std::move(result), nodeUnknowns);
    }
    // Adaptive chord: when the last solve's stale-LU shot missed, the
    // Jacobian is drifting too fast between steps -- skip the wasted stale
    // iteration and re-factor upfront, re-probing the chord every few steps
    // in case the circuit has settled.
    bool tryStale = frozenLuUsable;
    if (tryStale && !chordTrusted_) {
      if (++chordProbeCountdown_ >= kChordProbeInterval) {
        chordProbeCountdown_ = 0;  // probe the stale LU this step
      } else {
        tryStale = false;
      }
    }
    return solveNewton(circuit, time, dt, transient, xPrev, tryStale,
                       std::move(result), nodeUnknowns);
  }

 private:
  SolveResult solveLinear(Circuit& circuit, double time, double dt,
                          bool transient, const Vector& xPrev, bool reuseLu,
                          SolveResult result, std::size_t nodeUnknowns) {
    const std::size_t n = sysN_;
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    if (!reuseLu) triplets_.clear();
    // With a frozen LU the conductance stamps are no-ops (stampMatrix
    // false): only the rhs is rebuilt, and the previous factorisation is
    // solved against it -- bit-identical to re-stamping and re-factoring
    // the identical matrix.
    StampContext ctx{triplets_, rhs_,      result.x,
                     xPrev,     time,      dt,
                     transient, /*stampMatrix=*/!reuseLu};
    for (const auto& e : circuit.elements()) e->stamp(ctx);
    if (!reuseLu) {
      stampGmin(circuit.gmin(), nodeUnknowns);
      if (!assembleAndFactor(dt, transient)) {
        result.converged = false;
        return result;
      }
    }
    // solveInPlace into the persistent scratch: the same substitution
    // sequence as solve(), without the per-step allocation.
    xNew_.assign(rhs_.begin(), rhs_.end());
    sparseLu_.solveInPlace(xNew_);
    double maxUpdate = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = xNew_[i] - result.x[i];
      result.x[i] += delta;
      if (i < nodeUnknowns) maxUpdate = std::max(maxUpdate, std::fabs(delta));
    }
    result.iterations = 1;
    result.maxUpdate = maxUpdate;
    result.converged = true;
    return result;
  }

  SolveResult solveNewton(Circuit& circuit, double time, double dt,
                          bool transient, const Vector& xPrev,
                          bool frozenLuUsable, SolveResult result,
                          std::size_t nodeUnknowns) {
    const std::size_t n = sysN_;
    bool refactor = !frozenLuUsable;
    bool refactoredThisSolve = !frozenLuUsable;

    // Fault site: tests force a non-converged Newton solve to exercise the
    // timestep-shrink and per-point isolation paths above this loop.
    if (nh::util::faultinject::shouldFire("spice.newton")) {
      result.converged = false;
      return result;
    }

    for (std::size_t iter = 0; iter < kMaxNewtonIterations; ++iter) {
      nh::util::checkCancellation("newton iteration");
      triplets_.clear();
      std::fill(rhs_.begin(), rhs_.end(), 0.0);

      StampContext ctx{triplets_, rhs_, result.x, xPrev, time, dt, transient};
      for (const auto& e : circuit.elements()) e->stamp(ctx);
      stampGmin(circuit.gmin(), nodeUnknowns);
      // The chord residual needs J(x) even on iterations that keep a stale
      // factorisation, so the CSR is refreshed every pass.
      if (refactor) {
        if (!assembleAndFactor(dt, transient)) {
          result.converged = false;
          return result;
        }
        refactor = false;
        refactoredThisSolve = true;
      } else {
        assemble();
      }

      // Chord-Newton: delta = LU^{-1} (b - J x) with a possibly stale LU.
      // The companion-model linearisation makes b - J x the true KCL
      // residual at x, so any nonsingular LU yields the same fixed point.
      delta_.resize(n);
      aCsr_.multiplyInto(result.x, delta_);  // delta = J x ...
      for (std::size_t r = 0; r < n; ++r) delta_[r] = rhs_[r] - delta_[r];
      sparseLu_.solveInPlace(delta_);
      // Voltage limiting: clamp node-voltage updates to keep the
      // exponential devices inside a trust region (standard SPICE practice).
      double maxUpdate = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double delta = delta_[i];
        if (i < nodeUnknowns) {
          delta = std::clamp(delta, -kMaxStepVoltage, kMaxStepVoltage);
          maxUpdate = std::max(maxUpdate, std::fabs(delta));
        }
        result.x[i] += delta;
      }
      result.iterations = iter + 1;
      result.maxUpdate = maxUpdate;
      // NaN/Inf guard: a poisoned update can never meet the tolerance, so
      // iterating to the cap just burns factorisations -- fail fast and let
      // the caller (timestep control, per-point isolation) recover.
      if (!std::isfinite(maxUpdate)) {
        result.converged = false;
        if (frozenLuUsable) chordTrusted_ = false;
        return result;
      }
      double tolerance = kAbsTol;
      for (std::size_t i = 0; i < nodeUnknowns; ++i) {
        tolerance =
            std::max(tolerance, kAbsTol + kRelTol * std::fabs(result.x[i]));
      }
      if (maxUpdate < tolerance) {
        result.converged = true;
        // Re-grade the chord only when a stale shot was actually taken:
        // solves that started with a refactor (first step, changed dt,
        // skipped probe) say nothing about the frozen LU's accuracy.
        if (frozenLuUsable) chordTrusted_ = !refactoredThisSolve;
        return result;
      }
      // Safeguard: the stale factorisation only ever gets the first
      // iteration of a solve. When the frozen Jacobian is still accurate
      // (small state drift between timesteps) that shot converges and the
      // whole step costs zero factorisations; otherwise every remaining
      // iteration re-factors -- full Newton plus at most one cheap probe.
      // Iterating further on a stale LU would trade one factorisation for
      // many linearly-convergent iterations and lose whenever element
      // stamping is non-trivial.
      refactor = true;
    }
    result.converged = false;
    if (frozenLuUsable) chordTrusted_ = false;
    return result;
  }

  /// gmin from every node to ground keeps otherwise-floating nodes defined.
  /// Appended after the element stamps so the triplet sequence stays fixed
  /// per netlist (pattern-refill contract).
  void stampGmin(double gmin, std::size_t nodeUnknowns) {
    for (std::size_t i = 0; i < nodeUnknowns; ++i) triplets_.add(i, i, gmin);
  }

  /// Rebuild the CSR from the freshly-stamped triplets. A fixed netlist
  /// issues the same stamp sequence every pass, so after the first symbolic
  /// analysis this is an O(nnz) value refill; a changed entry count (edited
  /// netlist between solves) re-runs the symbolic phase.
  void assemble() {
    if (!patternValid_ || pattern_.entryCount() != triplets_.entryCount()) {
      pattern_ = nh::util::SparsityPattern::fromTriplets(triplets_);
      patternValid_ = true;
    }
    pattern_.assemble(triplets_, aCsr_);
  }

  /// Assemble and factor the freshly-stamped system; on success the LU is
  /// frozen for (\p dt, \p transient).
  bool assembleAndFactor(double dt, bool transient) {
    assemble();
    luValid_ = sparseLu_.refactor(aCsr_);
    luDt_ = dt;
    luTransient_ = transient;
    return luValid_;
  }

  Vector rhs_;
  Vector delta_;
  Vector xNew_;
  std::size_t sysN_ = 0;
  nh::util::TripletBuilder triplets_{0, 0};
  nh::util::SparsityPattern pattern_;
  bool patternValid_ = false;
  nh::util::SparseMatrix aCsr_;
  nh::util::SparseLu sparseLu_;
  bool luValid_ = false;
  double luDt_ = 0.0;
  bool luTransient_ = false;
  bool chordTrusted_ = true;   ///< Last stale-LU shot converged unaided.
  std::size_t chordProbeCountdown_ = 0;
};

}  // namespace

SolveResult solveDc(Circuit& circuit) {
  circuit.finalize();
  const Vector xPrev(circuit.unknownCount(), 0.0);
  NewtonEngine engine;
  return engine.solve(circuit, /*time=*/0.0, /*dt=*/0.0, /*transient=*/false,
                      xPrev);
}

std::size_t TransientResult::seriesIndex(const std::string& label) const {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) return i;
  }
  throw std::out_of_range("TransientResult: no series '" + label + "'");
}

const std::vector<double>& TransientResult::seriesFor(const std::string& label) const {
  return series[seriesIndex(label)];
}

TransientResult runTransient(Circuit& circuit, const TransientOptions& options,
                             const std::vector<Probe>& probes) {
  // A zero or negative step never advances t: the loop below would spin
  // forever, so every time bound is checked up front.
  const std::pair<const char*, double> bounds[] = {
      {"tStop", options.tStop},
      {"dtInitial", options.dtInitial},
      {"dtMax", options.dtMax},
      {"dtMin", options.dtMin}};
  for (const auto& [name, value] : bounds) {
    if (!(std::isfinite(value) && value > 0.0)) {
      throw std::invalid_argument(std::string("runTransient: ") + name +
                                  " must be finite and > 0");
    }
  }
  if (options.dtMin > options.dtMax) {
    throw std::invalid_argument("runTransient: dtMin must not exceed dtMax");
  }
  circuit.finalize();

  TransientResult result;
  result.labels.reserve(probes.size());
  for (const auto& p : probes) result.labels.push_back(p.label);
  result.series.assign(probes.size(), {});

  // Initial condition: DC operating point at t = 0.
  SolveResult op = solveDc(circuit);
  if (!op.converged) {
    result.failureReason = "initial DC operating point did not converge";
    return result;
  }
  Vector x = op.x;

  // One engine for the whole transient: the CSR storage and its LU
  // factorisation persist across timesteps (see NewtonEngine).
  NewtonEngine engine;

  const auto record = [&](double t, const Vector& sol) {
    result.time.push_back(t);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      result.series[p].push_back(probes[p].extract(sol, t));
    }
  };
  record(0.0, x);

  double t = 0.0;
  double dt = std::min(options.dtInitial, options.dtMax);
  while (t < options.tStop - 1e-18) {
    nh::util::checkCancellation("transient step");
    double step = std::min(dt, options.tStop - t);
    if (options.alignToBreakpoints) {
      const double bp = circuit.nextBreakpoint(t + 1e-18);
      if (bp > t && bp < t + step) step = bp - t;
    }

    const SolveResult sr = engine.solve(circuit, t + step, step,
                                        /*transient=*/true, x);
    if (!sr.converged) {
      // Convergence failure: shrink the step and retry.
      dt *= 0.25;
      if (dt < options.dtMin) {
        result.failureReason = "timestep underflow at t=" + std::to_string(t);
        return result;
      }
      continue;
    }

    t += step;
    x = sr.x;
    const AcceptContext acc{x, t, step};
    for (const auto& e : circuit.elements()) e->acceptStep(acc);
    if (options.onStepAccepted) options.onStepAccepted(x, t, step);
    record(t, x);

    // Gentle step growth after easy Newton solves.
    if (sr.iterations <= 5) {
      dt = std::min(dt * 1.5, options.dtMax);
    } else if (sr.iterations > 20) {
      dt = std::max(dt * 0.5, options.dtMin);
    }
  }
  result.completed = true;
  return result;
}

Probe probeNodeVoltage(const Circuit& circuit, const std::string& nodeName) {
  const NodeId id = circuit.findNode(nodeName);
  return Probe{"v(" + nodeName + ")", [id](const Vector& x, double) {
                 return id == 0 ? 0.0 : x[id - 1];
               }};
}

Probe probeDifferentialVoltage(const Circuit& circuit, const std::string& nodeA,
                               const std::string& nodeB) {
  const NodeId a = circuit.findNode(nodeA);
  const NodeId b = circuit.findNode(nodeB);
  return Probe{"v(" + nodeA + "," + nodeB + ")", [a, b](const Vector& x, double) {
                 const double va = a == 0 ? 0.0 : x[a - 1];
                 const double vb = b == 0 ? 0.0 : x[b - 1];
                 return va - vb;
               }};
}

}  // namespace nh::spice

#pragma once
/// \file analysis.hpp
/// MNA analyses: Newton-Raphson DC operating point and a backward-Euler
/// transient engine with breakpoint-aware, convergence-adaptive timestep
/// control. This is the "Cadence Virtuoso" substitute for the paper's
/// circuit-level simulation flow. Every netlist takes one solve path:
/// elements stamp a triplet stream, a cached SparsityPattern assembles the
/// CSR, SparseLu (RCM-ordered) factors it, and nonlinear circuits iterate
/// chord-Newton on the true KCL residual while linear circuits reuse their
/// frozen LU.

#include <functional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"

namespace nh::spice {

/// Result of a Newton solve.
struct SolveResult {
  bool converged = false;
  std::size_t iterations = 0;
  double maxUpdate = 0.0;  ///< Largest |delta-x| on the last iteration.
  nh::util::Vector x;      ///< Solution (node voltages then branch currents).
};

/// DC operating point: solves the nonlinear MNA system at time 0 with
/// capacitors open, starting from x = 0.
SolveResult solveDc(Circuit& circuit);

/// A probe records one scalar per accepted transient step.
struct Probe {
  std::string label;
  std::function<double(const nh::util::Vector& x, double time)> extract;
};

/// Transient controls.
struct TransientOptions {
  double tStop = 0.0;          ///< End time [s]. Required.
  double dtInitial = 1e-10;    ///< First step [s].
  double dtMax = 1e-9;         ///< Ceiling [s].
  double dtMin = 1e-15;        ///< Floor before declaring failure [s].
  bool alignToBreakpoints = true;  ///< Clip steps to waveform edges.
  /// Invoked after every accepted step (x, time, dt). Used for inter-element
  /// couplings outside the MNA system -- the crosstalk hub exchanges
  /// filament temperatures between memristor models here, mirroring the
  /// paper's interface variables between Virtuoso and the hub.
  std::function<void(const nh::util::Vector&, double, double)> onStepAccepted;
};

/// Recorded transient results: time vector plus one series per probe.
struct TransientResult {
  bool completed = false;      ///< Reached tStop with all steps converged.
  std::string failureReason;
  std::vector<double> time;
  std::vector<std::string> labels;
  std::vector<std::vector<double>> series;  ///< series[p][k] at time[k].

  /// Series index for \p label; throws std::out_of_range when absent.
  std::size_t seriesIndex(const std::string& label) const;
  const std::vector<double>& seriesFor(const std::string& label) const;
};

/// Run a transient analysis. Stateful elements (capacitors, memristors) are
/// advanced via Element::acceptStep after each converged step. Throws
/// std::invalid_argument unless tStop and the three step bounds are finite
/// and > 0 with dtMin <= dtMax.
TransientResult runTransient(Circuit& circuit, const TransientOptions& options,
                             const std::vector<Probe>& probes = {});

/// Convenience probe factories.
Probe probeNodeVoltage(const Circuit& circuit, const std::string& nodeName);
Probe probeDifferentialVoltage(const Circuit& circuit, const std::string& nodeA,
                               const std::string& nodeB);

}  // namespace nh::spice

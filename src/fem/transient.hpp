#pragma once
/// \file transient.hpp
/// Time-dependent heat conduction on the voxel grid:
///   c(x) dT/dt = div( kappa(x) grad T ) + q(x)
/// discretised with implicit (backward) Euler on the finite-volume operator
/// of the steady solver (one HeatOperator stamp, plus the C/dt lump), so the
/// steady state of the transient run is solveThermal()'s.
///
/// Purpose in this project: derive, from first principles, the thermal time
/// constants that the circuit-level engines *assume* -- the filament
/// self-heating tau (jart::Params::tauThermal) and the slower crosstalk
/// propagation delay to the neighbours -- and thereby validate the
/// quasi-static treatment of 10-100 ns pulses.

#include <vector>

#include "fem/geometry.hpp"
#include "fem/thermal.hpp"

namespace nh::fem {

/// Volumetric heat capacity [J m^-3 K^-1] per material.
struct HeatCapacityTable {
  /// Literature thin-film values (density x specific heat).
  static HeatCapacityTable defaults();
  double capacity(Material m) const;
  double values[static_cast<std::size_t>(Material::Count)] = {};
};

/// Step-response scenario: the selected cell starts dissipating \p power at
/// t = 0 from a uniform ambient temperature field.
struct TransientScenario {
  const CrossbarModel3D* model = nullptr;
  MaterialTable materials = MaterialTable::defaults();
  HeatCapacityTable capacities = HeatCapacityTable::defaults();
  double ambientK = 300.0;
  std::size_t heatedRow = 2;
  std::size_t heatedCol = 2;
  double power = 1e-4;    ///< [W] into the heated cell's filament.
  double tStop = 20e-9;   ///< [s].
  double dt = 0.25e-9;    ///< Implicit-Euler step [s].
};

/// Recorded step response.
struct TransientSolution {
  std::vector<double> time;              ///< Sample times [s].
  /// Filament-averaged temperature of selected cells at each sample:
  /// [0] = heated cell, [1] = word-line neighbour, [2] = bit-line
  /// neighbour, [3] = diagonal neighbour (where they exist).
  std::vector<std::vector<double>> cellTemperature;
  std::vector<std::string> cellLabels;
  /// Steady-state temperature of each observed cell [K]: solveThermal() of
  /// the same model, materials and power (the t -> infinity limit of the
  /// march).
  std::vector<double> steadyTemperature;
  bool converged = false;

  /// Time for series \p index to cover 63.2% of its rise from the start
  /// value to the steady state [s]. Measured against the steady state, not
  /// the last sample, so it does not depend on tStop; NaN when the run
  /// stops before the mark.
  double riseTimeConstant(std::size_t index) const;
};

/// Run the step response. Each implicit-Euler step solves the SPD system
/// (C/dt + A) T_new = C/dt T_old + q with conjugate gradients, warm-started
/// from the previous step; solveThermal() of the same model, materials and
/// power then fills steadyTemperature. \p power must be finite and >= 0.
TransientSolution solveThermalStep(const TransientScenario& scenario,
                                   const DiffusionOptions& options = {});

/// Structure-reusing form of solveThermalStep(): repeated runs on the same
/// grid reuse the cached HeatOperator, field vectors, and CG scratch. Within
/// one run the implicit-Euler operator is frozen, so the preconditioner is
/// built once and reused for every step.
class ThermalTransientSolver {
 public:
  TransientSolution solve(const TransientScenario& scenario,
                          const DiffusionOptions& options = {});

 private:
  HeatOperator operator_;  ///< C/dt + A.
  nh::util::Vector kappa_, cOverDt_, boundaryRhs_, source_, temperature_, rhs_;
  nh::util::CgWorkspace cg_;
};

}  // namespace nh::fem

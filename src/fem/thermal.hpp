#pragma once
/// \file thermal.hpp
/// High-level electro-thermal solves on the voxelised crossbar:
///  * solveThermal():   prescribed per-cell filament power -> temperature
///                      field (heat equation only, linear in power).
///  * solveCoupled():   line voltages + per-cell filament conductivity ->
///                      potential solve (Eq. 2), Joule heat, then heat solve
///                      (Eq. 1) -- the paper's COMSOL flow.
/// Boundary conditions follow the paper: the substrate bottom is held at the
/// ambient temperature, every other surface is thermally and electrically
/// insulated.

#include "fem/diffusion.hpp"
#include "fem/geometry.hpp"
#include "util/matrix.hpp"

namespace nh::fem {

/// Prescribed-power thermal scenario.
struct ThermalScenario {
  const CrossbarModel3D* model = nullptr;
  MaterialTable materials = MaterialTable::defaults();
  double ambientK = 300.0;
  /// Dissipated power per cell [W], rows x cols; heat is deposited uniformly
  /// over the cell's filament voxels.
  nh::util::Matrix cellPower;
};

/// Temperature solution.
struct ThermalSolution {
  std::vector<double> temperature;      ///< Per-voxel T [K].
  nh::util::Matrix cellTemperature;     ///< Filament-averaged T per cell [K].
  nh::util::IterativeResult stats;
  bool converged() const { return stats.converged; }
};

ThermalSolution solveThermal(const ThermalScenario& scenario,
                             const DiffusionOptions& options = {});

/// Structure-reusing form of solveThermal(): repeated solves on the same
/// model (power sweeps) reuse the cached FV assembly, coefficient/source
/// buffers, and CG workspace of one DiffusionSolver.
class ThermalSolver {
 public:
  ThermalSolution solve(const ThermalScenario& scenario,
                        const DiffusionOptions& options = {});

 private:
  DiffusionSolver diffusion_;
  DiffusionProblem problem_;  ///< Reused coefficient/source storage.
};

/// Coupled electro-thermal scenario: the word/bit lines are ideal contacts
/// pinned at their driver voltages (the V/2 scheme in the experiments), and
/// each cell's filament has a state-dependent conductivity.
struct CoupledScenario {
  const CrossbarModel3D* model = nullptr;
  MaterialTable materials = MaterialTable::defaults();
  double ambientK = 300.0;
  nh::util::Vector wordLineVoltage;  ///< Size rows [V].
  nh::util::Vector bitLineVoltage;   ///< Size cols [V].
  /// Filament conductivity per cell [S/m] (LRS: ~1e5, HRS: orders lower).
  nh::util::Matrix cellSigma;
  /// Conductivity floor, as a fraction of the largest sigma present, applied
  /// to insulators to bound the system's condition number. The resulting
  /// parasitic leakage is negligible (<< filament conductance).
  double sigmaFloorRatio = 1e-8;
};

struct CoupledSolution {
  std::vector<double> potential;     ///< Per-voxel phi [V].
  std::vector<double> temperature;   ///< Per-voxel T [K].
  nh::util::Matrix cellTemperature;  ///< Filament-averaged T per cell [K].
  nh::util::Matrix cellPower;        ///< Joule power per cell region [W].
  double totalPower = 0.0;           ///< Total dissipated power [W].
  nh::util::IterativeResult potentialStats;
  nh::util::IterativeResult thermalStats;
  bool converged() const {
    return potentialStats.converged && thermalStats.converged;
  }
};

CoupledSolution solveCoupled(const CoupledScenario& scenario,
                             const DiffusionOptions& options = {});

/// Structure-reusing form of solveCoupled(): the potential and heat systems
/// each keep their own cached assembly across solves on the same model
/// (voltage sweeps in extractAlphaCoupled re-pin values, not locations).
class CoupledSolver {
 public:
  /// \p warmStart (optional): a previous solution on the same model whose
  /// potential and temperature fields seed the two CG iterations -- voltage
  /// sweeps chain each point from its predecessor.
  CoupledSolution solve(const CoupledScenario& scenario,
                        const DiffusionOptions& options = {},
                        const CoupledSolution* warmStart = nullptr);

 private:
  DiffusionSolver electricSolver_;
  DiffusionSolver heatSolver_;
  DiffusionProblem electric_;  ///< Reused coefficient/pin storage.
  DiffusionProblem heat_;      ///< Reused coefficient/source storage.
};

}  // namespace nh::fem

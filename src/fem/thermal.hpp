#pragma once
/// \file thermal.hpp
/// Steady thermal solve on the voxelised crossbar: prescribed per-cell
/// filament power -> temperature field (heat equation, paper Eq. 1; linear
/// in power). Boundary conditions follow the paper: the substrate bottom is
/// held at the ambient temperature, every other surface is thermally
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

/// Cell powers must be finite and >= 0 (std::invalid_argument otherwise).
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

}  // namespace nh::fem

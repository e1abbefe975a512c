#include "fem/thermal.hpp"

#include <cmath>
#include <stdexcept>

namespace nh::fem {

namespace {

void kappaFieldInto(const CrossbarModel3D& model, const MaterialTable& materials,
                    std::vector<double>& kappa) {
  const VoxelGrid& grid = model.grid();
  kappa.resize(grid.voxelCount());
  for (std::size_t v = 0; v < grid.voxelCount(); ++v) {
    kappa[v] = materials.kappa(grid.material(v));
  }
}

nh::util::Matrix cellAverages(const CrossbarModel3D& model,
                              const std::vector<double>& field) {
  const auto& layout = model.layout();
  nh::util::Matrix out(layout.rows, layout.cols, 0.0);
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      out(r, c) = model.cellAverage(field, r, c);
    }
  }
  return out;
}

}  // namespace

ThermalSolution ThermalSolver::solve(const ThermalScenario& scenario,
                                     const DiffusionOptions& options) {
  if (scenario.model == nullptr) throw std::invalid_argument("solveThermal: null model");
  const CrossbarModel3D& model = *scenario.model;
  const auto& layout = model.layout();
  if (scenario.cellPower.rows() != layout.rows ||
      scenario.cellPower.cols() != layout.cols) {
    throw std::invalid_argument("solveThermal: cellPower shape mismatch");
  }

  problem_.grid = &model.grid();
  kappaFieldInto(model, scenario.materials, problem_.coefficient);
  problem_.bottomPlaneValue = scenario.ambientK;
  problem_.sourcePerVoxel.assign(model.grid().voxelCount(), 0.0);
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      const double p = scenario.cellPower(r, c);
      if (!std::isfinite(p) || p < 0.0) {
        throw std::invalid_argument("solveThermal: cell power must be finite and >= 0");
      }
      if (p == 0.0) continue;
      const auto& voxels = model.cell(r, c).filamentVoxels;
      const double perVoxel = p / static_cast<double>(voxels.size());
      for (const std::size_t v : voxels) problem_.sourcePerVoxel[v] += perVoxel;
    }
  }

  const DiffusionSolution sol = diffusion_.solve(problem_, options);

  ThermalSolution out;
  out.temperature = sol.field;
  out.stats = sol.stats;
  out.cellTemperature = cellAverages(model, sol.field);
  return out;
}

ThermalSolution solveThermal(const ThermalScenario& scenario,
                             const DiffusionOptions& options) {
  ThermalSolver solver;
  return solver.solve(scenario, options);
}

}  // namespace nh::fem

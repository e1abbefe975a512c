#include "fem/transient.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/linsolve.hpp"

namespace nh::fem {

HeatCapacityTable HeatCapacityTable::defaults() {
  HeatCapacityTable t;
  const auto set = [&t](Material m, double v) {
    t.values[static_cast<std::size_t>(m)] = v;
  };
  // rho * c_p [J m^-3 K^-1], thin-film literature values.
  set(Material::SiSubstrate, 1.63e6);    // 2330 * 700
  set(Material::SiO2, 1.63e6);           // 2200 * 740
  set(Material::Electrode, 2.85e6);      // Pt: 21450 * 133
  set(Material::SwitchingOxide, 2.7e6);  // HfO2: 9680 * 280
  set(Material::Filament, 2.7e6);        // oxide-like
  return t;
}

double HeatCapacityTable::capacity(Material m) const {
  const auto i = static_cast<std::size_t>(m);
  if (i >= static_cast<std::size_t>(Material::Count)) {
    throw std::out_of_range("HeatCapacityTable::capacity");
  }
  return values[i];
}

double TransientSolution::riseTimeConstant(std::size_t index) const {
  if (index >= cellTemperature.size() || index >= steadyTemperature.size() ||
      time.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto& series = cellTemperature[index];
  const double start = series.front();
  const double mark = start + (steadyTemperature[index] - start) * 0.632;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if ((series[i - 1] < mark && series[i] >= mark) ||
        (series[i - 1] > mark && series[i] <= mark)) {
      // Linear interpolation between samples.
      const double f = (mark - series[i - 1]) / (series[i] - series[i - 1]);
      return time[i - 1] + f * (time[i] - time[i - 1]);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TransientSolution ThermalTransientSolver::solve(const TransientScenario& scenario,
                                                const DiffusionOptions& options) {
  if (scenario.model == nullptr) {
    throw std::invalid_argument("solveThermalStep: null model");
  }
  if (!(scenario.dt > 0.0) || !(scenario.tStop > scenario.dt)) {
    throw std::invalid_argument("solveThermalStep: need 0 < dt < tStop");
  }
  if (!std::isfinite(scenario.power) || scenario.power < 0.0) {
    throw std::invalid_argument("solveThermalStep: power must be finite and >= 0");
  }
  const CrossbarModel3D& model = *scenario.model;
  const auto& layout = model.layout();
  const VoxelGrid& grid = model.grid();
  if (scenario.heatedRow >= layout.rows || scenario.heatedCol >= layout.cols) {
    throw std::out_of_range("solveThermalStep: heated cell out of range");
  }
  const std::size_t n = grid.voxelCount();
  const double h = grid.voxelSize();
  const double voxelVolume = h * h * h;

  // The steady FV operator A (Dirichlet ambient at the substrate bottom)
  // plus the capacity lump C/dt on the diagonal.
  kappa_.resize(n);
  cOverDt_.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const Material m = grid.material(v);
    kappa_[v] = scenario.materials.kappa(m);
    cOverDt_[v] = scenario.capacities.capacity(m) * voxelVolume / scenario.dt;
  }
  operator_.assemble(grid, kappa_, &cOverDt_, scenario.ambientK, boundaryRhs_);

  // Heat source.
  const auto& heated = model.cell(scenario.heatedRow, scenario.heatedCol);
  source_.assign(n, 0.0);
  const double perVoxel =
      scenario.power / static_cast<double>(heated.filamentVoxels.size());
  for (const std::size_t v : heated.filamentVoxels) source_[v] += perVoxel;

  // Observed cells: heated + the three characteristic neighbours.
  TransientSolution out;
  std::vector<std::pair<std::size_t, std::size_t>> observed;
  observed.emplace_back(scenario.heatedRow, scenario.heatedCol);
  out.cellLabels.push_back("heated");
  if (scenario.heatedCol + 1 < layout.cols) {
    observed.emplace_back(scenario.heatedRow, scenario.heatedCol + 1);
    out.cellLabels.push_back("word-line neighbour");
  }
  if (scenario.heatedRow + 1 < layout.rows) {
    observed.emplace_back(scenario.heatedRow + 1, scenario.heatedCol);
    out.cellLabels.push_back("bit-line neighbour");
  }
  if (scenario.heatedRow + 1 < layout.rows && scenario.heatedCol + 1 < layout.cols) {
    observed.emplace_back(scenario.heatedRow + 1, scenario.heatedCol + 1);
    out.cellLabels.push_back("diagonal neighbour");
  }
  out.cellTemperature.assign(observed.size(), {});

  // March: (C/dt + A) T_new = C/dt T_old + q + boundaryRhs. The operator is
  // frozen for the whole march, so the preconditioner (IC(0) by default) is
  // computed on the first step and reused afterwards; the CG scratch lives
  // in the persistent workspace.
  temperature_.assign(n, scenario.ambientK);
  rhs_.resize(n);
  const std::size_t steps =
      static_cast<std::size_t>(std::ceil(scenario.tStop / scenario.dt));
  out.converged = true;
  const auto record = [&](double t) {
    out.time.push_back(t);
    for (std::size_t si = 0; si < observed.size(); ++si) {
      const auto& [row, col] = observed[si];
      out.cellTemperature[si].push_back(model.cellAverage(temperature_, row, col));
    }
  };
  record(0.0);
  // The multigrid auto-upgrade applies exactly as in DiffusionSolver; with
  // the operator frozen across steps the hierarchy is built only once.
  nh::util::CgOptions cgOptions = toCgOptions(options, grid);
  for (std::size_t step = 1; step <= steps; ++step) {
    for (std::size_t v = 0; v < n; ++v) {
      rhs_[v] = cOverDt_[v] * temperature_[v] + source_[v] + boundaryRhs_[v];
    }
    const auto stats = nh::util::solveConjugateGradient(
        operator_.matrix(), rhs_, temperature_, cgOptions, &cg_);
    cgOptions.reusePreconditioner = true;  // operator frozen across steps
    if (!stats.converged) {
      out.converged = false;
      break;
    }
    record(static_cast<double>(step) * scenario.dt);
  }

  // Steady state of the same scenario: the reference the rise taus are
  // measured against.
  ThermalScenario steady;
  steady.model = &model;
  steady.materials = scenario.materials;
  steady.ambientK = scenario.ambientK;
  steady.cellPower = nh::util::Matrix(layout.rows, layout.cols, 0.0);
  steady.cellPower(scenario.heatedRow, scenario.heatedCol) = scenario.power;
  const ThermalSolution reference = solveThermal(steady, options);
  out.converged = out.converged && reference.converged();
  for (const auto& [row, col] : observed) {
    out.steadyTemperature.push_back(reference.cellTemperature(row, col));
  }
  return out;
}

TransientSolution solveThermalStep(const TransientScenario& scenario,
                                   const DiffusionOptions& options) {
  ThermalTransientSolver solver;
  return solver.solve(scenario, options);
}

}  // namespace nh::fem

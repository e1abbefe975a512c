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

struct ThermalTransientSolver::State {
  // Structural cache key: the FV adjacency is a pure function of the grid
  // dimensions (a pointer would falsely match a different grid reusing the
  // same address; voxelCount alone would match permuted dimensions).
  std::size_t nx = 0, ny = 0, nz = 0;
  nh::util::TripletBuilder builder{0, 0};
  nh::util::SparsityPattern pattern;
  nh::util::SparseMatrix matrix;
  nh::util::Vector kappa, cOverDt, steadyRhs, source, temperature, rhs;
  nh::util::CgWorkspace cg;
  DiffusionSolver steady;
  DiffusionProblem steadyProblem;
};

ThermalTransientSolver::ThermalTransientSolver() : state_(std::make_unique<State>()) {}
ThermalTransientSolver::~ThermalTransientSolver() = default;
ThermalTransientSolver::ThermalTransientSolver(ThermalTransientSolver&&) noexcept =
    default;
ThermalTransientSolver& ThermalTransientSolver::operator=(
    ThermalTransientSolver&&) noexcept = default;

TransientSolution ThermalTransientSolver::solve(const TransientScenario& scenario,
                                                const DiffusionOptions& options) {
  if (scenario.model == nullptr) {
    throw std::invalid_argument("solveThermalStep: null model");
  }
  if (!(scenario.dt > 0.0) || !(scenario.tStop > scenario.dt)) {
    throw std::invalid_argument("solveThermalStep: need 0 < dt < tStop");
  }
  const CrossbarModel3D& model = *scenario.model;
  const auto& layout = model.layout();
  const VoxelGrid& grid = model.grid();
  if (scenario.heatedRow >= layout.rows || scenario.heatedCol >= layout.cols) {
    throw std::out_of_range("solveThermalStep: heated cell out of range");
  }
  State& s = *state_;
  const std::size_t n = grid.voxelCount();
  const double h = grid.voxelSize();
  const double voxelVolume = h * h * h;

  // Assemble the steady FV operator A (same stamps as solveDiffusion, no
  // pinned voxels; Dirichlet bottom plane) plus the capacity lump C/dt. The
  // stamp sequence is fixed by the grid, so a repeated run refills the
  // cached CSR structure in O(nnz) without sorting or allocating.
  s.kappa.resize(n);
  s.cOverDt.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const Material m = grid.material(v);
    s.kappa[v] = scenario.materials.kappa(m);
    s.cOverDt[v] = scenario.capacities.capacity(m) * voxelVolume / scenario.dt;
  }

  const bool reuseStructure =
      s.nx == grid.nx() && s.ny == grid.ny() && s.nz == grid.nz();
  if (!reuseStructure || s.builder.rows() != n) {
    s.builder = nh::util::TripletBuilder(n, n);
  } else {
    s.builder.clear();
  }
  s.steadyRhs.assign(n, 0.0);
  const auto faceCoefficient = [](double a, double b) {
    return (a <= 0.0 || b <= 0.0) ? 0.0 : 2.0 * a * b / (a + b);
  };
  for (std::size_t k = 0; k < grid.nz(); ++k) {
    for (std::size_t j = 0; j < grid.ny(); ++j) {
      for (std::size_t i = 0; i < grid.nx(); ++i) {
        const std::size_t v = grid.index(i, j, k);
        double diag = s.cOverDt[v];
        // Zero-conductance faces are stamped too (explicit zeros), keeping
        // the structure a function of the grid alone.
        const auto visit = [&](std::size_t nv) {
          const double g = faceCoefficient(s.kappa[v], s.kappa[nv]) * h;
          diag += g;
          s.builder.add(v, nv, -g);
        };
        if (i > 0) visit(grid.index(i - 1, j, k));
        if (i + 1 < grid.nx()) visit(grid.index(i + 1, j, k));
        if (j > 0) visit(grid.index(i, j - 1, k));
        if (j + 1 < grid.ny()) visit(grid.index(i, j + 1, k));
        if (k > 0) visit(grid.index(i, j, k - 1));
        if (k + 1 < grid.nz()) visit(grid.index(i, j, k + 1));
        if (k == 0) {  // Dirichlet ambient at the substrate bottom
          const double g = 2.0 * s.kappa[v] * h;
          diag += g;
          s.steadyRhs[v] += g * scenario.ambientK;
        }
        s.builder.add(v, v, diag);
      }
    }
  }
  if (!reuseStructure) {
    s.pattern = nh::util::SparsityPattern::fromTriplets(s.builder);
    s.nx = grid.nx();
    s.ny = grid.ny();
    s.nz = grid.nz();
  }
  s.pattern.assemble(s.builder, s.matrix);

  // Heat source.
  const auto& heated = model.cell(scenario.heatedRow, scenario.heatedCol);
  s.source.assign(n, 0.0);
  const double perVoxel =
      scenario.power / static_cast<double>(heated.filamentVoxels.size());
  for (const std::size_t v : heated.filamentVoxels) s.source[v] += perVoxel;

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

  // March: (C/dt + A) T_new = C/dt T_old + q + dirichletRhs. The operator is
  // frozen for the whole march, so the preconditioner (IC(0) by default) is
  // computed on the first step and reused afterwards; the CG scratch lives
  // in the persistent workspace.
  s.temperature.assign(n, scenario.ambientK);
  s.rhs.resize(n);
  const std::size_t steps =
      static_cast<std::size_t>(std::ceil(scenario.tStop / scenario.dt));
  out.converged = true;
  const auto filamentMean = [&](const std::vector<double>& field,
                                std::size_t si) {
    double acc = 0.0;
    const auto& cell = model.cell(observed[si].first, observed[si].second);
    for (const std::size_t v : cell.filamentVoxels) acc += field[v];
    return acc / static_cast<double>(cell.filamentVoxels.size());
  };
  const auto record = [&](double t) {
    out.time.push_back(t);
    for (std::size_t si = 0; si < observed.size(); ++si) {
      out.cellTemperature[si].push_back(filamentMean(s.temperature, si));
    }
  };
  record(0.0);
  // The transient operator always covers the whole structured grid, so the
  // multigrid auto-upgrade applies exactly as in DiffusionSolver; with the
  // operator frozen across steps the hierarchy is built only once.
  nh::util::CgOptions cgOptions =
      toCgOptions(options, grid.nx(), grid.ny(), grid.nz());
  for (std::size_t step = 1; step <= steps; ++step) {
    for (std::size_t v = 0; v < n; ++v) {
      s.rhs[v] = s.cOverDt[v] * s.temperature[v] + s.source[v] + s.steadyRhs[v];
    }
    const auto stats = nh::util::solveConjugateGradient(s.matrix, s.rhs,
                                                        s.temperature, cgOptions,
                                                        &s.cg);
    cgOptions.reusePreconditioner = true;  // operator frozen across steps
    if (!stats.converged) {
      out.converged = false;
      break;
    }
    record(static_cast<double>(step) * scenario.dt);
  }

  // Steady state of the same scenario (A T = q + Dirichlet bottom), warm-
  // started from the last transient field: the reference the rise taus are
  // measured against.
  s.steadyProblem.grid = &grid;
  s.steadyProblem.coefficient = s.kappa;
  s.steadyProblem.sourcePerVoxel = s.source;
  s.steadyProblem.bottomPlaneDirichlet = true;
  s.steadyProblem.bottomPlaneValue = scenario.ambientK;
  const DiffusionSolution steady =
      s.steady.solve(s.steadyProblem, options, &s.temperature);
  out.converged = out.converged && steady.converged();
  for (std::size_t si = 0; si < observed.size(); ++si) {
    out.steadyTemperature.push_back(filamentMean(steady.field, si));
  }
  return out;
}

TransientSolution solveThermalStep(const TransientScenario& scenario,
                                   const DiffusionOptions& options) {
  ThermalTransientSolver solver;
  return solver.solve(scenario, options);
}

}  // namespace nh::fem

#include "core/configio.hpp"

#include <sstream>
#include <stdexcept>

namespace nh::core {

namespace {

/// Non-negative integer key: casting a negative getInt to std::size_t
/// would wrap to ~1.8e19 instead of failing.
std::size_t countFrom(const nh::util::Config& config, const std::string& key,
                      std::size_t fallback) {
  const long long v = config.getInt(key, static_cast<long long>(fallback));
  if (v < 0) {
    throw std::invalid_argument(key + " must be >= 0, got " +
                                std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

AttackPattern patternFromName(const std::string& name) {
  for (const AttackPattern p : allPatterns()) {
    if (patternName(p) == name) return p;
  }
  throw std::invalid_argument("patternFromName: unknown pattern '" + name + "'");
}

StudyConfig studyConfigFrom(const nh::util::Config& config) {
  StudyConfig out;
  out.rows = countFrom(config, "array.rows", out.rows);
  out.cols = countFrom(config, "array.cols", out.cols);

  out.spacing = config.getDouble("geometry.spacing_nm", out.spacing * 1e9) * 1e-9;
  out.useFemAlphas = config.getBool("geometry.fem_alphas", out.useFemAlphas);
  out.femVoxelSize =
      config.getDouble("geometry.fem_voxel_nm", out.femVoxelSize * 1e9) * 1e-9;

  out.ambientK = config.getDouble("environment.ambient_K", out.ambientK);

  // Compact-model overrides (subset; everything else keeps paperDefaults).
  jart::Params& p = out.cellParams;
  p.rThEff = config.getDouble("cell.rth_eff_K_per_W", p.rThEff);
  p.tauThermal = config.getDouble("cell.tau_thermal_ns", p.tauThermal * 1e9) * 1e-9;
  p.activationEnergySet =
      config.getDouble("cell.activation_energy_set_eV", p.activationEnergySet);
  p.activationEnergyReset =
      config.getDouble("cell.activation_energy_reset_eV", p.activationEnergyReset);
  p.kineticPrefactorSet =
      config.getDouble("cell.kinetic_prefactor_set", p.kineticPrefactorSet);
  p.rFilament = config.getDouble("cell.filament_radius_nm", p.rFilament * 1e9) * 1e-9;
  p.validate();

  out.detector.readVoltage =
      config.getDouble("detector.read_voltage_V", out.detector.readVoltage);
  out.detector.rLrsMax = config.getDouble("detector.r_lrs_max", out.detector.rLrsMax);
  out.detector.rHrsMin = config.getDouble("detector.r_hrs_min", out.detector.rHrsMin);

  out.engineOptions.enableBatching =
      config.getBool("engine.batching", out.engineOptions.enableBatching);
  out.engineOptions.solveLineNetwork =
      config.getBool("engine.line_network", out.engineOptions.solveLineNetwork);
  return out;
}

AttackConfig attackConfigFrom(const nh::util::Config& config, std::size_t rows,
                              std::size_t cols) {
  AttackConfig out;
  const xbar::CellCoord victim{rows / 2, cols / 2};
  const std::string pattern = config.getString("attack.pattern", "single");
  out.aggressors = patternAggressors(patternFromName(pattern), victim, rows, cols);
  out.victims = {victim};
  // The single pattern historically means "hammer the centre, watch the
  // neighbours": keep that behaviour when no explicit pattern was given.
  if (!config.has("attack.pattern")) {
    out.aggressors = {victim};
    out.victims.clear();
  }
  out.pulse.amplitude = config.getDouble("attack.amplitude_V", out.pulse.amplitude);
  out.pulse.width = config.getDouble("attack.width_ns", out.pulse.width * 1e9) * 1e-9;
  out.pulse.dutyCycle = config.getDouble("attack.duty", out.pulse.dutyCycle);
  out.maxPulses = countFrom(config, "attack.max_pulses", out.maxPulses);
  out.roundRobinChunk =
      countFrom(config, "attack.round_robin_chunk", out.roundRobinChunk);
  const std::string scheme = config.getString("attack.scheme", "half");
  if (scheme == "half") {
    out.scheme = xbar::BiasScheme::Half;
  } else if (scheme == "third") {
    out.scheme = xbar::BiasScheme::Third;
  } else {
    throw std::invalid_argument("attack.scheme must be 'half' or 'third'");
  }
  return out;
}

std::string toConfigText(const StudyConfig& config) {
  std::ostringstream os;
  os.precision(12);
  os << "[array]\n"
     << "rows = " << config.rows << "\n"
     << "cols = " << config.cols << "\n"
     << "[geometry]\n"
     << "spacing_nm = " << config.spacing * 1e9 << "\n"
     << "fem_alphas = " << (config.useFemAlphas ? "true" : "false") << "\n"
     << "fem_voxel_nm = " << config.femVoxelSize * 1e9 << "\n"
     << "[environment]\n"
     << "ambient_K = " << config.ambientK << "\n"
     << "[cell]\n"
     << "rth_eff_K_per_W = " << config.cellParams.rThEff << "\n"
     << "tau_thermal_ns = " << config.cellParams.tauThermal * 1e9 << "\n"
     << "activation_energy_set_eV = " << config.cellParams.activationEnergySet
     << "\n"
     << "activation_energy_reset_eV = "
     << config.cellParams.activationEnergyReset << "\n"
     << "kinetic_prefactor_set = " << config.cellParams.kineticPrefactorSet
     << "\n"
     << "filament_radius_nm = " << config.cellParams.rFilament * 1e9 << "\n"
     << "[detector]\n"
     << "read_voltage_V = " << config.detector.readVoltage << "\n"
     << "r_lrs_max = " << config.detector.rLrsMax << "\n"
     << "r_hrs_min = " << config.detector.rHrsMin << "\n"
     << "[engine]\n"
     << "batching = " << (config.engineOptions.enableBatching ? "true" : "false")
     << "\n"
     << "line_network = "
     << (config.engineOptions.solveLineNetwork ? "true" : "false") << "\n";
  return os.str();
}

}  // namespace nh::core

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/attack.hpp"
#include "core/campaign.hpp"
#include "core/experiment_registry.hpp"
#include "core/study.hpp"
#include "fem/alpha.hpp"
#include "fem/geometry.hpp"
#include "fem/thermal.hpp"
#include "util/stats.hpp"
#include "xbar/scheme.hpp"
#include "xbar/sneak.hpp"
#include "xbar/spicesim.hpp"

namespace perfbench {

namespace core = nh::core;
namespace fem = nh::fem;
namespace xbar = nh::xbar;
using nh::util::JsonValue;
using nh::util::JsonWriter;

const std::vector<LayerMetric>& perLayerCatalog() {
  static const std::vector<LayerMetric> catalog = {
      // Spans around public calls (median duration in the traced run).
      {"core.study.build_ms", "ms", "core.study.build", 1e3},
      {"xbar.bench.build_ms", "ms", "xbar.bench.build", 1e3},
      {"core.attack.run_s", "s", "core.attack.run"},
      {"xbar.sneak.margin_ms", "ms", "xbar.sneak.margin", 1e3},
      {"core.campaign.run_s", "s", "core.campaign.run"},
      {"fem.model.build_ms", "ms", "fem.model.build", 1e3},
      {"fem.extract_s", "s", "fem.extract"},
      {"spice.build_ms", "ms", "spice.build", 1e3},
      {"spice.transient_s", "s", "spice.transient"},
      {"xbar.fast.train_ms", "ms", "xbar.fast.train", 1e3},
      // Counts from public results.
      {"core.attack.pulses_applied", "count"},
      {"core.attack.pulses_detailed", "count"},
      {"core.attack.batch_factor", "ratio"},
      {"xbar.network.newton_iters", "count"},
      {"xbar.network.newton_per_pulse", "1/pulse"},
      {"core.campaign.trials", "count"},
      {"core.campaign.worker_busy_frac", "fraction"},
      {"core.campaign.trial_p50_ms", "ms"},
      {"core.campaign.trial_p90_ms", "ms"},
      {"core.campaign.trial_samples", "count"},
      {"fem.cg_iters", "count"},
      {"spice.accepted_steps", "count"},
      {"spice.step_us", "us"},
      // Probes timed on the workload's final state.
      {"jart.conduction_ns", "ns"},
      {"jart.current_ns", "ns"},
      {"jart.conductance_ns", "ns"},
      {"xbar.hub.refresh_us", "us"},
      {"xbar.network.substep_ms", "ms"},
      {"fem.solve.first_ms", "ms"},
      {"fem.solve.reuse_ms", "ms"},
      // Traced minus untraced median operation time, over untraced.
      {"trace.overhead_frac", "fraction"},
  };
  return catalog;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : nh::util::quantile(std::move(v), 0.5);
}

// ---- output checks --------------------------------------------------------

void Checker::near(const std::string& what, double expected, double actual,
                   const nh::core::ColumnTolerance& tolerance) {
  if (nh::core::withinTolerance(expected, actual, tolerance)) return;
  std::ostringstream msg;
  msg.precision(10);
  msg << what << ": expected " << expected << " (rel " << tolerance.rel
      << ", abs " << tolerance.abs << "), got " << actual;
  failures_.push_back(msg.str());
}

void Checker::within(const std::string& what, double lo, double hi,
                     double actual) {
  if (actual >= lo && actual <= hi) return;
  std::ostringstream msg;
  msg.precision(10);
  msg << what << ": expected within [" << lo << ", " << hi << "], got "
      << actual;
  failures_.push_back(msg.str());
}

void Checker::require(const std::string& what, bool ok) {
  if (!ok) failures_.push_back(what);
}

namespace {

/// Tolerance the registry declares for \p column of experiment \p name.
core::ColumnTolerance registryTolerance(const std::string& name,
                                        const std::string& column) {
  const core::ExperimentSpec spec = core::makeExperiment(name);
  for (const core::ColumnSpec& c : spec.columns) {
    if (c.name == column) return c.tolerance;
  }
  throw std::logic_error("registry column " + name + "." + column +
                         " not found");
}

double num(const JsonValue& ref, const std::string& key) {
  return ref.at(key).asNumber();
}

std::vector<double> numbers(const JsonValue& array) {
  std::vector<double> out;
  for (const JsonValue& v : array.items()) out.push_back(v.asNumber());
  return out;
}

/// Defeats dead-code elimination of probe results.
volatile double g_sink = 0.0;

/// Median per-call time [s] of \p pass (which makes \p callsPerPass calls),
/// repeated for at least 0.1 s and 3 passes.
template <class Pass>
double perCallSeconds(std::size_t callsPerPass, Pass&& pass) {
  std::vector<double> perCall;
  const Clock::time_point start = Clock::now();
  while (perCall.size() < 3 || secondsSince(start) < 0.1) {
    const Clock::time_point t = Clock::now();
    pass();
    perCall.push_back(secondsSince(t) / static_cast<double>(callsPerPass));
  }
  return median(std::move(perCall));
}

/// JART probes over every cell of \p array at its voltage under \p bias.
void probeJart(const xbar::CrossbarArray& array, const xbar::LineBias& bias,
               Values& out) {
  const std::size_t rows = array.rows();
  const std::size_t cols = array.cols();
  const std::size_t cells = rows * cols;
  const double conduction = perCallSeconds(cells, [&] {
    double acc = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const auto& d = array.cell(r, c);
        acc += d.model()
                   .solveConduction(bias.cellVoltage(r, c), d.nDisc(),
                                    d.temperature())
                   .current;
      }
    }
    g_sink = g_sink + acc;
  });
  const double current = perCallSeconds(cells, [&] {
    double acc = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c)
        acc += array.cell(r, c).current(bias.cellVoltage(r, c));
    }
    g_sink = g_sink + acc;
  });
  const double conductance = perCallSeconds(cells, [&] {
    double acc = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c)
        acc += array.cell(r, c).conductance(bias.cellVoltage(r, c));
    }
    g_sink = g_sink + acc;
  });
  out["jart.conduction_ns"] = conduction * 1e9;
  out["jart.current_ns"] = current * 1e9;
  out["jart.conductance_ns"] = conductance * 1e9;
}

/// Crosstalk-hub refresh and one line-network substep on \p engine's final
/// state. The substep advances the engine, so it runs last.
void probeEngine(xbar::FastEngine& engine, const xbar::LineBias& bias,
                 double width, Values& out) {
  const xbar::CrossbarArray& array = engine.array();
  nh::util::Matrix excess(array.rows(), array.cols());
  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c)
      excess(r, c) = array.cell(r, c).selfExcessTemperature();
  }
  const double refresh = perCallSeconds(1, [&] {
    const nh::util::Matrix t = engine.hub().inputTemperatures(excess);
    g_sink = g_sink + t(0, 0);
  });
  out["xbar.hub.refresh_us"] = refresh * 1e6;

  const double substeps =
      static_cast<double>(engine.options().substepsPerPulse);
  std::vector<double> perSubstep;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t = Clock::now();
    engine.applyBias(bias, width);
    perSubstep.push_back(secondsSince(t) / substeps);
  }
  out["xbar.network.substep_ms"] = median(std::move(perSubstep)) * 1e3;
}

/// Counters of one attack, in the per-layer vocabulary.
void attackCounts(const core::AttackResult& r, std::size_t newtonIters,
                  Values& out) {
  const double applied = static_cast<double>(r.pulsesApplied);
  const double detailed = static_cast<double>(r.pulsesSimulated);
  out["core.attack.pulses_applied"] = applied;
  out["core.attack.pulses_detailed"] = detailed;
  out["core.attack.batch_factor"] = detailed > 0.0 ? applied / detailed : 0.0;
  out["xbar.network.newton_iters"] = static_cast<double>(newtonIters);
  out["xbar.network.newton_per_pulse"] =
      detailed > 0.0 ? static_cast<double>(newtonIters) / detailed : 0.0;
}

// ---- attack_large ---------------------------------------------------------

/// Centre-cell single-aggressor attack to the flip on a large array, then the
/// worst-case read margin of the same array configuration.
class AttackLarge final : public Workload {
 public:
  explicit AttackLarge(WorkloadOptions options) : opt_(std::move(options)) {
    const core::ExperimentSpec spec = core::makeExperiment("scaling_array_size");
    n_ = opt_.tiny ? 16 : 128;
    config_ = spec.base;
    config_.rows = config_.cols = n_;
    maxPulses_ = spec.maxPulses;
    countTol_ = registryTolerance("scaling_array_size", "pulses");
    reachTol_ = registryTolerance("scaling_array_size", "reach_cells");
    chebyTol_ = registryTolerance("scaling_array_size", "reach_cheby");
    marginTol_ = registryTolerance("scaling_array_size", "margin");
  }

  void setup(Tracer& tracer) override {
    bench_.engine.reset();
    bench_.array.reset();
    study_.reset();
    {
      auto span = tracer.span("core.study.build");
      study_ = std::make_unique<core::AttackStudy>(config_);
    }
    auto span = tracer.span("xbar.bench.build");
    bench_ = study_->makeBench();
  }

  std::size_t attemptsPerOp() const override { return 1; }

  OpOutcome run(Tracer& tracer, std::size_t, Checker& check) override {
    const std::size_t centre = n_ / 2;
    core::AttackEngine engine(*bench_.engine, config_.detector);
    core::AttackConfig attack;
    attack.aggressors = {{centre, centre}};
    attack.maxPulses = maxPulses_;
    {
      auto span = tracer.span("core.attack.run");
      last_ = engine.run(attack);
    }
    newtonIters_ = bench_.engine->newtonIterationsTotal();

    // Reach at the flip, as scaling_array_size measures it: HRS cells the
    // disturbance dragged off their initial state, and the farthest one's
    // Chebyshev distance from the aggressor.
    reachCells_ = 0.0;
    reachCheby_ = 0.0;
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t c = 0; c < n_; ++c) {
        if (r == centre && c == centre) continue;
        if (bench_.array->cell(r, c).normalisedState() < 0.05) continue;
        reachCells_ += 1.0;
        const std::size_t dr = r > centre ? r - centre : centre - r;
        const std::size_t dc = c > centre ? c - centre : centre - c;
        reachCheby_ = std::max(reachCheby_, static_cast<double>(std::max(dr, dc)));
      }
    }
    {
      auto span = tracer.span("xbar.sneak.margin");
      margin_ = xbar::worstCaseReadMargin(study_->arrayConfig(), 0.2,
                                          xbar::ReadScheme::HalfBias)
                    .margin;
    }

    const JsonValue& ref = opt_.reference;
    if (!ref.isNull()) {
      check.require("attack flipped", last_.flipped);
      check.near("pulses_to_flip", num(ref, "pulses_to_flip"),
                 static_cast<double>(last_.pulsesToFlip), countTol_);
      // The word-line neighbours left and right of the aggressor are mirror
      // images; either one flipping first is the reference outcome.
      const auto refRow = static_cast<std::size_t>(num(ref, "flipped_row"));
      const auto refCol = static_cast<std::size_t>(num(ref, "flipped_col"));
      const std::size_t mirrorCol = 2 * centre - refCol;
      check.require("flipped cell is (" + std::to_string(refRow) + "," +
                        std::to_string(refCol) + ") or its mirror",
                    last_.flippedCell.row == refRow &&
                        (last_.flippedCell.col == refCol ||
                         last_.flippedCell.col == mirrorCol));
      check.near("reach_cells", num(ref, "reach_cells"), reachCells_, reachTol_);
      check.near("reach_cheby", num(ref, "reach_cheby"), reachCheby_, chebyTol_);
      check.near("margin", num(ref, "margin"), margin_, marginTol_);
    }
    OpOutcome out;
    out.items = static_cast<double>(last_.pulsesApplied);
    out.attempted = 1;
    out.failed = check.ok() ? 0 : 1;
    return out;
  }

  void layerMetrics(Values& out) override {
    attackCounts(last_, newtonIters_, out);
    const std::size_t centre = n_ / 2;
    const core::HammerPulse pulse;
    const xbar::LineBias bias = xbar::selectBias(
        xbar::BiasScheme::Half, n_, n_, centre, centre, pulse.amplitude);
    probeJart(*bench_.array, bias, out);
    probeEngine(*bench_.engine, bias, pulse.width, out);
  }

  void writeOutputs(JsonWriter& w) const override {
    w.beginObject();
    w.key("size").value(n_);
    w.key("pulses_to_flip").value(last_.pulsesToFlip);
    w.key("flipped_row").value(last_.flippedCell.row);
    w.key("flipped_col").value(last_.flippedCell.col);
    w.key("reach_cells").value(reachCells_);
    w.key("reach_cheby").value(reachCheby_);
    w.key("margin").value(margin_);
    w.endObject();
  }

 private:
  WorkloadOptions opt_;
  std::size_t n_ = 0;
  core::StudyConfig config_;
  std::size_t maxPulses_ = 0;
  core::ColumnTolerance countTol_, reachTol_, chebyTol_, marginTol_;
  std::unique_ptr<core::AttackStudy> study_;
  core::AttackStudy::Bench bench_;
  core::AttackResult last_;
  std::size_t newtonIters_ = 0;
  double reachCells_ = 0.0;
  double reachCheby_ = 0.0;
  double margin_ = 0.0;
};

// ---- campaign_small -------------------------------------------------------

/// Monte-Carlo variability campaign on 5x5 arrays (campaign_flip_rate base,
/// sigma = 0.10) on the thread pool.
class CampaignSmall final : public Workload {
 public:
  explicit CampaignSmall(WorkloadOptions options) : opt_(std::move(options)) {
    const core::ExperimentSpec spec = core::makeExperiment("campaign_flip_rate");
    config_.base = spec.base;
    config_.sigma = 0.10;
    config_.budget = spec.maxPulses;
    // 256 trials = four default-size batches: one per worker on 4 cores.
    config_.trials = opt_.tiny ? 32 : 256;
    config_.threads = opt_.threads;
    fracTol_ = registryTolerance("campaign_flip_rate", "flip_rate");
    countTol_ = registryTolerance("campaign_flip_rate", "median");
  }

  /// The base study and bench, and on them the nominal trial: the attack
  /// every campaign trial runs, on the unperturbed (sigma = 0) cell. The
  /// operation checks the campaign's distribution against it.
  void setup(Tracer& tracer) override {
    bench_.engine.reset();
    bench_.array.reset();
    study_.reset();
    {
      auto span = tracer.span("core.study.build");
      study_ = std::make_unique<core::AttackStudy>(config_.base);
    }
    {
      auto span = tracer.span("xbar.bench.build");
      bench_ = study_->makeBench();
    }
    core::AttackEngine engine(*bench_.engine, config_.base.detector);
    auto span = tracer.span("core.attack.run");
    nominal_ = engine.run(nominalAttack());
    nominalNewton_ = bench_.engine->newtonIterationsTotal();
  }

  std::size_t attemptsPerOp() const override { return config_.trials; }

  /// Operation 0 runs the benchmark seed itself; later operations draw
  /// further campaign seeds from it, so one run samples several campaigns.
  std::uint64_t opSeed(std::size_t op) const {
    return opt_.seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(op);
  }

  OpOutcome run(Tracer& tracer, std::size_t op, Checker& check) override {
    core::CampaignConfig cfg = config_;
    cfg.seed = opSeed(op);

    // Per-trial latency: the gap between consecutive completions on the same
    // worker (the first one counts from the campaign start).
    std::mutex mutex;
    std::map<std::thread::id, Clock::time_point> lastDone;
    std::vector<double> gaps;
    const Clock::time_point start = Clock::now();
    cfg.onTrialComplete = [&](std::size_t, std::size_t) {
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mutex);
      auto it = lastDone.try_emplace(std::this_thread::get_id(), start).first;
      gaps.push_back(std::chrono::duration<double>(now - it->second).count());
      it->second = now;
    };
    {
      auto span = tracer.span("core.campaign.run");
      last_ = core::runCampaign(cfg);
    }
    const double wall = secondsSince(start);
    lastSeed_ = cfg.seed;
    trials_ += last_.trials;
    double busy = 0.0;
    for (const double g : gaps) busy += g;
    busySeconds_ += busy;
    capacitySeconds_ += wall * static_cast<double>(cfg.threads);
    trialGaps_.insert(trialGaps_.end(), gaps.begin(), gaps.end());

    const JsonValue& ref = opt_.reference;
    if (!ref.isNull()) {
      check.require("no failed trials", last_.trialsFailed == 0);
      check.require("trial count",
                    last_.trials == static_cast<std::size_t>(num(ref, "trials")));
      check.require("nominal trial flipped", nominal_.flipped);
      check.near("nominal_pulses", num(ref, "nominal_pulses"),
                 static_cast<double>(nominal_.pulsesToFlip), countTol_);
      // The unperturbed cell sits inside the bulk of the perturbed ones.
      check.within("nominal_pulses inside campaign p10..p90 (seed " +
                       std::to_string(cfg.seed) + ")",
                   last_.p10Pulses, last_.p90Pulses,
                   static_cast<double>(nominal_.pulsesToFlip));
      const struct {
        const char* key;
        double value;
        const core::ColumnTolerance* tol;
      } stats[] = {{"flip_rate", last_.flipRate, &fracTol_},
                   {"p10", last_.p10Pulses, &countTol_},
                   {"median", last_.medianPulses, &countTol_},
                   {"p90", last_.p90Pulses, &countTol_}};
      const bool pinned = cfg.seed == static_cast<std::uint64_t>(num(ref, "seed"));
      for (const auto& s : stats) {
        if (pinned) {
          check.near(s.key, num(ref, s.key), s.value, *s.tol);
        } else {
          const std::vector<double> band =
              numbers(ref.at("intervals").at(s.key));
          check.within(std::string(s.key) + " (seed " +
                           std::to_string(cfg.seed) + ")",
                       band.at(0), band.at(1), s.value);
        }
      }
    }
    OpOutcome out;
    out.items = static_cast<double>(last_.trials);
    out.attempted = last_.trials;
    out.failed = check.ok() ? last_.trialsFailed : last_.trials;
    return out;
  }

  void layerMetrics(Values& out) override {
    out["core.campaign.trials"] = static_cast<double>(trials_);
    out["core.campaign.worker_busy_frac"] =
        capacitySeconds_ > 0.0 ? busySeconds_ / capacitySeconds_ : 0.0;
    std::vector<double> gaps = trialGaps_;
    std::sort(gaps.begin(), gaps.end());
    if (!gaps.empty()) {
      out["core.campaign.trial_p50_ms"] = nh::util::quantileSorted(gaps, 0.5) * 1e3;
      out["core.campaign.trial_p90_ms"] = nh::util::quantileSorted(gaps, 0.9) * 1e3;
    }
    out["core.campaign.trial_samples"] = static_cast<double>(gaps.size());

    // The campaign keeps its per-trial attack results to itself, so the
    // attack counters and probes come from the nominal trial of the last
    // set-up.
    attackCounts(nominal_, nominalNewton_, out);
    const std::size_t centre = config_.base.rows / 2;
    const xbar::LineBias bias =
        xbar::selectBias(xbar::BiasScheme::Half, config_.base.rows,
                         config_.base.cols, centre, centre, config_.pulse.amplitude);
    probeJart(*bench_.array, bias, out);
    probeEngine(*bench_.engine, bias, config_.pulse.width, out);
  }

  void writeOutputs(JsonWriter& w) const override {
    w.beginObject();
    w.key("seed").value(static_cast<std::size_t>(lastSeed_));
    w.key("trials").value(last_.trials);
    w.key("flip_rate").value(last_.flipRate);
    w.key("p10").value(last_.p10Pulses);
    w.key("median").value(last_.medianPulses);
    w.key("p90").value(last_.p90Pulses);
    w.key("nominal_pulses").value(nominal_.pulsesToFlip);
    w.endObject();
  }

 private:
  /// The centre attack runCampaign gives every trial.
  core::AttackConfig nominalAttack() const {
    core::AttackConfig attack;
    const std::size_t r = config_.base.rows / 2;
    const std::size_t c = config_.base.cols / 2;
    attack.aggressors = {{r, c}};
    attack.pulse = config_.pulse;
    attack.maxPulses = config_.budget;
    attack.scheme = config_.scheme;
    attack.victims = {{r, c - 1}, {r, c + 1}, {r - 1, c}, {r + 1, c}};
    return attack;
  }

  WorkloadOptions opt_;
  core::CampaignConfig config_;
  core::ColumnTolerance fracTol_, countTol_;
  std::unique_ptr<core::AttackStudy> study_;
  core::AttackStudy::Bench bench_;
  core::AttackResult nominal_;
  std::size_t nominalNewton_ = 0;
  core::CampaignResult last_;
  std::uint64_t lastSeed_ = 0;
  std::size_t trials_ = 0;
  double busySeconds_ = 0.0;
  double capacitySeconds_ = 0.0;
  std::vector<double> trialGaps_;
};

// ---- thermal_extract ------------------------------------------------------

/// FEM voxel model build plus Rth/alpha extraction (paper 5x5 layout, 5 nm
/// voxels, three power points around the centre cell) at several spacings.
class ThermalExtract final : public Workload {
 public:
  explicit ThermalExtract(WorkloadOptions options) : opt_(std::move(options)) {
    spacings_ = opt_.tiny ? std::vector<double>{10e-9}
                          : std::vector<double>{10e-9, 30e-9, 50e-9};
    rthTol_ = registryTolerance("fig2a_thermal_matrix", "rth_K_per_W");
    alphaTol_ = registryTolerance("fig2a_thermal_matrix", "alpha");
    for (const double s : spacings_) {
      if (isFig2aSpacing(s)) loadFig2aBaseline();
    }
  }

  void setup(Tracer& tracer) override {
    models_.clear();
    for (const double s : spacings_) {
      auto span = tracer.span("fem.model.build");
      fem::CrossbarLayout layout;
      layout.spacing = s;
      models_.push_back(fem::CrossbarModel3D::build(layout));
    }
  }

  std::size_t attemptsPerOp() const override { return spacings_.size(); }

  OpOutcome run(Tracer& tracer, std::size_t, Checker& check) override {
    OpOutcome out;
    results_.clear();
    const JsonValue& ref = opt_.reference;
    for (std::size_t i = 0; i < spacings_.size(); ++i) {
      {
        auto span = tracer.span("fem.extract");
        results_.push_back(fem::extractAlpha(models_[i],
                                             fem::MaterialTable::defaults(), 2,
                                             2, kPowers, 300.0));
      }
      ++out.attempted;
      out.items += 1.0;
      if (ref.isNull()) continue;
      const fem::AlphaResult& r = results_.back();
      const std::string tag =
          std::to_string(static_cast<int>(std::lround(spacings_[i] * 1e9))) + " nm";
      Checker local;
      const JsonValue& at = ref.at("extractions").items().at(i);
      local.near("rth " + tag, num(at, "rth"), r.rTh, rthTol_);
      compareAlpha("alpha " + tag, numbers(at.at("alpha")), r, local);
      if (isFig2aSpacing(spacings_[i])) {
        local.near("rth 50 nm vs fig2a baseline", baselineRth_, r.rTh, rthTol_);
        compareAlpha("alpha 50 nm vs fig2a baseline", baselineAlpha_, r, local);
      }
      if (!local.ok()) ++out.failed;
      for (const std::string& f : local.failures()) check.require(f, false);
    }
    return out;
  }

  void layerMetrics(Values& out) override {
    // First solve on a fresh solver (assembly and preconditioner set-up
    // included) against a second, structure-reusing solve of the same
    // scenario, on the last spacing's model.
    fem::ThermalScenario scenario;
    scenario.model = &models_.back();
    scenario.cellPower = nh::util::Matrix(5, 5);
    scenario.cellPower(2, 2) = kPowers[1];
    std::vector<double> first;
    std::vector<double> reuse;
    std::size_t iterations = 0;
    for (int rep = 0; rep < 3; ++rep) {
      fem::ThermalSolver solver;
      Clock::time_point t = Clock::now();
      const fem::ThermalSolution a = solver.solve(scenario);
      first.push_back(secondsSince(t));
      t = Clock::now();
      const fem::ThermalSolution b = solver.solve(scenario);
      reuse.push_back(secondsSince(t));
      iterations = b.stats.iterations;
      g_sink = g_sink + a.cellTemperature(2, 2) + b.cellTemperature(2, 2);
    }
    out["fem.cg_iters"] = static_cast<double>(iterations);
    out["fem.solve.first_ms"] = median(first) * 1e3;
    out["fem.solve.reuse_ms"] = median(reuse) * 1e3;
  }

  void writeOutputs(JsonWriter& w) const override {
    w.beginObject();
    w.key("extractions").beginArray();
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const fem::AlphaResult& r = results_[i];
      w.beginObject();
      w.key("spacing_nm").value(spacings_[i] * 1e9);
      w.key("rth").value(r.rTh);
      w.key("alpha").beginArray();
      for (std::size_t row = 0; row < r.alpha.rows(); ++row) {
        for (std::size_t col = 0; col < r.alpha.cols(); ++col)
          w.value(r.alpha(row, col));
      }
      w.endArray();
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }

 private:
  inline static const std::vector<double> kPowers = {0.05e-3, 0.10e-3, 0.15e-3};

  /// The spacing baselines/fig2a_thermal_matrix.json was recorded at.
  static bool isFig2aSpacing(double s) { return std::abs(s - 50e-9) < 1e-12; }

  void compareAlpha(const std::string& what, const std::vector<double>& expected,
                    const fem::AlphaResult& r, Checker& check) const {
    const std::size_t cols = r.alpha.cols();
    check.require(what + ": 25 entries",
                  expected.size() == r.alpha.rows() * cols);
    if (expected.size() != r.alpha.rows() * cols) return;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      check.near(what + "[" + std::to_string(k) + "]", expected[k],
                 r.alpha(k / cols, k % cols), alphaTol_);
    }
  }

  void loadFig2aBaseline() {
    const std::string path = opt_.baselineDir + "/fig2a_thermal_matrix.json";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    const JsonValue& row = doc.at("rows").items().at(0);
    baselineRth_ = row.items().at(1).asNumber();
    baselineAlpha_ = numbers(row.items().at(5).at("values"));
  }

  WorkloadOptions opt_;
  std::vector<double> spacings_;
  core::ColumnTolerance rthTol_, alphaTol_;
  double baselineRth_ = 0.0;
  std::vector<double> baselineAlpha_;
  std::vector<fem::CrossbarModel3D> models_;
  std::vector<fem::AlphaResult> results_;
};

// ---- spice_crosscheck -----------------------------------------------------

/// SPICE-level hammer transient on a mid-size array, then the same pulse
/// train on the quasi-static engine; the victim drifts must agree.
class SpiceCrosscheck final : public Workload {
 public:
  explicit SpiceCrosscheck(WorkloadOptions options) : opt_(std::move(options)) {
    n_ = opt_.tiny ? 4 : 16;
    pulses_ = opt_.tiny ? 2 : 10;
    arrayConfig_.rows = arrayConfig_.cols = n_;
    // No registry column matches a drift; drifts are normalised states
    // (fractions), so they take the registry's fraction/ratio tolerance.
    fracTol_ = registryTolerance("scaling_array_size", "margin");
  }

  void setup(Tracer& tracer) override {
    spice_.reset();
    fast_.reset();
    const std::size_t a = n_ / 2;
    for (auto* array : {&spiceArray_, &fastArray_}) {
      *array = std::make_unique<xbar::CrossbarArray>(arrayConfig_);
      (*array)->fill(xbar::CellState::Hrs);
      (*array)->setState(a, a, xbar::CellState::Lrs);
    }
    {
      auto span = tracer.span("spice.build");
      xbar::SpiceEngineOptions options;
      options.traceCells = false;
      spice_ = std::make_unique<xbar::SpiceCrossbar>(*spiceArray_, table(), options);
      spice_->programHammer(a, a, kAmplitude, kWidth, kPeriod,
                            static_cast<long long>(pulses_));
    }
    fast_ = std::make_unique<xbar::FastEngine>(*fastArray_, table());
  }

  std::size_t attemptsPerOp() const override { return 1; }

  OpOutcome run(Tracer& tracer, std::size_t, Checker& check) override {
    const std::size_t a = n_ / 2;
    nh::spice::TransientResult transient;
    {
      auto span = tracer.span("spice.transient");
      const Clock::time_point t = Clock::now();
      transient = spice_->run(static_cast<double>(pulses_) * kPeriod);
      transientSeconds_ = secondsSince(t);
    }
    {
      auto span = tracer.span("xbar.fast.train");
      fast_->applyPulseTrain(bias(), kWidth, kPeriod - kWidth, pulses_);
    }
    completed_ = transient.completed;
    steps_ = transient.time.size();
    driftSpice_ = spiceArray_->cell(a, a - 1).normalisedState();
    driftFast_ = fastArray_->cell(a, a - 1).normalisedState();
    ratio_ = driftSpice_ > 0.0 ? driftFast_ / driftSpice_ : 0.0;

    const JsonValue& ref = opt_.reference;
    if (!ref.isNull()) {
      check.require("transient completed: " + transient.failureReason,
                    completed_);
      check.near("spice victim drift", num(ref, "victim_drift"), driftSpice_,
                 fracTol_);
      check.near("fast/spice drift ratio", num(ref, "drift_ratio"), ratio_,
                 fracTol_);
      // The engine-equivalence band the test suite holds the engines to.
      check.within("fast/spice drift ratio band", 0.7, 1.3, ratio_);
    }
    OpOutcome out;
    out.items = static_cast<double>(pulses_);
    out.attempted = 1;
    out.failed = check.ok() ? 0 : 1;
    return out;
  }

  void layerMetrics(Values& out) override {
    out["spice.accepted_steps"] = static_cast<double>(steps_);
    out["spice.step_us"] =
        steps_ > 0 ? transientSeconds_ / static_cast<double>(steps_) * 1e6 : 0.0;
    // The SPICE array's final state at the hammer bias: the operating points
    // Memristor::stamp evaluates current and conductance at.
    probeJart(*spiceArray_, bias(), out);
    probeEngine(*fast_, bias(), kWidth, out);
  }

  void writeOutputs(JsonWriter& w) const override {
    w.beginObject();
    w.key("size").value(n_);
    w.key("pulses").value(pulses_);
    w.key("completed").value(completed_);
    w.key("accepted_steps").value(steps_);
    w.key("victim_drift").value(driftSpice_);
    w.key("fast_drift").value(driftFast_);
    w.key("drift_ratio").value(ratio_);
    w.endObject();
  }

 private:
  static constexpr double kAmplitude = 1.05;
  static constexpr double kWidth = 50e-9;
  static constexpr double kPeriod = 100e-9;

  static xbar::AlphaTable table() { return xbar::AlphaTable::analytic(10e-9); }
  xbar::LineBias bias() const {
    return xbar::selectBias(xbar::BiasScheme::Half, n_, n_, n_ / 2, n_ / 2,
                            kAmplitude);
  }

  WorkloadOptions opt_;
  std::size_t n_ = 0;
  std::size_t pulses_ = 0;
  xbar::ArrayConfig arrayConfig_;
  core::ColumnTolerance fracTol_;
  std::unique_ptr<xbar::CrossbarArray> spiceArray_;
  std::unique_ptr<xbar::CrossbarArray> fastArray_;
  std::unique_ptr<xbar::SpiceCrossbar> spice_;
  std::unique_ptr<xbar::FastEngine> fast_;
  bool completed_ = false;
  std::size_t steps_ = 0;
  double transientSeconds_ = 0.0;
  double driftSpice_ = 0.0;
  double driftFast_ = 0.0;
  double ratio_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       WorkloadOptions options) {
  if (name == "attack_large") return std::make_unique<AttackLarge>(std::move(options));
  if (name == "campaign_small")
    return std::make_unique<CampaignSmall>(std::move(options));
  if (name == "thermal_extract")
    return std::make_unique<ThermalExtract>(std::move(options));
  if (name == "spice_crosscheck")
    return std::make_unique<SpiceCrosscheck>(std::move(options));
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench

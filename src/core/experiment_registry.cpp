#include "core/experiment_registry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>

#include "core/campaign.hpp"
#include "core/defense.hpp"
#include "core/scenario.hpp"
#include "fem/alpha.hpp"
#include "fem/transient.hpp"
#include "jart/ivsweep.hpp"
#include "jart/kinetics.hpp"
#include "util/annotations.hpp"
#include "util/csv.hpp"
#include "util/linreg.hpp"
#include "util/table.hpp"
#include "xbar/sneak.hpp"

namespace nh::core {

namespace {

using nh::util::AsciiTable;
using Formatter = std::function<std::string(const ResultValue&)>;
using Shape = ColumnSpec::Shape;
using Tol = ColumnSpec::Tolerance;

/// Baseline tolerance policy (see ColumnTolerance): axis echoes and labels
/// compare exactly (default Tol{}); physical outputs get headroom for
/// cross-compiler floating-point drift -- counts can shift by a few pulses
/// near a flip threshold, FEM/integration results by ~the solver tolerance.
constexpr Tol kCountTol{0.05, 2.0, false};     ///< Pulse/trial counts.
constexpr Tol kTimeTol{0.05, 1e-12, false};    ///< Stress times, energies.
constexpr Tol kTempTol{5e-3, 0.5, false};      ///< Temperatures [K].
constexpr Tol kFracTol{0.02, 5e-3, false};     ///< Fractions, alphas, ratios.
constexpr Tol kRatioTol{0.1, 0.05, false};     ///< Cross-row count ratios.
constexpr Tol kKineticsTol{0.15, 1e-10, false};///< t_SET (exp. sensitivity).
constexpr Tol kIgnoreTol{0.0, 0.0, true};      ///< Wall-clock measurements.

/// SI formatting after scaling the stored cell value (cells keep the CSV
/// unit, e.g. nanoseconds; the ASCII table shows "50 ns" via scale 1e-9).
Formatter siScaled(double scale, std::string unit, int decimals = 0) {
  return [scale, unit = std::move(unit), decimals](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return AsciiTable::si(v.number * scale, unit, decimals);
  };
}

/// Scientific notation with \p digits after the point ("1.93e+06").
Formatter scientific(int digits) {
  return [digits](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return AsciiTable::scientific(v.number, digits);
  };
}

/// "12.3 %" from a stored fraction.
Formatter percent(int decimals) {
  return [decimals](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return AsciiTable::fixed(100.0 * v.number, decimals) + " %";
  };
}

double pulsesOf(const AttackResult& r) {
  return static_cast<double>(r.pulsesToFlip);
}

/// Validated integer axis value in [lo, hi]: several specs use an axis as
/// a case index or array size, and the CLI's --set can feed it anything --
/// reject instead of indexing out of bounds (or the UB of casting a
/// negative double to an unsigned type).
std::size_t integerAxis(const PointContext& ctx, const std::string& axis,
                        std::size_t lo, std::size_t hi) {
  const double v = ctx.value(axis);
  if (!(v >= static_cast<double>(lo)) || v > static_cast<double>(hi) ||
      v != std::floor(v)) {
    throw std::invalid_argument(
        "experiment '" + ctx.spec->name + "': axis '" + axis +
        "' must be an integer in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got " + nh::util::formatDouble(v));
  }
  return static_cast<std::size_t>(v);
}

/// Case-table index: integerAxis over [0, count-1].
std::size_t caseIndex(const PointContext& ctx, const std::string& axis,
                      std::size_t count) {
  return integerAxis(ctx, axis, 0, count - 1);
}

// ---- Fig. 3 ---------------------------------------------------------------

ExperimentSpec fig3aSpec() {
  ExperimentSpec spec;
  spec.name = "fig3a_pulse_length";
  spec.title = "Fig. 3a -- impact of the pulse length";
  spec.description =
      "centre-cell attack, V_SET = 1.05 V, 50% duty, spacing 50 nm, "
      "T0 = 300 K";
  spec.paperShape =
      "pulses-to-flip falls ~1/length (10^4 -> 10^3 in the paper); "
      "extra penalty at short pulses from the thermal ramp";
  spec.tableTitle = "Fig. 3a: pulses to trigger a bit-flip vs pulse length";
  std::vector<double> widths;
  for (int ns = 10; ns <= 100; ns += 10) widths.push_back(ns * 1e-9);
  spec.axes = {{"width", widths, {20e-9, 50e-9, 100e-9}, {}}};
  spec.columns = {
      {"pulse_length_ns", "pulse length", siScaled(1e-9, "s")},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"stress_time_s", "stress time", colfmt::si("s", 2), Shape::Scalar,
       kTimeTol},
      {"flipped", "flipped", colfmt::flipped()},
  };
  spec.run = [](const PointContext& ctx) {
    HammerPulse pulse;
    pulse.width = ctx.value("width");
    const AttackResult r = ctx.study->attackCenter(pulse, ctx.maxPulses);
    return std::vector<ResultValue>{
        ResultValue::num(pulse.width * 1e9), ResultValue::num(pulsesOf(r)),
        ResultValue::num(r.stressTime), ResultValue::boolean(r.flipped)};
  };
  spec.finalize = [](ExperimentResult& result) {
    if (result.rows.size() < 2) return;
    const auto& first = result.rows.front();
    const auto& last = result.rows.back();
    if (first[3].number == 0.0 || last[3].number == 0.0) return;
    const double slope = std::log10(last[1].number / first[1].number) /
                         std::log10(last[0].number / first[0].number);
    result.notes.push_back("log-log slope (first->last point): " +
                           AsciiTable::fixed(slope, 2) + "  (paper: ~ -1)");
  };
  return spec;
}

ExperimentSpec fig3bSpec() {
  ExperimentSpec spec;
  spec.name = "fig3b_electrode_spacing";
  spec.title = "Fig. 3b -- impact of the electrode spacing";
  spec.description =
      "centre-cell attack, pulse lengths {50, 75, 100} ns, T0 = 300 K";
  spec.paperShape =
      "pulses-to-flip rises ~2 decades from 10 nm to 90 nm; longer "
      "pulses need proportionally fewer";
  spec.tableTitle =
      "Fig. 3b: pulses to trigger a bit-flip vs electrode spacing";
  spec.axes = {{"spacing",
                {10e-9, 50e-9, 90e-9},
                {},
                [](StudyConfig& cfg, double v) { cfg.spacing = v; }},
               {"width", {50e-9, 75e-9, 100e-9}, {50e-9}, {}}};
  spec.columns = {
      {"spacing_nm", "spacing", siScaled(1e-9, "m")},
      {"pulse_length_ns", "pulse length", siScaled(1e-9, "s")},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
  };
  spec.run = [](const PointContext& ctx) {
    HammerPulse pulse;
    pulse.width = ctx.value("width");
    const AttackResult r = ctx.study->attackCenter(pulse, ctx.maxPulses);
    return std::vector<ResultValue>{
        ResultValue::num(ctx.value("spacing") * 1e9),
        ResultValue::num(pulse.width * 1e9), ResultValue::num(pulsesOf(r)),
        ResultValue::boolean(r.flipped)};
  };
  spec.notes = {
      "paper @50 ns: ~10^3 (10 nm) -> ~10^4 (50 nm) -> ~10^5 (90 nm)"};
  return spec;
}

ExperimentSpec fig3cSpec() {
  ExperimentSpec spec;
  spec.name = "fig3c_ambient_temperature";
  spec.title = "Fig. 3c -- impact of the ambient temperature";
  spec.description =
      "centre-cell attack, spacing 50 nm, pulse lengths {10, 30, 50} ns";
  spec.paperShape =
      "~3 decades fewer pulses from 273 K to 373 K (Arrhenius "
      "switching kinetics)";
  spec.tableTitle =
      "Fig. 3c: pulses to trigger a bit-flip vs ambient temperature";
  // 273 K at 10 ns needs a few million pulses -- the budget caps it there.
  spec.maxPulses = 20'000'000;
  spec.axes = {{"ambient",
                {273.0, 298.0, 323.0, 348.0, 373.0},
                {298.0, 348.0},
                [](StudyConfig& cfg, double v) { cfg.ambientK = v; }},
               {"width", {10e-9, 30e-9, 50e-9}, {50e-9}, {}}};
  spec.columns = {
      {"ambient_K", "ambient", colfmt::fixed(0, " K")},
      {"pulse_length_ns", "pulse length", siScaled(1e-9, "s")},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
  };
  spec.run = [](const PointContext& ctx) {
    HammerPulse pulse;
    pulse.width = ctx.value("width");
    const AttackResult r = ctx.study->attackCenter(pulse, ctx.maxPulses);
    return std::vector<ResultValue>{
        ResultValue::num(ctx.value("ambient")),
        ResultValue::num(pulse.width * 1e9), ResultValue::num(pulsesOf(r)),
        ResultValue::boolean(r.flipped)};
  };
  spec.notes = {"paper @10 ns: ~10^5 (273 K) -> ~10^2..10^3 (373 K)"};
  return spec;
}

ExperimentSpec fig3dSpec() {
  ExperimentSpec spec;
  spec.name = "fig3d_attack_patterns";
  spec.title = "Fig. 3d-h -- impact of the attack pattern";
  spec.description =
      "victim = centre cell, aggressors hammered round-robin, "
      "spacing 50 nm, 50 ns pulses, T0 = 300 K";
  spec.paperShape =
      "word-line aggressors dominate: the row pair halves the pulse "
      "count; off-line aggressors add heat but dilute the victim's "
      "V/2 stress duty";
  spec.tableTitle =
      "Fig. 3d: pulses to flip the centre victim per attack pattern";
  spec.fastMaxPulses = 500'000;
  const std::size_t patternCount = allPatterns().size();
  std::vector<double> indices(patternCount);
  for (std::size_t i = 0; i < patternCount; ++i) {
    indices[i] = static_cast<double>(i);
  }
  spec.axes = {{"pattern", indices, {}, {}}};
  spec.columns = {
      {"pattern", "pattern", {}},
      {"aggressors", "aggressors", {}},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
  };
  spec.run = [](const PointContext& ctx) {
    const AttackPattern pattern =
        allPatterns()[caseIndex(ctx, "pattern", allPatterns().size())];
    const HammerPulse pulse;  // 1.05 V / 50 ns / 50% duty
    const AttackResult r =
        ctx.study->attackPattern(pattern, pulse, ctx.maxPulses);
    const auto aggressors = patternAggressors(
        pattern, {ctx.config.rows / 2, ctx.config.cols / 2}, ctx.config.rows,
        ctx.config.cols);
    return std::vector<ResultValue>{
        ResultValue::str(patternName(pattern)),
        ResultValue::num(static_cast<double>(aggressors.size())),
        ResultValue::num(pulsesOf(r)), ResultValue::boolean(r.flipped)};
  };
  spec.notes = {
      "single/row-pair hammer the victim's word line (strong coupling);",
      "column-pair works through the weaker top-electrode path; cross/ring",
      "add heat but spend pulses on lines that do not stress the victim."};
  return spec;
}

// ---- ablations ------------------------------------------------------------

ExperimentSpec alphaTruncationSpec() {
  ExperimentSpec spec;
  spec.name = "ablation_alpha_truncation";
  spec.title = "ablation -- crosstalk truncation radius";
  spec.description =
      "centre attack at 10 nm / 300 K / 50 ns, alpha table truncated";
  spec.paperShape =
      "radius 0 kills the attack (it is thermal); radius 1 misses "
      "the mutual heating of the two word-line victims (they sit "
      "two columns apart) and overestimates the pulse count";
  spec.tableTitle = "pulses-to-flip vs coupling truncation";
  spec.base.spacing = 10e-9;
  spec.maxPulses = 2'000'000;
  spec.axes = {{"radius", {2.0, 1.0, 0.0}, {}, {}}};
  spec.columns = {
      {"radius", "kept couplings",
       [](const ResultValue& v) {
         if (v.kind == ResultValue::Kind::Text) return v.text;
         if (v.number == 2.0) return std::string("radius 2 (full)");
         if (v.number == 1.0) return std::string("radius 1 (direct ring)");
         return std::string("radius 0 (no crosstalk)");
       }},
      {"pulses", "pulses-to-flip", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
      {"vs_full", "vs full table", colfmt::fixed(2, "x"), Shape::Scalar,
       kRatioTol},
  };
  spec.run = [](const PointContext& ctx) {
    const auto radius =
        static_cast<long long>(integerAxis(ctx, "radius", 0, 2));
    auto bench = ctx.study->makeBench();
    xbar::AlphaTable table = ctx.study->alphas();
    table.truncate(radius);
    xbar::FastEngine engine(*bench.array, table, ctx.config.engineOptions);
    AttackEngine attack(engine, ctx.config.detector);
    AttackConfig cfg;
    cfg.aggressors = {{ctx.config.rows / 2, ctx.config.cols / 2}};
    cfg.maxPulses = ctx.maxPulses;
    const AttackResult r = attack.run(cfg);
    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(radius)),
        ResultValue::num(pulsesOf(r)), ResultValue::boolean(r.flipped),
        ResultValue::str("-")};
  };
  spec.finalize = [](ExperimentResult& result) {
    // The ratio column compares to the full (radius 2) table; located by
    // axis value so --set reorderings cannot silently shift the reference.
    const std::vector<ResultValue>* full = nullptr;
    for (const auto& row : result.rows) {
      if (row[0].number == 2.0) full = &row;
    }
    if (!full || (*full)[2].number == 0.0 || (*full)[1].number <= 0.0) return;
    const double fullPulses = (*full)[1].number;
    for (auto& row : result.rows) {
      if (row[2].number != 0.0) {
        row[3] = ResultValue::num(row[1].number / fullPulses);
      }
    }
  };
  spec.notes = {
      "radius 0 removes the thermal coupling entirely: the half-select",
      "stress alone cannot flip the victim within the budget -- the",
      "attack is thermal, not electrical (paper Sec. III).",
      "radius 1 drops the (0,2) coupling between the two word-line",
      "victims, losing their cooperative self-heating near the flip."};
  return spec;
}

ExperimentSpec batchingSpec() {
  ExperimentSpec spec;
  spec.name = "ablation_batching";
  spec.title = "ablation -- pulse-batching accelerator";
  spec.description = "centre attack at 30 nm / 300 K / 50 ns; exact vs batched";
  spec.paperShape =
      "batched pulse counts within a few % of exact at ~10x less wall-clock";
  spec.tableTitle = "batching accuracy / speed trade-off";
  spec.base.spacing = 30e-9;  // flips in a few thousand pulses: exact feasible
  spec.maxPulses = 2'000'000;
  // The rows carry wall-clock measurements: points must not run
  // concurrently or they time each other under core contention and the
  // speedup column stops measuring the accelerator.
  spec.serialPoints = true;
  // drift_limit 0 encodes the exact (unbatched) reference run.
  spec.axes = {{"drift_limit", {0.0, 0.0005, 0.002, 0.01}, {0.0, 0.002},
                [](StudyConfig& cfg, double v) {
                  cfg.engineOptions.enableBatching = v > 0.0;
                  if (v > 0.0) cfg.engineOptions.batchDriftLimit = v;
                }}};
  spec.columns = {
      {"drift_limit", "mode / drift limit",
       [](const ResultValue& v) {
         if (v.kind == ResultValue::Kind::Text) return v.text;
         return v.number == 0.0 ? std::string("exact")
                                : AsciiTable::fixed(v.number, 4);
       }},
      {"pulses", "pulses-to-flip", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"error_frac", "error vs exact", percent(2), Shape::Scalar, kRatioTol},
      {"wall_s", "wall [s]", colfmt::fixed(2), Shape::Scalar, kIgnoreTol},
      {"speedup", "speedup", colfmt::fixed(1, "x"), Shape::Scalar, kIgnoreTol},
  };
  spec.run = [](const PointContext& ctx) {
    const auto t0 = std::chrono::steady_clock::now();
    const AttackResult r =
        ctx.study->attackCenter(HammerPulse{}, ctx.maxPulses);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    return std::vector<ResultValue>{
        ResultValue::num(ctx.value("drift_limit")),
        ResultValue::num(r.flipped ? pulsesOf(r) : 0.0), ResultValue::str("-"),
        ResultValue::num(wall), ResultValue::str("-")};
  };
  spec.finalize = [](ExperimentResult& result) {
    // Locate the exact run by its axis value (drift_limit == 0): --set can
    // reorder or drop it, and then the derived columns must stay "-".
    const std::vector<ResultValue>* exact = nullptr;
    for (auto& row : result.rows) {
      if (row[0].number == 0.0) {
        row[4] = ResultValue::num(1.0);
        if (!exact) exact = &row;
      }
    }
    if (!exact) return;
    const double exactPulses = (*exact)[1].number;
    const double exactWall = (*exact)[3].number;
    for (auto& row : result.rows) {
      if (row[0].number == 0.0) continue;
      if (exactPulses > 0.0) {
        row[2] = ResultValue::num(std::abs(row[1].number - exactPulses) /
                                  exactPulses);
      }
      if (row[3].number > 0.0) {
        row[4] = ResultValue::num(exactWall / row[3].number);
      }
    }
  };
  spec.notes = {
      "points run serially (never concurrently) so the wall-clock column is",
      "honest; it still varies run to run -- the pulse counts do not."};
  return spec;
}

ExperimentSpec hammerAmplitudeSpec() {
  ExperimentSpec spec;
  spec.name = "ablation_hammer_amplitude";
  spec.title = "ablation -- hammer pulse amplitude";
  spec.description =
      "centre attack at 50 nm / 300 K / 50 ns, amplitude swept "
      "around the nominal V_SET = 1.05 V";
  spec.paperShape =
      "each +0.1 V cuts pulses-to-flip by roughly an order of "
      "magnitude (sinh field term + hotter aggressor)";
  spec.tableTitle = "pulses-to-flip vs hammer amplitude";
  spec.maxPulses = 30'000'000;
  spec.axes = {
      {"amplitude", {0.85, 0.95, 1.05, 1.15, 1.25}, {1.05, 1.25}, {}}};
  spec.columns = {
      {"amplitude_V", "amplitude", colfmt::fixed(2, " V")},
      {"half_select_V", "half-select stress", colfmt::fixed(3, " V")},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
  };
  spec.run = [](const PointContext& ctx) {
    HammerPulse pulse;
    pulse.amplitude = ctx.value("amplitude");
    const AttackResult r = ctx.study->attackCenter(pulse, ctx.maxPulses);
    return std::vector<ResultValue>{
        ResultValue::num(pulse.amplitude),
        ResultValue::num(pulse.amplitude / 2.0), ResultValue::num(pulsesOf(r)),
        ResultValue::boolean(r.flipped)};
  };
  spec.notes = {
      "amplitudes above ~1.3 V start disturbing unselected cells in",
      "normal operation, so the attacker cannot raise V arbitrarily."};
  return spec;
}

ExperimentSpec thermalTauSpec() {
  ExperimentSpec spec;
  spec.name = "ablation_thermal_tau";
  spec.title = "ablation -- filament thermal time constant tau_th";
  spec.description =
      "centre attack at 50 nm / 300 K, pulse lengths 10 and 100 ns";
  spec.paperShape =
      "larger tau_th inflates pulses-to-flip at short pulse lengths "
      "far more than at long ones";
  spec.tableTitle = "pulses-to-flip vs thermal time constant";
  spec.maxPulses = 20'000'000;
  spec.axes = {{"tau", {0.5e-9, 2e-9, 5e-9}, {2e-9},
                [](StudyConfig& cfg, double v) { cfg.cellParams.tauThermal = v; }}};
  spec.columns = {
      {"tau_ns", "tau_th", siScaled(1e-9, "s", 1)},
      {"pulses_10ns", "pulses @10 ns", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"pulses_100ns", "pulses @100 ns", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"ratio", "ratio 10ns/100ns", colfmt::fixed(1), Shape::Scalar,
       kRatioTol},
  };
  // Both widths run against the same cached study (the axis only varies
  // tau), so each tau costs one study construction, not two.
  spec.run = [](const PointContext& ctx) {
    double pulses[2] = {0.0, 0.0};
    const double widths[2] = {10e-9, 100e-9};
    for (int i = 0; i < 2; ++i) {
      HammerPulse pulse;
      pulse.width = widths[i];
      const AttackResult r = ctx.study->attackCenter(pulse, ctx.maxPulses);
      pulses[i] = r.flipped ? pulsesOf(r) : 0.0;
    }
    return std::vector<ResultValue>{
        ResultValue::num(ctx.value("tau") * 1e9), ResultValue::num(pulses[0]),
        ResultValue::num(pulses[1]),
        ResultValue::num(pulses[1] > 0.0 ? pulses[0] / pulses[1] : 0.0)};
  };
  spec.notes = {
      "a pure 1/length law would give ratio 10; the excess is the warm-up "
      "tax"};
  return spec;
}

ExperimentSpec schemeDefenseSpec() {
  ExperimentSpec spec;
  spec.name = "ablation_scheme_defense";
  spec.title = "countermeasures -- scheme, scrubbing, monitoring, throttling";
  spec.description =
      "reference attack: centre cell, 10 nm spacing (fast regime), "
      "50 ns pulses, 300 K";
  spec.paperShape =
      "V/3 scheme and fast scrubbing stop the attack; activation "
      "monitors detect it early; throttling does not help";
  spec.tableTitle = "countermeasure effectiveness vs the reference attack";
  spec.base.spacing = 10e-9;
  spec.maxPulses = 1'000'000;
  spec.fastMaxPulses = 200'000;
  // One row per countermeasure case; the scrub/monitor settings scale with
  // the reference (undefended) pulses-to-flip, recomputed per point from the
  // shared cached study -- deterministic, so parallel runs stay
  // bit-identical.
  spec.axes = {{"case", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}, {}}};
  // The setting/outcome labels embed counts derived from the reference
  // attack (scrub passes, refresh totals); a single-pulse shift would flip
  // an exact text compare, so the baseline only pins the countermeasure
  // label, the pulse column, and -- via the pulses tolerance -- the verdict.
  spec.columns = {
      {"countermeasure", "countermeasure", {}},
      {"setting", "setting", {}, Shape::Scalar, kIgnoreTol},
      {"pulses", "pulses", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"outcome", "outcome", {}, Shape::Scalar, kIgnoreTol},
  };
  // The undefended reference attack (which the scrub intervals and monitor
  // thresholds scale with) is identical for every point: compute it once
  // per run via a shared memo instead of once per case. call_once keeps the
  // value deterministic under parallel points, so 1-vs-N-thread runs stay
  // bit-identical.
  struct ReferenceMemo {
    nh::util::Mutex mutex;
    std::map<std::size_t, std::size_t> pulsesByBudget
        NH_GUARDED_BY(mutex);  // spec may be re-run
  };
  auto memo = std::make_shared<ReferenceMemo>();
  spec.run = [memo](const PointContext& ctx) {
    const HammerPulse pulse;  // 1.05 V / 50 ns / 50% duty
    const std::size_t budget = ctx.maxPulses;
    const xbar::CellCoord centre{ctx.config.rows / 2, ctx.config.cols / 2};
    auto row = [](std::string what, std::string setting, double pulses,
                  std::string outcome) {
      return std::vector<ResultValue>{
          ResultValue::str(std::move(what)), ResultValue::str(std::move(setting)),
          ResultValue::num(pulses), ResultValue::str(std::move(outcome))};
    };
    const std::size_t which = caseIndex(ctx, "case", 10);
    if (which == 0) {
      const AttackResult r = ctx.study->attackCenter(pulse, budget);
      return row("none (V/2 scheme)", "0.525 V half-select", pulsesOf(r),
                 r.flipped ? "victim flips" : "survives budget");
    }
    if (which == 1) {
      AttackConfig attack;
      attack.aggressors = {centre};
      attack.scheme = xbar::BiasScheme::Third;
      attack.pulse = pulse;
      attack.maxPulses = budget;
      const AttackResult r = ctx.study->attack(attack);
      return row("V/3 biasing scheme", "0.350 V half-select", pulsesOf(r),
                 r.flipped ? "victim flips" : "attack defeated");
    }
    if (which >= 7) {
      const double duty = which == 7 ? 0.5 : which == 8 ? 0.2 : 0.05;
      const auto outcomes =
          evaluateThrottling(ctx.config, pulse.width, {duty}, budget);
      const ThrottleOutcome& o = outcomes.front();
      return row("duty-cycle throttling", "duty " + AsciiTable::fixed(duty, 2),
                 static_cast<double>(o.pulses),
                 o.flipped ? "no help (victim flips)" : "survives budget");
    }
    // Scrub/monitor settings are fractions of the memoised undefended flip
    // count. Computing under the lock serialises the (deterministic)
    // reference attack to exactly one execution per run/budget.
    std::size_t reference;
    {
      const nh::util::MutexLock lock(memo->mutex);
      auto it = memo->pulsesByBudget.find(budget);
      if (it == memo->pulsesByBudget.end()) {
        const AttackResult ref = ctx.study->attackCenter(pulse, budget);
        it = memo->pulsesByBudget
                 .emplace(budget, ref.flipped ? ref.pulsesToFlip : budget)
                 .first;
      }
      reference = it->second;
    }
    if (which >= 2 && which <= 4) {
      const double frac = which == 2 ? 0.25 : which == 3 ? 1.0 : 4.0;
      ScrubbingConfig scrub;
      scrub.intervalPulses = std::max<std::size_t>(
          1, static_cast<std::size_t>(frac * static_cast<double>(reference)));
      const ScrubbingOutcome o =
          evaluateScrubbing(ctx.config, pulse, scrub, 3 * reference);
      return row(
          "refresh scrubbing",
          "interval " + AsciiTable::grouped(
                            static_cast<long long>(scrub.intervalPulses)) +
              " pulses",
          static_cast<double>(o.attackSucceeded ? o.pulsesUntilFlip
                                                : o.pulsesSurvived),
          o.attackSucceeded
              ? "victim flips"
              : "defeated (" + std::to_string(o.scrubPasses) + " passes, " +
                    std::to_string(o.cellsRefreshed) + " refreshes)");
    }
    const double frac = which == 5 ? 0.2 : 2.0;
    MonitorConfig monitor;
    monitor.lineThreshold = std::max<std::size_t>(
        1, static_cast<std::size_t>(frac * static_cast<double>(reference)));
    const MonitorOutcome o = evaluateMonitor(ctx.config, pulse, monitor, budget);
    return row(
        "activation monitor",
        "threshold " +
            AsciiTable::grouped(static_cast<long long>(monitor.lineThreshold)),
        static_cast<double>(o.pulsesUntilDetection),
        !o.attackDetected ? "NOT detected"
        : o.flippedBeforeDetection ? "flip before detection (too slow)"
                                   : "detected before the flip");
  };
  spec.notes = {
      "V/3 trades attack immunity for stress on *all* cells and 3x the",
      "driver effort -- the classic scheme trade-off. Scrubbing faster than",
      "~the flip time defeats the attack at the cost of refresh traffic.",
      "Throttling is flat: victim heating settles within each pulse",
      "(tau_th ~ 2 ns << period), so idle time between pulses is no defence."};
  return spec;
}

ExperimentSpec variabilitySpec() {
  ExperimentSpec spec;
  spec.name = "ablation_variability";
  spec.title = "extension -- device-to-device variability";
  spec.description =
      "Monte-Carlo over perturbed JART parameters, centre attack at "
      "30 nm / 300 K / 50 ns; counter-based per-trial RNG streams";
  spec.paperShape =
      "pulses-to-flip spreads over ~1 decade at sigma = 5%; flip "
      "rate stays 100% (the attack is robust to variability)";
  spec.tableTitle = "pulses-to-flip distribution under parameter variability";
  spec.base.spacing = 30e-9;
  // Each trial perturbs the cell parameters and builds its own study inside
  // runCampaign, so the dedup cache has nothing to share here.
  spec.buildStudies = false;
  spec.axes = {{"sigma", {0.02, 0.05, 0.10}, {}, {}}};
  spec.columns = {
      {"sigma", "sigma", colfmt::fixed(2)},
      {"trials", "trials", {}},
      {"flip_rate", "flip rate", percent(0), Shape::Scalar, kFracTol},
      {"min", "min", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"median", "median", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"max", "max", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"spread_decades", "spread [dec]", colfmt::fixed(2), Shape::Scalar,
       kRatioTol},
  };
  spec.run = [](const PointContext& ctx) {
    CampaignConfig cfg;
    cfg.base = ctx.config;
    cfg.trials = ctx.fast ? 5 : 25;
    cfg.sigma = ctx.value("sigma");
    cfg.seed = 1234;
    cfg.budget = ctx.maxPulses;
    const CampaignResult r = runCampaign(cfg);
    // min/max of the flipped trials; 0 when none flipped.
    const auto [lo, hi] =
        std::minmax_element(r.pulsesPerFlip.begin(), r.pulsesPerFlip.end());
    const bool any = !r.pulsesPerFlip.empty();
    return std::vector<ResultValue>{
        ResultValue::num(cfg.sigma),
        ResultValue::num(static_cast<double>(r.trials)),
        ResultValue::num(r.flipRate),
        ResultValue::num(any ? static_cast<double>(*lo) : 0.0),
        ResultValue::num(r.medianPulses),
        ResultValue::num(any ? static_cast<double>(*hi) : 0.0),
        ResultValue::num(r.spreadDecades)};
  };
  spec.notes = {
      "spread comes almost entirely from the activation-energy jitter",
      "(kinetics are exponential in Ea/kT)."};
  return spec;
}

// ---- statistical campaigns (core/campaign) --------------------------------

ExperimentSpec campaignFlipRateSpec() {
  ExperimentSpec spec;
  spec.name = "campaign_flip_rate";
  spec.title = "campaign -- flip-rate and pulses-to-flip with intervals";
  spec.description =
      "Monte-Carlo campaign over device variability, centre attack at "
      "30 nm / 300 K / 50 ns; counter-based per-trial RNG streams "
      "(bit-identical for any thread count and batch size)";
  spec.paperShape =
      "flip rate ~100% with a tight Wilson interval; pulses-to-flip "
      "p10..p90 spans about a decade at sigma = 10%";
  spec.tableTitle = "campaign: flip-rate and pulses-to-flip distribution";
  spec.base.spacing = 30e-9;
  // Every trial perturbs the cell parameters and builds its own study inside
  // runCampaign (deliberately bypassing the study-dedup cache).
  spec.buildStudies = false;
  spec.axes = {
      {"sigma", {0.05, 0.10}, {0.05}, {}},
      {"trials", {400.0}, {24.0}, {}},
  };
  spec.columns = {
      {"sigma", "sigma", colfmt::fixed(2)},
      {"trials", "trials", {}},
      {"flip_rate", "flip rate", percent(0), Shape::Scalar, kFracTol},
      {"flip_lo", "Wilson lo", percent(1), Shape::Scalar, kFracTol},
      {"flip_hi", "Wilson hi", percent(1), Shape::Scalar, kFracTol},
      {"p10", "p10", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"median", "median", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"p90", "p90", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"median_lo", "median lo", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"median_hi", "median hi", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"spread_decades", "spread [dec]", colfmt::fixed(2), Shape::Scalar,
       kRatioTol},
  };
  spec.run = [](const PointContext& ctx) {
    CampaignConfig cfg;
    cfg.base = ctx.config;
    cfg.trials = static_cast<std::size_t>(ctx.value("trials"));
    cfg.sigma = ctx.value("sigma");
    cfg.budget = ctx.maxPulses;
    const CampaignResult r = runCampaign(cfg);
    return std::vector<ResultValue>{
        ResultValue::num(cfg.sigma),
        ResultValue::num(static_cast<double>(r.trials)),
        ResultValue::num(r.flipRate),
        ResultValue::num(r.flipRateCI.lo),
        ResultValue::num(r.flipRateCI.hi),
        ResultValue::num(r.p10Pulses),
        ResultValue::num(r.medianPulses),
        ResultValue::num(r.p90Pulses),
        ResultValue::num(r.medianPulsesCI.lo),
        ResultValue::num(r.medianPulsesCI.hi),
        ResultValue::num(r.spreadDecades)};
  };
  spec.notes = {
      "Wilson interval on flips/trials; percentile bootstrap on the median.",
      "Trial i draws from Rng::forStream(seed, i) -- see docs/campaigns.md",
      "for the stream-plan contract the invariance tests pin."};
  return spec;
}

ExperimentSpec campaignDefenseBlindSpec() {
  ExperimentSpec spec;
  spec.name = "campaign_defense_blind";
  spec.title = "campaign -- blinded A/B: V/2 attack vs V/3 countermeasure";
  spec.description =
      "STAR-style blind analysis: two campaign arms (V/2 half-select vs the "
      "V/3 biasing defence) analysed as opaque 'arm A'/'arm B', unblinded "
      "only after the record is frozen; 10 nm / 300 K / 50 ns, paired "
      "per-trial variability streams, 4,000-pulse attacker budget";
  spec.paperShape =
      "the arms separate at 95% confidence: within the budget the V/2 arm "
      "flips every trial (~320 pulses) while V/3 multiplies the required "
      "pulses ~36x past the budget, so the defended arm never flips";
  spec.tableTitle = "blinded A/B campaign: V/2 attack vs V/3 defence";
  spec.base.spacing = 10e-9;
  // The budget sits between the V/2 flip count (~320 pulses) and the V/3
  // flip count (~11.6k; see ablation_scheme_defense): the countermeasure
  // works by pushing the attack past a realistic hammering budget, and the
  // campaign asks whether variability ever closes that gap.
  spec.maxPulses = 4'000;
  spec.fastMaxPulses = 4'000;
  spec.buildStudies = false;
  spec.axes = {
      {"arm", {0.0, 1.0}, {}, {}},
      {"trials", {100.0}, {8.0}, {}},
  };
  spec.columns = {
      {"arm", "blinded arm", {}},
      {"trials", "trials", {}},
      {"flip_rate", "flip rate", percent(0), Shape::Scalar, kFracTol},
      {"flip_lo", "Wilson lo", percent(1), Shape::Scalar, kFracTol},
      {"flip_hi", "Wilson hi", percent(1), Shape::Scalar, kFracTol},
      {"separated", "arms separated", colfmt::yesNo(), Shape::Scalar,
       kFracTol},
      {"label", "unblinded label", {}},
  };
  // One BlindedAbStudy serves both arm rows: memoised per (trials, budget)
  // under a lock, so parallel points run it exactly once and 1-vs-N-thread
  // runs stay bit-identical.
  struct BlindMemo {
    struct Record {
      CampaignResult arms[2];
      std::string labels[2];
      bool separated = false;
    };
    nh::util::Mutex mutex;
    std::map<std::pair<std::size_t, std::size_t>, Record> byKey
        NH_GUARDED_BY(mutex);
  };
  auto memo = std::make_shared<BlindMemo>();
  spec.run = [memo](const PointContext& ctx) {
    const std::size_t arm = caseIndex(ctx, "arm", 2);
    const auto trials = static_cast<std::size_t>(ctx.value("trials"));
    const std::size_t budget = ctx.maxPulses;
    BlindMemo::Record record;
    {
      const nh::util::MutexLock lock(memo->mutex);
      auto it = memo->byKey.find({trials, budget});
      if (it == memo->byKey.end()) {
        CampaignConfig attackArm;
        attackArm.base = ctx.config;
        attackArm.trials = trials;
        attackArm.budget = budget;
        attackArm.scheme = xbar::BiasScheme::Half;
        // The defended arm shares the seed: trial i of both arms sees the
        // same perturbed device (a paired comparison -- lower-variance
        // delta than independent draws).
        CampaignConfig defendedArm = attackArm;
        defendedArm.scheme = xbar::BiasScheme::Third;
        BlindedAbStudy study("V/2 half-select (attack)", attackArm,
                             "V/3 scheme (defended)", defendedArm,
                             /*salt=*/0x57a2b11dULL);
        study.run();
        BlindMemo::Record fresh;
        const auto names = BlindedAbStudy::armNames();
        fresh.arms[0] = study.result(names[0]);
        fresh.arms[1] = study.result(names[1]);
        fresh.separated = study.separated();
        // Freeze the record, then reveal: the labels column below exists
        // only because the analysis is already committed.
        study.unblind();
        fresh.labels[0] = study.trueLabel(names[0]);
        fresh.labels[1] = study.trueLabel(names[1]);
        it = memo->byKey.emplace(std::make_pair(trials, budget), fresh).first;
      }
      record = it->second;
    }
    const CampaignResult& r = record.arms[arm];
    return std::vector<ResultValue>{
        ResultValue::str(BlindedAbStudy::armNames()[arm]),
        ResultValue::num(static_cast<double>(r.trials)),
        ResultValue::num(r.flipRate),
        ResultValue::num(r.flipRateCI.lo),
        ResultValue::num(r.flipRateCI.hi),
        ResultValue::boolean(record.separated),
        ResultValue::str(record.labels[arm])};
  };
  spec.notes = {
      "Which physical configuration is 'arm A' is a salted hash of the",
      "labels -- fixed salt here so the table is reproducible, fresh salt",
      "per analysis in the field. See docs/campaigns.md for when",
      "unblinding is permitted."};
  return spec;
}

ExperimentSpec campaignArrayHealthSpec() {
  ExperimentSpec spec;
  spec.name = "campaign_array_health";
  spec.title = "campaign -- per-cell array-health (disturb-rate) matrix";
  spec.description =
      "CMS-style per-cell quality map: fraction of campaign trials in which "
      "each cell's read classification was disturbed; centre attack at "
      "10 nm / 300 K / 50 ns";
  spec.paperShape =
      "disturbs concentrate on the aggressor's word-line neighbours "
      "(strongest thermal coupling); far corners stay clean";
  spec.tableTitle = "campaign: per-cell disturb rate over variability trials";
  spec.base.spacing = 10e-9;
  spec.maxPulses = 200'000;
  spec.fastMaxPulses = 100'000;
  spec.buildStudies = false;
  spec.axes = {{"trials", {300.0}, {24.0}, {}}};
  spec.columns = {
      {"trials", "trials", {}},
      {"flip_rate", "flip rate", percent(0), Shape::Scalar, kFracTol},
      {"hot_cells", "disturbed cells", {}, Shape::Scalar, kCountTol},
      {"max_cell_rate", "max cell rate", percent(1), Shape::Scalar, kFracTol},
      {"cell_disturb_rate", "disturb rate", colfmt::fixed(3), Shape::Matrix,
       kFracTol},
  };
  spec.run = [](const PointContext& ctx) {
    CampaignConfig cfg;
    cfg.base = ctx.config;
    cfg.trials = static_cast<std::size_t>(ctx.value("trials"));
    cfg.budget = ctx.maxPulses;
    cfg.recordCellHealth = true;
    const CampaignResult r = runCampaign(cfg);
    std::size_t hot = 0;
    double maxRate = 0.0;
    for (const double rate : r.cellDisturbRate) {
      if (rate > 0.0) ++hot;
      maxRate = std::max(maxRate, rate);
    }
    std::vector<double> matrix = r.cellDisturbRate;
    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(r.trials)),
        ResultValue::num(r.flipRate),
        ResultValue::num(static_cast<double>(hot)),
        ResultValue::num(maxRate),
        ResultValue::matrix(r.healthRows, r.healthCols, std::move(matrix))};
  };
  spec.notes = {
      "Aggressor cells read exactly 0 (their LRS preparation is not a",
      "disturb event); a cell counts as disturbed when its detector",
      "classification changed from the pre-attack snapshot."};
  return spec;
}

// ---- extension / substrate studies ---------------------------------------

ExperimentSpec victimDistanceSpec() {
  ExperimentSpec spec;
  spec.name = "scaling_victim_distance";
  spec.title = "extension -- victim distance / attack blast radius (7x7)";
  spec.description =
      "aggressor at the centre of a 7x7 array, 10 nm spacing, 50 ns "
      "pulses, one monitored victim per run";
  spec.paperShape =
      "word-line victims flip fastest; two cells away costs ~1-2 "
      "decades; beyond the coupling radius the attack fails";
  spec.tableTitle = "pulses-to-flip vs victim offset from the aggressor";
  spec.base.rows = 7;
  spec.base.cols = 7;
  spec.base.spacing = 10e-9;
  spec.maxPulses = 10'000'000;
  spec.fastMaxPulses = 500'000;
  spec.axes = {{"case", {0, 1, 2, 3, 4, 5, 6}, {}, {}}};
  spec.columns = {
      {"position", "victim position", {}},
      {"dr", "dr", {}},
      {"dc", "dc", {}},
      {"alpha", "alpha", colfmt::fixed(4), Shape::Scalar, kFracTol},
      {"shares_line", "shares a line",
       [](const ResultValue& v) {
         if (v.kind == ResultValue::Kind::Text) return v.text;
         return std::string(v.number != 0.0 ? "yes (V/2 stress)"
                                            : "no (heat only)");
       }},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
  };
  spec.run = [](const PointContext& ctx) {
    struct Case {
      const char* label;
      long long dr, dc;
    };
    static constexpr Case kCases[] = {
        {"word line, 1 away", 0, 1}, {"word line, 2 away", 0, 2},
        {"word line, 3 away", 0, 3}, {"bit line, 1 away", 1, 0},
        {"bit line, 2 away", 2, 0},  {"diagonal, (1,1)", 1, 1},
        {"diagonal, (2,2)", 2, 2},
    };
    const Case& c = kCases[caseIndex(ctx, "case", std::size(kCases))];
    const std::size_t cr = ctx.config.rows / 2;
    const std::size_t cc = ctx.config.cols / 2;
    AttackConfig attack;
    attack.aggressors = {{cr, cc}};
    attack.victims = {{static_cast<std::size_t>(cr + c.dr),
                       static_cast<std::size_t>(cc + c.dc)}};
    attack.maxPulses = ctx.maxPulses;
    const AttackResult r = ctx.study->attack(attack);
    const double alpha = ctx.study->alphas().at(c.dr, c.dc);
    const bool sharesLine = c.dr == 0 || c.dc == 0;
    return std::vector<ResultValue>{
        ResultValue::str(c.label),
        ResultValue::num(static_cast<double>(c.dr)),
        ResultValue::num(static_cast<double>(c.dc)), ResultValue::num(alpha),
        ResultValue::boolean(sharesLine), ResultValue::num(pulsesOf(r)),
        ResultValue::boolean(r.flipped)};
  };
  spec.notes = {
      "diagonal victims receive heat but no half-select stress, so they",
      "cannot flip at all under the single-aggressor V/2 pattern --",
      "the blast radius is confined to the aggressor's own lines.",
      "NOTE the domino effect at 'word line, 3 away' (alpha = 0): nearer",
      "victims flip first, then their own LRS half-select Joule heating",
      "relays the attack outward along the line."};
  return spec;
}

ExperimentSpec attackEnergySpec() {
  ExperimentSpec spec;
  spec.name = "attack_energy";
  spec.title = "attack energy budget";
  spec.description =
      "centre attack, 50 ns pulses, 300 K; energy until the flip";
  spec.paperShape =
      "total flip energy grows with spacing (more pulses); the "
      "aggressor cell dominates the per-cell breakdown";
  spec.tableTitle = "energy to induce one bit-flip";
  spec.axes = {{"spacing",
                {10e-9, 50e-9, 90e-9},
                {10e-9, 50e-9},
                [](StudyConfig& cfg, double v) { cfg.spacing = v; }}};
  spec.columns = {
      {"spacing_nm", "spacing", colfmt::fixed(0, " nm")},
      {"pulses", "# pulses", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"energy_J", "total energy", colfmt::si("J", 2), Shape::Scalar, kTimeTol},
      {"energy_per_pulse_J", "energy/pulse", colfmt::si("J", 2), Shape::Scalar,
       kTimeTol},
      {"aggressor_share", "aggressor share", percent(1), Shape::Scalar,
       kFracTol},
  };
  spec.run = [](const PointContext& ctx) {
    auto bench = ctx.study->makeBench();
    AttackEngine attack(*bench.engine, ctx.config.detector);
    AttackConfig a;
    const std::size_t cr = ctx.config.rows / 2;
    const std::size_t cc = ctx.config.cols / 2;
    a.aggressors = {{cr, cc}};
    a.maxPulses = ctx.maxPulses;
    const AttackResult r = attack.run(a);
    const double energy = bench.engine->totalEnergy();
    const double aggShare =
        energy > 0.0 ? bench.engine->energyByCell()(cr, cc) / energy : 0.0;
    const double perPulse =
        energy / static_cast<double>(std::max<std::size_t>(r.pulsesToFlip, 1));
    return std::vector<ResultValue>{
        ResultValue::num(ctx.value("spacing") * 1e9),
        ResultValue::num(pulsesOf(r)), ResultValue::num(energy),
        ResultValue::num(perPulse), ResultValue::num(aggShare)};
  };
  spec.notes = {
      "per-pulse energy is pJ-scale: invisible to coarse power",
      "monitoring; a per-line energy counter is the workable hook."};
  return spec;
}

ExperimentSpec sneakPathSpec() {
  ExperimentSpec spec;
  spec.name = "sneak_path_margin";
  spec.title = "substrate -- sneak paths and worst-case read margin";
  spec.description = "selected cell read at 0.2 V against an all-LRS array";
  spec.paperShape =
      "read margin collapses with array size under both schemes "
      "(the passive-crossbar scaling limit); the V/2 scheme's real "
      "guarantee is bounding the disturb voltage on unselected "
      "cells at write levels";
  spec.tableTitle = "worst-case read margin vs array size and scheme";
  spec.buildStudies = false;  // pure network analysis, no AttackStudy
  spec.axes = {{"size", {5, 9, 17, 33}, {5, 9}, {}},
               {"scheme", {0, 1}, {}, {}}};
  spec.columns = {
      {"size", "array",
       [](const ResultValue& v) {
         if (v.kind == ResultValue::Kind::Text) return v.text;
         const auto n = std::to_string(static_cast<long long>(v.number));
         return n + "x" + n;
       }},
      {"scheme", "scheme", {}},
      {"i_lrs", "I(sel=LRS)", colfmt::si("A", 2), Shape::Scalar, kFracTol},
      {"i_hrs", "I(sel=HRS)", colfmt::si("A", 2), Shape::Scalar, kFracTol},
      {"margin", "read margin", percent(1), Shape::Scalar, kFracTol},
      {"half_select_power_W", "half-select power", colfmt::si("W", 2),
       Shape::Scalar, kFracTol},
      {"disturb_V", "max disturb @1.05 V", colfmt::fixed(3, " V"),
       Shape::Scalar, kFracTol},
  };
  spec.run = [](const PointContext& ctx) {
    const std::size_t n = integerAxis(ctx, "size", 2, 1024);
    const auto scheme = caseIndex(ctx, "scheme", 2) == 0
                            ? xbar::ReadScheme::FloatingLines
                            : xbar::ReadScheme::HalfBias;
    xbar::ArrayConfig cfg;
    cfg.rows = n;
    cfg.cols = n;
    const auto margin = xbar::worstCaseReadMargin(cfg, 0.2, scheme);
    // Half-select power at the all-LRS worst case (the cost column).
    xbar::CrossbarArray lrsArray(cfg);
    lrsArray.fill(xbar::CellState::Lrs);
    const auto read = xbar::analyzeSneak(lrsArray, n / 2, n / 2, 0.2, scheme);
    // Write-level disturb bound on checkerboard data: the hazardous case
    // for floating lines (an HRS cell inside a conductive sneak chain).
    xbar::CrossbarArray mixed(cfg);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        mixed.setState(r, c, (r + c) % 2 == 0 ? xbar::CellState::Lrs
                                              : xbar::CellState::Hrs);
      }
    }
    const auto write = xbar::analyzeSneak(mixed, n / 2, n / 2, 1.05, scheme);
    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(n)),
        ResultValue::str(scheme == xbar::ReadScheme::FloatingLines ? "floating"
                                                                   : "V/2"),
        ResultValue::num(margin.iSelectedLrs),
        ResultValue::num(margin.iSelectedHrs), ResultValue::num(margin.margin),
        ResultValue::num(read.halfSelectPower),
        ResultValue::num(write.maxUnselectedVoltage)};
  };
  spec.notes = {
      "margin = (I_lrs - I_hrs) / I_lrs at the selected bit line; a sense",
      "amplifier needs a healthy positive margin. The cells' strong",
      "nonlinearity self-limits floating-line sneak at 0.2 V, so both",
      "schemes degrade similarly on reads. The V/2 scheme caps the",
      "write-level disturb at V/2 *by construction*, for any stored data;",
      "the floating-line bound lands near V/2 here only because the",
      "Schottky interface acts as a built-in selector (data-dependent)."};
  return spec;
}

ExperimentSpec enduranceSpec() {
  ExperimentSpec spec;
  spec.name = "endurance_half_select";
  spec.title = "security margin -- half-select endurance without crosstalk";
  spec.description =
      "cold V/2 stress on an HRS cell (alpha table zeroed) vs the "
      "hammered flip at 50 nm / 300 K / 50 ns";
  spec.paperShape =
      "cold disturb needs >10^6 pulses; hammering cuts that by "
      "~2 orders of magnitude at 50 nm and ~4 at 10 nm";
  spec.tableTitle = "half-select disturb: hammered vs normal operation";
  spec.maxPulses = 20'000'000;
  spec.fastMaxPulses = 1'000'000;
  spec.axes = {{"condition", {0, 1}, {}, {}}};  // 0 = hammered, 1 = cold
  spec.columns = {
      {"condition", "condition", {}},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
      {"stress_time_s", "stress time", colfmt::si("s", 2), Shape::Scalar,
       kTimeTol},
  };
  spec.run = [](const PointContext& ctx) {
    const bool cold = caseIndex(ctx, "condition", 2) == 1;
    AttackResult r;
    if (!cold) {
      r = ctx.study->attackCenter(HammerPulse{}, ctx.maxPulses);
    } else {
      // Same machinery, thermal coupling removed.
      auto bench = ctx.study->makeBench();
      xbar::AlphaTable noCoupling = ctx.study->alphas();
      noCoupling.truncate(0);
      xbar::FastEngine engine(*bench.array, noCoupling,
                              ctx.config.engineOptions);
      AttackEngine attack(engine, ctx.config.detector);
      AttackConfig cfg;
      cfg.aggressors = {{ctx.config.rows / 2, ctx.config.cols / 2}};
      cfg.maxPulses = ctx.maxPulses;
      r = attack.run(cfg);
    }
    return std::vector<ResultValue>{
        ResultValue::str(cold ? "normal operation (no crosstalk)"
                              : "hammered (crosstalk on)"),
        ResultValue::num(pulsesOf(r)), ResultValue::boolean(r.flipped),
        ResultValue::num(r.stressTime)};
  };
  spec.finalize = [](ExperimentResult& result) {
    // Locate the two conditions by axis value, not row position (--set can
    // reorder or drop one).
    const std::vector<ResultValue>* hot = nullptr;
    const std::vector<ResultValue>* cold = nullptr;
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      (result.pointValues[i][0] == 0.0 ? hot : cold) = &result.rows[i];
    }
    if (!hot || !cold) return;
    if ((*hot)[2].number != 0.0 && (*cold)[2].number != 0.0 &&
        (*hot)[1].number > 0.0) {
      result.notes.push_back(
          "attack advantage: " +
          AsciiTable::fixed((*cold)[1].number / (*hot)[1].number, 0) +
          "x fewer pulses than the intrinsic disturb limit");
    }
  };
  spec.notes = {
      "the cold number also bounds write-disturb endurance: a row",
      "tolerates that many writes before an unrelated HRS cell drifts."};
  return spec;
}

ExperimentSpec scalingArraySizeSpec() {
  ExperimentSpec spec;
  spec.name = "scaling_array_size";
  spec.title = "scaling -- NeuroHammer at real part sizes";
  spec.description =
      "centre-cell attack + worst-case read analysis vs array dimension, "
      "10 nm spacing, 50 ns pulses, sparse-first solve stack";
  spec.paperShape =
      "time-to-flip is size-independent (the attack mechanism is local) "
      "while the read margin collapses with size; wall-clock grows "
      "~linearly in the cell count, not cubically in the line count";
  spec.tableTitle = "attack + substrate health vs array size";
  spec.base.spacing = 10e-9;
  spec.maxPulses = 200'000;
  // Wall-clock columns: run the grid serially so a point's timing never
  // includes contention from a sibling point.
  spec.serialPoints = true;
  // Fast mode stops at 256: the 1024x1024 point alone costs ~10 minutes,
  // which belongs in the scheduled nightly run (.github/workflows/nightly.yml
  // runs the full grid), not in every PR's `check --all --fast`.
  spec.axes = {{"size",
                {64, 128, 256, 512, 1024},
                {64, 256},
                [](StudyConfig& cfg, double v) {
                  // Validated again in run(); the apply hook only shapes the
                  // study key.
                  cfg.rows = cfg.cols = static_cast<std::size_t>(v);
                }}};
  spec.columns = {
      {"size", "array",
       [](const ResultValue& v) {
         if (v.kind == ResultValue::Kind::Text) return v.text;
         const auto n = std::to_string(static_cast<long long>(v.number));
         return n + "x" + n;
       }},
      {"cells", "cells", colfmt::grouped()},
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"t_flip_s", "stress time", colfmt::si("s", 2), Shape::Scalar, kTimeTol},
      {"reach_cells", "disturbed cells", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"reach_cheby", "reach (Chebyshev)", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"margin", "read margin", percent(1), Shape::Scalar, kFracTol},
      {"attack_wall_s", "attack wall", colfmt::si("s", 2), Shape::Scalar,
       kIgnoreTol},
      {"sneak_wall_s", "sneak wall", colfmt::si("s", 2), Shape::Scalar,
       kIgnoreTol},
      {"wall_exponent", "local d log t / d log n", colfmt::fixed(2),
       Shape::Scalar, kIgnoreTol},
  };
  spec.run = [](const PointContext& ctx) {
    const std::size_t n = integerAxis(ctx, "size", 4, 4096);
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::duration d) {
      return std::chrono::duration<double>(d).count();
    };

    const auto attackStart = Clock::now();
    auto bench = ctx.study->makeBench();
    AttackEngine attack(*bench.engine, ctx.config.detector);
    AttackConfig a;
    const std::size_t cr = n / 2;
    const std::size_t cc = n / 2;
    a.aggressors = {{cr, cc}};
    a.maxPulses = ctx.maxPulses;
    const AttackResult r = attack.run(a);
    // Aggressor reach at the moment of the flip: how many HRS neighbours the
    // thermal disturbance has dragged off their initial state, and how far
    // out (Chebyshev distance) the farthest of them sits.
    double disturbed = 0.0;
    double reach = 0.0;
    for (std::size_t row = 0; row < n; ++row) {
      for (std::size_t col = 0; col < n; ++col) {
        if (row == cr && col == cc) continue;
        if (bench.array->cell(row, col).normalisedState() < 0.05) continue;
        disturbed += 1.0;
        const double dr = row > cr ? static_cast<double>(row - cr)
                                   : static_cast<double>(cr - row);
        const double dc = col > cc ? static_cast<double>(col - cc)
                                   : static_cast<double>(cc - col);
        reach = std::max(reach, std::max(dr, dc));
      }
    }
    const double attackWall = seconds(Clock::now() - attackStart);

    const auto sneakStart = Clock::now();
    const auto margin = xbar::worstCaseReadMargin(ctx.study->arrayConfig(),
                                                  0.2, xbar::ReadScheme::HalfBias);
    const double sneakWall = seconds(Clock::now() - sneakStart);

    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(n)),
        ResultValue::num(static_cast<double>(n) * static_cast<double>(n)),
        ResultValue::num(pulsesOf(r)),
        ResultValue::num(r.stressTime),
        ResultValue::num(disturbed),
        ResultValue::num(reach),
        ResultValue::num(margin.margin),
        ResultValue::num(attackWall),
        ResultValue::num(sneakWall),
        ResultValue::num(0.0)};  // wall_exponent: filled by finalize
  };
  spec.finalize = [](ExperimentResult& result) {
    // Scaling exponents from the measured wall-clock: a per-row local slope
    // between neighbouring sizes, plus a global log-log linear fit (the
    // MFPT-on-networks style summary -- one exponent, not just a curve).
    constexpr std::size_t kSize = 0, kAttack = 7, kSneak = 8, kExp = 9;
    std::vector<double> logN;
    std::vector<double> logT;
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
      auto& row = result.rows[i];
      const double nNow = row[kSize].number;
      const double tNow = row[kAttack].number + row[kSneak].number;
      if (nNow > 0.0 && tNow > 0.0) {
        logN.push_back(std::log10(nNow));
        logT.push_back(std::log10(tNow));
      }
      if (i == 0) continue;
      const auto& prev = result.rows[i - 1];
      const double nPrev = prev[kSize].number;
      const double tPrev = prev[kAttack].number + prev[kSneak].number;
      if (nPrev > 0.0 && tPrev > 0.0 && nNow > nPrev && tNow > 0.0) {
        row[kExp].number = std::log(tNow / tPrev) / std::log(nNow / nPrev);
      }
    }
    if (logN.size() >= 2) {
      const nh::util::LinearFit fit = nh::util::fitLinear(logN, logT);
      result.notes.push_back(
          "fitted wall-clock scaling exponent: t ~ n^" +
          AsciiTable::fixed(fit.slope, 2) +
          "  (R^2 = " + AsciiTable::fixed(fit.rSquared, 3) +
          "; dense line solves would be >= 3)");
    }
  };
  spec.notes = {
      "the attack column is the security punchline: pulses-to-flip at the",
      "centre cell does not improve with array size, so megabit parts are",
      "exactly as hammerable as the 5x5 test structures. The wall-clock",
      "columns document the solver refactor that makes the 1024x1024 row",
      "tractable (matrix-free Schur CG + sparse MNA)."};
  return spec;
}

// ---- special-format figure reproductions ----------------------------------
// The three experiments below are the reason ResultValue is shaped: Fig. 1
// is a time-series trace, Fig. 2a a pair of 5x5 matrices, and the kinetics
// landscape a pivoted 2-D table over a flat (T, V) cross-product.

ExperimentSpec fig1TraceSpec() {
  ExperimentSpec spec;
  spec.name = "fig1_mechanics_trace";
  spec.title = "Fig. 1 -- working principle of NeuroHammer (trace)";
  spec.description =
      "single attack run, centre aggressor, word-line victim, "
      "spacing 50 nm, 50 ns pulses";
  spec.paperShape =
      "aggressor filament spikes to ~530 K per pulse; victim sits "
      "~60 K above ambient and ratchets toward LRS until the flip";
  spec.tableTitle =
      "Victim state / peak filament temperatures along the attack";
  spec.maxPulses = 200'000;
  spec.fastMaxPulses = 100'000;
  spec.axes = {{"width", {50e-9}, {}, {}}};
  spec.columns = {
      {"pulses", "# pulses to flip", colfmt::grouped(), Shape::Scalar,
       kCountTol},
      {"flipped", "flipped", colfmt::flipped()},
      {"stress_time_s", "stress time", colfmt::si("s", 2), Shape::Scalar,
       kTimeTol},
      {"pulse", "pulse", colfmt::grouped(), Shape::Trace, kCountTol},
      {"victim_state", "victim x", colfmt::fixed(4), Shape::Trace, kFracTol},
      {"victim_Tpeak_K", "victim Tpeak [K]", colfmt::fixed(1), Shape::Trace,
       kTempTol},
      {"aggressor_Tpeak_K", "aggressor Tpeak [K]", colfmt::fixed(1),
       Shape::Trace, kTempTol},
  };
  spec.run = [](const PointContext& ctx) {
    AttackConfig attack;
    const std::size_t cr = ctx.config.rows / 2;
    const std::size_t cc = ctx.config.cols / 2;
    attack.aggressors = {{cr, cc}};
    attack.victims = {{cr, cc - 1}};  // word-line neighbour
    attack.pulse.width = ctx.value("width");
    attack.maxPulses = ctx.maxPulses;
    // Trace interval = maxPulses / samples. Fast mode keeps the series
    // short enough for a checked-in baseline (~200 samples).
    attack.traceSamples = ctx.fast ? 200 : 10'000;
    const AttackResult r = ctx.study->attack(attack);
    return std::vector<ResultValue>{
        ResultValue::num(pulsesOf(r)),
        ResultValue::boolean(r.flipped),
        ResultValue::num(r.stressTime),
        ResultValue::trace(r.tracePulse),
        ResultValue::trace(r.traceVictimState),
        ResultValue::trace(r.traceVictimTemperature),
        ResultValue::trace(r.traceAggressorTemperature)};
  };
  spec.notes = {
      "phase 1: V/2 scheme pulses (hammering)",
      "phase 2: aggressor self-heating + victim crosstalk heating",
      "phase 3: exponentially accelerated SET kinetics at V/2",
      "phase 4: victim crosses the read threshold -> bit-flip"};
  return spec;
}

/// The paper's Eq. 3/4 extraction on the 5x5 crossbar: power sweep
/// 0.05/0.10/0.15 mW into the centre cell at 300 K, one linear regression
/// per cell. Shared by fig2a and alpha_extraction so both report the same
/// procedure.
fem::AlphaResult extractCentreAlpha(const fem::CrossbarLayout& layout) {
  const auto model = fem::CrossbarModel3D::build(layout);
  return fem::extractAlpha(model, fem::MaterialTable::defaults(),
                           layout.rows / 2, layout.cols / 2,
                           {0.05e-3, 0.10e-3, 0.15e-3}, 300.0);
}

/// Row-major matrix cell from a dense matrix.
ResultValue matrixCell(const nh::util::Matrix& m) {
  std::vector<double> values;
  values.reserve(m.rows() * m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) values.push_back(m(r, c));
  }
  return ResultValue::matrix(m.rows(), m.cols(), std::move(values));
}

ExperimentSpec fig2aMatrixSpec() {
  ExperimentSpec spec;
  spec.name = "fig2a_thermal_matrix";
  spec.title = "Fig. 2a -- thermal coupling in a 5x5 memristive crossbar";
  spec.description =
      "FEM solve (Eq. 1 discretised), electrode spacing 50 nm, T0 = 300 K";
  spec.paperShape =
      "centre cell ~947 K >> same-word-line neighbours > bit-line "
      "neighbours > diagonal > far corners (~320 K)";
  spec.tableTitle = "Fig. 2a: extracted R_th and the paper operating point";
  spec.buildStudies = false;  // runs the FEM extraction itself
  // The paper's matrix is reported at the power that puts the hammered
  // centre cell at 947.2 K; the axis makes that operating point sweepable.
  // The 5 nm voxel is required to resolve the 5 nm filament and the solve
  // takes only a few seconds, so fast mode runs the full extraction.
  spec.axes = {{"target_K", {947.2}, {}, {}}};
  spec.columns = {
      {"target_K", "T_centre target", colfmt::fixed(1, " K")},
      {"rth_K_per_W", "R_th [K/W]", scientific(3), Shape::Scalar,
       Tol{5e-3, 0.0, false}},
      {"rth_r_squared", "R^2", colfmt::fixed(6), Shape::Scalar,
       Tol{1e-3, 1e-6, false}},
      {"power_W", "power [W]", scientific(3), Shape::Scalar,
       Tol{5e-3, 0.0, false}},
      {"temperature_K", "temperature [K]", colfmt::fixed(1), Shape::Matrix,
       kTempTol},
      {"alpha", "alpha (Eq. 4)", colfmt::fixed(4), Shape::Matrix, kFracTol},
  };
  spec.run = [](const PointContext& ctx) {
    const auto extraction = extractCentreAlpha(fem::CrossbarLayout{});
    const double power = (ctx.value("target_K") - 300.0) / extraction.rTh;
    return std::vector<ResultValue>{
        ResultValue::num(ctx.value("target_K")),
        ResultValue::num(extraction.rTh),
        ResultValue::num(extraction.rThRSquared),
        ResultValue::num(power),
        matrixCell(extraction.predictTemperatures(power)),
        matrixCell(extraction.alpha)};
  };
  spec.notes = {
      "paper (row containing the hammered cell): 394.4  373.0  947.2  "
      "375.6  393.8",
      "paper (far corners): 319.9 .. 321.0"};
  return spec;
}

ExperimentSpec kineticsLandscapeSpec() {
  ExperimentSpec spec;
  spec.name = "kinetics_landscape";
  spec.title = "Sec. III -- switching-kinetics landscape t_SET(V, T)";
  spec.description = "single JART-style cell, constant stress until x = 0.5";
  spec.paperShape =
      "t_SET spans >10 decades: ~ns at full select vs ~s at V/2 and "
      "300 K; each +50 K buys ~2 decades";
  spec.tableTitle = "switching-kinetics landscape (long form)";
  spec.buildStudies = false;  // single-device study, no crossbar
  spec.axes = {{"temperature",
                {273.0, 300.0, 325.0, 350.0, 400.0, 450.0, 500.0},
                {300.0, 400.0},
                {}},
               {"voltage", {0.40, 0.525, 0.65, 0.80, 1.05, 1.30}, {}, {}}};
  spec.columns = {
      {"temperature_K", "T0", colfmt::fixed(0, " K")},
      {"voltage_V", "V", colfmt::fixed(3, " V")},
      {"t_set_s", "t_SET [s]", scientific(2), Shape::Scalar, kKineticsTol},
      {"switched", "switched", colfmt::yesNo()},
  };
  spec.run = [](const PointContext& ctx) {
    jart::SwitchingOptions options;
    options.ambientK = ctx.value("temperature");
    options.maxTime = 50.0;
    const jart::SwitchingResult r = jart::switchingTime(
        jart::Params::paperDefaults(), ctx.value("voltage"), options);
    return std::vector<ResultValue>{
        ResultValue::num(options.ambientK), ResultValue::num(ctx.value("voltage")),
        ResultValue::num(r.time), ResultValue::boolean(r.switched)};
  };
  // The paper's presentation is the pivoted 2-D table; the flat rows above
  // stay the machine-readable series (and what baselines compare).
  spec.pivot.rowAxis = "temperature";
  spec.pivot.colAxis = "voltage";
  spec.pivot.valueColumn = "t_set_s";
  spec.pivot.title =
      "t_SET to x = 0.5 [s]  ('>' = did not switch within 50 s)";
  spec.pivot.format = [](const std::vector<ResultValue>& row) {
    if (row[3].kind == ResultValue::Kind::Number && row[3].number == 0.0) {
      return std::string("> 5e+01");
    }
    return AsciiTable::scientific(row[2].number, 2);
  };
  spec.pivot.rowLabel = [](double v) { return AsciiTable::fixed(v, 0) + " K"; };
  spec.pivot.colLabel = [](double v) { return AsciiTable::fixed(v, 3) + " V"; };
  spec.notes = {
      "V/2 = 0.525 V column: harmless at 273-300 K, milliseconds at "
      "350 K+ --",
      "exactly the window the thermal crosstalk pushes the victim into."};
  return spec;
}

// ---- validation artefacts and the Sec. VI scenarios ------------------------
// The checks behind the simulation flow (the FEM alpha extraction, the
// compact model's I-V loop, the thermal step response behind tauThermal)
// and the paper's two attack narratives, each under a tracked baseline.

ExperimentSpec alphaExtractionSpec() {
  ExperimentSpec spec;
  spec.name = "alpha_extraction";
  spec.title = "alpha extraction -- R_th and thermal-coupling coefficients";
  spec.description =
      "FEM 5x5 crossbar, power sweep 0.05/0.10/0.15 mW into the centre "
      "cell, linear regression per cell (Eq. 3/4)";
  spec.paperShape =
      "alphas grow as spacing shrinks; word-line neighbours couple ~2x "
      "stronger than bit-line neighbours; R_th nearly spacing-independent";
  spec.tableTitle = "FEM-extracted crosstalk coefficients (5x5 crossbar)";
  spec.buildStudies = false;  // runs the FEM extraction itself
  // The three spacings are the calibration points of AlphaTable::analytic,
  // so fast mode keeps all of them (a few seconds each).
  spec.axes = {{"spacing_nm", {10.0, 50.0, 90.0}, {}, {}}};
  spec.columns = {
      {"spacing_nm", "spacing", colfmt::fixed(0, " nm")},
      {"rth_K_per_W", "R_th [K/W]", scientific(3), Shape::Scalar,
       Tol{5e-3, 0.0, false}},
      {"rth_r_squared", "R^2", colfmt::fixed(6), Shape::Scalar,
       Tol{1e-3, 1e-6, false}},
      {"alpha", "alpha (Eq. 4)", colfmt::fixed(4), Shape::Matrix, kFracTol},
      {"alpha_sum", "sum(alpha)", colfmt::fixed(3), Shape::Scalar, kFracTol},
  };
  spec.run = [](const PointContext& ctx) {
    const double spacingNm = ctx.value("spacing_nm");
    fem::CrossbarLayout layout;  // validated by the model build
    layout.spacing = spacingNm * 1e-9;
    const auto r = extractCentreAlpha(layout);
    double total = 0.0;
    for (std::size_t i = 0; i < r.alpha.rows(); ++i) {
      for (std::size_t j = 0; j < r.alpha.cols(); ++j) {
        if (i != r.selectedRow || j != r.selectedCol) total += r.alpha(i, j);
      }
    }
    return std::vector<ResultValue>{
        ResultValue::num(spacingNm), ResultValue::num(r.rTh),
        ResultValue::num(r.rThRSquared), matrixCell(r.alpha),
        ResultValue::num(total)};
  };
  spec.notes = {
      "alpha(r,c) of the 5x5 grid, hammered cell at (2,2): rows run along a",
      "bit line, columns along a word line (the filament sits on the bottom",
      "word line, hence the asymmetry). AlphaTable::analytic's constants",
      "are these values; a test ties the two together."};
  return spec;
}

ExperimentSpec deviceIvHysteresisSpec() {
  ExperimentSpec spec;
  spec.name = "device_iv_hysteresis";
  spec.title = "device I-V hysteresis (JART-style compact model)";
  spec.description =
      "triangular sweep 0 -> +1.3 V -> -1.5 V -> 0 at 10 V/us, one cell "
      "from deep HRS";
  spec.paperShape =
      "abrupt SET near ~1 V on the up-branch, gradual RESET on the "
      "negative branch, >10x read-current hysteresis at +0.2 V";
  spec.tableTitle = "I-V loop metrics and traces";
  spec.buildStudies = false;  // single-device sweep, no crossbar
  spec.axes = {{"samples", {400.0}, {120.0}, {}}};
  spec.columns = {
      {"samples", "samples", colfmt::grouped()},
      {"v_set_V", "V_SET", colfmt::fixed(2, " V"), Shape::Scalar, kFracTol},
      {"v_reset_V", "V_RESET", colfmt::fixed(2, " V"), Shape::Scalar,
       kFracTol},
      {"hysteresis", "I ratio @ +0.2 V", colfmt::fixed(1, "x"), Shape::Scalar,
       kRatioTol},
      {"set_ok", "SET", colfmt::yesNo()},
      {"reset_ok", "RESET", colfmt::yesNo()},
      {"voltage_V", "V [V]", colfmt::fixed(3), Shape::Trace, kFracTol},
      {"current_A", "I [A]", scientific(2), Shape::Trace,
       Tol{0.02, 1e-12, false}},
  };
  spec.run = [](const PointContext& ctx) {
    const jart::Params params = jart::Params::paperDefaults();
    jart::IvSweepOptions options;
    options.samples = integerAxis(ctx, "samples", 2, 1'000'000);
    const auto loop = jart::sweepIV(params, options);
    const auto metrics = jart::analyseLoop(params, loop);
    std::vector<double> voltage;
    std::vector<double> current;
    voltage.reserve(loop.size());
    current.reserve(loop.size());
    for (const auto& p : loop) {
      voltage.push_back(p.voltage);
      current.push_back(p.current);
    }
    return std::vector<ResultValue>{
        ResultValue::num(static_cast<double>(options.samples)),
        ResultValue::num(metrics.vSet),
        ResultValue::num(metrics.vReset),
        ResultValue::num(metrics.hysteresis),
        ResultValue::boolean(metrics.switchedToLrs),
        ResultValue::boolean(metrics.switchedBack),
        ResultValue::trace(std::move(voltage)),
        ResultValue::trace(std::move(current))};
  };
  spec.notes = {
      "not a paper figure: the standard fingerprint a ReRAM compact model is",
      "judged by, and the V_SET ~ 1.05 V operating point the attack uses."};
  return spec;
}

ExperimentSpec femThermalTransientSpec() {
  ExperimentSpec spec;
  spec.name = "fem_thermal_transient";
  spec.title = "validation -- transient FEM thermal step response";
  spec.description =
      "c dT/dt = div(kappa grad T) + q, implicit Euler at dt = 0.25 ns, 5x5 "
      "crossbar at 50 nm, 0.1 mW step into the centre filament";
  spec.paperShape =
      "filament tau ~ ns, neighbour crosstalk settles within a few ns -- "
      "both well below the 10-100 ns pulse lengths";
  spec.tableTitle = "step-response time constants (63% of the steady rise)";
  spec.buildStudies = false;  // runs the transient FEM itself
  spec.axes = {{"t_stop_ns", {30.0}, {10.0}, {}}};
  spec.columns = {{"t_stop_ns", "stop", siScaled(1e-9, "s")}};
  static constexpr const char* kCells[] = {"heated", "word", "bit", "diag"};
  for (const char* cell : kCells) {
    const std::string name(cell);
    spec.columns.push_back({name + "_final_K", name + " final T",
                            colfmt::fixed(1, " K"), Shape::Scalar, kTempTol});
    spec.columns.push_back({name + "_tau_ns", name + " tau",
                            siScaled(1e-9, "s", 2), Shape::Scalar,
                            Tol{0.02, 0.01, false}});
  }
  for (const char* cell : kCells) {
    spec.columns.push_back({std::string(cell) + "_K",
                            std::string(cell) + " T [K]", colfmt::fixed(1),
                            Shape::Trace, kTempTol});
  }
  spec.run = [](const PointContext& ctx) {
    const double tStopNs = ctx.value("t_stop_ns");
    const fem::CrossbarLayout layout;  // 5x5 / 50 nm defaults
    const auto model = fem::CrossbarModel3D::build(layout);
    fem::TransientScenario scenario;
    scenario.model = &model;
    scenario.tStop = tStopNs * 1e-9;
    scenario.dt = 0.25e-9;
    const auto sol = fem::solveThermalStep(scenario);
    if (!sol.converged) {
      throw std::runtime_error(
          "experiment 'fem_thermal_transient': transient solve did not "
          "converge");
    }
    std::vector<ResultValue> row{ResultValue::num(tStopNs)};
    for (std::size_t s = 0; s < 4; ++s) {
      const double tau = sol.riseTimeConstant(s);
      row.push_back(ResultValue::num(sol.cellTemperature[s].back()));
      // NaN = the run stopped before the 63% mark.
      row.push_back(std::isnan(tau) ? ResultValue::str("-")
                                    : ResultValue::num(tau * 1e9));
    }
    for (std::size_t s = 0; s < 4; ++s) {
      row.push_back(ResultValue::trace(sol.cellTemperature[s]));
    }
    return row;
  };
  spec.notes = {
      "tau = time to 63% of the rise toward the steady state of the same",
      "model and power ('-': the run stops before that mark). The compact",
      "model's tauThermal (2 ns) and the fast engine's short first substep",
      "hold when these taus << pulse length; see ablation_thermal_tau."};
  return spec;
}

ExperimentSpec sec6ScenariosSpec() {
  ExperimentSpec spec;
  spec.name = "sec6_attack_scenarios";
  spec.title = "Sec. VI -- privilege escalation and neuromorphic weight attack";
  spec.description =
      "5x5 crossbar at 50 nm / 300 K, 1.05 V / 50 ns hammer pulses: a "
      "page-table permission bit next to an attacker cell, and a ternary "
      "classifier's weight cell";
  spec.paperShape =
      "both attacks succeed without addressing the victim: the permission "
      "bit flips with no collateral flips, and one flipped weight costs "
      "classification accuracy";
  spec.tableTitle = "Sec. VI attack scenarios";
  spec.buildStudies = false;  // each scenario builds its own bench
  spec.maxPulses = 1'000'000;
  spec.axes = {{"scenario", {0.0, 1.0}, {}, {}}};
  spec.columns = {
      {"scenario", "scenario", {}},
      {"pulses", "# pulses", colfmt::grouped(), Shape::Scalar, kCountTol},
      {"succeeded", "succeeded", colfmt::yesNo()},
      {"collateral_flips", "collateral flips", {}},
      {"accuracy_before", "accuracy before", percent(1), Shape::Scalar,
       kFracTol},
      {"accuracy_after", "accuracy after", percent(1), Shape::Scalar,
       kFracTol},
  };
  spec.run = [](const PointContext& ctx) {
    const HammerPulse pulse;  // 1.05 V / 50 ns / 50% duty
    if (caseIndex(ctx, "scenario", 2) == 0) {
      PrivilegeEscalationScenario scenario(ctx.config);
      const auto r = scenario.run(pulse, ctx.maxPulses);
      return std::vector<ResultValue>{
          ResultValue::str("privilege_escalation"),
          ResultValue::num(static_cast<double>(r.pulses)),
          ResultValue::boolean(r.succeeded),
          ResultValue::num(static_cast<double>(r.collateralFlips)),
          ResultValue::str("-"), ResultValue::str("-")};
    }
    WeightAttackScenario scenario(ctx.config, /*seed=*/42);
    const auto r = scenario.run(pulse, ctx.maxPulses);
    return std::vector<ResultValue>{
        ResultValue::str("weight_attack"),
        ResultValue::num(static_cast<double>(r.pulses)),
        ResultValue::boolean(r.weightFlipped),
        ResultValue::str("-"),
        ResultValue::num(r.accuracyBefore),
        ResultValue::num(r.accuracyAfter)};
  };
  spec.notes = {
      "privilege_escalation: the attacker writes only its own cell on the",
      "permission bit's word line (Seaborn-style PTE attack, Sec. VI).",
      "weight_attack: 2-class ternary classifier on differential column",
      "pairs, 200 held-out samples, analog VMM readout."};
  return spec;
}

// ---- registry plumbing ----------------------------------------------------

struct Entry {
  std::string summary;
  std::function<ExperimentSpec()> factory;
};

struct Registry {
  nh::util::Mutex mutex;
  // Guarded after construction; the constructor itself runs single-threaded
  // inside the magic-static initialiser (the analysis exempts constructors).
  std::map<std::string, Entry> entries NH_GUARDED_BY(mutex);

  Registry() {
    // Names are passed explicitly (they are compile-time constants in each
    // factory) so registration does not build and discard 25 full specs.
    auto add = [this](std::string name, std::string summary,
                      std::function<ExperimentSpec()> factory) {
      entries.emplace(std::move(name),
                      Entry{std::move(summary), std::move(factory)});
    };
    add("fig3a_pulse_length", "Fig. 3a: pulses-to-flip vs pulse length",
        fig3aSpec);
    add("fig3b_electrode_spacing",
        "Fig. 3b: pulses-to-flip vs electrode spacing x width", fig3bSpec);
    add("fig3c_ambient_temperature",
        "Fig. 3c: pulses-to-flip vs ambient temperature x width", fig3cSpec);
    add("fig3d_attack_patterns", "Fig. 3d: pulses-to-flip per attack pattern",
        fig3dSpec);
    add("ablation_alpha_truncation",
        "ablation: crosstalk-matrix truncation radius (attack is thermal)",
        alphaTruncationSpec);
    add("ablation_batching",
        "ablation: pulse-batching accelerator accuracy/speed trade-off",
        batchingSpec);
    add("ablation_hammer_amplitude",
        "ablation: hammer amplitude around the nominal V_SET",
        hammerAmplitudeSpec);
    add("ablation_thermal_tau",
        "ablation: filament thermal time constant vs pulse length",
        thermalTauSpec);
    add("ablation_scheme_defense",
        "countermeasures: V/3 scheme, scrubbing, monitoring, throttling",
        schemeDefenseSpec);
    add("ablation_variability",
        "extension: Monte-Carlo device-to-device variability", variabilitySpec);
    add("campaign_flip_rate",
        "campaign: flip-rate Wilson/bootstrap intervals over device "
        "variability",
        campaignFlipRateSpec);
    add("campaign_defense_blind",
        "campaign: STAR-style blinded A/B of the V/3 countermeasure",
        campaignDefenseBlindSpec);
    add("campaign_array_health",
        "campaign: CMS-style per-cell disturb-rate array-health matrix",
        campaignArrayHealthSpec);
    add("scaling_victim_distance",
        "extension: attack blast radius on a 7x7 array", victimDistanceSpec);
    add("attack_energy", "attack energy budget until the bit-flip",
        attackEnergySpec);
    add("sneak_path_margin",
        "substrate: sneak paths, read margin, and disturb bounds",
        sneakPathSpec);
    add("scaling_array_size",
        "array-size scaling: attack + substrate health at real part sizes",
        scalingArraySizeSpec);
    add("endurance_half_select",
        "security margin: half-select endurance without crosstalk",
        enduranceSpec);
    add("fig1_mechanics_trace",
        "Fig. 1: four-phase mechanics trace of one attack run (time series)",
        fig1TraceSpec);
    add("fig2a_thermal_matrix",
        "Fig. 2a: FEM temperature/alpha matrices of the 5x5 crossbar",
        fig2aMatrixSpec);
    add("kinetics_landscape",
        "Sec. III: switching-time landscape t_SET(V, T) (pivoted table)",
        kineticsLandscapeSpec);
    add("alpha_extraction",
        "validation: FEM R_th and alpha matrix at 10/50/90 nm (Eq. 3/4)",
        alphaExtractionSpec);
    add("device_iv_hysteresis",
        "validation: compact-model I-V hysteresis loop",
        deviceIvHysteresisSpec);
    add("fem_thermal_transient",
        "validation: FEM thermal step response behind tauThermal",
        femThermalTransientSpec);
    add("sec6_attack_scenarios",
        "Sec. VI: privilege escalation and neuromorphic weight attack",
        sec6ScenariosSpec);
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

std::vector<RegisteredExperiment> registeredExperiments() {
  Registry& reg = registry();
  const nh::util::MutexLock lock(reg.mutex);
  std::vector<RegisteredExperiment> out;
  out.reserve(reg.entries.size());
  for (const auto& [name, entry] : reg.entries) {
    out.push_back({name, entry.summary});
  }
  return out;  // std::map iteration is already name-sorted
}

bool hasExperiment(const std::string& name) {
  Registry& reg = registry();
  const nh::util::MutexLock lock(reg.mutex);
  return reg.entries.count(name) != 0;
}

ExperimentSpec makeExperiment(const std::string& name) {
  Registry& reg = registry();
  std::function<ExperimentSpec()> factory;
  {
    const nh::util::MutexLock lock(reg.mutex);
    const auto it = reg.entries.find(name);
    if (it == reg.entries.end()) {
      std::string known;
      for (const auto& [known_name, entry] : reg.entries) {
        known += (known.empty() ? "" : ", ") + known_name;
      }
      throw std::out_of_range("unknown experiment '" + name +
                              "' (registered: " + known + ")");
    }
    factory = it->second.factory;
  }
  return factory();
}

namespace {

std::string markdownEscapePipes(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '|') out += "\\|";
    else if (c == '\n') out += ' ';
    else out += c;
  }
  return out;
}

/// Short human-readable number for the docs ("0.85", "5e-10"); the
/// round-trip 17-digit form belongs in the CSV/JSON series, not here.
std::string shortDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string joinedValues(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + shortDouble(values[i]);
  }
  return out;
}

std::string toleranceText(const Tol& tolerance) {
  if (tolerance.ignore) return "ignored (not reproducible)";
  if (tolerance.rel == 0.0 && tolerance.abs == 0.0) return "exact";
  std::string out;
  if (tolerance.rel != 0.0) {
    out += "rel " + shortDouble(tolerance.rel);
  }
  if (tolerance.abs != 0.0) {
    out += (out.empty() ? "" : " + ") + std::string("abs ") +
           shortDouble(tolerance.abs);
  }
  return out;
}

/// Human summary of the result shape: which of the three cell shapes the
/// columns use, plus the pivot presentation when the spec asks for one.
std::string resultShapeText(const ExperimentSpec& spec) {
  bool trace = false;
  bool matrix = false;
  for (const auto& col : spec.columns) {
    trace = trace || col.shape == Shape::Trace;
    matrix = matrix || col.shape == Shape::Matrix;
  }
  std::string out = "scalar rows";
  if (trace) out += " + time-series trace cells";
  if (matrix) out += " + 2-D matrix cells";
  if (spec.pivot.enabled()) {
    out += " (pivoted " + spec.pivot.rowAxis + " x " + spec.pivot.colAxis +
           " grid)";
  }
  return out;
}

}  // namespace

std::string registryMarkdown() {
  const auto entries = registeredExperiments();
  std::string md;
  md += "<!-- AUTO-GENERATED by `nh_sweep describe --markdown`. Do not edit "
        "by hand:\n     CI regenerates this file and fails when it drifts "
        "from the registry.\n     Refresh with:\n       "
        "./build/examples/nh_sweep describe --markdown --out "
        "docs/experiments.md -->\n\n";
  md += "# Experiment catalog\n\n";
  md += std::to_string(entries.size()) +
        " registered experiments. Run one with `nh_sweep run <name> "
        "[--fast]`,\ncompare it against its tracked baseline with `nh_sweep "
        "check <name> --fast`,\nand see `docs/adding-an-experiment.md` for "
        "how to add the next one.\n";
  for (const auto& entry : entries) {
    const ExperimentSpec spec = makeExperiment(entry.name);
    md += "\n## " + entry.name + "\n\n";
    md += markdownEscapePipes(entry.summary) + "\n\n";
    md += "Setup: " + spec.description + "\n\n";
    md += "Paper shape: " + spec.paperShape + "\n\n";

    std::size_t fullPoints = 1;
    std::size_t fastPoints = 1;
    for (const auto& axis : spec.axes) {
      fullPoints *= axis.values.size();
      fastPoints *= axis.active(true).size();
    }
    RunOptions fastOptions;
    fastOptions.fast = true;
    md += "| | |\n|---|---|\n";
    md += "| Reproduces | " + markdownEscapePipes(spec.title) + " |\n";
    md += "| Result shape | " + resultShapeText(spec) + " |\n";
    md += "| Grid points (full / fast) | " + std::to_string(fullPoints) +
          " / " + std::to_string(fastPoints) + " |\n";
    md += "| Pulse budget (full / fast) | " + std::to_string(spec.maxPulses) +
          " / " +
          std::to_string(spec.fastMaxPulses ? spec.fastMaxPulses
                                            : spec.maxPulses) +
          " |\n";
    md += std::string("| Study construction | ") +
          (spec.buildStudies ? "deduplicated AttackStudy grid (process-wide "
                               "cache)"
                             : "none (runs its own substrate/device solves)") +
          " |\n";
    md += "| Fast config digest | `" + configDigest(spec, fastOptions) +
          "` |\n";

    md += "\nAxes:\n\n";
    md += "| axis | values | fast subset | affects study config |\n";
    md += "|---|---|---|---|\n";
    for (const auto& axis : spec.axes) {
      md += "| " + axis.name + " | " + joinedValues(axis.values) + " | " +
            (axis.fastValues.empty() ? "(full list)"
                                     : joinedValues(axis.fastValues)) +
            " | " + (axis.apply ? "yes" : "no") + " |\n";
    }

    md += "\nColumns:\n\n";
    md += "| column | table heading | shape | baseline tolerance |\n";
    md += "|---|---|---|---|\n";
    for (const auto& col : spec.columns) {
      md += "| " + col.name + " | " + markdownEscapePipes(col.heading()) +
            " | " + shapeName(col.shape) + " | " +
            toleranceText(col.tolerance) + " |\n";
    }
  }
  return md;
}

void registerExperiment(std::string name, std::string summary,
                        std::function<ExperimentSpec()> factory) {
  Registry& reg = registry();
  const nh::util::MutexLock lock(reg.mutex);
  const auto [it, inserted] =
      reg.entries.emplace(std::move(name), Entry{std::move(summary), std::move(factory)});
  if (!inserted) {
    throw std::invalid_argument("experiment '" + it->first +
                                "' is already registered");
  }
}

}  // namespace nh::core

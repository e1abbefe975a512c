#include "core/experiment_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/baseline.hpp"
#include "util/json.hpp"
#include "xbar/crosstalk.hpp"

namespace nh::core {
namespace {

TEST(ExperimentRegistry, CatalogCoversThePaperEvaluation) {
  const auto entries = registeredExperiments();
  EXPECT_GE(entries.size(), 25u);

  std::set<std::string> names;
  for (const auto& e : entries) {
    names.insert(e.name);
    EXPECT_FALSE(e.summary.empty()) << e.name;
  }
  EXPECT_EQ(names.size(), entries.size()) << "duplicate registrations";

  for (const char* required :
       {"fig1_mechanics_trace", "fig2a_thermal_matrix", "fig3a_pulse_length",
        "fig3b_electrode_spacing", "fig3c_ambient_temperature",
        "fig3d_attack_patterns", "kinetics_landscape",
        "ablation_alpha_truncation", "ablation_batching",
        "ablation_hammer_amplitude", "ablation_scheme_defense",
        "ablation_thermal_tau", "ablation_variability",
        "scaling_victim_distance", "attack_energy", "sneak_path_margin",
        "endurance_half_select", "alpha_extraction", "device_iv_hysteresis",
        "fem_thermal_transient", "sec6_attack_scenarios"}) {
    EXPECT_TRUE(names.count(required)) << "missing experiment: " << required;
    EXPECT_TRUE(hasExperiment(required));
  }
}

TEST(ExperimentRegistry, UnknownNameThrowsWithTheCatalog) {
  EXPECT_FALSE(hasExperiment("no_such_experiment"));
  try {
    makeExperiment("no_such_experiment");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    // The message lists the registered names to help CLI users.
    EXPECT_NE(std::string(e.what()).find("fig3a_pulse_length"),
              std::string::npos);
  }
}

TEST(ExperimentRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(
      registerExperiment("fig3a_pulse_length", "dup", [] {
        return ExperimentSpec{};
      }),
      std::invalid_argument);
}

TEST(ExperimentRegistry, EverySpecIsWellFormed) {
  for (const auto& entry : registeredExperiments()) {
    const ExperimentSpec spec = makeExperiment(entry.name);
    EXPECT_EQ(spec.name, entry.name);
    EXPECT_FALSE(spec.title.empty()) << entry.name;
    EXPECT_FALSE(spec.paperShape.empty()) << entry.name;
    EXPECT_FALSE(spec.axes.empty()) << entry.name;
    EXPECT_FALSE(spec.columns.empty()) << entry.name;
    EXPECT_TRUE(static_cast<bool>(spec.run)) << entry.name;
    EXPECT_GT(spec.maxPulses, 0u) << entry.name;
    // Trace and matrix columns cannot mix in one spec (the CSV long-form
    // expansion has no joint encoding for them).
    bool anyTrace = false;
    bool anyMatrix = false;
    for (const auto& col : spec.columns) {
      anyTrace = anyTrace || col.shape == ColumnSpec::Shape::Trace;
      anyMatrix = anyMatrix || col.shape == ColumnSpec::Shape::Matrix;
    }
    EXPECT_FALSE(anyTrace && anyMatrix) << entry.name;
    // A pivot must name real axes and a real scalar column.
    if (spec.pivot.enabled()) {
      const auto axisExists = [&](const std::string& name) {
        for (const auto& axis : spec.axes) {
          if (axis.name == name) return true;
        }
        return false;
      };
      EXPECT_TRUE(axisExists(spec.pivot.rowAxis)) << entry.name;
      EXPECT_TRUE(axisExists(spec.pivot.colAxis)) << entry.name;
      bool columnExists = false;
      for (const auto& col : spec.columns) {
        columnExists = columnExists || col.name == spec.pivot.valueColumn;
      }
      EXPECT_TRUE(columnExists) << entry.name;
    }
  }
}

/// The self-documenting catalog must cover every registered experiment and
/// stay regenerable: docs/experiments.md is this string checked in, and CI
/// diffs the two.
TEST(ExperimentRegistry, MarkdownCatalogCoversEveryExperiment) {
  const std::string md = registryMarkdown();
  EXPECT_NE(md.find("AUTO-GENERATED"), std::string::npos);
  for (const auto& entry : registeredExperiments()) {
    EXPECT_NE(md.find("\n## " + entry.name + "\n"), std::string::npos)
        << entry.name;
  }
  // Deterministic: two renderings are byte-identical (the CI diff relies
  // on it).
  EXPECT_EQ(md, registryMarkdown());
  // Shape and tolerance vocabulary shows up (self-documenting columns).
  EXPECT_NE(md.find("| trace |"), std::string::npos);
  EXPECT_NE(md.find("| matrix |"), std::string::npos);
  EXPECT_NE(md.find("Fast config digest"), std::string::npos);
}

/// The acceptance smoke: every registered experiment runs end to end in
/// fast mode and produces non-empty, header-consistent rows plus a valid
/// CSV/JSON rendering. (Fast mode is the CI-smoke contract: the whole
/// catalog completes in well under a minute on a few cores.)
TEST(ExperimentRegistry, EveryExperimentRunsInFastMode) {
  RunOptions options;
  options.fast = true;
  options.threads = 4;
  for (const auto& entry : registeredExperiments()) {
    SCOPED_TRACE(entry.name);
    const ExperimentSpec spec = makeExperiment(entry.name);
    // Some fast grids are sized for `check --all --fast` (the scaling
    // sweep tops out at 1024x1024, the FEM validations take seconds per
    // point); the unit-test smoke only needs the machinery, so shrink those
    // axes here.
    RunOptions pointOptions = options;
    if (entry.name == "scaling_array_size") {
      pointOptions.axisOverrides = {{"size", {8, 16}}};
    } else if (entry.name == "alpha_extraction") {
      pointOptions.axisOverrides = {{"spacing_nm", {10.0}}};
    } else if (entry.name == "fem_thermal_transient") {
      pointOptions.axisOverrides = {{"t_stop_ns", {1.0}}};
    }
    const ExperimentResult result = runExperiment(spec, pointOptions);

    ASSERT_FALSE(result.rows.empty());
    std::size_t expected = 1;
    for (const auto& axis : result.axes) expected *= axis.values.size();
    EXPECT_EQ(result.rows.size(), expected);
    for (const auto& row : result.rows) {
      ASSERT_EQ(row.size(), result.columns.size());
    }
    EXPECT_EQ(result.name, entry.name);
    EXPECT_EQ(result.configDigest.size(), 16u);

    const auto csv = toCsvTable(result);
    bool shaped = false;
    for (const auto& col : result.columns) {
      shaped = shaped || col.shape != ColumnSpec::Shape::Scalar;
    }
    if (shaped) {
      // Long-form expansion: index columns in front, one line per element.
      EXPECT_GE(csv.rowCount(), result.rows.size());
      EXPECT_GT(csv.columnCount(), result.columns.size());
    } else {
      EXPECT_EQ(csv.rowCount(), result.rows.size());
      EXPECT_EQ(csv.columnCount(), result.columns.size());
    }

    const std::string json = toJson(result);
    EXPECT_NE(json.find("\"experiment\":\"" + entry.name + "\""),
              std::string::npos);

    // The ASCII render applies every column formatter at least once.
    for (const auto& table : toAsciiTables(result)) {
      EXPECT_FALSE(table.render().empty());
    }
  }
}

/// End-to-end baseline round trip through a real registered experiment:
/// record in a temp dir, re-run, check -- must match.
TEST(ExperimentRegistry, KineticsLandscapeBaselineRoundTrips) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "nh_registry_baseline_test";
  std::filesystem::remove_all(dir);
  RunOptions options;
  options.fast = true;
  options.threads = 2;
  const ExperimentSpec spec = makeExperiment("kinetics_landscape");
  const ExperimentResult first = runExperiment(spec, options);
  writeBaseline(first, dir);

  const ExperimentResult second = runExperiment(spec, options);
  const BaselineCheck check = checkBaseline(second, dir);
  EXPECT_TRUE(check.passed()) << check.message;

  // A perturbed result must fail with a named cell.
  ExperimentResult broken = second;
  broken.rows[0][2].number *= 2.0;  // t_set well past the 15% tolerance
  const BaselineCheck fail = checkBaseline(broken, dir);
  EXPECT_EQ(fail.status, BaselineCheck::Status::ValueMismatch);
  ASSERT_FALSE(fail.diffs.empty());
  EXPECT_EQ(fail.diffs[0].column, "t_set_s");
  std::filesystem::remove_all(dir);
}

/// Every tracked baseline is keyed by the fast-mode config digest, which
/// hashes every StudyConfig field. Retiring or adding an option must leave
/// each registered experiment's digest equal to the one its baseline file
/// recorded, or `nh_sweep check` reports every experiment as stale.
TEST(ExperimentRegistry, ConfigDigestsMatchTrackedBaselines) {
  const std::filesystem::path dir =
      std::filesystem::path(NH_SOURCE_DIR) / "baselines";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  RunOptions fast;
  fast.fast = true;
  std::size_t pinned = 0;
  for (const auto& entry : registeredExperiments()) {
    const std::filesystem::path path = baselinePath(entry.name, dir);
    if (!std::filesystem::exists(path)) continue;
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const auto doc = nh::util::JsonValue::parse(text.str());
    EXPECT_EQ(configDigest(makeExperiment(entry.name), fast),
              doc.at("config_digest").asString())
        << entry.name;
    ++pinned;
  }
  EXPECT_GE(pinned, 25u);
}

/// AlphaTable::analytic's hard-coded constants are the FEM extraction at
/// 10/50/90 nm, rounded for print. Read the tracked alpha_extraction
/// baseline (no FEM solve here) and check R_th (3 significant digits) and
/// every alpha of the quadrant (4 decimals, all four mirror images) against
/// the constants within that rounding.
TEST(ExperimentRegistry, AnalyticAlphaTableMatchesTrackedFemExtraction) {
  const auto path = baselinePath(
      "alpha_extraction", std::filesystem::path(NH_SOURCE_DIR) / "baselines");
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = nh::util::JsonValue::parse(text.str());
  const auto& columns = doc.at("columns").items();
  const auto column = [&](const std::string& name) {
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].asString() == name) return i;
    }
    ADD_FAILURE() << "baseline has no column " << name;
    return std::size_t{0};
  };
  const std::size_t spacingCol = column("spacing_nm");
  const std::size_t rthCol = column("rth_K_per_W");
  const std::size_t alphaCol = column("alpha");

  std::set<double> spacings;
  for (const auto& row : doc.at("rows").items()) {
    const double spacingNm = row.items()[spacingCol].asNumber();
    spacings.insert(spacingNm);
    SCOPED_TRACE("spacing " + std::to_string(spacingNm) + " nm");
    const ResultValue alpha = readCellJson(row.items()[alphaCol]);
    ASSERT_EQ(alpha.kind, ResultValue::Kind::Matrix);
    ASSERT_EQ(alpha.matrixRows, 5u);
    ASSERT_EQ(alpha.matrixCols, 5u);
    const xbar::AlphaTable table = xbar::AlphaTable::analytic(spacingNm * 1e-9);

    EXPECT_LE(std::abs(row.items()[rthCol].asNumber() - table.rTh()),
              0.005e6 + 1e-6);
    for (long long dr = 0; dr <= 2; ++dr) {
      for (long long dc = 0; dc <= 2; ++dc) {
        if (dr == 0 && dc == 0) continue;
        for (const long long sr : {-1LL, 1LL}) {
          for (const long long sc : {-1LL, 1LL}) {
            const auto r = static_cast<std::size_t>(2 + sr * dr);
            const auto c = static_cast<std::size_t>(2 + sc * dc);
            EXPECT_LE(std::abs(alpha.series[r * 5 + c] - table.at(dr, dc)),
                      0.5e-4 + 1e-12)
                << "offset (" << dr << "," << dc << ") at (" << r << "," << c
                << ")";
          }
        }
      }
    }
  }
  EXPECT_EQ(spacings, (std::set<double>{10.0, 50.0, 90.0}));
}

/// Cross-product determinism through the registry path: a real two-axis
/// grid (fig3b in fast mode) must be bit-identical for 1 vs N threads.
TEST(ExperimentRegistry, Fig3bFastGridIsThreadCountInvariant) {
  const ExperimentSpec spec = makeExperiment("fig3b_electrode_spacing");
  RunOptions serial;
  serial.fast = true;
  serial.threads = 1;
  RunOptions parallel;
  parallel.fast = true;
  parallel.threads = 4;
  const ExperimentResult a = runExperiment(spec, serial);
  const ExperimentResult b = runExperiment(spec, parallel);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.configDigest, b.configDigest);
}

/// `nh_sweep run alpha_extraction --set spacing_nm=1e30` used to SIGSEGV:
/// the layout's 2^63-voxel lateral axes wrapped nx*ny*nz to 0. The run must
/// end in the layout's named error instead (the CLI maps it to exit 1).
TEST(ExperimentRegistry, OverflowingFemLayoutFailsWithANamedError) {
  const ExperimentSpec spec = makeExperiment("alpha_extraction");
  for (const double spacingNm : {1e30, 1e10}) {
    RunOptions options;
    options.fast = true;
    options.threads = 1;
    options.axisOverrides = {{"spacing_nm", {spacingNm}}};
    try {
      runExperiment(spec, options);
      ADD_FAILURE() << "spacing_nm=" << spacingNm << " accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("voxel grid too large"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace nh::core

#pragma once
/// \file experiment.hpp
/// Declarative experiment engine: the paper's evaluation is one catalog of
/// parameter studies, and this layer runs any of them through a single
/// deterministic pipeline. An ExperimentSpec describes the cross-product of
/// named parameter axes, a per-point run function, paper-shape metadata for
/// the banner, and a fast-mode shrink policy; runExperiment() executes the
/// grid on the thread pool with results written into serially-indexed slots
/// (bit-identical for every thread count) and **deduplicates study
/// construction**: points whose study-relevant StudyConfig compares equal
/// (C++20 defaulted operator==) share one cached AttackStudy, so e.g. a
/// spacing x ambient grid builds one study per unique (spacing, ambient)
/// instead of one per point, and the expensive FEM-alpha extraction is
/// amortised across the whole series.
///
/// Results flow through one ExperimentResult sink that renders the ASCII
/// table, the CSV series, and a machine-readable JSON document (name,
/// config digest, axes, rows, thread count, build type).

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "util/cancellation.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace nh::util {
class JsonWriter;
class JsonValue;
}

namespace nh::core {

/// One table cell. Cells are *shaped*: a scalar (number or text label), a
/// time-series trace (one value per sample), or a 2-D matrix (row-major).
/// Scalar rows cover the axis-cross-product experiments; traces carry the
/// Fig. 1 mechanics time series; matrices carry the Fig. 2a temperature
/// map. The ASCII/CSV/JSON sinks understand all three shapes.
struct ResultValue {
  enum class Kind { Number, Text, Trace, Matrix };
  Kind kind = Kind::Number;
  double number = 0.0;
  std::string text;
  /// Trace samples, or the matrix payload in row-major order.
  std::vector<double> series;
  std::size_t matrixRows = 0;  ///< Valid for Kind::Matrix.
  std::size_t matrixCols = 0;

  static ResultValue num(double v);
  static ResultValue boolean(bool v);  ///< Stored as 0/1.
  static ResultValue str(std::string s);
  static ResultValue trace(std::vector<double> samples);
  static ResultValue matrix(std::size_t rows, std::size_t cols,
                            std::vector<double> rowMajor);

  bool isShaped() const { return kind == Kind::Trace || kind == Kind::Matrix; }
  /// Elements of a shaped cell (trace samples / matrix entries), 1 otherwise.
  std::size_t elementCount() const;
  /// k-th element of a shaped cell; the scalar number for k == 0 otherwise.
  double element(std::size_t k) const;

  /// CSV cell: util::formatDouble for numbers, the text verbatim otherwise.
  /// Shaped cells render element-wise through the CSV expansion, never
  /// through render() (it throws for them).
  std::string render() const;

  bool operator==(const ResultValue&) const = default;
};

/// How `nh_sweep check` compares one result column against a tracked
/// baseline: numbers match when |actual - expected| <= abs + rel *
/// |expected| (element-wise for shaped cells), text cells compare exactly,
/// and ignore == true skips the column entirely (wall-clock measurements).
struct ColumnTolerance {
  double rel = 0.0;
  double abs = 0.0;
  bool ignore = false;

  bool operator==(const ColumnTolerance&) const = default;
};

/// One result column: machine-readable name (CSV header / JSON), optional
/// display header for the ASCII table, optional ASCII cell formatter
/// (numbers default to formatDouble, text passes through), the declared
/// cell shape, and the baseline comparison tolerance.
struct ColumnSpec {
  /// Declared cell shape. Every row must put a cell of this shape (or a
  /// text placeholder) into the column; runExperiment enforces it.
  enum class Shape { Scalar, Trace, Matrix };
  using Tolerance = ColumnTolerance;

  std::string name;
  std::string display;
  std::function<std::string(const ResultValue&)> format;
  Shape shape = Shape::Scalar;
  Tolerance tolerance;

  ColumnSpec() = default;
  ColumnSpec(std::string name_, std::string display_ = "",
             std::function<std::string(const ResultValue&)> format_ = {},
             Shape shape_ = Shape::Scalar, Tolerance tolerance_ = Tolerance())
      : name(std::move(name_)),
        display(std::move(display_)),
        format(std::move(format_)),
        shape(shape_),
        tolerance(tolerance_) {}

  const std::string& heading() const { return display.empty() ? name : display; }
};

/// Baseline-tolerance helper: |actual - expected| <= abs + rel*|expected|.
bool withinTolerance(double expected, double actual,
                     const ColumnSpec::Tolerance& tolerance);

const char* shapeName(ColumnSpec::Shape shape);

/// Canned ASCII formatters for ColumnSpec::format.
namespace colfmt {
/// Engineering/SI formatting after scaling ("1.2 ns" from 1.2e-9, unit "s").
std::function<std::string(const ResultValue&)> si(std::string unit,
                                                  int decimals = 0);
/// Fixed decimals with an optional suffix ("1.05 V").
std::function<std::string(const ResultValue&)> fixed(int decimals,
                                                     std::string suffix = "");
/// Thousands-grouped integer ("12,345").
std::function<std::string(const ResultValue&)> grouped();
/// 1 -> "yes", 0 -> "NO (budget)" (the flip-outcome convention).
std::function<std::string(const ResultValue&)> flipped();
/// 1 -> "yes", 0 -> "no".
std::function<std::string(const ResultValue&)> yesNo();
}  // namespace colfmt

/// One named parameter axis: a value list plus an optional StudyConfig
/// setter. Axes without a setter (e.g. the hammer pulse width) do not change
/// the study, so every point along them shares one cached AttackStudy.
struct ParamAxis {
  std::string name;
  std::vector<double> values;
  /// Fast-mode (NH_FAST_BENCH / --fast) subset; empty = use \p values.
  std::vector<double> fastValues;
  /// Applies a value to the point's StudyConfig; null when the axis does not
  /// affect study construction.
  std::function<void(StudyConfig&, double)> apply;

  const std::vector<double>& active(bool fast) const {
    return fast && !fastValues.empty() ? fastValues : values;
  }
};

struct ExperimentSpec;

/// Everything a per-point run function sees. The study pointer is null when
/// the spec opts out of study construction (ExperimentSpec::buildStudies).
struct PointContext {
  const ExperimentSpec* spec = nullptr;
  std::size_t index = 0;             ///< Serial slot (row-major over the axes).
  std::vector<double> values;        ///< One value per axis, in axis order.
  StudyConfig config;                ///< base with every axis setter applied.
  const AttackStudy* study = nullptr;
  std::size_t maxPulses = 0;
  bool fast = false;

  /// Value of the named axis at this point; throws std::out_of_range.
  double value(const std::string& axis) const;
};

struct ExperimentResult;

/// Optional pivoted ASCII presentation of a two-axis scalar grid: rows are
/// \p rowAxis values, columns are \p colAxis values, and each cell shows
/// \p valueColumn of the grid point with those axis values -- the paper's
/// "2-D table" look (the kinetics landscape) without giving up the flat,
/// overridable axis cross-product underneath.
struct PivotSpec {
  std::string rowAxis;
  std::string colAxis;
  std::string valueColumn;
  std::string title;
  /// Optional row-aware cell renderer (sees the whole result row, e.g. to
  /// print "> 50 s" when a companion flag column says not-switched);
  /// default: the value column's formatter.
  std::function<std::string(const std::vector<ResultValue>&)> format;
  /// Optional axis-value label formatters for the grid's row/column
  /// headings ("300 K", "0.525 V"); default: util::formatDouble.
  std::function<std::string(double)> rowLabel;
  std::function<std::string(double)> colLabel;

  bool enabled() const { return !rowAxis.empty(); }
};

/// One declarative experiment: metadata + base config + axes + run function.
struct ExperimentSpec {
  std::string name;         ///< Registry key, CSV/JSON stem ("fig3a_pulse_length").
  std::string title;        ///< Banner heading ("Fig. 3a -- ...").
  std::string description;  ///< Banner setup line.
  std::string paperShape;   ///< Banner "paper shape:" line.
  std::string tableTitle;   ///< ASCII table title.

  StudyConfig base;
  std::vector<ParamAxis> axes;  ///< Cross product, first axis outermost.
  std::vector<ColumnSpec> columns;

  std::size_t maxPulses = 5'000'000;
  std::size_t fastMaxPulses = 0;  ///< 0 = maxPulses in fast mode too.

  /// Build (deduplicated) AttackStudy instances for the points. Specs whose
  /// run functions never touch a study (e.g. substrate-level sweeps) opt out.
  bool buildStudies = true;

  /// Force serial (index-ordered, single-worker) point execution regardless
  /// of RunOptions::threads. For experiments whose rows carry wall-clock
  /// measurements (the batching ablation): concurrent points would time
  /// each other under core contention and distort the speedup columns.
  bool serialPoints = false;

  /// Produces one result row (width == columns.size()) per grid point. Must
  /// be deterministic and thread-safe across points (the Fig. 3 attack entry
  /// points are: each run builds a fresh bench from immutable study state).
  std::function<std::vector<ResultValue>(const PointContext&)> run;

  /// Optional post-pass over the complete, serially-ordered result: derived
  /// cross-row columns (ratios vs a reference row) and data-dependent notes.
  /// Runs serially after every point finished.
  std::function<void(ExperimentResult&)> finalize;

  /// Static footnotes appended after finalize's.
  std::vector<std::string> notes;

  /// Optional pivoted grid rendering (see PivotSpec).
  PivotSpec pivot;
};

/// What happens to the run when one grid point throws.
enum class PointFailurePolicy {
  Abort,  ///< Rethrow at the barrier; the whole run fails (legacy behaviour).
  Skip,   ///< Record the failure, fill the row with "-" placeholders, go on.
};

/// Per-point execution record: how the point's run function ended, after how
/// many attempts, and (for non-Ok outcomes) the failure message. Rows whose
/// outcome is not Ok carry "-" text placeholders in every cell. Pending is
/// the in-flight default -- a slot whose point has not settled yet; the
/// checkpoint writer must never serialize (or even read) such a row, which
/// is why the default is NOT Ok.
struct PointOutcome {
  enum class Status { Pending, Ok, Failed, Cancelled, TimedOut, Resumed };
  Status status = Status::Pending;
  std::string error;         ///< Failure message; empty for Ok/Resumed.
  std::size_t attempts = 1;  ///< Executions of the run function (1 + retries).

  bool ok() const { return status == Status::Ok || status == Status::Resumed; }
  bool operator==(const PointOutcome&) const = default;
};

const char* pointStatusName(PointOutcome::Status status);

/// Execution controls.
struct RunOptions {
  std::size_t threads = 0;  ///< 0 = util::defaultThreadCount().
  bool fast = false;        ///< Use the fast-mode axis subsets / budget.
  std::size_t maxPulsesOverride = 0;  ///< 0 = spec budget.
  /// Replace named axes' value lists (the CLI's --set axis=v1,v2,...).
  /// Unknown names throw std::out_of_range before anything runs; the
  /// message lists the experiment's valid axes.
  std::map<std::string, std::vector<double>> axisOverrides;

  /// ---- fault tolerance ----------------------------------------------------

  /// Extra executions of a point's run function after a failure (transient
  /// solver faults). Retries apply per point, before the failure policy.
  std::size_t pointRetries = 0;
  /// Abort (default, legacy): the first failed point kills the run. Skip:
  /// failed points become flagged rows and the grid completes.
  PointFailurePolicy onPointFailure = PointFailurePolicy::Abort;
  /// Cooperative cancellation: installed as the ambient token inside every
  /// point body, so the solver stack unwinds within ~one iteration of
  /// cancel()/deadline expiry. Already-completed rows are kept; pending
  /// points are recorded Cancelled/TimedOut without running.
  util::CancellationToken cancel;
  /// Non-empty: periodically persist completed rows to
  /// <checkpointDir>/<name>.json (digest-keyed) so an interrupted run can
  /// resume. Mid-run writes are throttled (at most one every few seconds --
  /// the file re-serializes every completed row), an interrupted run always
  /// gets one final write covering everything that settled, and a write
  /// failure (unwritable dir, disk full) logs a warning and disables further
  /// checkpointing instead of failing the run. Deleted on full success.
  std::filesystem::path checkpointDir;
  /// Skip points whose rows a digest-matching checkpoint already holds.
  bool resume = false;
  /// Observer called serially (under a lock) after each point settles, with
  /// the serial index, its outcome, and the number of settled points so far.
  /// Used by the CLI for progress lines and by tests to cancel mid-run.
  std::function<void(std::size_t index, const PointOutcome& outcome,
                     std::size_t completed)>
      onPointComplete;
};

/// Complete experiment output: the data plus the provenance the JSON records.
struct ExperimentResult {
  std::string name;
  std::string tableTitle;
  std::vector<ColumnSpec> columns;
  std::vector<std::vector<ResultValue>> rows;   ///< One per point, serial order.
  std::vector<std::vector<double>> pointValues; ///< Axis values per row.
  struct Axis {
    std::string name;
    std::vector<double> values;
  };
  std::vector<Axis> axes;       ///< As resolved (fast subset / overrides).
  std::vector<std::string> notes;
  std::size_t threads = 0;
  bool fast = false;
  std::size_t maxPulses = 0;
  std::size_t studiesConstructed = 0;  ///< Unique configs this run referenced.
  /// Of studiesConstructed, how many were served warm by the process-wide
  /// study cache instead of being built (run-all batching).
  std::size_t studiesReused = 0;
  std::string configDigest;            ///< FNV-1a over base config + axes.
  PivotSpec pivot;                     ///< Copied from the spec.

  /// Per-point execution record, one per row (serial order). Non-Ok rows
  /// hold "-" placeholders; the ASCII/CSV sinks append a synthetic "status"
  /// column whenever any outcome is not Ok, and the JSON document always
  /// records the aggregate counts (plus per-row status when degraded).
  std::vector<PointOutcome> outcomes;
  std::size_t pointsOk = 0;        ///< Includes resumed-from-checkpoint rows.
  std::size_t pointsFailed = 0;
  std::size_t pointsCancelled = 0;  ///< Cancelled + TimedOut.
  std::size_t pointsResumed = 0;    ///< Of pointsOk, served by the checkpoint.

  /// Every point ran to completion (failed/cancelled counts are both zero).
  bool complete() const { return pointsFailed == 0 && pointsCancelled == 0; }
};

/// Run the full cross product on the pool. Deterministic: rows land in
/// serially-indexed slots, studies are deduplicated by config equality in
/// serial point order, and every run function only reads shared immutable
/// state -- so the result is bit-identical for any RunOptions::threads.
ExperimentResult runExperiment(const ExperimentSpec& spec,
                               const RunOptions& options = {});

/// Digest of the study-relevant inputs (base config, axes, budget); stable
/// across runs and thread counts, recorded in the JSON document and keyed
/// against by the tracked baseline store (core/baseline).
std::string configDigest(const ExperimentSpec& spec, const RunOptions& options);

/// ---- process-wide study cache --------------------------------------------

/// The study-dedup cache is process-wide: AttackStudy instances built by any
/// runExperiment() call are kept (keyed by StudyConfig::operator==) and
/// shared with every later run in the process, so `nh_sweep run-all` and
/// `check --all` batch related experiments against one warm study set
/// instead of re-running the expensive FEM-alpha extraction per experiment.

/// Resolve \p config through the cache: return the cached study when warm,
/// otherwise build one and publish it. Safe to call from any number of
/// threads; racing builders for the same config all converge on the single
/// instance the cache kept (insert returns the winner), so callers may
/// compare the returned pointers for identity.
std::shared_ptr<const AttackStudy> getOrBuildStudy(const StudyConfig& config);

/// Number of studies currently cached.
std::size_t studyCacheSize();

/// Drop every cached study (tests; also frees memory after a run-all).
void clearStudyCache();

/// The cache is LRU-bounded: find() refreshes an entry, insert() evicts the
/// least-recently-used entry once the capacity is reached. Megabit-array
/// studies hold per-cell state for 10^6 devices each, so an unbounded cache
/// would pin gigabytes across a run-all; the default keeps the whole seed
/// catalog warm while bounding resident memory.
std::size_t studyCacheCapacity();

/// Set the capacity (minimum 1). Shrinking below the current size evicts
/// the least-recently-used entries immediately. Running experiments keep
/// their studies alive through their own shared_ptr references, so eviction
/// never invalidates in-flight work.
void setStudyCacheCapacity(std::size_t capacity);

/// ---- result sink ---------------------------------------------------------

/// Where experiment series land by default: NH_RESULTS_DIR when set,
/// ./bench_results otherwise. Single home for the convention the nh_sweep
/// CLI and the tests share.
std::filesystem::path defaultResultsDir();

/// Where checkpoints land by default: defaultResultsDir()/checkpoints.
std::filesystem::path defaultCheckpointDir();

/// The checkpoint file runExperiment reads/writes for experiment \p name
/// inside \p dir: <dir>/<name>.json. The file records the config digest;
/// resume ignores (and overwrites) checkpoints whose digest mismatches.
std::filesystem::path checkpointPath(const std::filesystem::path& dir,
                                     const std::string& name);

/// The standard reproduction banner (title, setup line, paper shape).
void printBanner(const std::string& title, const std::string& description,
                 const std::string& paperShape);
inline void printBanner(const ExperimentSpec& spec) {
  printBanner(spec.title, spec.description, spec.paperShape);
}

/// ASCII rendering (title, formatted columns, notes). Shaped results render
/// as several tables: the main table (scalar columns; trace columns expand
/// to decimated sample lines), one grid per matrix cell, and the pivoted
/// grid when the spec asks for one. The first table carries the notes.
std::vector<nh::util::AsciiTable> toAsciiTables(const ExperimentResult& result);

/// The main (first) table of toAsciiTables -- the whole rendering for
/// scalar-only results.
nh::util::AsciiTable toAsciiTable(const ExperimentResult& result);

/// CSV series (machine column names, formatDouble numbers). Shaped results
/// emit long form: each point expands to one line per trace sample (with a
/// leading "sample" index column) or per matrix entry (leading "row"/"col"
/// columns), scalar cells repeated on every line. Trace and matrix columns
/// cannot mix in one experiment.
nh::util::CsvTable toCsvTable(const ExperimentResult& result);

/// Machine-readable JSON document: experiment name, config digest, axes,
/// columns (+ shapes), rows, notes, thread count, fast flag, build type.
/// Shaped cells are encoded as {"shape":"trace","values":[...]} /
/// {"shape":"matrix","rows":R,"cols":C,"values":[...]}.
std::string toJson(const ExperimentResult& result);

/// Append one cell to \p w using the shaped-cell encoding shared by the
/// result JSON and the baseline store (core/baseline reads it back).
void writeCellJson(nh::util::JsonWriter& w, const ResultValue& cell);

/// Inverse of writeCellJson: decode one cell from the shared encoding
/// (number / string / {"shape":...} object). Throws std::runtime_error on
/// malformed input. Used by the baseline store and checkpoint resume.
ResultValue readCellJson(const nh::util::JsonValue& v);

/// Write <name>.csv and <name>.json into \p dir (created when missing).
struct EmittedFiles {
  std::filesystem::path csv;
  std::filesystem::path json;
};
EmittedFiles writeResultFiles(const ExperimentResult& result,
                              const std::filesystem::path& dir);

}  // namespace nh::core

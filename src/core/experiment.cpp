#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "util/annotations.hpp"
#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/threadpool.hpp"

namespace nh::core {

ResultValue ResultValue::num(double v) {
  ResultValue out;
  out.kind = Kind::Number;
  out.number = v;
  return out;
}

ResultValue ResultValue::boolean(bool v) { return num(v ? 1.0 : 0.0); }

ResultValue ResultValue::str(std::string s) {
  ResultValue out;
  out.kind = Kind::Text;
  out.text = std::move(s);
  return out;
}

ResultValue ResultValue::trace(std::vector<double> samples) {
  ResultValue out;
  out.kind = Kind::Trace;
  out.series = std::move(samples);
  return out;
}

ResultValue ResultValue::matrix(std::size_t rows, std::size_t cols,
                                std::vector<double> rowMajor) {
  if (rowMajor.size() != rows * cols) {
    throw std::invalid_argument(
        "ResultValue::matrix: " + std::to_string(rowMajor.size()) +
        " values for a " + std::to_string(rows) + "x" + std::to_string(cols) +
        " matrix");
  }
  ResultValue out;
  out.kind = Kind::Matrix;
  out.series = std::move(rowMajor);
  out.matrixRows = rows;
  out.matrixCols = cols;
  return out;
}

std::size_t ResultValue::elementCount() const {
  return isShaped() ? series.size() : 1;
}

double ResultValue::element(std::size_t k) const {
  if (isShaped()) return series.at(k);
  if (k != 0) throw std::out_of_range("ResultValue::element on a scalar");
  return number;
}

std::string ResultValue::render() const {
  if (isShaped()) {
    throw std::logic_error(
        "ResultValue::render on a shaped cell (use the CSV/JSON expansion)");
  }
  return kind == Kind::Number ? nh::util::formatDouble(number) : text;
}

bool withinTolerance(double expected, double actual,
                     const ColumnSpec::Tolerance& tolerance) {
  if (tolerance.ignore) return true;
  return std::abs(actual - expected) <=
         tolerance.abs + tolerance.rel * std::abs(expected);
}

const char* shapeName(ColumnSpec::Shape shape) {
  switch (shape) {
    case ColumnSpec::Shape::Trace: return "trace";
    case ColumnSpec::Shape::Matrix: return "matrix";
    case ColumnSpec::Shape::Scalar: break;
  }
  return "scalar";
}

const char* pointStatusName(PointOutcome::Status status) {
  switch (status) {
    case PointOutcome::Status::Pending: return "pending";
    case PointOutcome::Status::Failed: return "failed";
    case PointOutcome::Status::Cancelled: return "cancelled";
    case PointOutcome::Status::TimedOut: return "timed-out";
    case PointOutcome::Status::Resumed: return "resumed";
    case PointOutcome::Status::Ok: break;
  }
  return "ok";
}

namespace colfmt {

using Formatter = std::function<std::string(const ResultValue&)>;

// Every canned formatter passes text cells through verbatim: finalize hooks
// leave "-" placeholders in cross-row columns when no reference exists.

Formatter si(std::string unit, int decimals) {
  return [unit = std::move(unit), decimals](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return nh::util::AsciiTable::si(v.number, unit, decimals);
  };
}

Formatter fixed(int decimals, std::string suffix) {
  return [decimals, suffix = std::move(suffix)](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return nh::util::AsciiTable::fixed(v.number, decimals) + suffix;
  };
}

Formatter grouped() {
  return [](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return nh::util::AsciiTable::grouped(static_cast<long long>(v.number));
  };
}

Formatter flipped() {
  return [](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return std::string(v.number != 0.0 ? "yes" : "NO (budget)");
  };
}

Formatter yesNo() {
  return [](const ResultValue& v) {
    if (v.kind == ResultValue::Kind::Text) return v.text;
    return std::string(v.number != 0.0 ? "yes" : "no");
  };
}

}  // namespace colfmt

double PointContext::value(const std::string& axis) const {
  for (std::size_t i = 0; i < spec->axes.size(); ++i) {
    if (spec->axes[i].name == axis) return values[i];
  }
  throw std::out_of_range("PointContext: no axis named '" + axis + "'");
}

namespace {

/// Axis value lists as actually executed: fast subsets, then CLI overrides.
std::vector<ExperimentResult::Axis> resolveAxes(const ExperimentSpec& spec,
                                                const RunOptions& options) {
  std::vector<ExperimentResult::Axis> axes;
  axes.reserve(spec.axes.size());
  for (const auto& axis : spec.axes) {
    axes.push_back({axis.name, axis.active(options.fast)});
  }
  for (const auto& [name, values] : options.axisOverrides) {
    bool found = false;
    for (auto& axis : axes) {
      if (axis.name == name) {
        axis.values = values;
        found = true;
      }
    }
    if (!found) {
      // List the valid axes: the CLI surfaces this message verbatim, and a
      // bare "no axis 'ambient'" leaves the user guessing at the spelling.
      std::string valid;
      for (const auto& axis : axes) {
        valid += (valid.empty() ? "" : ", ") + axis.name;
      }
      throw std::out_of_range("experiment '" + spec.name + "' has no axis '" +
                              name + "' (valid axes: " + valid + ")");
    }
  }
  for (const auto& axis : axes) {
    if (axis.values.empty()) {
      throw std::invalid_argument("experiment '" + spec.name + "': axis '" +
                                  axis.name + "' has no values");
    }
    // The CLI's number parser accepts "nan" and "inf"; stop them here
    // rather than as a solver failure deep inside some point.
    for (const double v : axis.values) {
      if (!std::isfinite(v)) {
        throw std::invalid_argument("experiment '" + spec.name + "': axis '" +
                                    axis.name + "' has a non-finite value (" +
                                    nh::util::formatDouble(v) + ")");
      }
    }
  }
  return axes;
}

std::size_t resolveBudget(const ExperimentSpec& spec, const RunOptions& options) {
  if (options.maxPulsesOverride) return options.maxPulsesOverride;
  if (options.fast && spec.fastMaxPulses) return spec.fastMaxPulses;
  return spec.maxPulses;
}

/// Mixed-radix decode of a serial point index, first axis outermost: a
/// (spacing, width) grid has slot order spacing * widths.size() + width.
std::vector<double> pointValuesAt(
    const std::vector<ExperimentResult::Axis>& axes, std::size_t index) {
  std::vector<double> values(axes.size());
  std::size_t rem = index;
  for (std::size_t ai = axes.size(); ai-- > 0;) {
    const auto& list = axes[ai].values;
    values[ai] = list[rem % list.size()];
    rem /= list.size();
  }
  return values;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // Field separator: without it the hash sees only the concatenation, and
  // e.g. rows=1,cols=25 would collide with rows=12,cols=5.
  h ^= 0x1f;
  h *= 1099511628211ull;
  return h;
}

/// Hash every field that participates in StudyConfig::operator== -- the
/// digest must distinguish any two configs the study-dedup cache would
/// (hashing only a subset would make configs differing in e.g. engine
/// options collide). Keep this list in sync when StudyConfig or
/// its nested structs grow fields.
std::uint64_t hashStudyConfig(std::uint64_t h, const StudyConfig& c) {
  const jart::Params& p = c.cellParams;
  const xbar::FastEngineOptions& e = c.engineOptions;
  const DetectorConfig& d = c.detector;
  const double fields[] = {
      static_cast<double>(c.rows), static_cast<double>(c.cols), c.spacing,
      c.ambientK,
      // Retired FEM-in-the-loop alpha switch (off = 0) and its voxel size
      // (5e-9 m), hashed as constants like the solver knobs below.
      0.0, 5e-9,
      // jart::Params
      p.rFilament, p.lCell, p.lDisc, p.lPlug, p.nDiscMin, p.nDiscMax, p.nPlug,
      p.mobility, p.rSeries, p.richardson, p.phiBarrier0, p.phiLowering,
      p.idealityFwd, p.phiBarrierRev, p.idealityRev, p.rThEff, p.tauThermal,
      p.activationEnergySet, p.activationEnergyReset, p.kineticPrefactorSet,
      p.kineticPrefactorReset, p.hopDistance, p.chargeNumber,
      p.fieldEnhancement, p.windowExponent,
      // Retired FEM solver knobs (the fem::DiffusionOptions defaults relTol
      // 1e-8, maxIterations 20000, preconditioner IncompleteCholesky = 1,
      // multigridMinVoxels 32768), hashed as constants like the Schur knobs
      // below.
      1e-8, 20000.0, 1.0, 32768.0,
      // xbar::FastEngineOptions
      static_cast<double>(e.substepsPerPulse), e.solveLineNetwork ? 1.0 : 0.0,
      e.relaxBetweenPulses ? 1.0 : 0.0, e.enableBatching ? 1.0 : 0.0,
      e.batchDriftLimit, static_cast<double>(e.maxBatch), e.newtonTol,
      static_cast<double>(e.maxNewtonIterations), e.useSchurSolve ? 1.0 : 0.0,
      // Retired Schur knobs (schurMode = Auto = 3, schurIterativeMinCols =
      // 128): their behaviour is fixed now, and hashing the old defaults as
      // constants keeps every recorded baseline and checkpoint digest valid.
      3.0, 128.0,
      // DetectorConfig
      d.readVoltage, d.rLrsMax, d.rHrsMin};
  for (const double v : fields) h = fnv1a(h, nh::util::formatDouble(v));
  return h;
}

std::string digestOf(const ExperimentSpec& spec,
                     const std::vector<ExperimentResult::Axis>& axes,
                     std::size_t maxPulses) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, spec.name);
  h = hashStudyConfig(h, spec.base);
  for (const auto& axis : axes) {
    h = fnv1a(h, axis.name);
    for (const double v : axis.values) h = fnv1a(h, nh::util::formatDouble(v));
  }
  h = fnv1a(h, std::to_string(maxPulses));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Process-wide study cache: configs compared by the same operator== the
/// per-run dedup uses, entries owned by shared_ptr so an eviction cannot
/// pull a study out from under a running experiment. Linear scan -- the
/// catalog holds tens of unique configs, not thousands. LRU-bounded:
/// entries are kept least-recently-used first, a hit moves the entry to the
/// back, and an insert past capacity evicts the front. Megabit-array
/// studies pin per-cell state for 10^6 devices each, so the bound is what
/// keeps a run-all's resident memory flat.
struct StudyCache {
  nh::util::Mutex mutex;
  std::vector<std::pair<StudyConfig, std::shared_ptr<const AttackStudy>>>
      entries NH_GUARDED_BY(mutex);  ///< LRU order: front = next victim.
  std::size_t capacity NH_GUARDED_BY(mutex) = 32;  ///< Seed catalog stays warm.

  std::shared_ptr<const AttackStudy> find(const StudyConfig& config)
      NH_EXCLUDES(mutex) {
    const nh::util::MutexLock lock(mutex);
    for (auto it = entries.begin(); it != entries.end(); ++it) {
      if (it->first == config) {
        std::rotate(it, it + 1, entries.end());  // refresh: move to back
        return entries.back().second;
      }
    }
    return nullptr;
  }

  /// Publish \p study, returning the entry that ended up cached: when a
  /// racing insert for an equal config got there first, that winner is
  /// returned instead, so concurrent builders converge on one instance.
  std::shared_ptr<const AttackStudy> insert(
      const StudyConfig& config, std::shared_ptr<const AttackStudy> study)
      NH_EXCLUDES(mutex) {
    const nh::util::MutexLock lock(mutex);
    for (const auto& [cached, existing] : entries) {
      if (cached == config) return existing;  // racing run-all: first wins
    }
    while (entries.size() >= capacity && !entries.empty()) {
      entries.erase(entries.begin());
    }
    entries.emplace_back(config, std::move(study));
    return entries.back().second;
  }
};

StudyCache& studyCache() {
  static StudyCache instance;
  return instance;
}

/// ---- checkpoint store ----------------------------------------------------
///
/// One JSON document per experiment: {"experiment", "config_digest",
/// "points", "rows": [{"index": i, "cells": [...]} ...]} holding only the
/// rows whose points completed OK. Row slots are serially indexed, so a
/// resumed run that skips them is bit-identical to an uninterrupted one.

void writeCheckpointFile(const std::filesystem::path& path,
                         const std::string& name, const std::string& digest,
                         std::size_t pointCount,
                         const std::vector<std::vector<ResultValue>>& rows,
                         const std::vector<PointOutcome>& outcomes) {
  nh::util::JsonWriter w;
  w.beginObject();
  w.key("experiment").value(name);
  w.key("config_digest").value(digest);
  w.key("points").value(pointCount);
  w.key("rows").beginArray();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!outcomes[i].ok()) continue;
    w.beginObject();
    w.key("index").value(i);
    w.key("cells").beginArray();
    for (const auto& cell : rows[i]) writeCellJson(w, cell);
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();

  // Write-then-rename: a crash mid-write must never leave a truncated file
  // where the previous good checkpoint was.
  std::filesystem::create_directories(path.parent_path());
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << w.str() << "\n";
    out.flush();
    if (!out) {
      throw std::runtime_error("checkpoint: cannot write " + tmp.string());
    }
  }
  std::filesystem::rename(tmp, path);
}

/// Completed rows of a digest-matching checkpoint, by serial index. A
/// missing, corrupt, or mismatching (digest / point count / row width)
/// checkpoint yields no rows -- resume silently degrades to a full run.
std::vector<std::unique_ptr<std::vector<ResultValue>>> loadCheckpointRows(
    const std::filesystem::path& path, const std::string& digest,
    std::size_t pointCount, std::size_t columnCount) {
  std::vector<std::unique_ptr<std::vector<ResultValue>>> rows(pointCount);
  std::ifstream in(path, std::ios::binary);
  if (!in) return rows;
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    const nh::util::JsonValue doc = nh::util::JsonValue::parse(buf.str());
    if (doc.at("config_digest").asString() != digest) return rows;
    if (static_cast<std::size_t>(doc.at("points").asNumber()) != pointCount) {
      return rows;
    }
    for (const auto& entry : doc.at("rows").items()) {
      const auto i = static_cast<std::size_t>(entry.at("index").asNumber());
      if (i >= pointCount) continue;
      const auto& cells = entry.at("cells").items();
      if (cells.size() != columnCount) continue;
      auto row = std::make_unique<std::vector<ResultValue>>();
      row->reserve(columnCount);
      for (const auto& cell : cells) row->push_back(readCellJson(cell));
      rows[i] = std::move(row);
    }
  } catch (const std::exception&) {
    // Unreadable checkpoint: pretend it does not exist.
    for (auto& row : rows) row.reset();
  }
  return rows;
}

/// Serialises point settlement. A point's row and outcome are assigned
/// *together* under mutex_, so the checkpoint writer -- which runs under the
/// same mutex_ -- can never observe a row a worker is still move-assigning,
/// and unsettled (Pending) slots never reach the file. The PR 7
/// checkpoint-writer race was exactly this protocol enforced only by
/// convention; here the row/outcome stores are pt-guarded by mutex_ and the
/// lock-holding helper carries NH_REQUIRES, so clang rejects a regression at
/// compile time.
///
/// The tracker accesses the result's rows/outcomes through guarded pointers
/// for the whole parallel phase. After the loop's barrier the run is
/// single-threaded again; the caller reads the result directly, outside the
/// tracker, which is the documented single-owner epoch.
class ProgressTracker {
 public:
  ProgressTracker(const ExperimentSpec& spec, ExperimentResult& result,
                  const RunOptions& options, std::filesystem::path ckpt)
      : spec_(spec),
        options_(options),
        ckpt_(std::move(ckpt)),
        pointCount_(result.rows.size()),
        digest_(result.configDigest),
        rows_(&result.rows),
        outcomes_(&result.outcomes) {
    const nh::util::MutexLock lock(mutex_);
    for (const auto& outcome : *outcomes_) {
      if (outcome.status == PointOutcome::Status::Resumed) ++settled_;
    }
    lastWrite_ = std::chrono::steady_clock::now();
  }

  /// Record one settled point: assign its row and outcome, maybe write a
  /// throttled checkpoint, and invoke the (serialised) completion observer.
  void settle(std::size_t i, PointOutcome outcome, std::vector<ResultValue> row)
      NH_EXCLUDES(mutex_) {
    const nh::util::MutexLock lock(mutex_);
    (*rows_)[i] = std::move(row);
    (*outcomes_)[i] = std::move(outcome);
    ++settled_;
    // Checkpoint I/O policy: mid-run writes re-serialize every completed
    // row, so they are throttled to one per interval instead of one per
    // point (an interrupted run still gets a final write via
    // writeFinalCheckpoint covering everything that settled).
    if ((*outcomes_)[i].ok() && !ckpt_.empty() && !checkpointBroken_) {
      const auto now = std::chrono::steady_clock::now();
      if (now - lastWrite_ >= kCheckpointInterval) {
        tryWriteCheckpointLocked();
        lastWrite_ = now;
      }
    }
    if (options_.onPointComplete) {
      options_.onPointComplete(i, (*outcomes_)[i], settled_);
    }
  }

  /// One final write so --resume sees every settled row, including those the
  /// throttled mid-run writes skipped. Called after the loop barrier (the
  /// run is single-threaded again, but an uncontended lock is free and keeps
  /// the analysis honest).
  void writeFinalCheckpoint() NH_EXCLUDES(mutex_) {
    const nh::util::MutexLock lock(mutex_);
    tryWriteCheckpointLocked();
  }

 private:
  /// A write failure (unwritable dir, disk full) is a degraded-resumability
  /// event, not a run failure: log once, stop trying -- later writes would
  /// fail the same way.
  void tryWriteCheckpointLocked() NH_REQUIRES(mutex_) {
    if (ckpt_.empty() || checkpointBroken_) return;
    try {
      writeCheckpointFile(ckpt_, spec_.name, digest_, pointCount_, *rows_,
                          *outcomes_);
    } catch (const std::exception& e) {
      checkpointBroken_ = true;
      nh::util::logWarn("experiment '", spec_.name,
                        "': checkpoint write failed (", e.what(),
                        "); checkpointing disabled for this run");
    }
  }

  static constexpr std::chrono::seconds kCheckpointInterval{5};

  const ExperimentSpec& spec_;
  const RunOptions& options_;
  const std::filesystem::path ckpt_;
  const std::size_t pointCount_;
  const std::string digest_;

  nh::util::Mutex mutex_;
  std::vector<std::vector<ResultValue>>* const rows_ NH_PT_GUARDED_BY(mutex_);
  std::vector<PointOutcome>* const outcomes_ NH_PT_GUARDED_BY(mutex_);
  std::size_t settled_ NH_GUARDED_BY(mutex_) = 0;
  bool checkpointBroken_ NH_GUARDED_BY(mutex_) = false;
  std::chrono::steady_clock::time_point lastWrite_ NH_GUARDED_BY(mutex_);
};

}  // namespace

std::size_t studyCacheSize() {
  StudyCache& cache = studyCache();
  const nh::util::MutexLock lock(cache.mutex);
  return cache.entries.size();
}

void clearStudyCache() {
  StudyCache& cache = studyCache();
  const nh::util::MutexLock lock(cache.mutex);
  cache.entries.clear();
}

std::size_t studyCacheCapacity() {
  StudyCache& cache = studyCache();
  const nh::util::MutexLock lock(cache.mutex);
  return cache.capacity;
}

void setStudyCacheCapacity(std::size_t capacity) {
  StudyCache& cache = studyCache();
  const nh::util::MutexLock lock(cache.mutex);
  cache.capacity = std::max<std::size_t>(1, capacity);
  while (cache.entries.size() > cache.capacity) {
    cache.entries.erase(cache.entries.begin());
  }
}

std::shared_ptr<const AttackStudy> getOrBuildStudy(const StudyConfig& config) {
  if (auto hit = studyCache().find(config)) return hit;
  // Built outside the lock: construction can take seconds (FEM-alpha
  // extraction) and other configs must keep hitting the cache meanwhile.
  // Racing builders for an equal config each construct once; insert()
  // returns the winning instance so every caller converges on it.
  auto study = std::make_shared<const AttackStudy>(config);
  return studyCache().insert(config, std::move(study));
}

std::string configDigest(const ExperimentSpec& spec, const RunOptions& options) {
  return digestOf(spec, resolveAxes(spec, options), resolveBudget(spec, options));
}

ExperimentResult runExperiment(const ExperimentSpec& spec,
                               const RunOptions& options) {
  if (!spec.run) {
    throw std::invalid_argument("runExperiment: spec '" + spec.name +
                                "' has no run function");
  }
  const auto axes = resolveAxes(spec, options);
  const std::size_t maxPulses = resolveBudget(spec, options);

  std::size_t pointCount = 1;
  for (const auto& axis : axes) pointCount *= axis.values.size();

  // Materialise every point's StudyConfig and deduplicate in serial point
  // order: points whose study-relevant config compares equal (defaulted
  // operator==) share one cached AttackStudy. Linear search is fine at the
  // grid sizes of the catalog (tens to hundreds of points).
  std::vector<StudyConfig> pointConfigs;
  pointConfigs.reserve(pointCount);
  std::vector<std::size_t> studyIndex(pointCount, 0);
  std::vector<const StudyConfig*> uniqueConfigs;
  for (std::size_t i = 0; i < pointCount; ++i) {
    pointConfigs.push_back([&] {
      StudyConfig cfg = spec.base;
      const std::vector<double> values = pointValuesAt(axes, i);
      for (std::size_t ai = 0; ai < spec.axes.size(); ++ai) {
        if (spec.axes[ai].apply) spec.axes[ai].apply(cfg, values[ai]);
      }
      return cfg;
    }());
  }
  for (std::size_t i = 0; i < pointCount; ++i) {
    std::size_t found = uniqueConfigs.size();
    for (std::size_t u = 0; u < uniqueConfigs.size(); ++u) {
      if (*uniqueConfigs[u] == pointConfigs[i]) {
        found = u;
        break;
      }
    }
    if (found == uniqueConfigs.size()) uniqueConfigs.push_back(&pointConfigs[i]);
    studyIndex[i] = found;
  }

  // Resolve the unique studies through the process-wide cache; misses are
  // constructed on the pool (the FEM-alpha path makes construction
  // expensive) and then published for later runs -- `run-all` and
  // `check --all` batch the whole catalog against one warm study set. Each
  // construction is internally serial and cache hits are immutable, so the
  // parallel build stays bit-identical for every thread count.
  //
  // Fault tolerance: a construction failure is captured per unique config.
  // Under PointFailurePolicy::Abort it rethrows (legacy behaviour); under
  // Skip every point sharing the config inherits the outcome as a flagged
  // row. Cancellation is recorded, never rethrown -- a cancelled run
  // returns its partial result.
  std::vector<std::shared_ptr<const AttackStudy>> studies;
  std::vector<PointOutcome> studyOutcomes(uniqueConfigs.size());
  std::size_t studiesReused = 0;
  if (spec.buildStudies) {
    studies.resize(uniqueConfigs.size());
    for (std::size_t u = 0; u < uniqueConfigs.size(); ++u) {
      studies[u] = studyCache().find(*uniqueConfigs[u]);
      if (studies[u]) ++studiesReused;
    }
    nh::util::parallelFor(
        uniqueConfigs.size(),
        [&](std::size_t u) {
          if (studies[u]) return;
          const nh::util::CancellationScope scope(options.cancel);
          try {
            nh::util::checkCancellation("study construction");
            studies[u] = getOrBuildStudy(*uniqueConfigs[u]);
          } catch (const nh::util::CancelledError& e) {
            studyOutcomes[u].status = e.deadlineExpired()
                                          ? PointOutcome::Status::TimedOut
                                          : PointOutcome::Status::Cancelled;
            studyOutcomes[u].error = e.what();
          } catch (const std::exception& e) {
            if (options.onPointFailure == PointFailurePolicy::Abort) throw;
            studyOutcomes[u].status = PointOutcome::Status::Failed;
            studyOutcomes[u].error =
                std::string("study construction: ") + e.what();
          }
        },
        options.threads);
    // Outcomes default to Pending; a resolved study (cache hit or fresh
    // construction) marks its config Ok so the per-point doom check below
    // only fires for real construction failures.
    for (std::size_t u = 0; u < studies.size(); ++u) {
      if (studies[u]) studyOutcomes[u].status = PointOutcome::Status::Ok;
    }
  }

  ExperimentResult result;
  result.name = spec.name;
  result.tableTitle = spec.tableTitle;
  result.columns = spec.columns;
  result.axes = axes;
  // Record what actually executed: serialPoints specs run single-threaded
  // whatever the caller asked for, and their JSON must say so (wall-clock
  // provenance).
  result.threads = spec.serialPoints ? 1
                   : options.threads ? options.threads
                                     : nh::util::defaultThreadCount();
  result.fast = options.fast;
  result.maxPulses = maxPulses;
  result.studiesConstructed = spec.buildStudies ? uniqueConfigs.size() : 0;
  result.studiesReused = studiesReused;
  result.configDigest = digestOf(spec, axes, maxPulses);
  result.pivot = spec.pivot;
  result.rows.resize(pointCount);
  result.pointValues.resize(pointCount);
  result.outcomes.assign(pointCount, PointOutcome{});
  // Axis values are known for every slot whether or not its point runs --
  // flagged rows still label their grid position in the sinks.
  for (std::size_t i = 0; i < pointCount; ++i) {
    result.pointValues[i] = pointValuesAt(axes, i);
  }

  const std::filesystem::path ckpt =
      options.checkpointDir.empty()
          ? std::filesystem::path()
          : checkpointPath(options.checkpointDir, spec.name);

  // Resume: pre-fill row slots from a digest-matching checkpoint. Restored
  // rows count as OK (status Resumed) and their points never execute, so
  // the final rows are bit-identical to an uninterrupted run.
  if (options.resume && !ckpt.empty()) {
    auto restored =
        loadCheckpointRows(ckpt, result.configDigest, pointCount,
                           spec.columns.size());
    for (std::size_t i = 0; i < pointCount; ++i) {
      if (!restored[i]) continue;
      result.rows[i] = std::move(*restored[i]);
      result.outcomes[i].status = PointOutcome::Status::Resumed;
      result.outcomes[i].attempts = 0;
    }
  }

  // Progress bookkeeping: the tracker settles a point (row + outcome
  // assigned, both) only under its mutex, so the checkpoint writer -- which
  // runs under the same mutex -- can never observe a row another worker is
  // still writing, and the Pending default keeps unsettled slots out of the
  // file entirely. The observer (CLI progress, test-driven cancellation)
  // runs serially. The locking protocol is thread-safety-annotated; see
  // ProgressTracker.
  ProgressTracker progress(spec, result, options, ckpt);

  // One point's run function plus the row/shape validation; returns the
  // validated row (assigned into the shared result only by settle, under the
  // progress mutex) and throws on any contract violation. Only called with
  // the point's cancellation scope and fault-injection scope installed.
  const auto executePoint = [&](std::size_t i) {
    PointContext ctx;
    ctx.spec = &spec;
    ctx.index = i;
    ctx.values = result.pointValues[i];
    ctx.config = pointConfigs[i];
    ctx.study = spec.buildStudies ? studies[studyIndex[i]].get() : nullptr;
    ctx.maxPulses = maxPulses;
    ctx.fast = options.fast;
    std::vector<ResultValue> row = spec.run(ctx);
    if (row.size() != spec.columns.size()) {
      throw std::runtime_error("experiment '" + spec.name + "': point " +
                               std::to_string(i) + " produced " +
                               std::to_string(row.size()) + " cells for " +
                               std::to_string(spec.columns.size()) +
                               " columns");
    }
    // Shape check: every cell must match its column's declared shape
    // (text placeholders are allowed anywhere -- the "-" convention of
    // the finalize hooks).
    for (std::size_t c = 0; c < row.size(); ++c) {
      const ColumnSpec::Shape declared = spec.columns[c].shape;
      const ResultValue::Kind kind = row[c].kind;
      const bool ok =
          kind == ResultValue::Kind::Text ||
          (declared == ColumnSpec::Shape::Scalar &&
           kind == ResultValue::Kind::Number) ||
          (declared == ColumnSpec::Shape::Trace &&
           kind == ResultValue::Kind::Trace) ||
          (declared == ColumnSpec::Shape::Matrix &&
           kind == ResultValue::Kind::Matrix);
      if (!ok) {
        throw std::runtime_error(
            "experiment '" + spec.name + "': point " + std::to_string(i) +
            " put a mismatched cell into the " +
            std::string(shapeName(declared)) + " column '" +
            spec.columns[c].name + "'");
      }
    }
    std::string where;
    for (std::size_t ai = 0; ai < axes.size(); ++ai) {
      where += (ai ? " " : "") + axes[ai].name + "=" +
               nh::util::formatDouble(ctx.values[ai]);
    }
    nh::util::logInfo(spec.name, ": ", where, " done (point ", i + 1, "/",
                      pointCount, ")");
    return row;
  };

  // threads == 1 runs in index order on the calling thread -- the mode
  // wall-clock-measuring specs force so points never time each other.
  //
  // The cancellation scope is installed INSIDE each point body, never around
  // the parallelFor call: the loop itself must keep claiming slots so every
  // pending point settles with a recorded Cancelled outcome instead of the
  // loop aborting mid-grid.
  const std::size_t pointThreads = spec.serialPoints ? 1 : options.threads;
  nh::util::parallelFor(
      pointCount,
      [&](std::size_t i) {
        if (result.outcomes[i].status == PointOutcome::Status::Resumed) return;

        PointOutcome outcome;
        // A config whose study failed to build dooms every point on it.
        if (spec.buildStudies && !studyOutcomes[studyIndex[i]].ok()) {
          outcome = studyOutcomes[studyIndex[i]];
          outcome.attempts = 0;
          progress.settle(i, std::move(outcome),
                          std::vector<ResultValue>(spec.columns.size(),
                                                   ResultValue::str("-")));
          return;
        }

        std::vector<ResultValue> row;
        std::exception_ptr lastError;
        const std::size_t maxAttempts = 1 + options.pointRetries;
        for (std::size_t attempt = 1; attempt <= maxAttempts; ++attempt) {
          outcome.attempts = attempt;
          try {
            const nh::util::CancellationScope scope(options.cancel);
            // Label solver fault-injection sites with the serial point
            // index, so a test can fail exactly one grid point
            // (NH_FAULT=linsolve.dense_lu:1@point:2) regardless of thread
            // interleaving.
            const nh::util::faultinject::Scope faultScope(
                "point:" + std::to_string(i));
            nh::util::checkCancellation("experiment point");
            row = executePoint(i);
            outcome.status = PointOutcome::Status::Ok;
            outcome.error.clear();
            break;
          } catch (const nh::util::CancelledError& e) {
            outcome.status = e.deadlineExpired()
                                 ? PointOutcome::Status::TimedOut
                                 : PointOutcome::Status::Cancelled;
            outcome.error = e.what();
            break;  // cancellation is never retried
          } catch (const std::exception& e) {
            outcome.status = PointOutcome::Status::Failed;
            outcome.error = e.what();
            lastError = std::current_exception();
          }
        }

        if (outcome.status == PointOutcome::Status::Failed &&
            options.onPointFailure == PointFailurePolicy::Abort) {
          // Legacy behaviour: the original exception unwinds the loop (the
          // pool barrier tags it with the failing index).
          std::rethrow_exception(lastError);
        }
        if (outcome.status != PointOutcome::Status::Ok) {
          row.assign(spec.columns.size(), ResultValue::str("-"));
        }
        progress.settle(i, std::move(outcome), std::move(row));
      },
      pointThreads);

  // Tally the aggregate counts the JSON document records.
  for (const auto& outcome : result.outcomes) {
    switch (outcome.status) {
      case PointOutcome::Status::Ok: ++result.pointsOk; break;
      case PointOutcome::Status::Resumed:
        ++result.pointsOk;
        ++result.pointsResumed;
        break;
      case PointOutcome::Status::Failed: ++result.pointsFailed; break;
      case PointOutcome::Status::Cancelled:
      case PointOutcome::Status::TimedOut:
        ++result.pointsCancelled;
        break;
      case PointOutcome::Status::Pending:
        break;  // unreachable: every non-resumed point settles above
    }
  }

  // A fully completed run owes nobody a checkpoint; an interrupted one gets
  // one final write so --resume sees every settled row, including those the
  // throttled mid-run writes skipped.
  if (!ckpt.empty()) {
    if (result.complete()) {
      std::error_code ec;
      std::filesystem::remove(ckpt, ec);
    } else if (result.pointsOk > 0) {
      progress.writeFinalCheckpoint();
    }
  }

  // finalize computes cross-row derivations (ratios vs a reference row); on
  // a degraded grid it would silently fold placeholder rows into them, so
  // it only sees complete results.
  if (spec.finalize && result.complete()) spec.finalize(result);
  for (const auto& note : spec.notes) result.notes.push_back(note);
  if (!result.complete()) {
    std::string note = "degraded run: " + std::to_string(result.pointsFailed) +
                       " failed, " + std::to_string(result.pointsCancelled) +
                       " cancelled of " + std::to_string(pointCount) +
                       " points (see the status column)";
    result.notes.push_back(std::move(note));
  }
  return result;
}

std::filesystem::path defaultResultsDir() {
  if (const char* env = std::getenv("NH_RESULTS_DIR")) {
    return std::filesystem::path(env);
  }
  return std::filesystem::path("bench_results");
}

std::filesystem::path defaultCheckpointDir() {
  return defaultResultsDir() / "checkpoints";
}

std::filesystem::path checkpointPath(const std::filesystem::path& dir,
                                     const std::string& name) {
  return dir / (name + ".json");
}

void printBanner(const std::string& title, const std::string& description,
                 const std::string& paperShape) {
  std::printf(
      "=====================================================================\n");
  std::printf("NeuroHammer reproduction -- %s\n", title.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("paper shape: %s\n", paperShape.c_str());
  std::printf(
      "=====================================================================\n");
}

namespace {

bool hasShape(const ExperimentResult& result, ColumnSpec::Shape shape) {
  for (const auto& col : result.columns) {
    if (col.shape == shape) return true;
  }
  return false;
}

/// Whether any point ended non-OK. Gates the synthetic "status" column in
/// the ASCII/CSV renderings: fully-OK runs (including resumed ones) render
/// byte-identically to the pre-fault-tolerance format, which is what keeps
/// the tracked CI baselines and the resume bit-identity guarantee honest.
bool anyDegradedOutcome(const ExperimentResult& result) {
  for (const auto& outcome : result.outcomes) {
    if (!outcome.ok()) return true;
  }
  return false;
}

std::string statusText(const ExperimentResult& result, std::size_t row) {
  if (row >= result.outcomes.size() || result.outcomes[row].ok()) return "ok";
  return pointStatusName(result.outcomes[row].status);
}

/// Format one scalar element through the column's ASCII formatter.
std::string formatElement(const ColumnSpec& column, double v) {
  const ResultValue cell = ResultValue::num(v);
  return column.format ? column.format(cell) : cell.render();
}

std::string formatScalar(const ColumnSpec& column, const ResultValue& cell) {
  return column.format ? column.format(cell) : cell.render();
}

/// Expansion width of one result row: the common element count of its
/// shaped cells (text placeholders excluded). Validates that shaped cells
/// agree in length, and matrices in dimensions; fills in the shared matrix
/// dims when present. \p tracesOnly restricts the count to trace cells --
/// the ASCII main table expands traces but renders matrices as separate
/// grids, so matrix lengths must not drive its line count.
std::size_t rowElementCount(const ExperimentResult& result,
                            const std::vector<ResultValue>& row,
                            bool tracesOnly, std::size_t* matrixRows,
                            std::size_t* matrixCols) {
  std::size_t count = 1;
  bool seenShaped = false;
  for (const auto& cell : row) {
    if (!cell.isShaped()) continue;
    if (tracesOnly && cell.kind != ResultValue::Kind::Trace) continue;
    if (!seenShaped) {
      seenShaped = true;
      count = cell.elementCount();
    } else if (cell.elementCount() != count) {
      throw std::logic_error("experiment '" + result.name +
                             "': shaped cells of one row disagree in length");
    }
    if (cell.kind == ResultValue::Kind::Matrix) {
      if (matrixRows && *matrixRows == 0) {
        *matrixRows = cell.matrixRows;
        *matrixCols = cell.matrixCols;
      } else if (matrixRows && (*matrixRows != cell.matrixRows ||
                                *matrixCols != cell.matrixCols)) {
        throw std::logic_error(
            "experiment '" + result.name +
            "': matrix cells of one row disagree in dimensions");
      }
    }
  }
  return count;
}

}  // namespace

std::vector<nh::util::AsciiTable> toAsciiTables(const ExperimentResult& result) {
  std::vector<nh::util::AsciiTable> tables;
  const bool anyMatrix = hasShape(result, ColumnSpec::Shape::Matrix);
  const bool anyTrace = hasShape(result, ColumnSpec::Shape::Trace);

  // Main table: scalar columns plus trace columns (expanded to decimated
  // sample lines); matrix columns get their own grids below.
  std::vector<std::size_t> mainColumns;
  for (std::size_t c = 0; c < result.columns.size(); ++c) {
    if (result.columns[c].shape != ColumnSpec::Shape::Matrix) {
      mainColumns.push_back(c);
    }
  }
  const bool degraded = anyDegradedOutcome(result);
  if (!mainColumns.empty()) {
    std::vector<std::string> header;
    header.reserve(mainColumns.size() + 1);
    for (const std::size_t c : mainColumns) {
      header.push_back(result.columns[c].heading());
    }
    if (degraded) header.push_back("status");
    nh::util::AsciiTable table(std::move(header));
    if (!result.tableTitle.empty()) table.setTitle(result.tableTitle);
    for (std::size_t r = 0; r < result.rows.size(); ++r) {
      const auto& row = result.rows[r];
      // Expansion is driven by the trace cells alone: matrix cells are not
      // part of the main table (they get their own grids below). Same
      // agreement rule (and error) the CSV expansion enforces.
      const std::size_t count =
          rowElementCount(result, row, /*tracesOnly=*/true, nullptr, nullptr);
      // Decimate long traces the way the Fig. 1 bench always did: ~16
      // evenly spaced lines plus the final sample.
      const std::size_t every = (anyTrace && count > 16) ? count / 16 : 1;
      for (std::size_t k = 0; k < count; ++k) {
        if (k % every != 0 && k + 1 != count) continue;
        std::vector<std::string> cells;
        cells.reserve(mainColumns.size() + 1);
        for (const std::size_t c : mainColumns) {
          const ResultValue& cell = row[c];
          if (cell.isShaped()) {
            cells.push_back(formatElement(result.columns[c], cell.element(k)));
          } else {
            // Scalar cells print once per point, on its first line.
            cells.push_back(k == 0 ? formatScalar(result.columns[c], cell)
                                   : std::string());
          }
        }
        if (degraded) {
          cells.push_back(k == 0 ? statusText(result, r) : std::string());
        }
        table.addRow(std::move(cells));
      }
    }
    tables.push_back(std::move(table));
  }

  // One grid per matrix cell, in row/column order.
  if (anyMatrix) {
    for (std::size_t r = 0; r < result.rows.size(); ++r) {
      for (std::size_t c = 0; c < result.columns.size(); ++c) {
        const ResultValue& cell = result.rows[r][c];
        if (cell.kind != ResultValue::Kind::Matrix) continue;
        std::vector<std::string> header{"row\\col"};
        for (std::size_t j = 0; j < cell.matrixCols; ++j) {
          header.push_back(std::to_string(j));
        }
        nh::util::AsciiTable grid(std::move(header));
        std::string title = result.columns[c].heading();
        if (result.rows.size() > 1) {
          title += " (";
          for (std::size_t ai = 0; ai < result.axes.size(); ++ai) {
            title += (ai ? " " : "") + result.axes[ai].name + "=" +
                     nh::util::formatDouble(result.pointValues[r][ai]);
          }
          title += ")";
        }
        grid.setTitle(title);
        for (std::size_t i = 0; i < cell.matrixRows; ++i) {
          std::vector<std::string> line{std::to_string(i)};
          for (std::size_t j = 0; j < cell.matrixCols; ++j) {
            line.push_back(formatElement(result.columns[c],
                                         cell.element(i * cell.matrixCols + j)));
          }
          grid.addRow(std::move(line));
        }
        tables.push_back(std::move(grid));
      }
    }
  }

  // Pivoted grid: rows = rowAxis values, columns = colAxis values, cells =
  // the value column of the matching grid point.
  if (result.pivot.enabled()) {
    const PivotSpec& pivot = result.pivot;
    const ExperimentResult::Axis* rowAxis = nullptr;
    const ExperimentResult::Axis* colAxis = nullptr;
    std::size_t rowAxisIndex = 0;
    std::size_t colAxisIndex = 0;
    for (std::size_t ai = 0; ai < result.axes.size(); ++ai) {
      if (result.axes[ai].name == pivot.rowAxis) {
        rowAxis = &result.axes[ai];
        rowAxisIndex = ai;
      }
      if (result.axes[ai].name == pivot.colAxis) {
        colAxis = &result.axes[ai];
        colAxisIndex = ai;
      }
    }
    std::size_t valueColumn = result.columns.size();
    for (std::size_t c = 0; c < result.columns.size(); ++c) {
      if (result.columns[c].name == pivot.valueColumn) valueColumn = c;
    }
    if (!rowAxis || !colAxis || valueColumn == result.columns.size()) {
      throw std::logic_error("experiment '" + result.name +
                             "': pivot names an unknown axis or column");
    }
    std::vector<std::string> header{pivot.rowAxis + " \\ " + pivot.colAxis};
    for (const double v : colAxis->values) {
      header.push_back(pivot.colLabel ? pivot.colLabel(v)
                                      : nh::util::formatDouble(v));
    }
    nh::util::AsciiTable grid(std::move(header));
    if (!pivot.title.empty()) grid.setTitle(pivot.title);
    for (const double rv : rowAxis->values) {
      std::vector<std::string> line{pivot.rowLabel
                                        ? pivot.rowLabel(rv)
                                        : nh::util::formatDouble(rv)};
      for (const double cv : colAxis->values) {
        std::string cellText = "-";  // stays when --set dropped the point
        for (std::size_t i = 0; i < result.rows.size(); ++i) {
          if (result.pointValues[i][rowAxisIndex] == rv &&
              result.pointValues[i][colAxisIndex] == cv) {
            // Custom pivot formatters assume real data; flagged points show
            // their status instead of "-" placeholders fed through them.
            if (i < result.outcomes.size() && !result.outcomes[i].ok()) {
              cellText = statusText(result, i);
            } else {
              cellText = pivot.format
                             ? pivot.format(result.rows[i])
                             : formatScalar(result.columns[valueColumn],
                                            result.rows[i][valueColumn]);
            }
            break;
          }
        }
        line.push_back(std::move(cellText));
      }
      grid.addRow(std::move(line));
    }
    tables.push_back(std::move(grid));
  }

  if (tables.empty()) {
    throw std::logic_error("experiment '" + result.name +
                           "': nothing to render");
  }
  for (const auto& note : result.notes) tables.front().addNote(note);
  return tables;
}

nh::util::AsciiTable toAsciiTable(const ExperimentResult& result) {
  return toAsciiTables(result).front();
}

nh::util::CsvTable toCsvTable(const ExperimentResult& result) {
  const bool anyTrace = hasShape(result, ColumnSpec::Shape::Trace);
  const bool anyMatrix = hasShape(result, ColumnSpec::Shape::Matrix);
  if (anyTrace && anyMatrix) {
    throw std::logic_error("experiment '" + result.name +
                           "': trace and matrix columns cannot mix");
  }
  const bool degraded = anyDegradedOutcome(result);
  std::vector<std::string> header;
  if (anyTrace) header.push_back("sample");
  if (anyMatrix) {
    header.push_back("row");
    header.push_back("col");
  }
  for (const auto& col : result.columns) header.push_back(col.name);
  if (degraded) header.push_back("status");
  nh::util::CsvTable csv(std::move(header));
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    const auto& row = result.rows[r];
    std::size_t matrixRows = 0;
    std::size_t matrixCols = 0;
    const std::size_t count = rowElementCount(result, row, /*tracesOnly=*/false,
                                              &matrixRows, &matrixCols);
    for (std::size_t k = 0; k < count; ++k) {
      std::vector<std::string> cells;
      cells.reserve(csv.columnCount());
      if (anyTrace) cells.push_back(std::to_string(k));
      if (anyMatrix) {
        if (matrixCols > 0) {
          cells.push_back(std::to_string(k / matrixCols));
          cells.push_back(std::to_string(k % matrixCols));
        } else {  // every matrix cell of this row is a text placeholder
          cells.push_back("-");
          cells.push_back("-");
        }
      }
      for (const auto& cell : row) {
        cells.push_back(cell.isShaped()
                            ? nh::util::formatDouble(cell.element(k))
                            : cell.render());
      }
      // Repeated on every expanded line, like the scalar cells.
      if (degraded) cells.push_back(statusText(result, r));
      csv.addRow(cells);
    }
  }
  return csv;
}

void writeCellJson(nh::util::JsonWriter& w, const ResultValue& cell) {
  switch (cell.kind) {
    case ResultValue::Kind::Number:
      w.value(cell.number);
      return;
    case ResultValue::Kind::Text:
      w.value(cell.text);
      return;
    case ResultValue::Kind::Trace:
      w.beginObject();
      w.key("shape").value("trace");
      break;
    case ResultValue::Kind::Matrix:
      w.beginObject();
      w.key("shape").value("matrix");
      w.key("rows").value(cell.matrixRows);
      w.key("cols").value(cell.matrixCols);
      break;
  }
  w.key("values").beginArray();
  for (const double v : cell.series) w.value(v);
  w.endArray();
  w.endObject();
}

ResultValue readCellJson(const nh::util::JsonValue& v) {
  using Type = nh::util::JsonValue::Type;
  switch (v.type()) {
    case Type::Number:
      return ResultValue::num(v.asNumber());
    case Type::String:
      return ResultValue::str(v.asString());
    case Type::Object: {
      const std::string shape = v.at("shape").asString();
      std::vector<double> values;
      values.reserve(v.at("values").size());
      for (const auto& e : v.at("values").items()) {
        values.push_back(e.asNumber());
      }
      if (shape == "trace") return ResultValue::trace(std::move(values));
      if (shape == "matrix") {
        return ResultValue::matrix(
            static_cast<std::size_t>(v.at("rows").asNumber()),
            static_cast<std::size_t>(v.at("cols").asNumber()),
            std::move(values));
      }
      throw std::runtime_error("result cell has unknown shape '" + shape +
                               "'");
    }
    default:
      throw std::runtime_error("result cell has an unsupported JSON type");
  }
}

std::string toJson(const ExperimentResult& result) {
  nh::util::JsonWriter w;
  w.beginObject();
  w.key("experiment").value(result.name);
  w.key("config_digest").value(result.configDigest);
#ifdef NH_BUILD_TYPE
  w.key("build_type").value(NH_BUILD_TYPE);
#else
  w.key("build_type").value("unknown");
#endif
  w.key("fast").value(result.fast);
  w.key("threads").value(result.threads);
  w.key("max_pulses").value(result.maxPulses);
  w.key("studies_constructed").value(result.studiesConstructed);
  w.key("studies_reused").value(result.studiesReused);
  // Fault-tolerance provenance: always present so downstream consumers can
  // refuse degraded documents without guessing from the row contents.
  w.key("points_ok").value(result.pointsOk);
  w.key("points_failed").value(result.pointsFailed);
  w.key("points_cancelled").value(result.pointsCancelled);
  w.key("points_resumed").value(result.pointsResumed);
  w.key("complete").value(result.complete());
  w.key("axes").beginArray();
  for (const auto& axis : result.axes) {
    w.beginObject();
    w.key("name").value(axis.name);
    w.key("values").beginArray();
    for (const double v : axis.values) w.value(v);
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.key("columns").beginArray();
  for (const auto& col : result.columns) w.value(col.name);
  w.endArray();
  w.key("column_shapes").beginArray();
  for (const auto& col : result.columns) w.value(shapeName(col.shape));
  w.endArray();
  w.key("rows").beginArray();
  for (const auto& row : result.rows) {
    w.beginArray();
    for (const auto& cell : row) writeCellJson(w, cell);
    w.endArray();
  }
  w.endArray();
  // Per-row status/error only when some point ended non-OK: complete
  // documents keep the legacy key set.
  if (anyDegradedOutcome(result)) {
    w.key("row_status").beginArray();
    for (std::size_t r = 0; r < result.rows.size(); ++r) {
      w.value(statusText(result, r));
    }
    w.endArray();
    w.key("row_errors").beginArray();
    for (std::size_t r = 0; r < result.rows.size(); ++r) {
      w.value(r < result.outcomes.size() ? result.outcomes[r].error
                                         : std::string());
    }
    w.endArray();
  }
  w.key("notes").beginArray();
  for (const auto& note : result.notes) w.value(note);
  w.endArray();
  w.endObject();
  return w.str();
}

EmittedFiles writeResultFiles(const ExperimentResult& result,
                              const std::filesystem::path& dir) {
  EmittedFiles files;
  files.csv = dir / (result.name + ".csv");
  files.json = dir / (result.name + ".json");
  toCsvTable(result).save(files.csv);  // creates parent directories
  std::ofstream out(files.json);
  out << toJson(result) << "\n";
  out.flush();  // surface buffered-write failures (disk full) before the test
  if (!out) {
    throw std::runtime_error("writeResultFiles: cannot write " +
                             files.json.string());
  }
  return files;
}

}  // namespace nh::core

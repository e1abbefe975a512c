#pragma once
/// \file workloads.hpp
/// The four benchmark workloads. Each one drives only public functions of
/// core, xbar, jart, fem and spice, splits its work into a set-up (timed as
/// set-up, not as work) and a closed-loop operation (the next one starts when
/// the previous one returns), checks every operation's outputs against the
/// recorded reference, and, in the traced run, wraps each public call in a
/// span and runs per-layer probes on its final state. See perfbench/README.md
/// for why each workload exists and which metrics it should move.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "trace.hpp"
#include "util/json.hpp"

namespace perfbench {

/// Metric values by name.
using Values = std::map<std::string, double>;

/// Median of \p v; 0 when empty.
double median(std::vector<double> v);

/// One per-layer metric. Span metrics are the median duration of the named
/// span times \p scale; the others come from Workload::layerMetrics.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span = nullptr;
  double scale = 1.0;
};

/// Every per-layer metric the traced run emits, in report order. A workload
/// that never exercises a layer reports 0 for it.
const std::vector<LayerMetric>& perLayerCatalog();

/// Collects output-check failures.
class Checker {
 public:
  /// |actual - expected| <= abs + rel * |expected| (the registry's rule).
  void near(const std::string& what, double expected, double actual,
            const nh::core::ColumnTolerance& tolerance);
  /// lo <= actual <= hi.
  void within(const std::string& what, double lo, double hi, double actual);
  void require(const std::string& what, bool ok);

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// What one operation did.
struct OpOutcome {
  double items = 0.0;         ///< Work items for items_per_s.
  std::size_t attempted = 0;  ///< Attacks, trials, extractions or transients.
  std::size_t failed = 0;     ///< Attempted ones that failed or were wrong.
};

struct WorkloadOptions {
  bool tiny = false;          ///< Self-test sizes instead of benchmark sizes.
  std::uint64_t seed = 0;
  std::size_t threads = 1;    ///< Worker threads for the campaign.
  /// The workload's reference block for the chosen size (reference.json).
  nh::util::JsonValue reference;
  /// Directory of the tracked experiment baselines (fig2a cross-check).
  std::string baselineDir = "baselines";
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build everything the next operation needs (study, bench, FEM model,
  /// netlist). Replaces the state of the previous set-up.
  virtual void setup(Tracer& tracer) = 0;
  /// Attempts one operation makes (for failure accounting when it throws).
  virtual std::size_t attemptsPerOp() const = 0;
  /// Run operation \p op on the state setup() built and check its outputs.
  virtual OpOutcome run(Tracer& tracer, std::size_t op, Checker& check) = 0;
  /// Per-layer counts taken from the public results of the operations run
  /// since construction, plus probes timed on the final state, keyed by
  /// perLayerCatalog() name. Called once, after the traced phase.
  virtual void layerMetrics(Values& out) = 0;
  /// Outputs of the last operation as a JSON object (reference recording).
  virtual void writeOutputs(nh::util::JsonWriter& w) const = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       WorkloadOptions options);

}  // namespace perfbench

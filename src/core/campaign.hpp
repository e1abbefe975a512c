#pragma once
/// \file campaign.hpp
/// Statistical campaign layer: every Monte-Carlo run over device
/// variability, from the five-trial ablation_variability points to
/// thousands of trials, goes through runCampaign. A campaign batches its
/// trials through the thread pool and reports *distributions*: flip rates
/// with Wilson confidence intervals, pulses-to-flip quantiles with
/// bootstrap intervals, and an optional CMS-style per-cell array-health
/// matrix (disturb rate per cell over trials). A STAR-style blinding layer (BlindedAbStudy) compares two
/// configurations as opaque arms whose labels stay salted-hashed until an
/// explicit unblind() freezes the analysis record.
///
/// Reproducibility contract: trial i draws every random number from
/// util::Rng::forStream(config.seed, i), a counter-based stream that depends
/// only on (seed, i) — never on which thread ran the trial, the batch size,
/// or the completion order. Results are therefore bit-identical for any
/// thread count and any batch size; tests pin this. See docs/campaigns.md.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "util/stats.hpp"

namespace nh::core {

/// What to do when a trial throws (solver failure, injected fault).
enum class TrialFailurePolicy {
  Abort,  ///< Rethrow: the campaign fails (default).
  Skip,   ///< Record the trial as Failed and keep going; statistics are
          ///< computed over the OK trials only.
};

struct CampaignConfig {
  StudyConfig base;
  HammerPulse pulse;
  /// Monte-Carlo trials. Each trial perturbs base.cellParams with
  /// jart::Params::withVariability under its own counter-based RNG stream
  /// and runs a centre-cell reference attack on a fresh study.
  std::size_t trials = 1000;
  /// Log-normal sigma applied per trial.
  double sigma = 0.05;
  std::uint64_t seed = 2026;
  /// Give-up pulse budget per trial.
  std::size_t budget = 5'000'000;
  /// Bias scheme for the attack (Third models the V/3 countermeasure arm).
  xbar::BiasScheme scheme = xbar::BiasScheme::Half;
  /// Trials per thread-pool work item. Purely a scheduling granularity: the
  /// result is bit-identical for every value (tested). The default of one
  /// trial lets an idle worker take the next trial, so a slow trial or a
  /// descheduled worker never holds back a fixed share of the campaign.
  std::size_t batchSize = 1;
  /// Worker threads (0 = util::defaultThreadCount(), 1 = serial).
  std::size_t threads = 0;
  /// Two-sided confidence level for every reported interval.
  double confidence = 0.95;
  /// Resamples for the bootstrap interval on the median pulses-to-flip.
  std::size_t bootstrapResamples = 200;
  /// Record the per-cell disturb-rate matrix (CampaignResult::cellDisturbRate)
  /// by snapshotting the detector classification of every cell before and
  /// after each trial's attack. Costs one extra array scan per trial.
  bool recordCellHealth = false;
  TrialFailurePolicy onTrialFailure = TrialFailurePolicy::Abort;
  /// Observer called after each trial settles, with the trial index and the
  /// number of trials completed so far (monotonic, serialized). Runs on
  /// worker threads; must be thread-safe. Intended for progress display and
  /// for tests that cancel mid-campaign.
  std::function<void(std::size_t trial, std::size_t completed)> onTrialComplete;
};

/// Per-trial outcome, in trial order.
struct TrialOutcome {
  enum class Status { Ok, Failed };
  Status status = Status::Ok;
  bool flipped = false;
  std::size_t pulses = 0;  ///< Pulses-to-flip; 0 when not flipped.
  std::string error;       ///< Failure reason (Skip policy only).
  bool operator==(const TrialOutcome&) const = default;
};

/// Campaign outcome. All statistics are computed in a serial reduction over
/// the trial-indexed outcome slots, so the whole struct compares equal
/// across thread counts and batch sizes.
struct CampaignResult {
  std::size_t trials = 0;
  std::size_t trialsOk = 0;
  std::size_t trialsFailed = 0;  ///< Skip-policy failures.
  std::size_t flips = 0;
  /// flips / trialsOk (0 when every trial failed).
  double flipRate = 0.0;
  /// Wilson score interval for the flip rate at `confidence`.
  util::Interval flipRateCI;
  /// Pulses-to-flip of the flipped trials, in trial order.
  std::vector<std::size_t> pulsesPerFlip;
  /// Type-7 quantiles of pulsesPerFlip; all 0 when no trial flipped, and
  /// p10 == median == p90 for a single flip.
  double p10Pulses = 0.0;
  double medianPulses = 0.0;
  double p90Pulses = 0.0;
  /// Percentile-bootstrap interval for the median; {0, 0} when no flips.
  util::Interval medianPulsesCI;
  /// log10(max/min) over pulsesPerFlip; 0 for fewer than 2 flips.
  double spreadDecades = 0.0;
  double confidence = 0.95;
  /// Per-cell disturb rate (row-major healthRows x healthCols): the fraction
  /// of OK trials in which the cell's detector classification changed from
  /// its pre-attack snapshot. Aggressor cells are excluded (their LRS
  /// preparation is not a disturb event) and read exactly 0. Empty unless
  /// CampaignConfig::recordCellHealth.
  std::size_t healthRows = 0;
  std::size_t healthCols = 0;
  std::vector<double> cellDisturbRate;
  /// Per-trial outcomes, trial order.
  std::vector<TrialOutcome> outcomes;
  bool operator==(const CampaignResult&) const = default;
};

/// Run the campaign. Deterministic for (config); bit-identical for any
/// threads/batchSize. Honors the ambient cancellation token between trials
/// and wraps each trial in faultinject::Scope("trial:<i>") so NH_FAULT
/// policies can target a single trial. Per-trial perturbed studies are
/// constructed fresh (never through the process-wide study cache: thousands
/// of unique perturbed configs would evict the warm entries the experiment
/// catalog shares).
CampaignResult runCampaign(const CampaignConfig& config);

/// STAR-style blind A/B comparison (arXiv:1911.00596): two labelled
/// configurations are registered, immediately reduced to opaque arms
/// "arm A"/"arm B" by salted-hash ordering of their labels, and analyzed
/// blind. The true labels are unreachable until unblind(), which first
/// freezes the analysis record (a JSON summary of the blinded statistics)
/// and only then reveals the mapping — so conclusions are committed before
/// anyone knows which arm is which.
class BlindedAbStudy {
 public:
  /// Register two labelled arms. Which label becomes "arm A" is decided by
  /// a salted hash of (salt, label) — deterministic for a given salt, but
  /// uncorrelated with registration order.
  BlindedAbStudy(std::string labelX, CampaignConfig configX,
                 std::string labelY, CampaignConfig configY,
                 std::uint64_t salt);

  /// The opaque arm names, in presentation order: {"arm A", "arm B"}.
  static std::vector<std::string> armNames();

  /// Run both arms' campaigns (serially, arm A first). Idempotent.
  void run();
  bool ran() const { return ran_; }

  /// Blinded campaign result of an arm ("arm A" / "arm B"). Requires run().
  const CampaignResult& result(const std::string& armName) const;

  /// flipRate(arm A) - flipRate(arm B). Requires run().
  double flipRateDelta() const;

  /// True when the two flip-rate Wilson intervals are disjoint — the blinded
  /// statement "the arms differ at the campaign's confidence level".
  bool separated() const;

  bool unblinded() const { return unblinded_; }

  /// The frozen analysis record: a JSON document of the blinded statistics,
  /// rendered at the moment of unblinding and never modified afterwards.
  /// Contains only opaque arm names. Throws std::logic_error before
  /// unblind().
  const std::string& analysisRecord() const;

  /// Freeze the analysis record from the blinded results, then reveal the
  /// arm-name -> true-label mapping. Requires run(); idempotent after the
  /// first call. This is the only way to reach the labels.
  std::map<std::string, std::string> unblind();

  /// True label behind an arm name. Throws std::logic_error until unblind().
  const std::string& trueLabel(const std::string& armName) const;

 private:
  struct Arm {
    std::string label;
    CampaignConfig config;
    CampaignResult result;
  };
  std::size_t armIndex(const std::string& armName) const;

  Arm arms_[2];  // arms_[0] is "arm A".
  bool ran_ = false;
  bool unblinded_ = false;
  std::string record_;
};

}  // namespace nh::core

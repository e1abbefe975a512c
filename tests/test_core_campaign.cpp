#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/experiment_registry.hpp"
#include "util/cancellation.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"

namespace nh::core {
namespace {

using nh::util::CancellationScope;
using nh::util::CancellationSource;
using nh::util::CancelledError;

/// Small, fast campaign: a 3x3 array at 10 nm spacing flips in O(10^2)
/// pulses, so a trial costs ~a millisecond.
CampaignConfig quickCampaign(std::size_t trials = 12) {
  CampaignConfig cfg;
  cfg.base.rows = 3;
  cfg.base.cols = 3;
  cfg.base.spacing = 10e-9;
  cfg.trials = trials;
  cfg.budget = 100'000;
  cfg.threads = 1;
  cfg.bootstrapResamples = 50;
  return cfg;
}

// ---- the stream-plan reproducibility contract -----------------------------

TEST(Campaign, BitIdenticalAcrossThreadCounts) {
  CampaignConfig cfg = quickCampaign();
  cfg.threads = 1;
  const CampaignResult serial = runCampaign(cfg);
  cfg.threads = 4;
  const CampaignResult four = runCampaign(cfg);
  cfg.threads = 16;
  const CampaignResult sixteen = runCampaign(cfg);
  EXPECT_EQ(serial, four);    // CampaignResult::operator== is exact
  EXPECT_EQ(serial, sixteen);
}

TEST(Campaign, BitIdenticalAcrossBatchSizes) {
  CampaignConfig cfg = quickCampaign();
  cfg.threads = 4;
  cfg.batchSize = 1;
  const CampaignResult perTrial = runCampaign(cfg);
  cfg.batchSize = 64;
  const CampaignResult coarse = runCampaign(cfg);
  cfg.batchSize = 5;  // trials not divisible by the batch
  const CampaignResult ragged = runCampaign(cfg);
  EXPECT_EQ(perTrial, coarse);
  EXPECT_EQ(perTrial, ragged);
}

TEST(Campaign, HealthMatrixBitIdenticalAcrossThreadsAndBatches) {
  CampaignConfig cfg = quickCampaign(8);
  cfg.recordCellHealth = true;
  cfg.threads = 1;
  const CampaignResult serial = runCampaign(cfg);
  cfg.threads = 4;
  cfg.batchSize = 1;
  const CampaignResult parallel = runCampaign(cfg);
  EXPECT_EQ(serial, parallel);
  ASSERT_EQ(serial.cellDisturbRate.size(), 9u);
}

// ---- statistics -----------------------------------------------------------

TEST(Campaign, ConfidenceIntervalsBracketTheEstimates) {
  const CampaignResult r = runCampaign(quickCampaign());
  EXPECT_EQ(r.trials, 12u);
  EXPECT_EQ(r.trialsOk, 12u);
  EXPECT_EQ(r.flips, 12u);  // 10 nm fast regime: every trial flips
  EXPECT_DOUBLE_EQ(r.flipRate, 1.0);
  EXPECT_LE(r.flipRateCI.lo, r.flipRate);
  EXPECT_GE(r.flipRateCI.hi, r.flipRate);
  EXPECT_GT(r.flipRateCI.lo, 0.5);  // 12/12 at 95%: lo ~ 0.76
  EXPECT_DOUBLE_EQ(r.flipRateCI.hi, 1.0);
  EXPECT_LE(r.p10Pulses, r.medianPulses);
  EXPECT_LE(r.medianPulses, r.p90Pulses);
  EXPECT_LE(r.medianPulsesCI.lo, r.medianPulses);
  EXPECT_GE(r.medianPulsesCI.hi, r.medianPulses);
  EXPECT_EQ(r.pulsesPerFlip.size(), 12u);
}

TEST(Campaign, NoFlipsGivesDefinedDegenerateStatistics) {
  CampaignConfig cfg = quickCampaign(4);
  cfg.budget = 5;  // far below any flip threshold
  const CampaignResult r = runCampaign(cfg);
  EXPECT_EQ(r.flips, 0u);
  EXPECT_DOUBLE_EQ(r.flipRate, 0.0);
  EXPECT_DOUBLE_EQ(r.flipRateCI.lo, 0.0);
  EXPECT_GT(r.flipRateCI.hi, 0.0);  // Wilson: 0/4 still has upside mass
  EXPECT_TRUE(r.pulsesPerFlip.empty());
  EXPECT_DOUBLE_EQ(r.p10Pulses, 0.0);
  EXPECT_DOUBLE_EQ(r.medianPulses, 0.0);
  EXPECT_DOUBLE_EQ(r.p90Pulses, 0.0);
  EXPECT_EQ(r.medianPulsesCI, (nh::util::Interval{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(r.spreadDecades, 0.0);
}

TEST(Campaign, SingleTrialCollapsesQuantiles) {
  const CampaignResult r = runCampaign(quickCampaign(1));
  ASSERT_EQ(r.flips, 1u);
  EXPECT_DOUBLE_EQ(r.p10Pulses, r.medianPulses);
  EXPECT_DOUBLE_EQ(r.p90Pulses, r.medianPulses);
  EXPECT_EQ(r.medianPulsesCI,
            (nh::util::Interval{r.medianPulses, r.medianPulses}));
  EXPECT_DOUBLE_EQ(r.spreadDecades, 0.0);
}

// ---- variability response ---------------------------------------------------

TEST(Campaign, TrialsActuallyDiffer) {
  const CampaignResult r = runCampaign(quickCampaign(6));
  ASSERT_GE(r.pulsesPerFlip.size(), 2u);
  const auto [lo, hi] =
      std::minmax_element(r.pulsesPerFlip.begin(), r.pulsesPerFlip.end());
  EXPECT_GT(*hi, *lo);
  EXPECT_GT(r.spreadDecades, 0.0);
}

TEST(Campaign, LargerSigmaSpreadsMore) {
  CampaignConfig narrow = quickCampaign(6);
  narrow.sigma = 0.01;
  CampaignConfig wide = quickCampaign(6);
  wide.sigma = 0.10;
  wide.budget = 5'000'000;  // slow corners need more budget
  const CampaignResult a = runCampaign(narrow);
  const CampaignResult b = runCampaign(wide);
  ASSERT_GT(a.flips, 0u);
  ASSERT_GT(b.flips, 0u);
  EXPECT_GT(b.spreadDecades, a.spreadDecades);
}

TEST(Campaign, ZeroSigmaCollapsesSpread) {
  CampaignConfig cfg = quickCampaign(6);
  cfg.sigma = 0.0;
  const CampaignResult r = runCampaign(cfg);
  ASSERT_EQ(r.flips, r.trials);
  const auto [lo, hi] =
      std::minmax_element(r.pulsesPerFlip.begin(), r.pulsesPerFlip.end());
  EXPECT_EQ(*lo, *hi);
  EXPECT_NEAR(r.spreadDecades, 0.0, 1e-12);
}

TEST(Campaign, Validation) {
  CampaignConfig cfg = quickCampaign();
  cfg.trials = 0;
  EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
  cfg = quickCampaign();
  cfg.batchSize = 0;
  EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
  cfg = quickCampaign();
  cfg.confidence = 1.0;
  EXPECT_THROW(runCampaign(cfg), std::invalid_argument);
}

TEST(Campaign, HealthMatrixConcentratesOnNeighbours) {
  CampaignConfig cfg = quickCampaign(6);
  cfg.base.rows = 5;
  cfg.base.cols = 5;
  cfg.recordCellHealth = true;
  const CampaignResult r = runCampaign(cfg);
  ASSERT_EQ(r.healthRows, 5u);
  ASSERT_EQ(r.healthCols, 5u);
  ASSERT_EQ(r.cellDisturbRate.size(), 25u);
  auto rate = [&](std::size_t row, std::size_t col) {
    return r.cellDisturbRate[row * 5 + col];
  };
  // The aggressor itself is excluded by definition.
  EXPECT_DOUBLE_EQ(rate(2, 2), 0.0);
  // Word-line neighbours of the centre see the strongest coupling; far
  // corners are essentially untouched.
  EXPECT_GT(rate(2, 1), rate(0, 0));
  EXPECT_GT(rate(2, 3), rate(4, 4));
  EXPECT_GT(rate(2, 1), 0.5);
  EXPECT_LT(rate(0, 0), 0.2);
}

// ---- fault tolerance x campaigns ------------------------------------------

class CampaignFaults : public ::testing::Test {
 protected:
  void SetUp() override { nh::util::faultinject::clearAll(); }
  void TearDown() override { nh::util::faultinject::clearAll(); }
};

TEST_F(CampaignFaults, InjectedFaultIsIsolatedToItsTrial) {
  namespace fi = nh::util::faultinject;
  CampaignConfig cfg = quickCampaign(6);
  cfg.threads = 2;
  cfg.batchSize = 1;
  const CampaignResult reference = runCampaign(cfg);
  ASSERT_EQ(reference.trialsOk, 6u);

  // Fail the first dense factorization inside trial 2 only; the per-trial
  // faultinject scope makes the match deterministic at any thread count.
  fi::arm("linsolve.dense_lu", 1, "trial:2");
  cfg.onTrialFailure = TrialFailurePolicy::Skip;
  const CampaignResult degraded = runCampaign(cfg);
  EXPECT_TRUE(fi::fired("linsolve.dense_lu"));

  EXPECT_EQ(degraded.trialsFailed, 1u);
  EXPECT_EQ(degraded.trialsOk, 5u);
  ASSERT_EQ(degraded.outcomes.size(), 6u);
  EXPECT_EQ(degraded.outcomes[2].status, TrialOutcome::Status::Failed);
  EXPECT_FALSE(degraded.outcomes[2].error.empty());
  for (const std::size_t trial : {0u, 1u, 3u, 4u, 5u}) {
    EXPECT_EQ(degraded.outcomes[trial], reference.outcomes[trial])
        << "trial " << trial;
  }
  // Statistics are over the surviving trials.
  EXPECT_EQ(degraded.flips, 5u);
  EXPECT_DOUBLE_EQ(degraded.flipRate, 1.0);
}

TEST_F(CampaignFaults, AbortPolicyPropagatesTheFault) {
  namespace fi = nh::util::faultinject;
  fi::arm("linsolve.dense_lu", 1, "trial:1");
  CampaignConfig cfg = quickCampaign(4);
  cfg.onTrialFailure = TrialFailurePolicy::Abort;  // the default
  EXPECT_THROW(runCampaign(cfg), std::exception);
}

TEST_F(CampaignFaults, CancellationMidCampaignUnwindsCleanly) {
  CancellationSource source;
  CampaignConfig cfg = quickCampaign(16);
  cfg.threads = 2;
  cfg.batchSize = 1;
  cfg.onTrialComplete = [&](std::size_t, std::size_t completed) {
    if (completed == 3) source.cancel();
  };
  const CancellationScope scope(source.token());
  EXPECT_THROW(runCampaign(cfg), CancelledError);
  // The ambient scope unwound; a fresh campaign afterwards runs fine.
}

TEST_F(CampaignFaults, FreshCampaignAfterCancellationSucceeds) {
  const CampaignResult r = runCampaign(quickCampaign(2));
  EXPECT_EQ(r.trialsOk, 2u);
}

// ---- blinded A/B ----------------------------------------------------------

BlindedAbStudy quickBlindStudy() {
  CampaignConfig attack = quickCampaign(4);
  CampaignConfig defended = attack;
  defended.scheme = xbar::BiasScheme::Third;
  defended.budget = 2'000;  // V/3 cannot flip within this budget
  return BlindedAbStudy("attack (V/2)", attack, "defended (V/3)", defended,
                        /*salt=*/1234);
}

TEST(BlindedAb, LabelsAreUnreachableBeforeUnblind) {
  BlindedAbStudy study = quickBlindStudy();
  const auto names = BlindedAbStudy::armNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "arm A");
  EXPECT_EQ(names[1], "arm B");
  EXPECT_FALSE(study.unblinded());
  EXPECT_THROW(study.trueLabel("arm A"), std::logic_error);
  EXPECT_THROW(study.trueLabel("arm B"), std::logic_error);
  EXPECT_THROW(study.analysisRecord(), std::logic_error);
  study.run();
  // Still blinded after running: results are reachable, labels are not.
  EXPECT_NO_THROW(study.result("arm A"));
  EXPECT_THROW(study.trueLabel("arm A"), std::logic_error);
  EXPECT_THROW(study.analysisRecord(), std::logic_error);
}

TEST(BlindedAb, UnblindFreezesTheRecordFirst) {
  BlindedAbStudy study = quickBlindStudy();
  study.run();
  const auto mapping = study.unblind();
  EXPECT_TRUE(study.unblinded());
  ASSERT_EQ(mapping.size(), 2u);
  // The two registered labels both appear exactly once.
  std::vector<std::string> labels;
  for (const auto& [arm, label] : mapping) labels.push_back(label);
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels[0], "attack (V/2)");
  EXPECT_EQ(labels[1], "defended (V/3)");
  // The frozen record speaks only in opaque arm names -- never labels.
  const std::string& record = study.analysisRecord();
  EXPECT_NE(record.find("arm_a"), std::string::npos);
  EXPECT_NE(record.find("arm_b"), std::string::npos);
  EXPECT_EQ(record.find("V/2"), std::string::npos);
  EXPECT_EQ(record.find("V/3"), std::string::npos);
  EXPECT_EQ(record.find("attack"), std::string::npos);
  EXPECT_EQ(record.find("defended"), std::string::npos);
  // Idempotent, and the record does not change after the reveal.
  const std::string frozen = record;
  EXPECT_EQ(study.unblind(), mapping);
  EXPECT_EQ(study.analysisRecord(), frozen);
}

TEST(BlindedAb, ArmsSeparateAndTheMappingIsDeterministic) {
  BlindedAbStudy a = quickBlindStudy();
  a.run();
  EXPECT_TRUE(a.separated());
  // The attack arm flips everything, the defended arm nothing, so the delta
  // magnitude is 1 -- its sign depends only on the salted assignment.
  EXPECT_DOUBLE_EQ(std::abs(a.flipRateDelta()), 1.0);
  const auto mappingA = a.unblind();

  BlindedAbStudy b = quickBlindStudy();
  b.run();
  EXPECT_EQ(b.unblind(), mappingA);  // same salt -> same assignment

  EXPECT_THROW(a.result("arm C"), std::invalid_argument);
}

TEST(BlindedAb, RunIsRequiredAndLabelsMustDiffer) {
  BlindedAbStudy study = quickBlindStudy();
  EXPECT_THROW(study.result("arm A"), std::logic_error);
  EXPECT_THROW(study.flipRateDelta(), std::logic_error);
  EXPECT_THROW(study.separated(), std::logic_error);
  EXPECT_THROW(study.unblind(), std::logic_error);
  const CampaignConfig cfg = quickCampaign(1);
  EXPECT_THROW(BlindedAbStudy("same", cfg, "same", cfg, 1),
               std::invalid_argument);
}

// ---- registered campaign experiments --------------------------------------

/// Serialize just the data rows (the full toJson document embeds run
/// metadata -- thread count, resume counters -- that legitimately differs
/// between otherwise identical runs).
std::string rowsJson(const ExperimentResult& result) {
  nh::util::JsonWriter w;
  w.beginArray();
  for (const auto& row : result.rows) {
    w.beginArray();
    for (const auto& cell : row) writeCellJson(w, cell);
    w.endArray();
  }
  w.endArray();
  return w.str();
}

TEST(CampaignExperiments, FlipRateJsonIsByteIdenticalAcrossThreads) {
  RunOptions options;
  options.fast = true;
  options.axisOverrides = {{"trials", {8.0}}};
  options.threads = 1;
  const ExperimentResult serial =
      runExperiment(makeExperiment("campaign_flip_rate"), options);
  options.threads = 4;
  const ExperimentResult parallel =
      runExperiment(makeExperiment("campaign_flip_rate"), options);
  ASSERT_TRUE(serial.complete());
  ASSERT_TRUE(parallel.complete());
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_EQ(rowsJson(serial), rowsJson(parallel));  // byte-identical data
}

TEST(CampaignExperiments, AblationVariabilityJsonIsThreadInvariant) {
  // Per-trial streams inside each point, grid points on the pool:
  // 1-vs-4-thread documents must match byte for byte.
  RunOptions options;
  options.fast = true;
  options.threads = 1;
  const ExperimentResult serial =
      runExperiment(makeExperiment("ablation_variability"), options);
  options.threads = 4;
  const ExperimentResult parallel =
      runExperiment(makeExperiment("ablation_variability"), options);
  ASSERT_TRUE(serial.complete());
  EXPECT_EQ(serial.rows, parallel.rows);
  EXPECT_EQ(rowsJson(serial), rowsJson(parallel));
}

TEST(CampaignExperiments, BlindExperimentNeverEmitsLabelsWithoutSeparation) {
  RunOptions options;
  options.fast = true;
  options.threads = 2;
  const ExperimentResult r =
      runExperiment(makeExperiment("campaign_defense_blind"), options);
  ASSERT_TRUE(r.complete());
  ASSERT_EQ(r.rows.size(), 2u);
  // Column order: arm, trials, flip_rate, flip_lo, flip_hi, separated, label.
  EXPECT_EQ(r.rows[0][0], ResultValue::str("arm A"));
  EXPECT_EQ(r.rows[1][0], ResultValue::str("arm B"));
  // The arms must separate at 95% -- the defence works within the budget.
  EXPECT_DOUBLE_EQ(r.rows[0][5].number, 1.0);
  EXPECT_DOUBLE_EQ(r.rows[1][5].number, 1.0);
  // Exactly one arm is the defended one, and it is the one that never flips.
  const bool armADefended =
      r.rows[0][6].text.find("defended") != std::string::npos;
  const std::size_t defended = armADefended ? 0 : 1;
  const std::size_t attack = 1 - defended;
  EXPECT_NE(r.rows[attack][6].text.find("attack"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.rows[defended][2].number, 0.0);
  EXPECT_DOUBLE_EQ(r.rows[attack][2].number, 1.0);
}

TEST(CampaignExperiments, InterruptedCampaignResumesBitIdentically) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "nh_ckpt_campaign";
  std::filesystem::remove_all(dir);

  RunOptions options;
  options.fast = true;
  options.threads = 1;  // deterministic settle order for the mid-run cancel
  // Two grid points so there is something left to resume.
  options.axisOverrides = {{"sigma", {0.04, 0.06}}, {"trials", {6.0}}};

  const ExperimentResult reference =
      runExperiment(makeExperiment("campaign_flip_rate"), options);
  ASSERT_TRUE(reference.complete());
  ASSERT_EQ(reference.rows.size(), 2u);

  CancellationSource source;
  RunOptions interruptedOptions = options;
  interruptedOptions.checkpointDir = dir;
  interruptedOptions.cancel = source.token();
  interruptedOptions.onPointComplete = [&](std::size_t, const PointOutcome&,
                                           std::size_t completed) {
    if (completed == 1) source.cancel();
  };
  const ExperimentResult interrupted = runExperiment(
      makeExperiment("campaign_flip_rate"), interruptedOptions);
  EXPECT_FALSE(interrupted.complete());
  EXPECT_EQ(interrupted.pointsOk, 1u);

  RunOptions resumeOptions = options;
  resumeOptions.checkpointDir = dir;
  resumeOptions.resume = true;
  const ExperimentResult resumed =
      runExperiment(makeExperiment("campaign_flip_rate"), resumeOptions);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.pointsResumed, 1u);
  ASSERT_EQ(resumed.rows.size(), reference.rows.size());
  for (std::size_t row = 0; row < reference.rows.size(); ++row) {
    EXPECT_EQ(resumed.rows[row], reference.rows[row]) << "row " << row;
  }
  EXPECT_EQ(rowsJson(resumed), rowsJson(reference));
}

}  // namespace
}  // namespace nh::core

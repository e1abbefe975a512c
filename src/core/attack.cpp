#include "core/attack.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/cancellation.hpp"

namespace nh::core {

AttackEngine::AttackEngine(xbar::FastEngine& engine, DetectorConfig detector)
    : engine_(&engine), detector_(detector) {}

AttackResult AttackEngine::run(const AttackConfig& config) {
  if (config.aggressors.empty()) {
    throw std::invalid_argument("AttackEngine: no aggressors");
  }
  if (!(config.pulse.width > 0.0) || !std::isfinite(config.pulse.width) ||
      !std::isfinite(config.pulse.amplitude) ||
      !(config.pulse.dutyCycle > 0.0) || config.pulse.dutyCycle > 1.0) {
    throw std::invalid_argument("AttackEngine: invalid pulse");
  }
  // A zero chunk would rotate through the aggressors forever without
  // applying a pulse.
  if (config.aggressors.size() > 1 && config.roundRobinChunk == 0) {
    throw std::invalid_argument(
        "AttackEngine: roundRobinChunk must be > 0 with several aggressors");
  }
  auto& array = engine_->array();
  for (const auto& a : config.aggressors) {
    if (a.row >= array.rows() || a.col >= array.cols()) {
      throw std::out_of_range("AttackEngine: aggressor out of range");
    }
  }

  if (config.prepareAggressorsLrs) {
    for (const auto& a : config.aggressors) {
      array.setState(a.row, a.col, xbar::CellState::Lrs);
    }
  }

  // Victim set: explicit, or every non-aggressor cell currently in HRS.
  std::vector<xbar::CellCoord> victims = config.victims;
  if (victims.empty()) {
    for (std::size_t r = 0; r < array.rows(); ++r) {
      for (std::size_t c = 0; c < array.cols(); ++c) {
        const xbar::CellCoord coord{r, c};
        const bool isAggressor =
            std::find(config.aggressors.begin(), config.aggressors.end(), coord) !=
            config.aggressors.end();
        if (!isAggressor &&
            detector_.classify(array.cell(r, c)) == ReadState::Hrs) {
          victims.push_back(coord);
        }
      }
    }
  }
  if (victims.empty()) {
    throw std::invalid_argument("AttackEngine: no HRS victim to monitor");
  }
  const xbar::CellCoord tracedVictim = victims.front();

  AttackResult result;
  const double startTime = engine_->time();
  const std::size_t traceEvery =
      config.traceSamples > 0
          ? std::max<std::size_t>(1, config.maxPulses / config.traceSamples)
          : 0;

  // Trace sampling is interval-based (robust against the batching
  // accelerator skipping pulse indices). Temperatures use the devices' peak
  // trackers: the callback runs between pulses, after the filaments cooled.
  std::size_t nextTraceAt = 1;
  const auto recordTrace = [&](std::size_t pulseIndex) {
    if (traceEvery == 0 || pulseIndex < nextTraceAt) return;
    nextTraceAt = pulseIndex + traceEvery;
    auto& victim = array.cell(tracedVictim.row, tracedVictim.col);
    auto& aggressor =
        array.cell(config.aggressors.front().row, config.aggressors.front().col);
    result.tracePulse.push_back(static_cast<double>(pulseIndex));
    result.traceVictimState.push_back(victim.normalisedState());
    result.traceVictimTemperature.push_back(victim.peakTemperature());
    result.traceAggressorTemperature.push_back(aggressor.peakTemperature());
    victim.clearPeakTemperature();
    aggressor.clearPeakTemperature();
  };

  std::size_t applied = 0;
  std::size_t aggressorIndex = 0;
  bool flipped = false;

  while (applied < config.maxPulses && !flipped) {
    // The chunk below also checks inside applyPulseTrain (per pulse); this
    // outer check covers configurations with relaxation-only chunks.
    util::checkCancellation("attack pulse loop");
    const auto& aggressor = config.aggressors[aggressorIndex];
    aggressorIndex = (aggressorIndex + 1) % config.aggressors.size();

    // Round-robin chunking only matters with several aggressors; a single
    // aggressor gets the whole remaining budget so pulse batching can run
    // at full depth.
    const std::size_t chunk =
        config.aggressors.size() == 1
            ? config.maxPulses - applied
            : std::min(config.roundRobinChunk, config.maxPulses - applied);
    const xbar::LineBias bias =
        xbar::selectBias(config.scheme, array.rows(), array.cols(),
                         aggressor.row, aggressor.col, config.pulse.amplitude);

    const std::size_t base = applied;
    const auto callback = [&](std::size_t pulseInChunk) {
      const std::size_t total = base + pulseInChunk;
      recordTrace(total);
      // Fast path: normalised-state check before the full read classify.
      const auto hit = detector_.firstLrs(array, victims);
      if (hit) {
        flipped = true;
        result.flippedCell = *hit;
        result.pulsesToFlip = total;
        return true;
      }
      return false;
    };

    const xbar::PulseTrainResult train = engine_->applyPulseTrain(
        bias, config.pulse.width, config.pulse.gap(), chunk, callback);
    applied += train.pulsesApplied;
    result.pulsesSimulated += train.pulsesSimulated;
  }

  result.flipped = flipped;
  result.pulsesApplied = applied;
  if (!flipped) result.pulsesToFlip = applied;
  // Victim stress time: every hammer pulse half-selects the victim's lines.
  result.stressTime = static_cast<double>(result.pulsesToFlip) * config.pulse.width;
  result.simulatedTime = engine_->time() - startTime;
  return result;
}

}  // namespace nh::core

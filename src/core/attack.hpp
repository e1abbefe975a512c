#pragma once
/// \file attack.hpp
/// The NeuroHammer attack engine: hammers aggressor cells with SET-polarity
/// pulse trains under the V/2 scheme and reports when (and where) a
/// monitored victim cell flips HRS -> LRS. Implements the paper's four-phase
/// mechanics end to end: hammering -> temperature increase (self-heating +
/// crosstalk hub) -> accelerated switching kinetics -> bit-flip.

#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "xbar/fastsim.hpp"

namespace nh::core {

/// One hammer pulse description (paper: rectangular pulse, fixed amplitude
/// V_SET = 1.05 V, given pulse length; 50% duty cycle by default).
struct HammerPulse {
  double amplitude = 1.05;  ///< [V].
  double width = 50e-9;     ///< Pulse length [s].
  double dutyCycle = 0.5;   ///< width / period.

  double period() const { return width / dutyCycle; }
  double gap() const { return period() - width; }
};

/// Full attack description.
struct AttackConfig {
  /// Cells hammered in round-robin order. Must be non-empty.
  std::vector<xbar::CellCoord> aggressors;
  /// Consecutive pulses per aggressor before rotating to the next. Must be
  /// > 0 when there are several aggressors.
  std::size_t roundRobinChunk = 8;
  HammerPulse pulse;
  xbar::BiasScheme scheme = xbar::BiasScheme::Half;
  /// Give-up budget (total pulses across all aggressors).
  std::size_t maxPulses = 50'000'000;
  /// Monitored victims; empty = every non-aggressor cell that starts HRS.
  std::vector<xbar::CellCoord> victims;
  /// Put aggressors into LRS before hammering (paper: "The red cell should
  /// be initially switched to LRS to maximize the resulting current").
  bool prepareAggressorsLrs = true;
  /// Victim-state trace points to keep (0 disables tracing).
  std::size_t traceSamples = 0;
};

/// Attack outcome.
struct AttackResult {
  bool flipped = false;
  std::size_t pulsesToFlip = 0;      ///< Pulses applied when the flip was seen.
  std::size_t pulsesApplied = 0;     ///< Total pulses applied.
  std::size_t pulsesSimulated = 0;   ///< Non-batched (fully integrated) pulses.
  xbar::CellCoord flippedCell{};     ///< Valid when flipped.
  double stressTime = 0.0;           ///< Victim V/2 stress time = pulses*width [s].
  double simulatedTime = 0.0;        ///< Engine wall-clock advance [s].

  /// Optional traces (pulse index -> values), decimated to traceSamples.
  std::vector<double> tracePulse;
  std::vector<double> traceVictimState;
  std::vector<double> traceVictimTemperature;
  std::vector<double> traceAggressorTemperature;
};

/// Runs attacks on a FastEngine-bound array.
class AttackEngine {
 public:
  AttackEngine(xbar::FastEngine& engine, DetectorConfig detector = {});

  /// Execute \p config. The array is used as-is apart from the optional
  /// aggressor LRS preparation; callers set up victim states beforehand.
  AttackResult run(const AttackConfig& config);

  const BitFlipDetector& detector() const { return detector_; }

 private:
  xbar::FastEngine* engine_;
  BitFlipDetector detector_;
};

}  // namespace nh::core

#pragma once
/// \file study.hpp
/// End-to-end experiment harness: wires the FEM-calibrated alpha table
/// (xbar::AlphaTable::analytic) -> array/engine construction -> attack
/// execution. The paper's parameter sweeps run through the experiment engine
/// (core/experiment.hpp) and its registry, which hand every grid point an
/// AttackStudy.

#include <memory>

#include "core/attack.hpp"
#include "core/patterns.hpp"
#include "jart/params.hpp"
#include "xbar/crosstalk.hpp"
#include "xbar/fastsim.hpp"

namespace nh::core {

/// Configuration of one study (one crossbar geometry + environment).
struct StudyConfig {
  std::size_t rows = 5;
  std::size_t cols = 5;
  double spacing = 50e-9;    ///< Electrode spacing [m] (selects the alphas).
  double ambientK = 300.0;
  jart::Params cellParams = jart::Params::paperDefaults();
  xbar::FastEngineOptions engineOptions;
  DetectorConfig detector;

  /// Exact member-wise comparison (C++20 defaulted). The experiment
  /// engine's study-dedup cache keys on it: grid points whose config
  /// compares equal share one AttackStudy construction.
  bool operator==(const StudyConfig&) const = default;
};

/// One experiment harness instance. Owns the alpha table; creates a fresh
/// all-HRS array per attack so runs are independent.
class AttackStudy {
 public:
  explicit AttackStudy(StudyConfig config);

  const StudyConfig& config() const { return config_; }
  const xbar::AlphaTable& alphas() const { return alphas_; }
  /// R_th actually used by the compact model [K/W].
  double rThEff() const { return arrayConfig_.cellParams.rThEff; }
  const xbar::ArrayConfig& arrayConfig() const { return arrayConfig_; }

  /// Hammer the array-centre cell; every other (HRS) cell is monitored.
  /// Const (like every attack entry point below): each run builds a fresh
  /// bench from immutable study state, so concurrent attacks on one study
  /// are safe -- the parallel sweeps rely on this.
  AttackResult attackCenter(const HammerPulse& pulse, std::size_t maxPulses,
                            std::size_t traceSamples = 0) const;

  /// Hammer \p pattern aggressors around the array-centre victim.
  AttackResult attackPattern(AttackPattern pattern, const HammerPulse& pulse,
                             std::size_t maxPulses) const;

  /// Run an arbitrary attack config on a fresh all-HRS array.
  AttackResult attack(const AttackConfig& config) const;

  /// Build a fresh all-HRS array + engine pair for custom experiments.
  struct Bench {
    std::unique_ptr<xbar::CrossbarArray> array;
    std::unique_ptr<xbar::FastEngine> engine;
  };
  Bench makeBench() const;

  /// Process-wide number of AttackStudy constructions so far. Test hook for
  /// the experiment engine's study-dedup cache: a grid run must raise this
  /// by exactly the number of *unique* study configs, not of grid points.
  static std::size_t constructionCount();

 private:
  StudyConfig config_;
  xbar::AlphaTable alphas_;
  xbar::ArrayConfig arrayConfig_;
};

}  // namespace nh::core

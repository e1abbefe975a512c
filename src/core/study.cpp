#include "core/study.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>

namespace nh::core {

namespace {
std::atomic<std::size_t> studyConstructions{0};
}  // namespace

std::size_t AttackStudy::constructionCount() {
  return studyConstructions.load();
}

AttackStudy::AttackStudy(StudyConfig config) : config_(std::move(config)) {
  studyConstructions.fetch_add(1, std::memory_order_relaxed);
  if (config_.rows < 3 || config_.cols < 3) {
    throw std::invalid_argument("AttackStudy: need at least a 3x3 array");
  }

  alphas_ = xbar::AlphaTable::analytic(config_.spacing);

  arrayConfig_.rows = config_.rows;
  arrayConfig_.cols = config_.cols;
  arrayConfig_.cellParams = config_.cellParams;
  arrayConfig_.ambientK = config_.ambientK;
  // COMSOL -> Virtuoso hand-off: the FEM-extracted thermal resistance
  // replaces the compact-model default (paper Sec. IV).
  arrayConfig_.cellParams.rThEff = alphas_.rTh();
}

AttackStudy::Bench AttackStudy::makeBench() const {
  Bench bench;
  bench.array = std::make_unique<xbar::CrossbarArray>(arrayConfig_);
  bench.array->fill(xbar::CellState::Hrs);
  bench.engine = std::make_unique<xbar::FastEngine>(*bench.array, alphas_,
                                                    config_.engineOptions);
  return bench;
}

AttackResult AttackStudy::attack(const AttackConfig& attackConfig) const {
  Bench bench = makeBench();
  AttackEngine engine(*bench.engine, config_.detector);
  return engine.run(attackConfig);
}

AttackResult AttackStudy::attackCenter(const HammerPulse& pulse,
                                       std::size_t maxPulses,
                                       std::size_t traceSamples) const {
  AttackConfig cfg;
  cfg.aggressors = {{config_.rows / 2, config_.cols / 2}};
  cfg.pulse = pulse;
  cfg.maxPulses = maxPulses;
  cfg.traceSamples = traceSamples;
  // Monitor the aggressor's word-line neighbour explicitly first (strongest
  // coupling; this is the cell Fig. 1 calls M2) plus all remaining HRS cells.
  cfg.victims.clear();
  const std::size_t cr = config_.rows / 2;
  const std::size_t cc = config_.cols / 2;
  if (cc > 0) cfg.victims.push_back({cr, cc - 1});
  if (cc + 1 < config_.cols) cfg.victims.push_back({cr, cc + 1});
  if (cr > 0) cfg.victims.push_back({cr - 1, cc});
  if (cr + 1 < config_.rows) cfg.victims.push_back({cr + 1, cc});
  return attack(cfg);
}

AttackResult AttackStudy::attackPattern(AttackPattern pattern,
                                        const HammerPulse& pulse,
                                        std::size_t maxPulses) const {
  const xbar::CellCoord victim{config_.rows / 2, config_.cols / 2};
  AttackConfig cfg;
  cfg.aggressors = patternAggressors(pattern, victim, config_.rows, config_.cols);
  cfg.pulse = pulse;
  cfg.maxPulses = maxPulses;
  cfg.victims = {victim};
  return attack(cfg);
}

}  // namespace nh::core

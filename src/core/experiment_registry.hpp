#pragma once
/// \file experiment_registry.hpp
/// Name -> ExperimentSpec catalog of the paper's evaluation. Every figure
/// reproduction, validation artefact, attack scenario, ablation, and
/// extension study registers here once; the nh_sweep CLI and the test suite
/// run experiments through this registry, so adding a new scenario is a ~30-line
/// registration instead of a new binary (see registerExperiment and the
/// built-in factories in experiment_registry.cpp for the template).

#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace nh::core {

/// Registry listing entry (for `nh_sweep list`).
struct RegisteredExperiment {
  std::string name;
  std::string summary;
};

/// All registered experiments, sorted by name.
std::vector<RegisteredExperiment> registeredExperiments();

/// True when \p name is registered.
bool hasExperiment(const std::string& name);

/// Build the spec for \p name; throws std::out_of_range for unknown names
/// (the message lists the registered names).
ExperimentSpec makeExperiment(const std::string& name);

/// Register a new experiment. The factory must return a self-contained spec
/// whose name matches \p name. Throws std::invalid_argument on duplicates.
/// Thread-safe; the built-in catalog registers itself on first access.
void registerExperiment(std::string name, std::string summary,
                        std::function<ExperimentSpec()> factory);

/// Self-documenting registry: render the whole catalog as Markdown -- one
/// section per experiment with its axes (values, fast subsets, whether they
/// touch the study config), result columns (shape, baseline tolerance),
/// budgets, and the fast-mode config digest. `nh_sweep describe --markdown`
/// emits it; docs/experiments.md is this output checked in, and CI fails
/// when the two drift apart.
std::string registryMarkdown();

}  // namespace nh::core

#pragma once
/// Shared helpers for the standalone benches: result directory handling and
/// a consistent "paper vs measured" banner. Registered experiments run
/// through `nh_sweep run <name>` instead.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/experiment.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace nh::bench {

/// Directory CSV series are written to (NH_RESULTS_DIR or ./bench_results).
/// The convention has one home: core/experiment's defaultResultsDir().
inline std::filesystem::path resultsDir() {
  return nh::core::defaultResultsDir();
}

/// Save a CSV table and report the location on stdout.
inline void saveCsv(const nh::util::CsvTable& table, const std::string& name) {
  const auto path = resultsDir() / name;
  table.save(path);
  std::printf("  series written to %s\n", path.string().c_str());
}

/// Standard banner for each reproduced artefact (shared renderer in
/// core/experiment so the nh_sweep CLI prints the identical header).
inline void banner(const char* figure, const char* description,
                   const char* paperShape) {
  nh::core::printBanner(figure, description, paperShape);
}

/// True when NH_FAST_BENCH is set: benches shrink budgets/grids so the whole
/// suite completes quickly (CI smoke mode).
inline bool fastMode() { return std::getenv("NH_FAST_BENCH") != nullptr; }

}  // namespace nh::bench

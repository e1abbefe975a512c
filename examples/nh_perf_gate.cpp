/// nh_perf_gate: tolerance-checked comparator for perf_solvers JSON runs.
///
/// Compares a fresh Google-Benchmark JSON emission (NH_BENCH_OUT) against
/// the tracked BENCH_perf_solvers.json baseline, per benchmark name, on CPU
/// time. The default mode is a *warn-only* gate for CI: regressions print a
/// clearly grep-able `PERF REGRESSION` line and a summary, but the exit
/// code stays 0 because smoke runs on shared runners are too noisy to block
/// merges on. `--strict` turns regressions into exit 1 for local use on a
/// quiet machine.
///
///   nh_perf_gate <baseline.json> <current.json> [--tolerance X] [--strict]
///               [--filter <regex>]
///
/// Tolerance is a ratio: a benchmark regresses when
///   current_cpu_time > tolerance * baseline_cpu_time   (default 2.0).
/// Improvements past the same ratio are reported too, as a nudge to
/// re-record the baseline so the gate keeps teeth after a speedup.
///
/// Benchmarks present in the baseline but absent from the candidate run are
/// reported as `PERF MISSING` lines and counted: a silently vanished
/// benchmark (renamed, crashed, or filtered out of the run) must not read
/// as a pass. Missing benchmarks fail a --strict gate like regressions do.
/// `--filter <regex>` restricts the comparison (and the MISSING check) to
/// matching benchmark names -- for local single-kernel A/B loops, e.g.
/// --filter 'BM_GmgHierarchySetup.*'.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace {

struct Sample {
  double cpuNs = 0.0;
};

double unitToNs(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  throw std::runtime_error("nh_perf_gate: unknown time_unit '" + unit + "'");
}

std::map<std::string, Sample> loadRun(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("nh_perf_gate: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const nh::util::JsonValue doc = nh::util::JsonValue::parse(text.str());
  const nh::util::JsonValue& benches = doc.at("benchmarks");
  std::map<std::string, Sample> out;
  for (const auto& b : benches.items()) {
    // Skip aggregate rows (mean/median/stddev) when repetitions are on.
    if (const auto* runType = b.find("run_type")) {
      if (runType->asString() != "iteration") continue;
    }
    Sample s;
    s.cpuNs = b.at("cpu_time").asNumber() * unitToNs(b.at("time_unit").asString());
    out[b.at("name").asString()] = s;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double tolerance = 2.0;
  bool strict = false;
  std::string filterPattern;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filterPattern = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "nh_perf_gate: unknown option %s\n", argv[i]);
      return 2;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (paths.size() != 2 || tolerance <= 1.0) {
    std::fprintf(stderr,
                 "usage: nh_perf_gate <baseline.json> <current.json>"
                 " [--tolerance X>1] [--strict] [--filter <regex>]\n");
    return 2;
  }

  try {
    auto baseline = loadRun(paths[0]);
    auto current = loadRun(paths[1]);
    if (!filterPattern.empty()) {
      // ECMAScript partial match, like benchmark's own --benchmark_filter.
      const std::regex filter(filterPattern);
      const auto prune = [&](std::map<std::string, Sample>& run) {
        for (auto it = run.begin(); it != run.end();) {
          it = std::regex_search(it->first, filter) ? std::next(it)
                                                    : run.erase(it);
        }
      };
      prune(baseline);
      prune(current);
    }

    std::size_t compared = 0, regressions = 0, improvements = 0;
    std::vector<std::string> onlyBaseline, onlyCurrent;
    for (const auto& [name, base] : baseline) {
      const auto it = current.find(name);
      if (it == current.end()) {
        onlyBaseline.push_back(name);
        continue;
      }
      ++compared;
      const double ratio = it->second.cpuNs / base.cpuNs;
      if (ratio > tolerance) {
        ++regressions;
        std::printf("PERF REGRESSION  %-40s %8.3f ms -> %8.3f ms  (%.2fx > %.2fx)\n",
                    name.c_str(), base.cpuNs / 1e6, it->second.cpuNs / 1e6,
                    ratio, tolerance);
      } else if (ratio < 1.0 / tolerance) {
        ++improvements;
        std::printf("perf improvement %-40s %8.3f ms -> %8.3f ms  (%.2fx)"
                    "  [consider re-recording the baseline]\n",
                    name.c_str(), base.cpuNs / 1e6, it->second.cpuNs / 1e6,
                    ratio);
      }
    }
    for (const auto& [name, s] : current) {
      (void)s;
      if (!baseline.count(name)) onlyCurrent.push_back(name);
    }

    for (const auto& name : onlyBaseline) {
      std::printf("PERF MISSING     %-40s in baseline but absent from the"
                  " candidate run (removed, renamed, or crashed?)\n",
                  name.c_str());
    }
    for (const auto& name : onlyCurrent) {
      std::printf("note: new benchmark %s (absent from the baseline)\n",
                  name.c_str());
    }
    std::printf(
        "nh_perf_gate: %zu compared, %zu regression(s), %zu missing, "
        "%zu improvement(s), tolerance %.2fx%s\n",
        compared, regressions, onlyBaseline.size(), improvements, tolerance,
        strict ? " [strict]" : " [warn-only]");
    if (compared == 0) {
      std::fprintf(stderr, "nh_perf_gate: no overlapping benchmarks\n");
      return 2;
    }
    return (strict && (regressions > 0 || !onlyBaseline.empty())) ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nh_perf_gate: %s\n", e.what());
    return 2;
  }
}

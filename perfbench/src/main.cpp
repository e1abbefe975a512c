/// \file main.cpp
/// nh_perfbench: end-to-end benchmark driver (see perfbench/README.md).
///
///   nh_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                [--size full|tiny] [--reference FILE] [--baselines DIR]
///                [--out-dir DIR] [--commit SHA] [--record]
///
/// An untraced phase always runs first and gives the end-to-end metrics.
/// With --trace 1 a second phase repeats the same number of operations with
/// spans on, runs the per-layer probes, writes a Chrome trace-event file and
/// reports only per-layer metrics. The last line of stdout is the result
/// object; --record instead prints the outputs of one unchecked operation
/// (used to record reference.json).

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "util/json.hpp"
#include "util/spmv.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using nh::util::JsonValue;
using nh::util::JsonWriter;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  bool record = false;
  std::string reference = "perfbench/reference.json";
  std::string baselines = "baselines";
  std::string outDir = ".bench_build/perfbench/results";
  std::string commit = "unknown";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      haveSeed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      haveSeconds = a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny")
        throw std::invalid_argument("--size takes full or tiny");
      a.tiny = value == "tiny";
    } else if (flag == "--reference") {
      a.reference = value;
    } else if (flag == "--baselines") {
      a.baselines = value;
    } else if (flag == "--out-dir") {
      a.outDir = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !haveSeed || (!haveSeconds && !a.record) ||
      (!haveTrace && !a.record))
    throw std::invalid_argument(
        "usage: nh_perfbench --workload NAME --seed N --seconds S --trace 0|1");
  return a;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

struct LoadAverage {
  double v[3] = {0.0, 0.0, 0.0};
  LoadAverage() {
    if (getloadavg(v, 3) != 3) v[0] = v[1] = v[2] = -1.0;
  }
};

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// One pass over a workload: set-ups and closed-loop operations.
struct Phase {
  std::vector<double> setupSeconds;
  std::vector<double> opSeconds;
  double items = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

/// Extra set-ups before the first operation: at least kSetupSamples of them
/// and, in the untraced phase, at least kSetupSeconds of set-up work, so that
/// millisecond and microsecond set-ups still give a steady median (setup_s).
constexpr std::size_t kSetupSamples = 5;
constexpr double kSetupSeconds = 0.5;

/// Starts operations while the operations so far took less than \p seconds
/// in total (so the last one overruns it; at least one), or runs exactly
/// \p ops operations when \p ops > 0. Set-up time does not count against
/// \p seconds. Extra set-ups come first (at least \p setupSeconds of them);
/// every operation then gets a fresh set-up, which also counts as a set-up
/// sample.
Phase runPhase(Workload& w, Tracer& tracer, double seconds, std::size_t ops,
               double setupSeconds) {
  Phase p;
  const auto timedSetup = [&] {
    const Clock::time_point t = Clock::now();
    w.setup(tracer);
    p.setupSeconds.push_back(secondsSince(t));
  };
  const Clock::time_point setupStart = Clock::now();
  while (p.setupSeconds.size() < kSetupSamples ||
         secondsSince(setupStart) < setupSeconds)
    timedSetup();
  double operating = 0.0;
  for (std::size_t op = 0;; ++op) {
    if (ops > 0 ? op >= ops : op > 0 && operating >= seconds) break;
    timedSetup();
    Checker check;
    OpOutcome outcome;
    const Clock::time_point t = Clock::now();
    try {
      outcome = w.run(tracer, op, check);
    } catch (const std::exception& e) {
      check.require(std::string("operation threw: ") + e.what(), false);
      outcome.attempted = w.attemptsPerOp();
      outcome.failed = outcome.attempted;
    }
    p.opSeconds.push_back(secondsSince(t));
    operating += p.opSeconds.back();
    p.items += outcome.items;
    p.attempted += outcome.attempted;
    p.failed += outcome.failed;
    for (const std::string& f : check.failures())
      p.failures.push_back("op " + std::to_string(op) + ": " + f);
  }
  return p;
}

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void writeMetrics(JsonWriter& w, const std::vector<Metric>& metrics) {
  w.beginObject();
  for (const Metric& m : metrics) {
    w.key(m.name).beginObject();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.endObject();
  }
  w.endObject();
}

int run(const Args& args) {
  const LoadAverage loadStart;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads =
      std::min(nh::util::defaultThreadCount(), nproc);
  const std::string size = args.tiny ? "tiny" : "full";

  WorkloadOptions options;
  options.tiny = args.tiny;
  options.seed = args.seed;
  options.threads = threads;
  options.baselineDir = args.baselines;
  if (!args.record) {
    const JsonValue all = JsonValue::parse(readFile(args.reference));
    options.reference = all.at(args.workload).at(size);
  }
  std::unique_ptr<Workload> workload = makeWorkload(args.workload, options);

  if (args.record) {
    Tracer off(args.workload, false);
    Checker unused;
    workload->setup(off);
    workload->run(off, 0, unused);
    JsonWriter w;
    workload->writeOutputs(w);
    std::cout << w.str() << std::endl;
    return 0;
  }

  Tracer untraced(args.workload, false);
  const Phase plain = runPhase(*workload, untraced, args.seconds, 0, kSetupSeconds);
  const double rss = peakRssMb();
  const double wall = median(plain.opSeconds);
  double opSeconds = 0.0;
  for (const double s : plain.opSeconds) opSeconds += s;

  std::filesystem::create_directories(args.outDir);
  const std::string stem = args.outDir + "/" + args.workload + "-" + size +
                           "-seed" + std::to_string(args.seed);
  std::vector<Metric> metrics;
  std::size_t attempted = plain.attempted;
  std::size_t failed = plain.failed;
  std::vector<std::string> failures = plain.failures;
  std::string tracePath;
  if (!args.trace) {
    metrics = {{"wall_s", wall, "s"},
               {"setup_s", median(plain.setupSeconds), "s"},
               {"peak_rss_mb", rss, "MB"},
               {"items_per_s", opSeconds > 0.0 ? plain.items / opSeconds : 0.0,
                "1/s"}};
  } else {
    Tracer tracer(args.workload, true);
    const Phase traced =
        runPhase(*workload, tracer, args.seconds, plain.opSeconds.size(), 0.0);
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());

    Values values;
    workload->layerMetrics(values);
    values["trace.overhead_frac"] =
        wall > 0.0 ? (median(traced.opSeconds) - wall) / wall : 0.0;
    for (const LayerMetric& m : perLayerCatalog()) {
      double value = 0.0;
      if (m.span != nullptr) {
        value = median(tracer.durations(m.span)) * m.scale;
      } else if (const auto it = values.find(m.name); it != values.end()) {
        value = it->second;
      }
      metrics.push_back({m.name, value, m.unit});
    }
    tracePath = stem + ".trace.json";
    writeFile(tracePath, tracer.chromeTraceJson());
  }
  const LoadAverage loadEnd;
  const bool correct = failed == 0;

  JsonWriter context;
  context.beginObject();
  context.key("workload").value(args.workload);
  context.key("size").value(size);
  context.key("seed").value(static_cast<std::size_t>(args.seed));
  context.key("run_seconds").value(args.seconds);
  context.key("operations").value(plain.opSeconds.size());
  context.key("op_seconds").beginArray();
  for (const double v : plain.opSeconds) context.value(v);
  context.endArray();
  context.key("setup_samples").value(plain.setupSeconds.size());
  context.key("nproc").value(nproc);
  context.key("threads").value(threads);
  context.key("load_start").beginArray();
  for (const double v : loadStart.v) context.value(v);
  context.endArray();
  context.key("load_end").beginArray();
  for (const double v : loadEnd.v) context.value(v);
  context.endArray();
  context.key("build_type").value(PERFBENCH_BUILD_TYPE);
  context.key("non_release").value(std::string(PERFBENCH_BUILD_TYPE) != "Release");
  context.key("spmv_kernel").value(nh::util::spmv::activeKernelName());
  context.key("commit").value(args.commit);
  context.key("traced").value(args.trace);
  if (!tracePath.empty()) context.key("trace_file").value(tracePath);
  context.key("error_rate")
      .value(attempted > 0 ? static_cast<double>(failed) / attempted : 1.0);
  context.key("failures").beginArray();
  for (const std::string& f : failures) context.value(f);
  context.endArray();
  context.endObject();

  for (const std::string& f : failures) std::cerr << "CHECK FAILED " << f << '\n';

  JsonWriter result;
  result.beginObject();
  result.key("correct").value(correct);
  result.key("attempted").value(attempted);
  result.key("failed").value(failed);
  result.key("metrics");
  writeMetrics(result, metrics);
  result.endObject();

  const std::string reportText = "{\"context\": " + context.str() +
                                 ", \"result\": " + result.str() + "}";
  writeFile(stem + (args.trace ? "-trace1.json" : "-trace0.json"), reportText);

  std::cout << "{\"context\": " << context.str() << "}\n";
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "nh_perfbench: " << e.what() << '\n';
    return 2;
  }
}

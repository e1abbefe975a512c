#!/usr/bin/env python3
"""Benchmark self-test: a tiny-size pass of every workload.

    python3 perfbench/selftest.py

For each workload, untraced and traced, it checks that the result line has
exactly the contract's keys, that every metric BENCHMARK.json names is
emitted with its unit, that every end-to-end metric and every per-layer
metric of a layer the workload exercises is above 0 (the others read 0),
that the output checks pass (error rate 0) and that the traced run wrote a
valid trace-event file. It then runs each workload
against a copy of reference.json with one value perturbed and requires the
run to report the failure, which proves the checks can fail. Exits non-zero
on the first broken assertion.
"""

import copy
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
REFERENCE_SEED = 2026

# Per-layer metrics each workload exercises: in the traced run these must be
# above 0, and every other per-layer metric must read exactly 0 (except
# trace.overhead_frac, which any workload reports). A span renamed on one side
# only, or a probe that stops running, fails here.
ATTACK_PROBES = [
    "core.attack.pulses_applied", "core.attack.pulses_detailed",
    "core.attack.batch_factor", "xbar.network.newton_iters",
    "xbar.network.newton_per_pulse", "jart.conduction_ns", "jart.current_ns",
    "jart.conductance_ns", "xbar.hub.refresh_us", "xbar.network.substep_ms",
]
LAYERS = {
    "attack_large": [
        "core.study.build_ms", "xbar.bench.build_ms", "core.attack.run_s",
        "xbar.sneak.margin_ms", *ATTACK_PROBES,
    ],
    "campaign_small": [
        "core.study.build_ms", "xbar.bench.build_ms", "core.attack.run_s",
        "core.campaign.run_s", "core.campaign.trials",
        "core.campaign.worker_busy_frac", "core.campaign.trial_p50_ms",
        "core.campaign.trial_p90_ms", "core.campaign.trial_samples",
        *ATTACK_PROBES,
    ],
    "thermal_extract": [
        "fem.model.build_ms", "fem.extract_s", "fem.cg_iters",
        "fem.solve.first_ms", "fem.solve.reuse_ms",
    ],
    "spice_crosscheck": [
        "spice.build_ms", "spice.transient_s", "xbar.fast.train_ms",
        "spice.accepted_steps", "spice.step_us", "jart.conduction_ns",
        "jart.current_ns", "jart.conductance_ns", "xbar.hub.refresh_us",
        "xbar.network.substep_ms",
    ],
}
ANY_WORKLOAD = {"trace.overhead_frac"}

# Reference values, each scaled far outside its tolerance in its own run.
PERTURB = [
    ("attack_large", "pulses_to_flip", 2.0),
    ("campaign_small", "p90", 2.0),
    ("campaign_small", "nominal_pulses", 2.0),
    ("thermal_extract", "rth", 1.5),
    ("spice_crosscheck", "victim_drift", 2.0),
]


def run(workload, seed, trace, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    return json.loads(lines[-1]), context


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_result(workload, trace, result, context, spec):
    tag = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{tag}: not correct: {context['failures']}")
    expect(result["failed"] == 0 and context["error_rate"] == 0,
           f"{tag}: error rate {context['error_rate']}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{tag}: attempted {result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    expect(list(metrics) == [m["name"] for m in wanted],
           f"{tag}: metric names {list(metrics)}")
    for m in wanted:
        got = metrics[m["name"]]
        expect(got["unit"] == m["unit"], f"{tag}: {m['name']} unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)),
               f"{tag}: {m['name']} value {got['value']}")
        if not trace:
            expect(got["value"] > 0, f"{tag}: {m['name']} is {got['value']}")
        elif m["name"] in LAYERS[workload]:
            expect(got["value"] > 0,
                   f"{tag}: exercised layer {m['name']} is {got['value']}")
        elif m["name"] not in ANY_WORKLOAD:
            expect(got["value"] == 0,
                   f"{tag}: unexercised layer {m['name']} is {got['value']}")
    for key in ("seed", "nproc", "load_start", "load_end", "build_type",
                "threads", "spmv_kernel", "commit"):
        expect(key in context, f"{tag}: context lacks {key}")
    if trace:
        with open(context["trace_file"], encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        expect(events, f"{tag}: empty trace")
        for e in events:
            expect(e["ph"] == "X" and e["dur"] >= 0 and "parent_id" in e["args"],
                   f"{tag}: bad trace event {e}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "reference.json"),
              encoding="utf-8") as f:
        reference = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    per_layer = {m["name"] for m in spec["per_layer"]}
    for workload, names in LAYERS.items():
        expect(set(names) <= per_layer,
               f"{workload}: LAYERS names {set(names) - per_layer} "
               "are not per-layer metrics")

    for workload in workloads:
        for trace in (0, 1):
            result, context = run(workload, REFERENCE_SEED, trace)
            check_result(workload, trace, result, context, spec)
        print(f"ok   {workload}: metrics, units, error rate 0, trace file")

    # A non-reference seed takes the interval checks instead of pinned values.
    result, context = run("campaign_small", 7, 0)
    check_result("campaign_small", 0, result, context, spec)
    print("ok   campaign_small: interval checks at a non-reference seed")

    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build", "perfbench")
    for workload, key, factor in PERTURB:
        broken = copy.deepcopy(reference)
        tiny = broken[workload]["tiny"]
        target = tiny["extractions"][0] if workload == "thermal_extract" else tiny
        target[key] *= factor
        path = os.path.join(out_dir, f"reference-perturbed-{workload}-{key}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(broken, f)
        result, context = run(workload, REFERENCE_SEED, 0, ["--reference", path])
        expect(result["correct"] is False and result["failed"] > 0,
               f"{workload}: perturbed {key} was not reported")
        expect(any(key.replace("_", " ") in msg or key in msg
                   for msg in context["failures"]),
               f"{workload}: failure does not name {key}: {context['failures']}")
        print(f"ok   {workload}: perturbed {key} reported as a failure")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print(f"FAIL {err}", file=sys.stderr)
        sys.exit(1)

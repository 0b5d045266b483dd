#!/usr/bin/env python3
"""Smoke test of the qvliw benchmark.

    python3 perfbench/smoke_test.py [--binary PATH]

Runs every workload on a 60-loop suite (clusters too, which
BENCHMARK.json leaves out), untraced and traced, and checks that each run
passes its own output checks (the 60-loop fingerprints and failure counts
are pinned at seed 1998), that every metric named in BENCHMARK.json is
printed with its unit, and that the traced run writes a Chrome trace
whose stage spans and unattributed span are present.  It
also checks that a bad argument fails without printing a result.  Without
--binary it builds the benchmark binary the way run.py does.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

LOOPS = 60
SEED = 1998


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(binary, workdir, workload, trace, seed=SEED):
    trace_file = os.path.join(workdir, f"{workload}.trace.json")
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--loops", str(LOOPS), "--work-dir",
               os.path.join(workdir, "work"), "--trace-out", trace_file]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170)
    return proc, trace_file


def check_result(proc, expected, label):
    failures = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()}"], None, None
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{label}: correct/attempted/failed = {result['correct']}/"
                        f"{result['attempted']}/{result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        failures.append(f"{label}: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
            failures.append(f"{label}: {name} = {entry}, expected unit {unit}")
    for key in ("nproc", "compiler", "build_type", "workers", "seed", "heldout_seed", "loops"):
        if key not in stamp:
            failures.append(f"{label}: stamp lacks {key}")
    return failures, stamp, metrics


def check_trace(path, workload, label):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    categories = {e.get("cat") for e in events if e.get("ph") == "X"}
    wanted = {"stage", "unattributed", "workload"}
    wanted |= {"pipeline"} if workload == "compile_sim" else {"cell", "harness"}
    if workload == "ladder":
        wanted.add("support")
    return [f"{label}: trace lacks {sorted(wanted - categories)}"] if wanted - categories else []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", help="prebuilt qvliw_bench (default: build it)")
    args = parser.parse_args()
    binary = args.binary or run.build()
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    os.makedirs(run.build_dir(), exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="smoke-", dir=run.build_dir()) as workdir:
        for workload in run.WORKLOADS:
            proc, _ = invoke(binary, workdir, workload, 0)
            found, stamp, metrics = check_result(proc, end_to_end, f"{workload} untraced")
            failures += found
            if stamp is not None and stamp.get("pinned") is not True:
                failures.append(f"{workload}: the {LOOPS}-loop pin was not applied")
            proc, trace_file = invoke(binary, workdir, workload, 1)
            found, _, metrics = check_result(proc, per_layer, f"{workload} traced")
            failures += found
            if not found:
                failures += check_trace(trace_file, workload, f"{workload} traced")
                if metrics["verify.violations"]["value"] != 0:
                    failures.append(f"{workload}: verifier violations")
                if metrics["sim.mismatches"]["value"] != 0:
                    failures.append(f"{workload}: simulator mismatches")
        # An unpinned seed runs the same checks minus the pin.
        proc, _ = invoke(binary, workdir, "queue_fit", 0, seed=7)
        failures += check_result(proc, end_to_end, "queue_fit seed 7")[0]
        proc, _ = invoke(binary, workdir, "no_such_workload", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("an unknown workload did not fail cleanly")
    for failure in failures:
        print("FAIL:", failure)
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it checks that an untraced run and a traced run print
every metric BENCHMARK.json names, with its unit and a finite value; that a
run against a freshly recorded reference is correct; and that the same run
against a corrupted reference digest is marked incorrect with all of its
experiments counted as failed. Exits 0 when every check holds.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("tree-assert", "mega-mixed", "search-k2")


def run(workload, trace, reference, record=False):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "0.2",
               "--trace", str(trace), "--size", "tiny",
               "--reference", reference]
    if record:
        command.append("--record")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, wanted):
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise AssertionError(f"metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            raise AssertionError(f"metric {m['name']} has unit {got['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            raise AssertionError(f"metric {m['name']} is not a number")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        raise AssertionError(f"unexpected metrics {sorted(extra)}")


def corrupt(reference_path):
    with open(reference_path) as f:
        reference = json.load(f)
    for seeds in reference.values():
        for modes in seeds.values():
            for observed in modes.values():
                for name, value in observed["digests"].items():
                    flipped = "0" if value[0] != "0" else "1"
                    observed["digests"][name] = flipped + value[1:]
    with open(reference_path, "w") as f:
        json.dump(reference, f)


def selftest(workload, spec):
    reference = os.path.join(SCRATCH, f"{workload}.json")
    if os.path.exists(reference):
        os.remove(reference)
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = run(workload, trace, reference, record=True)
        check_metrics(result, wanted)
        if not result["correct"] or result["attempted"] < 1:
            raise AssertionError(f"trace={trace} run is not correct")
        if not run(workload, trace, reference)["correct"]:
            raise AssertionError(f"trace={trace} run fails its own reference")
    corrupt(reference)
    for trace in (0, 1):
        result = run(workload, trace, reference)
        if result["correct"] or result["failed"] != result["attempted"]:
            raise AssertionError(
                f"trace={trace} run passes against a corrupted reference")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    failures = 0
    for workload in WORKLOADS:
        try:
            selftest(workload, spec)
            print(f"ok    {workload}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL  {workload}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

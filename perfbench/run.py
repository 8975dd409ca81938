#!/usr/bin/env python3
"""Builds and runs the gremlin end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload tree-assert|mega-mixed|search-k2 \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
engine and the perfbench binary from source into .bench_build/; later runs
only rebuild what changed. The binary's counts and digests are compared
with perfbench/reference.json when it has an entry for the workload and
seed; a mismatch, a failed self-check or an experiment with ok == false
marks the run incorrect and counts its experiments as failed.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
metrics (--trace 1). Earlier lines carry host metadata, counts and digests.

--record stores the run's counts and digests as the reference for its
workload and seed instead of checking them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BINARY_DIR, "perfbench")
WORKLOADS = ("tree-assert", "mega-mixed", "search-k2")
RUN_TIMEOUT_S = 175

# Counts that describe how a run was measured, not what the engine
# computed; they are not part of the reference.
UNCHECKED_COUNTS = {"timed_batches", "cross_checked", "replayed",
                    "snapshot_misses"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources under src/ (run from a full checkout)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BINARY_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BINARY_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BINARY_DIR, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed; see {log_path}")


def load_json(path, default=None):
    if not os.path.isfile(path):
        if default is not None:
            return default
        fail(f"missing {path}", 2)
    with open(path) as f:
        return json.load(f)


def reference_key(workload, size):
    return workload if size == "full" else f"{workload}@{size}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference",
                        default=os.path.join(HERE, "reference.json"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build()

    mode = "traced" if args.trace else "untraced"
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.size}-{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"benchmark exited with code {proc.returncode}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])

    counts = {k: v for k, v in data["counts"].items()
              if k not in UNCHECKED_COUNTS}
    observed = {"counts": counts, "digests": data["digests"]}
    print("host: " + json.dumps(data["host"]))
    print(f"run: {mode} {args.workload} seed={args.seed} size={args.size} "
          f"elapsed_s={time.monotonic() - start:.1f}")
    print("counts: " + json.dumps(data["counts"], sort_keys=True))
    print("digests: " + json.dumps(data["digests"], sort_keys=True))
    if data["batch_walls"]:
        print("batch_walls_s: " + " ".join(f"{w:.4f}"
                                           for w in data["batch_walls"]))

    problems = list(data["problems"])
    reference = load_json(args.reference, default={})
    key = reference_key(args.workload, args.size)
    if args.record:
        entry = reference.setdefault(key, {}).setdefault(str(args.seed), {})
        entry.setdefault(mode, {}).update(observed)
        with open(args.reference, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recorded reference {key} seed={args.seed} {mode}")
    else:
        expected = reference.get(key, {}).get(str(args.seed), {}).get(mode)
        if expected is not None:
            for kind in ("counts", "digests"):
                for name, value in expected.get(kind, {}).items():
                    got = observed[kind].get(name)
                    if got != value:
                        problems.append(f"{kind[:-1]} {name} is {got}, "
                                        f"reference {value}")
            print(f"reference: checked {key} seed={args.seed} {mode}")
        else:
            print(f"reference: none recorded for {key} seed={args.seed}")
    for problem in problems:
        print("problem: " + problem)

    attempted = int(data["attempted"])
    failed = attempted if problems else int(data["failed"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = data["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the output")
        metrics[m["name"]] = got
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

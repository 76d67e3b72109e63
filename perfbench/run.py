#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe (release profile, build
directory .bench_build) and runs one workload; the last line of its
standard output is the JSON result. With --trace 1 the per-layer
metrics are reported and the layer spans are written to
.bench_build/perfbench/trace-<workload>-<seed>.json (Chrome trace-event
JSON, opens in Perfetto). The exit code is non-zero when the build
fails or a correctness check fails.

--self-test runs every workload at a tiny size, twice per trace mode at
one seed, and checks that every metric named in BENCHMARK.json is
reported with its unit and that the exact metrics (counts and
virtual-time figures) repeat. The program reads the metric names,
units and directions from BENCHMARK.json itself.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
PROFILE = "release"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", PROFILE, "./perfbench/perfbench.exe"]
    try:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def bench_args(workload, seed, seconds, trace, size):
    args = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size, "--profile", PROFILE]
    if trace == 1:
        trace_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-file", os.path.join(trace_dir, f"trace-{workload}-{seed}.json")]
    return args


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    problems = []
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    catalogue = json.loads(subprocess.run([EXE, "--catalogue"], capture_output=True,
                                          text=True, check=True).stdout)
    workloads = [w["name"] for w in declared["workloads"]]
    if sorted(workloads) != sorted(w["name"] for w in catalogue["workloads"]):
        problems.append("workload names differ between BENCHMARK.json and the program")
    exactness = {m["name"]: m["exact"] for scope in ("end_to_end", "per_layer")
                 for m in catalogue[scope]}
    for workload in workloads:
        for trace in (0, 1):
            scope = declared["per_layer" if trace else "end_to_end"]
            runs = []
            for _ in range(2):
                # So short a run measures exactly one iteration (or traced
                # round) after the unreported first, so both runs do the
                # same work and every exact metric must match.
                done = subprocess.run(bench_args(workload, 7, 1e-6, trace, "tiny"),
                                      capture_output=True, text=True)
                result = result_of(done.stdout)
                if done.returncode != 0 or result is None or not result["correct"]:
                    problems.append(f"{workload} trace={trace}: run failed:\n{done.stdout}{done.stderr}")
                    break
                runs.append(result)
            if len(runs) < 2:
                continue
            for m in scope:
                name, unit = m["name"], m["unit"]
                got = [r["metrics"].get(name) for r in runs]
                if any(g is None or g.get("unit") != unit for g in got):
                    problems.append(f"{workload} trace={trace}: {name} missing or not in {unit}")
                    continue
                exact = exactness.get(name)
                if exact == "always" or (exact == "single-domain" and workload != "pdes-sites"):
                    if got[0]["value"] != got[1]["value"]:
                        problems.append(f"{workload} trace={trace}: exact metric {name} differs: "
                                        f"{got[0]['value']} vs {got[1]['value']}")
            print(f"self-test: {workload} trace={trace}: {len(scope)} metrics checked")
    for p in problems:
        print("self-test FAILED:", p)
    if not problems:
        print("self-test OK")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    run_args = (args.workload, args.seed, args.seconds, args.trace)
    if not args.self_test and None in run_args:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if args.self_test:
        return self_test()
    done = subprocess.run(bench_args(*run_args, "full"))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The kqr repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the library, the
kqr_shardd daemon and the measuring program (perfbench/perfbench.cc) from
source into .bench_build/, runs the program's arithmetic self-tests, then
runs one workload. Workloads and metrics are declared in BENCHMARK.json;
the printed metric names and units are checked against it. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, without that line, when the build,
the self-tests or the name check fail; exits non-zero after printing it
when a ranking differed from the serial reference.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds into BUILD; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(spec, trace):
    """name -> unit the run must print, from BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Problems with a parsed result line; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    printed = result["metrics"]
    for name in sorted(set(expected) - set(printed)):
        problems.append(f"metric {name} declared in BENCHMARK.json but not printed")
    for name in sorted(set(printed) - set(expected)):
        problems.append(f"metric {name} printed but not declared in BENCHMARK.json")
    for name in sorted(set(printed) & set(expected)):
        if printed[name].get("unit") != expected[name]:
            problems.append(f"metric {name} unit {printed[name].get('unit')} != {expected[name]}")
        if not isinstance(printed[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    if not build():
        log("build failed")
        return 1
    binary = os.path.join(BUILD, "kqr_perfbench")
    if subprocess.run([binary, "--self-test"], stdout=sys.stderr).returncode:
        log("self-tests failed")
        return 1

    workdir = os.path.join(ROOT, ".bench_build", "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shardd", os.path.join(BUILD, "kqr_shardd"), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        # Every run writes its own model files; span files stay for
        # inspection.
        for name in os.listdir(workdir):
            if name.endswith(".kqrm"):
                os.remove(os.path.join(workdir, name))
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not a result (exit {proc.returncode}): {lines[-1]}")
        return 1
    problems = check_result(result, expected_metrics(spec, args.trace))
    if problems:
        for p in problems:
            log(p)
        return 1
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"run was not correct (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

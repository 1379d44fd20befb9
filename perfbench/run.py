#!/usr/bin/env python3
"""The repository benchmark: Mitos on the threads backend at 3 machines.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the Mitos library from
src/ plus the perfbench measuring program) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later calls only
rebuild what changed. The build log goes to standard error.

A run prints every metric by name, unit and sample count, and ends with one
JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics; the
line is checked against BENCHMARK.json before it is printed. Workloads:
step_loop, visit_count, pagerank (see BENCHMARK.json for why each).

--self-test runs every workload at tiny sizes in both modes and checks that
every named metric is present with its unit and that no job failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("step_loop", "visit_count", "pagerank")
# A run must end within 180 s; the build is not part of it.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    build_dir = base / "perfbench"
    if not (build_dir / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def expected_metrics(trace):
    """{name: unit} of the metrics a --trace run must report."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """Parses the result line; returns (result, problem or None)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are %s" % sorted(result)
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        return None, "attempted/failed are not counts"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return None, "metrics differ: missing %s, extra %s, wrong unit %s" % (
            missing, extra, wrong)
    return result, None


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one measurement; returns (stdout, result, problem or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "", None, "timed out after %d s" % RUN_TIMEOUT_S
    if proc.returncode != 0:
        return proc.stdout, None, "perfbench exited with %d" % proc.returncode
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.stdout, None, "no output"
    result, problem = check_result(lines[-1], trace)
    return proc.stdout, result, problem


def self_test(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, result, problem = run(binary, workload, seed=1, seconds=1,
                                       trace=trace, tiny=True)
            if problem is None and not (result["correct"]
                                        and result["failed"] == 0):
                problem = "%d of %d jobs failed" % (result["failed"],
                                                    result["attempted"])
            if problem is None and trace == 0 and "fail_rate" not in out:
                problem = "fail_rate not printed"
            status = "ok" if problem is None else "FAIL: " + problem
            print("self-test %-12s trace=%d %s" % (workload, trace, status))
            if problem is not None:
                sys.stdout.write(out)
                failures += 1
    print("self-test %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    if args.self_test:
        return self_test(binary)

    out, _, problem = run(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    if problem is not None:
        # Keep the metric table, drop the (missing or invalid) result line.
        log(out, end="")
        log("perfbench: %s" % problem)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

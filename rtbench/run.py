#!/usr/bin/env python3
"""Builds and runs the rtbench real-time benchmark.

Run from the root of a RuleDBT checkout:

    python3 rtbench/run.py --workload steady-spec --seed 1 --seconds 20 --trace 0
    python3 rtbench/run.py --selftest      # the benchmark's own tests

The benchmark and the program under test are built from source into
$CARGO_TARGET_DIR (default .bench_build) in the checkout; the first run
builds, later runs only check the build is current. Build output goes to
standard error. The benchmark binary prints its measured values by name;
the last line of standard output is the result object built from them,
with the metrics BENCHMARK.json declares for the pass, in its order and
with its units.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady-spec", "system-churn", "session-start")


def fail(msg):
    print("rtbench: " + msg, file=sys.stderr)
    return 2


def assemble(out, spec, trace):
    """The result object from the binary's last line \p out: the metrics
    BENCHMARK.json (\p spec) declares for the pass, in order, with units.
    Raises ValueError when one is missing, extra or not a finite number."""
    res = json.loads(out)
    values = res["values"]
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError("metrics not measured: %s; not declared: %s"
                         % (missing, extra))
    bad = [n for n in names if not math.isfinite(values[n])]
    if bad:
        raise ValueError("not a finite number: %s" % bad)
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in declared}}


def build(build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target"]
                   + targets, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds is not None and not 1 <= args.seconds <= 120:
        ap.error("--seconds must be in 1..120")

    # The benchmark builds the program under test from the checkout it
    # sits in; without it there is nothing to measure.
    for need in ("CMakeLists.txt", "BENCHMARK.json",
                 os.path.join("src", "vm", "Vm.h"),
                 os.path.join("bench", "baselines", "BENCH_matrix.json")):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail("not inside a RuleDBT checkout: %s is missing" % need)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        if args.selftest:
            build(build_dir, ["rtbench", "rtbench_selftest"])
            return subprocess.run(["ctest", "--output-on-failure"],
                                  cwd=build_dir, stdout=sys.stderr).returncode
        build(build_dir, ["rtbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        return fail("build failed: %s" % e)

    tmp = os.path.join(build_dir, "tmp", str(os.getpid()))
    cmd = [os.path.join(build_dir, "rtbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--tmp", tmp]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    if proc.returncode:
        return proc.returncode
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        result = assemble(lines[-1] if lines else "", spec, args.trace)
    except (OSError, ValueError, KeyError) as e:
        return fail("bad benchmark output: %s" % e)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the tilq benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --p90-limit-ms 10 --workload warm_kernel \
        --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The first run compiles the library
and the benchmark into .bench_build/perfbench (about three minutes on four
cores); later runs only check that the build is current. Every TILQ_*
variable is removed from the benchmark's environment, so fault injection,
tuning, telemetry, tracing and counters are all off in the timed runs. The
last line of standard output is the result JSON, with the metrics that
BENCHMARK.json declares in its order; build output goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("warm_kernel", "cold_oneshot", "engine_open")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    subprocess.run([os.path.join(BUILD, "perfbench_stats_test")],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def ordered(metrics, declared, trace):
    """The reported metrics in declared order. A declared end-to-end metric
    that is missing, an undeclared metric or a wrong unit is a benchmark
    bug; a per-layer metric of a layer the workload does not use reads 0."""
    out = {}
    for name, unit in declared:
        if name not in metrics:
            if not trace:
                raise ValueError(f"end-to-end metric not reported: {name}")
            out[name] = {"value": 0, "unit": unit}
            continue
        if metrics[name]["unit"] != unit:
            raise ValueError(f"wrong unit for {name}")
        out[name] = metrics.pop(name)
    if metrics:
        raise ValueError(f"undeclared metrics: {sorted(metrics)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--p90-limit-ms", required=True, type=float,
                        help="engine_open: p90 limit of a ladder rate")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no tilq sources at {os.path.join(ROOT, 'src')}; run from "
             "the root of a source checkout")
    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    env = {k: v for k, v in os.environ.items() if not k.startswith("TILQ_")}
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--p90-limit-ms", repr(args.p90_limit_ms)]
    if args.trace:
        command += ["--trace-file", os.path.join(
            BUILD, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    run = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = ordered(result["metrics"], declared, args.trace)
    except (IndexError, ValueError, KeyError) as error:
        print("\n".join(lines))
        fail(f"no valid result line: {error}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

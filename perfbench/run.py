#!/usr/bin/env python3
"""Build and run the SOCET performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  The benchmark binary is built from the
checkout's own sources into .bench_build/perfbench (Release), then run
once; its last stdout line is the JSON result.  `--workload all` runs
every workload untraced and traced, prints every end-to-end and
per-layer metric, and reports the tracing overhead as the difference
between the two runs.  The exit status is nonzero when the build fails
or any correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["scan_atpg", "seq_grade", "seq_atpg", "plan_serve"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "socet_perfbench")


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace, echo):
    """Run the binary once; returns (exit code, stdout text)."""
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl")]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=RUN_TIMEOUT_S, check=False)
    if echo:
        sys.stdout.write(result.stdout)
        sys.stdout.flush()
    return result.returncode, result.stdout


def text_field(output, name):
    """A number from the binary's `  <name>  <value> ...` report lines."""
    for line in output.splitlines():
        if line.startswith("  " + name + " "):
            return float(line[len(name) + 2:].split()[0])
    raise ValueError(f"no '{name}' line in benchmark output")


def run_all(seed, seconds):
    ok = True
    attempted = failed = 0
    metrics = {}
    overhead = []
    for workload in WORKLOADS:
        per_trace = {}
        for trace in (0, 1):
            code, output = run_one(workload, seed, seconds, trace, echo=True)
            lines = output.strip().splitlines()
            if code != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace == 0:
                attempted += result["attempted"]
                failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics[f"{workload}/{name}"] = metric
            per_trace[trace] = (text_field(output, "ops") /
                                text_field(output, "timed wall"),
                                result["metrics"])
        if len(per_trace) == 2:
            untraced, traced = per_trace[0][0], per_trace[1][0]
            overhead.append((workload, 100.0 * (untraced / traced - 1.0),
                             per_trace[1][1]["trace.overhead_pct"]["value"]))
    print("\ntracing overhead (ops/s untraced vs traced; recorder estimate)")
    for workload, measured, estimate in overhead:
        print(f"  {workload:<12} {measured:+8.3f} %   {estimate:.6f} %")
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                      echo=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark: time to a certified differential-cost verdict.

    python3 diffbench/run.py --workload <table1-d2|serve-mix|nested-d3> \
        [--seed <n>] [--seconds <s>] [--trace <0|1>]

The defaults are seed 1, the 45 seconds BENCHMARK.json sets, and no trace.
BENCHMARK.json lists table1-d2 and serve-mix; nested-d3 is for runs by hand, since
its single solve takes 45-60 s however short the run (see README.md).

Run from the repository root. Builds the `diffbench` binary from source (release,
offline) into $CARGO_TARGET_DIR, or diffbench/target when that is unset, then runs
the workload in a process of its own, so peak memory is the workload's alone.

--trace 0 prints the end-to-end metrics of one untraced run of --seconds. --trace 1
runs the workload twice for half of --seconds each, untraced and then traced, prints
the traced run's per-layer metrics plus trace.overhead_frac, and fails the run unless
both runs gave bit-identical answers. The last line of standard output is the JSON
result; everything else goes
to standard error. The exit code is non-zero, with no result printed, when the
build or a run fails, or when a run reports a threshold below a known tight value.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-d2", "serve-mix", "nested-d3")
# A run must end within 180 s once the binary is built; keep a margin for exit.
RUN_LIMIT_S = 172.0


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    # Not --locked: the dependencies are path dependencies only, so cargo may
    # refresh the lock file offline when the crates' own dependencies change.
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    return target, os.path.join(target, "release", "diffbench")


def run_child(binary, args, seconds, traced, spans, deadline):
    """Runs one workload process for `seconds` and returns its parsed result line."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds)]
    if traced:
        command += ["--traced", "--trace-out", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left for the traced run")
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S:.0f} s")
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {child.returncode}")
    return json.loads(lines[-1])


def compare_answers(plain, traced):
    """Traced and untraced answers must be bit-identical; pivots should repeat."""
    same = True
    if len(plain["answers"]) != len(traced["answers"]):
        print("error: the traced run sent a different number of requests", file=sys.stderr)
        return False
    for a, b in zip(plain["answers"], traced["answers"]):
        id_a, bits_a, pivots_a = a.replace("=", "/").split("/")
        id_b, bits_b, pivots_b = b.replace("=", "/").split("/")
        if (id_a, bits_a) != (id_b, bits_b):
            print(f"error: tracing changed the answer: {a} vs {b}", file=sys.stderr)
            same = False
        elif pivots_a != pivots_b:
            print(f"warning: {id_a}: pivots {pivots_a} untraced vs {pivots_b} traced",
                  file=sys.stderr)
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", default=1, type=int)
    parser.add_argument("--seconds", default=45.0, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    target, binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace == 0:
        plain = run_child(binary, args, args.seconds, False, None, deadline)
        result = {key: plain[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        plain = run_child(binary, args, args.seconds / 2, False, None, deadline)
        spans = os.path.join(target, f"diffbench-{args.workload}-spans.jsonl")
        traced = run_child(binary, args, args.seconds / 2, True, spans, deadline)
        metrics = dict(traced["metrics"])
        traced_cpu = metrics.pop("cpu_s")["value"]
        plain_cpu = plain["metrics"]["cpu_s"]["value"]
        metrics["trace.overhead_frac"] = {
            "value": (traced_cpu - plain_cpu) / plain_cpu, "unit": "ratio"}
        result = {
            "correct": plain["correct"] and traced["correct"] and compare_answers(plain, traced),
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics,
        }
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as declared:
        kind = "per_layer" if args.trace else "end_to_end"
        expected = {metric["name"] for metric in json.load(declared)[kind]}
    if set(result["metrics"]) != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ expected)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

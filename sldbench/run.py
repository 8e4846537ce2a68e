#!/usr/bin/env python3
"""One sldbench run: build sld and the benchmark programs, measure, print one JSON line.

Run from the root of the repository:

    python3 sldbench/run.py --workload serve-zipf --seed 7 --seconds 10 --trace 0

--trace 0 runs the end-to-end client (sldbench/e2e) against the release
`sld --tcp` and prints the end-to-end metrics. --trace 1 runs the same
end-to-end measurement, then the traced in-process replay
(sldbench/trace) of the requests it sent, and prints the per-layer
metrics: work counts from the daemon's `stats` deltas plus self times
from the replay's spans. The last line of standard output is the result
object; everything before it is diagnostics. Builds go to
$CARGO_TARGET_DIR (default .bench_build), run files to its sldbench/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("solve-cold", "serve-zipf", "monitor-journal")
# A closed loop on one connection never runs client and daemon at once.
# Sharing one CPU makes every hand-off a local context switch; split
# over two vCPUs, every reply waits for a cross-CPU wake-up that the
# hypervisor delays under host steal. Alternating runs on serve-zipf
# under 1-15% steal: one CPU gave 35% more throughput, a quarter lower
# p50 and about half the run-to-run spread of p50 and p99. solve-cold's
# two connections need both cores.
ONE_CPU = ("serve-zipf", "monitor-journal")
BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
# The whole run, builds excluded, must end well inside three minutes.
RUN_BUDGET_S = 170


def fail(message):
    print(f"sldbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, env, timeout, capture, cpus=None):
    """Runs cmd in its own process group, on `cpus` when given (the
    daemon it spawns inherits them); on timeout or error the whole group
    (the client and the daemon it spawned) is killed and reaped."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    try:
        code, _ = run_group(cmd, env, timeout=880, capture=False)
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    if code != 0:
        fail("build failed: " + " ".join(cmd))


def last_json(stdout, what):
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{what} printed no result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "service"))):
        fail("run from the repository root: there is no workspace here to build sld from")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["--manifest-path", "Cargo.toml", "-p", "sl-service", "--bin", "sld"], env)
    build(["--manifest-path", os.path.join(BENCH_DIR, "e2e", "Cargo.toml")], env)
    if args.trace:
        build(["--manifest-path", os.path.join(BENCH_DIR, "trace", "Cargo.toml")], env)

    started = time.monotonic()
    release = os.path.join(target, "release")
    work = os.path.join(target, "sldbench")
    os.makedirs(work, exist_ok=True)
    record = os.path.join(work, f"record-{args.workload}.txt")
    cmd = [
        os.path.join(release, "sldbench-e2e"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--sld", os.path.join(release, "sld"),
        "--work", work,
    ]
    if args.trace:
        cmd += ["--record", record]
    cpus = sorted(os.sched_getaffinity(0))
    pin = {cpus[-1]} if args.workload in ONE_CPU and len(cpus) > 1 else None
    print(f"client and daemon on cpus {sorted(pin or cpus)}")
    try:
        code, out = run_group(cmd, env, timeout=RUN_BUDGET_S, capture=True, cpus=pin)
    except subprocess.TimeoutExpired:
        fail("the end-to-end run timed out")
    if code != 0:
        fail(f"the end-to-end run failed with exit code {code}")
    e2e = last_json(out, "the end-to-end client")
    for name in e2e.get("missing", []):
        print(f"missing stats field for {name}")

    result = {"correct": e2e["correct"], "attempted": e2e["attempted"], "failed": e2e["failed"]}
    if not args.trace:
        result["metrics"] = e2e["metrics"]
    else:
        left = RUN_BUDGET_S - (time.monotonic() - started)
        cmd = [os.path.join(release, "sldbench-trace"), "--record", record, "--work", work]
        try:
            code, out = run_group(cmd, env, timeout=max(left, 1), capture=True)
        except subprocess.TimeoutExpired:
            fail("the traced replay timed out")
        if code != 0:
            fail(f"the traced replay failed with exit code {code}")
        traced = last_json(out, "the traced replay")
        result["correct"] = result["correct"] and traced["correct"]
        result["metrics"] = {**e2e["layers"], **traced["metrics"]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()

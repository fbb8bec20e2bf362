#!/usr/bin/env python3
"""Builds the benchmark and the `octree` daemons from source, then runs one
workload and prints its metrics; the last line is the JSON result.

    python3 perfbench/run.py --workload build|stream|serve \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Build outputs go to $CARGO_TARGET_DIR
(default `.bench_build`); the daemons' scratch files go under it too and are
removed afterwards. The metric names printed must match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("build", "stream", "serve")
# Longest a workload may run after the build, inside the 180 s a run gets.
RUN_TIMEOUT_S = 160


def stop_group(proc):
    """Kills the workload's process group and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cargo_build(args, target):
    """Builds quietly; cargo's own output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if result.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def expected_names(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "Cargo.toml")):
        fail("run from the repository root")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(["--manifest-path", "Cargo.toml", "--bin", "octree"], target)
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target)

    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    # The workload starts daemons; a new session puts them all in one
    # process group, so a timeout can stop every one of them.
    proc = subprocess.Popen(
        [
            os.path.join(target, "release", "perfbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--octree", os.path.join(target, "release", "octree"),
            "--work", work,
        ],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("the workload did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = subprocess.CompletedProcess(proc.args, proc.returncode, stdout)
    lines = result.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if result.returncode != 0:
        fail(f"the workload exited with code {result.returncode}")
    try:
        last = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the workload printed no result")
    want = expected_names(args.trace == "1")
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, want {sorted(want)}")
    print(lines[-1])


if __name__ == "__main__":
    main()

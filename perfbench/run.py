#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rollout|inverse|serve \
        --seed N --seconds S --trace 0|1

Builds the repository's libraries and the `perfbench` binary from source
into .bench_build (Release, the shipped configuration), then runs one
workload. The binary's last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}. Build output goes to
.bench_build/build.log, never to standard output.

The result is checked against BENCHMARK.json before it is printed: with
--trace 0 it must hold every end_to_end metric, finite, positive and in its
unit; with --trace 1 every per_layer metric the workload measured must be
finite and in its unit. A per_layer metric of a layer the workload does not
run is reported as 0 (and named on standard error).

Exits non-zero without a result when the repository sources are missing,
when the build fails, or when the run fails or overruns. The binary itself
refuses (exit code 2) to measure anything but the shipped configuration.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

WORKLOADS = ("rollout", "inverse", "serve")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds the benchmark target (incremental)."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if done.returncode != 0:
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, otherwise a digest
    of the measured sources (src/, the root CMakeLists.txt, perfbench/)."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def checked_result(line, trace):
    """The binary's result line, checked against the manifest's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the run printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    wanted = manifest["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    extra = set(result["metrics"]) - names
    if extra:
        fail(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    not_run = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} missing")
            not_run.append(m["name"])
            result["metrics"][m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        value = got["value"]
        if got["unit"] != m["unit"] or not math.isfinite(value) or (
                not trace and value <= 0):
            fail(f"metric {m['name']} = {value} {got['unit']} is not a "
                 f"finite{'' if trace else ' positive'} value in {m['unit']}")
    if not_run:
        print(f"perfbench: layers not run by this workload, reported as 0: "
              f"{', '.join(not_run)}", file=sys.stderr)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", code=2)
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"repository source '{needed}' not found under {ROOT}")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--commit", source_id()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0:
        code = proc.returncode
        fail(f"run failed with exit code {code}", code=code if code > 0 else 1)
    result = checked_result(lines[-1] if lines else "", args.trace)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the apv benchmark for one workload.

    python3 apvbench/run.py --workload p2p|stencil|surge_lb|collectives \\
        --seed N --seconds S --trace 0|1
    python3 apvbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree. The runtime libraries under src/ and
the benchmark under apvbench/ are built (RelWithDebInfo, no sanitizer, no
extra flags) into $CARGO_TARGET_DIR/apvbench, default .bench_build/apvbench,
then the workload runs in its own process so that a crash counts as failed
ops instead of losing the result. The metric names, units and
better-directions live in BENCHMARK.json: --trace 0 prints its end_to_end
metrics, --trace 1 its per_layer metrics. Everything else the run measured,
plus the configuration, goes to <build dir>/results/; the first traced
rep's spans go there too, as Chrome trace-event JSON.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--workload all runs every workload untraced and then traced, and keys each
metric by "<workload>.<metric>".
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("p2p", "stencil", "surge_lb", "collectives")
BUILD_TYPE = "RelWithDebInfo"
TIME_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("apvbench: " + msg)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no apv sources (src/CMakeLists.txt) next to apvbench/")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir, *gen,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE, "-DCMAKE_CXX_FLAGS=",
               "-DCMAKE_EXE_LINKER_FLAGS="]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    with open(cache) as f:
        if "fsanitize" in f.read():
            fail("refusing to time a sanitizer build (" + build_dir + ")")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "apvbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "apvbench")


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for d, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1-" + h.hexdigest()


def run_workload(exe, out_dir, commit, spec, workload, seed, seconds, trace,
                 deadline):
    """Runs one workload process; returns the contract result dict."""
    cmd =[exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir, "--commit", commit]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout)
        lines = r.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        status = "exit code %d" % r.returncode
    except subprocess.TimeoutExpired:
        result, status = None, "timed out after %.0f s" % timeout
    except json.JSONDecodeError:
        result, status = None, "unparsable result"
    if result is None:
        # The workload process died: every op it owed counts as failed.
        log("apvbench: %s run failed (%s)" % (workload, status))
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": bool(result["correct"]) and r.returncode == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "apvbench")
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    commit = source_id()

    if args.workload != "all":
        # The limit covers the run only: a cold build may take minutes.
        result = run_workload(exe, out_dir, commit, spec, args.workload,
                              args.seed, args.seconds, args.trace,
                              time.monotonic() + TIME_LIMIT_S)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                one = run_workload(exe, out_dir, commit, spec, workload,
                                   args.seed, args.seconds, trace,
                                   time.monotonic() + TIME_LIMIT_S)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, m in one["metrics"].items():
                    result["metrics"][workload + "." + name] = m
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload recommend_unseen --seed 1 \
        --seconds 10 --trace 0

The harness (perfbench/harness, built against ../src with CMake) prints a
report and, as its last stdout line, the result object
{"correct", "attempted", "failed", "metrics"}. This wrapper checks that
object against BENCHMARK.json and re-prints it as its own last line, or
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_table4", "recommend_unseen", "serve_socket")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the harness; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed: " + " ".join(cmd))
                sys.exit(3)
    return os.path.join(out, "perfbench")


def revision():
    """The git revision, or a hash of the product sources outside git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("product sources (src/) not found next to perfbench/")
        sys.exit(2)
    expected = expected_metrics(args.trace)
    binary = build()

    # Product defaults only: no kernel / router / placer overrides, and a
    # cache directory the harness controls.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("INSIGHTALIGN_")}
    cache = os.path.join(build_dir(), "cold")
    os.makedirs(cache, exist_ok=True)
    env["INSIGHTALIGN_CACHE_DIR"] = cache
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result object")
        sys.exit(1)
    metrics = result["metrics"]
    unlisted = sorted(k for k, v in metrics.items()
                      if expected.get(k) != v["unit"])
    if unlisted:
        log(f"metrics not in BENCHMARK.json (or with another unit): {unlisted}")
        sys.exit(1)
    missing = sorted(set(expected) - set(metrics))
    if missing and not args.trace:
        log(f"end-to-end metrics not measured: {missing}")
        sys.exit(1)
    # A layer the workload does not exercise reads 0 (e.g. flow.* on
    # serve_socket).
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    result["metrics"] = {name: metrics[name] for name in expected}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

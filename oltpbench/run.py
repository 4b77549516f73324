#!/usr/bin/env python3
"""Build and run one OLTP benchmark run from the root of a source tree.

    python3 oltpbench/run.py --workload tm1|tpcb|flash-sale --seed N \
        --seconds S --trace 0|1

Builds oltpbench/ (engine sources from src/) under .bench_build/oltpbench,
or under $CARGO_TARGET_DIR/oltpbench when that is set, runs the statistics
self-test, then one measured run. The run's full report (provenance,
per-sub-window series, engine counters and, with --trace 1, spans) goes to
.bench_out/; the last line of standard output is the result as JSON.
Exits non-zero without a result when anything fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tm1", "tpcb", "flash-sale")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """Run `cmd` to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, timeout=timeout, cwd=ROOT, **kwargs)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no engine sources (src/) next to oltpbench/")
        sys.exit(1)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "oltpbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = run(["cmake", "-S", os.path.join(ROOT, "oltpbench"), "-B",
                   build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S, stdout=sys.stderr)
        if cfg.returncode != 0:
            log("cmake configure failed")
            sys.exit(1)
    jobs = str(min(os.cpu_count() or 1, 4))
    res = run(["cmake", "--build", build_dir, "--parallel", jobs],
              BUILD_TIMEOUT_S, stdout=sys.stderr)
    if res.returncode != 0:
        log("build failed")
        sys.exit(1)
    return build_dir


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    digest = hashlib.sha256()
    for top in ("src", "oltpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"git:{commit} sources:{digest.hexdigest()[:16]}"


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {(m["name"], m["unit"]) for m in spec[key]}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if not 1 <= a.seconds <= 600 or a.seed < 0:
        p.error("--seconds must be 1..600 and --seed non-negative")

    build_dir = build()
    selftest = run([os.path.join(build_dir, "oltpbench_selftest")], 60)
    if selftest.returncode != 0:
        log("statistics self-test failed")
        sys.exit(1)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(
        out_dir, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    res = run([os.path.join(build_dir, "oltpbench"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--out", report, "--source-id", source_id()],
              RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(f"benchmark exited with {res.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    got = {(k, v["unit"]) for k, v in result["metrics"].items()}
    want = declared_metrics(a.trace)
    if got != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}"
            f", undeclared {sorted(got - want)}")
        sys.exit(1)
    log(f"report: {os.path.relpath(report, ROOT)}")
    print(lines[-1])


if __name__ == "__main__":
    main()

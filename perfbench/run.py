#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--rates R1,R2,...] [--slo-ms MS] [--max-gen-lag-ms MS] \
        [--slab-budget-bytes B]

BENCHMARK.json names dense_b32 and unet_b32.  serve_mix, the open-loop fleet
workload, runs by hand only (its latency does not repeat on a shared host);
the serving flags apply to it alone and default to the values it was tuned
with.

Run from the root of a checkout.  The first run configures and builds the
repository's libraries plus the perfbench binary under .bench_build/ (CMake,
Release); later runs rebuild incrementally.  Prints every metric by name with
its unit, the run's checks and provenance, and as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
(--trace 0) report the end-to-end metrics of BENCHMARK.json, traced runs
(--trace 1) the per-layer metrics.  Exit code 0: outputs correct; 1: a
correctness check failed (the result is still printed); 2: the benchmark
could not run (no result printed).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY_DIR = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("dense_b32", "unet_b32", "serve_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--rates", default="4000,8000,12000,16000",
                   help="serve_mix rate ladder, requests/s, ascending")
    p.add_argument("--slo-ms", default=20.0, type=float, help="serve_mix latency limit")
    p.add_argument("--max-gen-lag-ms", default=10.0, type=float,
                   help="serve_mix bound on the generator's lateness tail")
    p.add_argument("--slab-budget-bytes", default=40960, type=int,
                   help="serve_mix per-model slab cap passed to compile")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def build():
    """Configures (once) and builds the perfbench target; logs go to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT} (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BINARY_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BINARY_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                shutil.rmtree(BINARY_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", str(BINARY_DIR), "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")
    return BINARY_DIR / "perfbench"


def source_digest():
    """SHA-256 over the sources the benchmark builds (paths and contents)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none (not a git checkout)"
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return rev.stdout.strip() + ("+dirty" if dirty else "")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    args = parse_args()
    started = time.monotonic()
    binary = build()
    build_s = time.monotonic() - started

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = results / f"{stem}.json"
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.spans.json")]
    if args.workload == "serve_mix":
        cmd += ["--rates", args.rates, "--slo-ms", repr(args.slo_ms),
                "--max-gen-lag-ms", repr(args.max_gen_lag_ms),
                "--slab-budget-bytes", str(args.slab_budget_bytes)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.is_file():
        fail(f"benchmark binary failed (exit code {proc.returncode})")
    result = json.loads(out.read_text())

    # Provenance the binary cannot see, stamped into the result file.
    prov = result["provenance"]
    prov["git_commit"] = git_commit()
    prov["source_sha256"] = source_digest()
    prov["run_seconds"] = repr(args.seconds)
    prov["build_seconds"] = f"{build_s:.1f}"
    if args.workload == "serve_mix":
        prov["max_gen_lag_ms"] = repr(args.max_gen_lag_ms)
    out.write_text(json.dumps(result, indent=2) + "\n")

    # The metric set must be exactly BENCHMARK.json's, with the same units.
    wanted = expected_metrics(args.trace)
    got = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    extra = sorted(set(got) - {m["name"] for m in wanted})
    wrong_unit = [m["name"] for m in wanted if m["name"] in got and got[m["name"]]["unit"] != m["unit"]]
    if missing or extra or wrong_unit:
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit mismatch {wrong_unit}")
    bad = [m["name"] for m in wanted if got[m["name"]]["value"] is None]
    if bad:
        fail(f"non-finite metric values: {bad}")

    for key, value in prov.items():
        print(f"# {key}: {value}")
    for check in result["checks"]:
        status = "ok" if check["ok"] else ("FAILED" if check["gate"] else "not met")
        print(f"check {check['name']}: {status} - {check['detail']}")
    for m in wanted:
        print(f"{m['name']} = {got[m['name']]['value']:.6g} {m['unit']}")
    if not args.trace:
        attempted = result["attempted"]
        print(f"failed_frac = {result['failed'] / attempted:.6g} frac")
    print(f"# result file: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: got[m["name"]] for m in wanted},
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

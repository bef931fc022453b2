#!/usr/bin/env python3
"""Wall-clock serving benchmark of the iiu workspace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload zipf_light_mmap --seed 1 --seconds 10 --trace 0

It builds `perfbench/` (a Cargo package of its own) in release mode,
generates the workload's inputs from the seed, and measures them in a
separate process: untraced for the end-to-end metrics (`--trace 0`), or
traced for the per-layer metrics (`--trace 1`). The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; the metric names are those listed in `BENCHMARK.json`.
The full report (every metric with its unit, sample count and base, the
input properties and where the result came from) is printed above it.

Exit status: 0 when every answer was right, 1 on a wrong answer or a
failed operation, 2 when the sources or the build are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("zipf_light_mmap", "heavy_mixed_heap", "live_ingest")
# Budget for everything after the build: a run must end within 180 s.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0
WORK_ROOT = ".bench_work"


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(cmd, deadline, env=None, capture=True):
    """Runs cmd until it exits or the deadline passes; returns (rc, stdout)."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        env=env,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} {cmd[1]} ran past its time budget", 1)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out or ""


def source_digest():
    """SHA-256 over the sources the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if os.path.isfile(path):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(args):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = None
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "kernel": platform.release(),
        "rustc": rustc,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    started = time.monotonic()

    manifest = os.path.join("perfbench", "Cargo.toml")
    if not (os.path.isfile(manifest) and os.path.isdir("crates") and os.path.isfile("Cargo.toml")):
        fail("run from the root of a source checkout (perfbench/ and crates/ not found)")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    rc, _ = run_child(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        started + BUILD_BUDGET_S,
        env=env,
        capture=False,
    )
    if rc != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S

    print("provenance " + json.dumps(provenance(args)), flush=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        common = ["--workload", args.workload, "--dir", work]
        rc, out = run_child(
            [exe, "gen", "--seed", str(args.seed), "--seconds", str(args.seconds)] + common,
            deadline,
        )
        print(out, end="", flush=True)
        if rc != 0:
            fail("input generation failed", 1)
        rc, out = run_child([exe, "trace" if args.trace else "serve"] + common, deadline)
        spans = os.path.join(work, "trace.tsv")
        if os.path.isfile(spans):
            # Keep the latest span dump per workload for inspection.
            os.replace(spans, os.path.join(WORK_ROOT, f"trace-{args.workload}.tsv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail("the measurement printed no result", 1)
    print("report " + json.dumps(result["report"]), flush=True)
    report = result["report"]["metrics"]
    metrics, missing = {}, []
    for m in wanted:
        got = report.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        fail(f"metrics missing, without a value or in another unit: {', '.join(missing)}", 1)
    correct = bool(result["correct"]) and rc == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

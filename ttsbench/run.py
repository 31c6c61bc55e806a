#!/usr/bin/env python3
"""Time-to-tolerance benchmark for asyrgs: build, run one workload, report.

Run from the repository root:

  python3 ttsbench/run.py --workload gram_tts --seed 1 --seconds 30 --trace 0
  python3 ttsbench/run.py --self-check

The first call configures and builds ttsbench/ (the asyrgs library from
src/ plus tts_bench.cpp) in $CARGO_TARGET_DIR, default
.bench_build.  Each run prints the full record (host and input fingerprint,
every metric with its sample count, span totals) as one JSON line, then the
result line: the end-to-end metrics BENCHMARK.json names with --trace 0, its
per-layer metrics with --trace 1.  --out FILE also appends the record to
FILE, which compare.py reads.

--self-check runs every workload at smoke size in both modes and fails
unless every metric BENCHMARK.json names is emitted with its unit and every
solve verifies.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s once the program is built.
TIME_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build tts_bench; returns its path or None on failure."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
             "--target", "tts_bench"],
        ]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return None
    exe = os.path.join(build_dir, "tts_bench")
    return exe if os.path.exists(exe) else None


def source_digest(root):
    """sha256 over the library and benchmark sources, for the fingerprint."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_program(exe, workload, seed, seconds, trace, smoke, deadline):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"tts_bench exited with {proc.returncode}")
    return json.loads(lines[-1])


def select(record, spec, trace):
    """The metrics BENCHMARK.json names for this mode, checked for presence,
    unit and a finite value.  Raises on any mismatch."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"metric {m['name']} not emitted")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} has unit {got['unit']}, "
                               f"BENCHMARK.json says {m['unit']}")
        if not math.isfinite(got["value"]):
            raise RuntimeError(f"metric {m['name']} is not finite")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def self_check(exe, spec, deadline):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            record = run_program(exe, w["name"], 1, 1, trace, True, deadline)
            try:
                select(record, spec, trace)
            except RuntimeError as e:
                log(f"self-check: {w['name']} trace={trace}: {e}")
                ok = False
            if record["failed"] != 0 or record["attempted"] < 1:
                log(f"self-check: {w['name']} trace={trace}: "
                    f"{record['failed']} of {record['attempted']} failed")
                ok = False
    log("self-check " + ("passed" if ok else "FAILED"))
    return ok


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measurement window; default run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; figures are not comparable")
    p.add_argument("--out", help="append the full record to this file")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.abspath(build_dir))
    if exe is None:
        log("build failed")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.self_check:
        return 0 if self_check(exe, spec, deadline) else 1
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    record = run_program(exe, args.workload, args.seed, args.seconds,
                        args.trace, args.smoke, deadline)
    metrics = select(record, spec, args.trace)
    record["host"]["git_rev"] = git_rev(root)
    record["host"]["source_sha256"] = source_digest(root)
    record["fail_rate"] = record["failed"] / record["attempted"]
    record["total_s"] = time.monotonic() - start
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a") as f:
            f.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": record["failed"] == 0 and record["attempted"] >= 1,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

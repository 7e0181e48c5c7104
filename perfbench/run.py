#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (and the arccd daemon)
from source into .bench_build/perfbench, then runs one workload.  The
last line of standard output is the result object; everything else on
stdout is the environment stamp and notes.  Build output goes to stderr.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"
WORKLOADS = ("figsweep", "scrub_rw", "fleet", "arccd")
RUN_TIMEOUT_S = 170


def source_digest():
    """Digest of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    files.append(ROOT / "examples" / "arccd.cpp")
    for p in sorted(files):
        if p.suffix in (".cc", ".hh", ".cpp", ".txt", ".py") and p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    """Configure (once) and build; False when the sources are missing
    or the build fails."""
    if not (ROOT / "src").is_dir() or not (ROOT / "examples").is_dir():
        print("perfbench: no library sources next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not (ROOT / BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench",
                  "arccd"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout + r.stderr)
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait until
    it is gone (the daemon of an aborted arccd run, for instance)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("need --seed >= 0 and 0 < --seconds <= 600")

    os.chdir(ROOT)
    if not build():
        return 2
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--arccd", str(BUILD / "arccd"),
           "--work-dir", str(BUILD / "work"), "--rev", git_rev(),
           "--src-digest", source_digest()]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 3
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Write the performance ledger BENCH_<pr>.json from perfbench.

    python3 tools/perf_ledger.py PR

Run from anywhere inside the repository.  Runs perfbench/run.py for
every workload, on seeds 1 and 2013, untraced (--trace 0: the
end-to-end metrics) and traced (--trace 1: the per-layer metrics),
each over BENCHMARK.json's run_seconds window, one run at a time.
Writes BENCH_<PR>.json at the repository root: the git revision, the
environment stamp perfbench prints, and each run's correct, attempted,
failed and metrics.  Exits 1 when any run fails (a nonzero exit, no
result line, a failed operation or a wrong output), after writing the
ledger with that run's exit code in it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2013)
TRACES = (0, 1)


def git(*args):
    r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def run(workload, seed, trace, seconds):
    """One perfbench run: (exit code, env stamp, result object)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    env, result = None, None
    lines = r.stdout.splitlines()
    for line in lines:
        if line.startswith("env "):
            env = json.loads(line[len("env "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return r.returncode, env, result


def main():
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        print("usage: perf_ledger.py PR", file=sys.stderr)
        return 2
    pr = int(sys.argv[1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs, stamps, ok = [], [], True
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            for trace in TRACES:
                code, env, result = run(workload, seed, trace, seconds)
                entry = {"workload": workload, "seed": seed,
                         "trace": trace, "exit": code}
                if result is not None:
                    entry.update({k: result[k] for k in
                                  ("correct", "attempted", "failed")})
                    entry["metrics"] = {
                        name: m["value"]
                        for name, m in result["metrics"].items()}
                good = (code == 0 and result is not None and
                        result["correct"] and result["failed"] == 0)
                ok = ok and good
                print("%-8s seed %4d trace %d: %s" %
                      (workload, seed, trace, "ok" if good else "FAILED"),
                      file=sys.stderr)
                runs.append(entry)
                stamps.append((entry, env or {}))

    # The stamp fields every run shares go to the top; a run keeps the
    # ones that differ (the engine width differs per workload).
    common = dict(stamps[0][1])
    for _, env in stamps[1:]:
        common = {k: v for k, v in common.items() if env.get(k) == v}
    for entry, env in stamps:
        own = {k: v for k, v in env.items() if k not in common}
        if own:
            entry["env"] = own

    ledger = {
        "pr": pr,
        "rev": git("rev-parse", "HEAD"),
        # Tracked files differ from the revision (untracked ones, such
        # as this script copied into an older checkout, do not count).
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "run_seconds": seconds,
        "env": common,
        "runs": runs,
    }
    out = ROOT / ("BENCH_%d.json" % pr)
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print("wrote %s" % out, file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: independent sets of benchmark runs, side by side against the bounds.

Usage (from the root of a checkout):
    python3 perfbench/steadiness.py [--workloads a,b] [--json OUT]

Each of SETS sets runs the benchmark once per seed (seeds 1..SEEDS in set 1,
SEEDS+1..2*SEEDS in set 2) on every workload with tracing off.  For every
end-to-end metric it reports each set's median and spread (distance between
the first and third quartile over the median, as statistics.quantiles(n=4)
gives them), and the change of each set's median against set 1, next to the
metric's bound from BENCHMARK.json.  A spread at or above the bound, or a
median worse than set 1's by more than the bound, is marked FAIL.  With --json
it also records the machine (git sha, Python, CPU count) and one traced run
per workload (seed 1), the per-layer baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = 10  # runs per set and workload


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(metric: dict, base: float, value: float) -> float:
    """Relative change of value against base, positive when worse."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads")
    ap.add_argument("--json", help="write the table and raw values to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    raw = {w: [] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            seeds = range(s * SEEDS + 1, (s + 1) * SEEDS + 1)
            raw[w].append([run_once(w, seed, bench["run_seconds"]) for seed in seeds])
            print(f"set {s + 1} {w}: {SEEDS} runs done", file=sys.stderr, flush=True)

    ok = True
    rows = []
    print(f"{'workload':15s} {'metric':14s} {'bound':>6s} " + " ".join(
        f"{'median' + str(i + 1):>12s} {'spread' + str(i + 1):>8s} {'shift' + str(i + 1):>7s}"
        for i in range(SETS)) + "  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[run[name] for run in runs] for runs in raw[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            shifts = [worse_by(metric, medians[0], m) for m in medians]
            bad = any(sh > bound for sh in shifts) or any(sp >= bound for sp in spreads)
            ok = ok and not bad
            rows.append({"workload": w, "metric": name, "bound": bound, "medians": medians,
                         "spreads": spreads, "shifts": shifts, "ok": not bad})
            print(f"{w:15s} {name:14s} {bound:6.2f} " + " ".join(
                f"{m:12.5g} {sp:8.4f} {sh:+7.4f}" for m, sp, sh in zip(medians, spreads, shifts))
                + ("  FAIL" if bad else "  ok"))
    if args.json:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        machine = {"git_sha": git.stdout.strip() or "unknown", "python": platform.python_version(),
                   "nproc": os.cpu_count()}
        layers = {w: run_once(w, 1, bench["run_seconds"], trace=1) for w in workloads}
        with open(args.json, "w") as fh:
            json.dump({"machine": machine, "sets": SETS, "seeds_per_set": SEEDS,
                       "end_to_end": rows, "per_layer_seed1": layers, "raw": raw}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

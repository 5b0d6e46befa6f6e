"""The benchmark command.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a fixed schedule of rounds of the workload on the seed's inputs, each
round in a fresh interpreter, so the package's caches start cold as for every
`zlat` invocation.  A whole round runs every operation of the workload; a
prefix round stops before its costliest operations (they come last), so that
the many cheaper ones get more samples; cold census builds run in their own
interpreters between the rounds.  The schedule depends on the workload and S
only, never on how fast the code under test is (see `schedule`).

Every time is scaled by the host's speed measured next to it (calib.py) and
then summarised by medians: an operation's time is the median over the rounds
that ran it, op_p50_ms and op_p90_ms are Harrell-Davis quantiles of those
and ops_per_s is their number over their sum; solve_s is the median over the
whole rounds of a round's operation time, census_cold_s the Harrell-Davis
median of the census builds, setup_s the median set-up time of the rounds.

Prints every metric with its unit, then one JSON line {"correct", "attempted",
"failed", "metrics"}: the end-to-end metrics with --trace 0, or with --trace 1
the per-layer metrics of one more whole round, traced.  Exits 1 when an output
is wrong, 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("classification", "discr-sweep", "genus-large")
# Seconds of a run that one round of each kind stands for, set from the seed
# commit on the tuning host (2 shared cores).  They fix the schedule; they are
# never measured.  "census" is one cold census build in its own interpreter.
ROUND_COST_S = {
    "classification": {"whole": 9.5, "prefix": 2.4},
    "discr-sweep": {"whole": 1.15},
    "genus-large": {"whole": 4.2, "prefix": 2.5},
}
CENSUS_COST_S = 0.7
PREFIX_SHARE = {"classification": 0.4, "genus-large": 0.5}  # of the rounds' time
CENSUS_SAMPLES = 16  # cold census builds per run at least
CENSUS_FIRST = {"classification"}  # workloads whose rounds start with a cold census
GUARD = 1.1  # no round starts that would end after GUARD * seconds (a much slower host)
CHILD_TIMEOUT = 150
HD_STEPS = 32  # Simpson steps per order statistic in `quantile` (even)

sys.path.insert(0, HERE)
import calib  # noqa: E402
import tracer  # noqa: E402

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB", "solve_s": "s", "census_cold_s": "s"}


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def interleave(rounds: list[str], kind: str, n: int) -> list[str]:
    """The rounds with n rounds of another kind spread evenly after them."""
    out = []
    for i, r in enumerate(rounds):
        out.append(r)
        out += [kind] * ((i + 1) * n // len(rounds) - i * n // len(rounds))
    return out


def schedule(workload: str, seconds: float) -> list[str]:
    """The kinds of the rounds of a run, in order: fixed by workload and seconds."""
    cost = ROUND_COST_S[workload]
    if workload not in CENSUS_FIRST:
        seconds -= CENSUS_SAMPLES * CENSUS_COST_S
    share = PREFIX_SHARE.get(workload, 0)
    plan = ["whole"] * max(1, int((1 - share) * seconds / cost["whole"]))
    if share:
        plan = interleave(plan, "prefix", int(share * seconds / cost["prefix"]))
    census = CENSUS_SAMPLES - (len(plan) if workload in CENSUS_FIRST else 0)
    return interleave(plan, "census", max(0, census))


def child(args: list[str]) -> tuple[dict, float]:
    """Run one child in a fresh interpreter; returns (its record, its spawn time)."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"))
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"round {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all order
    statistics, with weights from the Beta((n+1)q, (n+1)(1-q)) distribution, so
    that it does not jump from one sample to the next as a single order
    statistic does."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    # weight of the i-th order statistic: the Beta mass on [i/n, (i+1)/n], by Simpson's rule
    weights = []
    for i in range(n):
        xs = [(i + k / HD_STEPS) / n for k in range(HD_STEPS + 1)]
        weights.append(sum((1 if k in (0, HD_STEPS) else 4 if k % 2 else 2) * density(x)
                           for k, x in enumerate(xs)))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    package = os.path.join(ROOT, "src", "zlat")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"no package to measure: {package} is missing", file=sys.stderr)
        return 2
    compileall.compile_dir(package, quiet=1)
    os.makedirs(OUT, exist_ok=True)

    plan = schedule(args.workload, args.seconds)
    started = time.perf_counter()
    rounds, builds, census, setups = [], [], [], []  # rounds as (kind, record); census builds
    for kind in plan:
        cost = ROUND_COST_S[args.workload].get(kind, CENSUS_COST_S)
        late = time.perf_counter() - started + cost > GUARD * args.seconds
        if late and any(k == "whole" for k, _ in rounds):
            break
        if kind == "census":
            rec = child(["classification", "0", "--census-only"])[0]
            census.append(calib.scaled(rec["times"], rec["probes"])[0])
            builds.append(rec)
            continue
        extra = ["--prefix"] if kind == "prefix" else []
        rec, spawned = child([args.workload, str(args.seed), *extra])
        rounds.append((kind, rec))
        setups.append(calib.scaled_setup(rec["first_op_at"] - spawned, rec["probes"]))
        if rec["kinds"][0] == "census":
            census.append(calib.scaled(rec["times"], rec["probes"])[0])
    whole = [rec for kind, rec in rounds if kind == "whole"]
    if any(rec["kinds"] != whole[0]["kinds"][:len(rec["kinds"])] for _kind, rec in rounds):
        raise RuntimeError("rounds on the same seed ran different operations")
    traced = []
    if args.trace:
        spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        traced.append(child([args.workload, str(args.seed), "--trace", spans])[0])
        with open(spans) as fh:
            traced[0]["layers"] = tracer.layer_table(json.load(fh))

    every = [rec for _kind, rec in rounds] + builds + traced
    outcomes = [o for r in every for o in r["outcomes"]]
    attempted, failed = len(outcomes), outcomes.count("failed")
    capped = outcomes.count("capped")
    correct = failed == 0 and all(r["round_ok"] for r in every)
    # each operation's time is the median over the rounds that ran it of its scaled times
    samples = [[] for _ in whole[0]["times"]]
    for _kind, rec in rounds:
        for i, t in enumerate(calib.scaled(rec["times"], rec["probes"])):
            samples[i].append(t)
    times = [statistics.median(ts) for ts in samples]

    # a whole round's operation time, scaled: the time to the complete job
    solve = statistics.median(sum(calib.scaled(r["times"], r["probes"])) for r in whole)

    if args.trace:
        metrics = dict(traced[0]["layers"])
        metrics["trace.overhead_frac"] = sum(calib.scaled(traced[0]["times"], traced[0]["probes"])) / solve - 1
        units = {name: layer_units(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1000 * quantile(times, 0.5),
            "op_p90_ms": 1000 * quantile(times, 0.9),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in whole),
            "solve_s": solve,
            "census_cold_s": quantile(census, 0.5),
        }
        units = E2E_UNITS

    counts = {k: sum(1 for kind, _ in rounds if kind == k) for k in ("whole", "prefix")}
    print(f"workload {args.workload}  seed {args.seed}  rounds: {counts['whole']} whole, "
          f"{counts['prefix']} prefix{', 1 traced' if args.trace else ''}  "
          f"operations per round {len(times)}  samples per operation "
          f"{min(map(len, samples))}-{max(map(len, samples))}  cold census builds {len(census)}  "
          f"wall {time.perf_counter() - started:.1f} s")
    shares = whole[0]["shares"]
    if shares:
        print("population shares per round: "
              + ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items())))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    print(f"{'fail_frac':32s} {failed / attempted:14.6f} fraction ({failed}/{attempted})")
    print(f"{'capped_frac':32s} {capped / attempted:14.6f} fraction ({capped}/{attempted}, "
          "inputs refused by a documented size cap)")
    for r in every:
        for err in r["errors"]:
            print(f"MISMATCH {err}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

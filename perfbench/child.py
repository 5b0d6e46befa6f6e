"""One measured round of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED [--trace SPANS.json] [--prefix | --census-only]

Prints one JSON line: the monotonic clock reading at the first operation
(the parent subtracts its spawn time to get set-up time), per-operation
times and outcomes, the calibration steps timed around the operations (see
calib.py), the round's wall time without them, peak RSS and population shares.
With --trace the package's functions are wrapped and the spans written to
SPANS.json.  --prefix runs only the operations of a prefix round (see
ops.build); --census-only times one cold census build and nothing else.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import zlat  # noqa: E402  (the checkout's package, never an installed one)

if not os.path.abspath(zlat.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"zlat imported from {zlat.__file__}, not from this checkout")

from calib import PROBES, probe  # noqa: E402
import ops  # noqa: E402
import tracer as tracing  # noqa: E402


def run_round(workload: str, seed: int, prefix: bool, census_only: bool):
    if census_only:
        from zlat import classify
        return [("census", classify.enumerate_ascending_t_pairs)], None, {}
    return ops.build(workload, seed, prefix)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace")
    ap.add_argument("--prefix", action="store_true")
    ap.add_argument("--census-only", action="store_true")
    args = ap.parse_args()

    round_ops, final, shares = run_round(args.workload, args.seed, args.prefix, args.census_only)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    times, probes, kinds, outcomes, errors = [], [], [], [], []
    clock = time.perf_counter
    first = clock()

    def calibrate() -> None:
        for _ in range(PROBES):
            t0 = clock()
            probe()
            probes.append(clock() - t0)

    for kind, op in round_ops:
        calibrate()
        t0 = clock()
        try:
            op()
            outcome = "ok"
        except ops.Capped:
            outcome = "capped"
        except ops.Mismatch as e:
            outcome = "failed"
            errors.append(f"{kind}: {e}")
        except Exception:  # an op that raises counts as failed, with its traceback
            outcome = "failed"
            errors.append(f"{kind}: {traceback.format_exc(limit=3)}")
        times.append(clock() - t0)
        kinds.append(kind)
        outcomes.append(outcome)
    calibrate()
    wall = clock() - first - sum(probes)
    if tr is not None:
        tr.uninstall()
    round_ok = True
    if final is not None:
        try:
            final()
        except ops.Mismatch as e:
            round_ok = False
            errors.append(f"round: {e}")
    if tr is not None:
        with open(args.trace, "w") as fh:
            json.dump(tr.dump(), fh)
    print(json.dumps({
        "first_op_at": first, "wall_s": wall, "times": times, "probes": probes, "kinds": kinds,
        "outcomes": outcomes, "errors": errors[:20], "round_ok": round_ok,
        "shares": shares,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

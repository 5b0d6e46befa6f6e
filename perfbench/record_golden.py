"""Record the classification outputs the `classification` workload must reproduce.

Usage: python3 perfbench/record_golden.py

Writes perfbench/classification_golden.json: per census pair its reversion
partner and ID, and per table id the sha256 of the md, csv and json emission
and of the diff_golden report.  Run it only on a commit whose tables are
known good; the benchmark then requires byte-identical output.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402

if __name__ == "__main__":
    with open(ops.GOLDEN, "w") as fh:
        json.dump(ops.classification_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")

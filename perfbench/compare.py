"""Summarise or compare result records written by ``run.py``.

    python3 perfbench/compare.py RECORDS.jsonl              # one side
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl  # two sides

Records are grouped by workload and trace mode.  For each metric the
summary gives the median and the spread (distance between the first and
third quartile as a share of the median, the measure ``BENCHMARK.json``
bounds).  Two files are compared only when every record's machine
fingerprint agrees (``common.MACHINE_KEYS``): numbers from another core
count, SIMD tier, backend, shard executor or tuning source do not
compare.  Exit status 2 means the fingerprints differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import machine_part  # noqa: E402


def load(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def groups(records: list) -> dict:
    out: dict = {}
    for rec in records:
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def summary(values: list) -> "tuple[float, float]":
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def fingerprints(records: list) -> list:
    seen = []
    for rec in records:
        part = machine_part(rec["fingerprint"])
        if part not in seen:
            seen.append(part)
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two record files")
    sides = [load(path) for path in args.files]
    prints = [fingerprints(records) for records in sides]
    for path, fps in zip(args.files, prints):
        if len(fps) != 1:
            print(f"{path}: records from {len(fps)} different machines")
            return 2
    if len(sides) == 2 and prints[0] != prints[1]:
        print("fingerprints differ; refusing to compare")
        for path, fps in zip(args.files, prints):
            print(f"  {path}: {json.dumps(fps[0], sort_keys=True)}")
        return 2
    print("machine " + json.dumps(prints[0][0], sort_keys=True))
    grouped = [groups(records) for records in sides]
    for key in sorted(set().union(*grouped)):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        runs = [g.get(key, []) for g in grouped]
        names = sorted({m for rs in runs for r in rs for m in r["metrics"]})
        for name in names:
            cells = []
            for rs in runs:
                values = [r["metrics"][name] for r in rs if name in r["metrics"]]
                if values:
                    med, spread = summary(values)
                    cells.append(f"{med:>12.6g} ±{spread:6.1%} (n={len(values)})")
                else:
                    cells.append(f"{'-':>26}")
            line = f"  {name:<40}" + "  ".join(cells)
            if len(runs) == 2 and all(rs for rs in runs):
                a = statistics.median(r["metrics"][name] for r in runs[0])
                b = statistics.median(r["metrics"][name] for r in runs[1])
                if a:
                    line += f"  {b / a - 1:+7.1%}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {wire,serve-open,tree-build} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload half untraced and half traced and
prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every run also appends a record with the machine fingerprint to
``.bench_build/perfbench/results.jsonl`` (see ``compare.py``).

The native kernel extension is built in place first when missing; that
build is never timed.  A failed check exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("wire", "serve-open", "tree-build")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "questions_per_s": "1/s",
    "questions_per_target": "questions",
    "build_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.ensure_native_extension()
        common.import_path()
        from repro.core.kernels import HAS_NATIVE

        if not HAS_NATIVE:
            raise common.BenchError("the native kernel extension does not import")
        if args.workload == "wire":
            from perfbench import wire as workload
        elif args.workload == "serve-open":
            from perfbench import serve_open as workload
        else:
            from perfbench import tree_build as workload
        started = time.time()
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    from perfbench.ledger import PER_LAYER

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    fp = common.fingerprint()
    error_rate = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for line in result.get("ledger", ()):
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<40} {error_rate:>14.6g} ratio")
    if "samples" in result:
        print("samples " + json.dumps(result["samples"], sort_keys=True))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "fingerprint": fp,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "error_rate": error_rate,
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    common.append_record(record)
    if args.trace and "spans" in result:
        out = common.OUT / f"spans-{args.workload}-{args.seed}.json"
        result["spans"].dump(out)
        print(f"spans written to {out.relative_to(common.ROOT)}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

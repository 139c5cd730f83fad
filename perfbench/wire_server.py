"""Traced ``repro serve`` for the ``wire`` workload's traced run.

    python3 perfbench/wire_server.py --spans OUT.json -- serve --port 0 ...

Installs the benchmark's span wrappers, then runs the CLI exactly as
``python -m repro`` would; once the server has drained (SIGTERM) it
writes the spans and the scheduler's ``EngineStats`` to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    common.import_path()
    from perfbench import spans
    from repro import cli

    rec = spans.Recorder()
    spans.install(rec)
    code = cli.main(cli_args)
    stats = rec.scheduler.stats if rec.scheduler is not None else None
    rec.dump(
        args.spans,
        extra={"engine_stats": dataclasses.asdict(stats) if stats else {}},
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

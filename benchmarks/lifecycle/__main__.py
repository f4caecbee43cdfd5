"""Lifecycle benchmark: ``python3 benchmarks/lifecycle/__main__.py``.

    --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--world-seed N]   one run
    --repeat N [--workload NAME] [--out FILE]    N fresh-process runs each
    --agree A.json B.json                        compare two --repeat sets

The last line of a single run is the JSON object the driver reads; the
exit status is non-zero when any checked output was wrong.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Run as a script from a bare checkout: nothing is installed, so the
# program (src/) and this package (the repository root) go on the path.
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


def main(argv: list[str] | None = None) -> int:
    from benchmarks.lifecycle import harness, metrics, report

    parser = argparse.ArgumentParser(prog="benchmarks/lifecycle", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7,
                        help="drives every request parameter and request order")
    parser.add_argument("--world-seed", type=int, default=metrics.WORLD_SEED,
                        help="seed of the world (fixed by default, see README)")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--out", type=Path, help="where --repeat writes its set")
    parser.add_argument("--agree", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.agree:
        return report.agree(*args.agree)
    if args.repeat:
        return report.repeat(args)
    if not args.workload:
        parser.error("--workload is required for a single run")
    return harness.main_run(args)


if __name__ == "__main__":
    sys.exit(main())

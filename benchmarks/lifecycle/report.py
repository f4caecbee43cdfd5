"""``--repeat`` and ``--agree``: run-to-run spread, and the comparison of
two sets of runs against the benchmark's own bounds."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from . import harness, metrics

TRAJECTORY = harness.HERE / "TRAJECTORY.jsonl"


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and the two spreads of one metric's runs."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3,
        "iqr_over_median": (q3 - q1) / median,
        "range_over_median": (max(values) - min(values)) / median,
    }


def _one_run(
    workload: str, seed: int, seconds: float, world_seed: int
) -> dict[str, Any]:
    """One fresh-process run; its driver line."""
    completed = subprocess.run(
        [sys.executable, str(harness.HERE / "__main__.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0",
         "--world-seed", str(world_seed)],
        capture_output=True, text=True, check=False,
    )
    if not completed.stdout.strip():
        raise RuntimeError(f"{workload} printed no result:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def repeat(args) -> int:
    """N fresh-process runs of each workload, seeds ``seed .. seed+N-1``
    as the driver varies them; prints the spread table, writes the set
    and appends one line to ``TRAJECTORY.jsonl``."""
    names = [args.workload] if args.workload else [w.name for w in metrics.WORKLOADS]
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for index in range(args.repeat):
        for name in names:
            line = _one_run(name, args.seed + index, args.seconds, args.world_seed)
            runs[name].append(line)
            print(f"# run {index + 1}/{args.repeat} {name}: "
                  + " ".join(
                      f"{key}={entry['value']:.4g}"
                      for key, entry in line["metrics"].items()
                  )
                  + f" failed={line['failed']}/{line['attempted']}", flush=True)
    table = {
        name: {
            metric.name: summarize(
                [line["metrics"][metric.name]["value"] for line in lines]
            )
            for metric in metrics.END_TO_END
        }
        for name, lines in runs.items()
    }
    failed = sum(line["failed"] for lines in runs.values() for line in lines)
    result = {
        "host": harness.host_fingerprint(), "seed": args.seed,
        "world_seed": args.world_seed,
        "seconds": args.seconds, "repeat": args.repeat,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "failed": failed, "summary": table, "runs": runs,
    }
    print_spread(table)
    out = args.out or harness.RESULTS / f"repeat-{result['finished']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    with TRAJECTORY.open("a", encoding="utf-8") as trajectory:
        trajectory.write(json.dumps({
            "finished": result["finished"], "commit": result["host"]["commit"],
            "repeat": args.repeat, "seed": args.seed, "failed": failed,
            "medians": {
                name: {key: row["median"] for key, row in rows.items()}
                for name, rows in table.items()
            },
        }) + "\n")
    print(f"# set written to {out}; {failed} failed operations")
    noisy = [
        (name, key) for name, rows in table.items() for key, row in rows.items()
        if row["iqr_over_median"] > metrics.END_TO_END_BY_NAME[key].bound
    ]
    for name, key in noisy:
        print(f"# TOO NOISY {key} on {name}: fix the measurement, not the bound")
    return 1 if failed or noisy else 0


def print_spread(table: dict[str, dict[str, dict[str, float]]]) -> None:
    print(f"{'workload':18s} {'metric':12s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'IQR/med':>8s} {'range/med':>9s} {'bound':>6s}")
    for name, rows in table.items():
        for key, row in rows.items():
            print(f"{name:18s} {key:12s} {row['median']:11.4f} {row['q1']:11.4f} "
                  f"{row['q3']:11.4f} {row['iqr_over_median']:8.4f} "
                  f"{row['range_over_median']:9.4f} "
                  f"{metrics.END_TO_END_BY_NAME[key].bound:6.2f}")


def agree(path_a: Path, path_b: Path) -> int:
    """Compare set B with set A per (metric, workload).

    ``regressed``: B's median is worse than A's by more than the bound.
    ``unresolved``: the spread of either set is wider than the bound, so
    "no worse" cannot be told — unless every run of B reads better than
    every run of A.  ``resolved``: neither.
    """
    set_a = json.loads(path_a.read_text(encoding="utf-8"))
    set_b = json.loads(path_b.read_text(encoding="utf-8"))
    verdicts = {"resolved": 0, "unresolved": 0, "regressed": 0}
    print(f"{'workload':18s} {'metric':12s} {'A median':>11s} {'B median':>11s} "
          f"{'B vs A':>8s} {'spread':>7s} {'bound':>6s} verdict")
    for name in set_a["runs"]:
        if name not in set_b["runs"]:
            continue
        for metric in metrics.END_TO_END:
            a = [line["metrics"][metric.name]["value"] for line in set_a["runs"][name]]
            b = [line["metrics"][metric.name]["value"] for line in set_b["runs"][name]]
            row_a, row_b = summarize(a), summarize(b)
            sign = 1.0 if metric.better == "lower" else -1.0
            worse_by = sign * (row_b["median"] - row_a["median"]) / row_a["median"]
            spread = max(row_a["iqr_over_median"], row_b["iqr_over_median"])
            all_better = (
                max(b) < min(a) if metric.better == "lower" else min(b) > max(a)
            )
            if worse_by > metric.bound:
                verdict = "regressed"
            elif spread > metric.bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "resolved"
            verdicts[verdict] += 1
            print(f"{name:18s} {metric.name:12s} {row_a['median']:11.4f} "
                  f"{row_b['median']:11.4f} {worse_by:+8.4f} {spread:7.4f} "
                  f"{metric.bound:6.2f} {verdict}")
    print("# " + ", ".join(f"{count} {verdict}" for verdict, count in verdicts.items()))
    return 1 if verdicts["unresolved"] or verdicts["regressed"] else 0

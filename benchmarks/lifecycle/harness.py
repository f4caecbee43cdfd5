"""One run of one workload: set-up, rounds, gates, the result line.

End-to-end numbers come from a pass with harness spans off.  With
``--trace 1`` the run makes a shorter untraced pass, repeats the workload
with spans on (driving each stage through its public function), runs
the per-layer probes, writes ``results/trace-<workload>.json`` and
reports the per-layer metrics instead, among them the overhead of the
traced pass against the untraced one.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from . import metrics, timing
from .spans import Recorder

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def host_fingerprint() -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` (KiB on Linux) of this process plus that of its
    largest child that has ended and been waited for — which is every
    child, see :func:`_stop_resource_tracker`."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _stop_resource_tracker() -> None:
    """``pack_store`` makes multiprocessing start its resource-tracker
    helper, which ends only when this process's end closes its pipe:
    after us, unwaited, and missing from ``RUSAGE_CHILDREN``.  The
    benchmark must stop and wait for every process it starts, and
    multiprocessing has no public call for that; ``_stop`` is what its
    own test suite uses.  Every segment is unlinked by now."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _rounds(workload, first: int, count: int) -> timing.Samples:
    samples: timing.Samples = []
    for index in range(first, first + count):
        with workload.rec.span("gc"):
            gc.collect()
        with workload.rec.span("round", index=index):
            samples.append(workload.collect(workload.round, index))
        with workload.rec.span("gates", index=index):
            workload.after_round(index)
    return samples


def run(
    name: str, seed: int, world_seed: int, seconds: float, trace: bool
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload.  Returns ``(driver line, full record)``."""
    from . import workloads

    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    recorder = Recorder(run_id=f"{name}-{seed}-{os.getpid()}")
    workload = workloads.CLASSES[name](seed, world_seed, scratch, recorder)
    rounds = metrics.rounds_for(name, seconds)
    executions = 1 if trace else metrics.WORKLOAD_BY_NAME[name].setup_executions
    if trace:
        rounds = max(2, rounds // 3)
    record: dict[str, Any] = {
        "workload": name, "seed": seed, "world_seed": world_seed,
        "seconds": seconds, "trace": trace,
        "host": host_fingerprint(), "rounds": rounds,
        "setup_executions": executions,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    try:
        recorder.enabled = trace
        traced_started = time.perf_counter()
        setup_samples: timing.Samples = []
        setup_wall = 0.0
        for execution in range(executions):
            gc.collect()
            started = time.perf_counter()
            with recorder.span("setup", execution=execution):
                setup_samples.append(workload.collect(workload.setup, execution))
            if execution == 0:
                setup_wall = time.perf_counter() - started
        with recorder.span("prepare"):
            workload.prepare()
        traced_wall = time.perf_counter() - traced_started

        recorder.enabled = False
        _rounds(workload, 0, 1)  # the untimed warm-up round
        untraced = timing.estimate(_rounds(workload, 1, rounds))
        setup_s = sum(s for _, s in timing.slot_minima(setup_samples))
        harness = {
            "harness.host_noise": untraced.host_noise,
            "harness.raw_op_p95_ms": untraced.raw_op_p95_ms,
            "harness.setup_wall_s": setup_wall,
            "harness.rounds": untraced.rounds,
        }
        if trace:
            recorder.enabled = True
            traced_started = time.perf_counter()
            traced = timing.estimate(_rounds(workload, 1 + rounds, rounds))
            with recorder.span("finish"):
                workload.finish()
            with recorder.span("probes"):
                workload.probes()
            traced_wall += time.perf_counter() - traced_started
            recorder.enabled = False
            harness["harness.trace_overhead_pct"] = 100.0 * (
                traced.round_s / untraced.round_s - 1.0
            )
            workload.layer["simnet.world_s"] = recorder.fastest("world")
            values = {**workload.layer, **harness}
            reported = {
                layer.name: float(values.get(layer.name, 0.0))
                for layer in metrics.PER_LAYER
            }
            record["span_coverage"] = recorder.coverage(traced_wall)
            record["self_time_s"] = recorder.self_time_by_name()
            recorder.write(
                RESULTS / f"trace-{name}.json",
                workload=name, seed=seed, host=record["host"],
                traced_wall_s=traced_wall, span_coverage=record["span_coverage"],
            )
        else:
            workload.finish()
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        _stop_resource_tracker()
    if not trace:
        reported = {
            "setup_s": setup_s,
            "round_s": untraced.round_s,
            "op_p50_ms": untraced.op_p50_ms,
            "op_p95_ms": untraced.op_p95_ms,
            "peak_rss_mb": peak_rss_mb(),
        }
    units = {m.name: m.unit for m in (*metrics.END_TO_END, *metrics.PER_LAYER)}
    line = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in reported.items()
        },
    }
    record.update(line, harness=harness, failures=workload.failures,
                  slots=untraced.slots, whole_rounds_s=untraced.whole_rounds,
                  slot_minima_ms=[[slot, 1000.0 * s] for slot, s in untraced.minima])
    return line, record


def print_record(record: dict[str, Any]) -> None:
    """Every metric by name, with unit and sample counts."""
    counts = (f"R={record['rounds']} slots={record['slots']} "
              f"set-ups={record['setup_executions']}")
    print(f"# {record['workload']} seed={record['seed']} "
          f"world-seed={record['world_seed']} {counts} "
          f"trace={int(record['trace'])}")
    for key, entry in record["metrics"].items():
        layer = metrics.PER_LAYER_BY_NAME.get(key)
        if layer is not None and record["workload"] not in layer.workloads:
            continue  # another workload's layer: reported to the driver as 0
        print(f"{key:34s} {entry['value']:>16.6f} {entry['unit']:6s} ({counts})")
    if not record["trace"]:
        for key, value in record["harness"].items():
            unit = metrics.PER_LAYER_BY_NAME[key].unit
            print(f"{key:34s} {value:>16.6f} {unit:6s} (unbounded)")
    else:
        print(f"# spans account for {100 * record['span_coverage']:.1f} % of the "
              f"traced wall time; largest self times:")
        for span_name, seconds in list(record["self_time_s"].items())[:8]:
            print(f"#   {span_name:32s} {seconds:10.3f} s")
    print(f"# operations: {record['failed']} failed of {record['attempted']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")


def main_run(args) -> int:
    line, record = run(args.workload, args.seed, args.world_seed, args.seconds,
                       bool(args.trace))
    print_record(record)
    suffix = "-trace" if args.trace else ""
    (RESULTS / f"last-{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1

"""Self-test of the lifecycle benchmark (not collected by tier-1).

    PYTHONPATH=src:. python -m pytest benchmarks/lifecycle/test_harness.py

The estimator tests are synthetic and instant.  The smoke tests run
every workload for a few seconds in a fresh process, as the driver does.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.lifecycle import metrics, queries, timing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MAIN = HERE / "__main__.py"
SMOKE_SECONDS = 5  # a warm-up round and two to four timed ones


# ---------------------------------------------------------------------------
# The estimator: the minimum hides the host, not a regression
# ---------------------------------------------------------------------------

ROUNDS, SLOTS = 12, 40


def synthetic_round(base: list[float], extra=lambda r, i: 0.0, r: int = 0):
    return [(f"slot-{i}", seconds + extra(r, i)) for i, seconds in enumerate(base)]


def synthetic_samples(base, extra=lambda r, i: 0.0):
    return [synthetic_round(base, extra, r) for r in range(ROUNDS)]


@pytest.fixture()
def base() -> list[float]:
    rng = random.Random(1)
    return [rng.choice((0.0004, 0.002, 0.044, 0.2, 0.6)) * rng.uniform(0.9, 1.1)
            for _ in range(SLOTS)]


@pytest.mark.parametrize("seed", range(5))
def test_stalls_in_30_percent_of_cells_move_nothing(base, seed):
    rng = random.Random(seed)
    stalled = {(r, i) for r in range(ROUNDS) for i in range(SLOTS)
               if rng.random() < 0.30}
    clean = timing.estimate(synthetic_samples(base))
    noisy = timing.estimate(synthetic_samples(
        base, lambda r, i: 0.150 if (r, i) in stalled else 0.0
    ))
    for field in ("round_s", "op_p50_ms", "op_p95_ms"):
        assert getattr(noisy, field) == pytest.approx(getattr(clean, field), rel=0.02)
    # ... while the unbounded companions show that the run was disturbed.
    assert noisy.host_noise > 1.2
    assert noisy.raw_op_p95_ms > clean.raw_op_p95_ms


def test_delay_on_every_occurrence_of_a_slot_is_reported_exactly(base):
    clean = timing.estimate(synthetic_samples(base))
    order = sorted(range(SLOTS), key=lambda i: base[i])
    tail_slot = order[math.ceil(0.95 * SLOTS) - 1]  # the slot op_p95 reads
    delay = 0.030
    slowed = timing.estimate(synthetic_samples(
        base, lambda r, i: delay if i == tail_slot else 0.0
    ))
    assert slowed.round_s == pytest.approx(clean.round_s + delay, rel=1e-9)
    assert slowed.op_p95_ms > clean.op_p95_ms
    head_slot = order[0]
    slowed_head = timing.estimate(synthetic_samples(
        base, lambda r, i: delay if i == head_slot else 0.0
    ))
    assert slowed_head.round_s == pytest.approx(clean.round_s + delay, rel=1e-9)


def test_rounds_must_replay_the_same_slots(base):
    samples = synthetic_samples(base)
    samples[3] = samples[3][:-1]
    with pytest.raises(ValueError):
        timing.estimate(samples)


def test_nearest_rank():
    values = [float(v) for v in range(1, 26)]
    assert timing.nearest_rank(values, 0.50) == 13.0
    assert timing.nearest_rank(values, 0.95) == 24.0  # second-slowest of 25
    assert timing.nearest_rank([float(v) for v in range(1, 38)], 0.95) == 36.0
    assert timing.nearest_rank([float(v) for v in range(1, 52)], 0.95) == 49.0


# ---------------------------------------------------------------------------
# Registry and BENCHMARK.json
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_registry():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == metrics.benchmark_json()


def test_registry_meets_the_contract():
    spec = metrics.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_prediction_names_a_real_metric_and_workload():
    for layer in metrics.PER_LAYER:
        assert set(layer.workloads) <= set(metrics.WORKLOAD_BY_NAME)
        for metric, workload in layer.moves:
            assert metric in metrics.END_TO_END_BY_NAME
            assert workload in metrics.WORKLOAD_BY_NAME


# ---------------------------------------------------------------------------
# Smoke runs, as the driver makes them
# ---------------------------------------------------------------------------


def drive(workload: str, seed: int, trace: int, *extra: str) -> tuple[int, dict]:
    completed = subprocess.run(
        [sys.executable, str(MAIN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=False,
    )
    assert completed.stdout.strip(), completed.stderr
    return completed.returncode, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("index,workload", enumerate(metrics.WORKLOAD_BY_NAME))
def test_smoke_end_to_end(index, workload):
    # Alternate seeds: the seed changes request parameters, never a name.
    code, line = drive(workload, seed=7 + 4 * (index % 2), trace=0)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(metrics.END_TO_END_BY_NAME)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == metrics.END_TO_END_BY_NAME[name].unit
        assert isinstance(entry["value"], float)
        assert math.isfinite(entry["value"]) and entry["value"] > 0


def test_smoke_on_a_second_world():
    code, line = drive("notebook_columnar", 7, 0, "--world-seed", "11")
    assert code == 0 and line["failed"] == 0


@pytest.mark.parametrize("workload", list(metrics.WORKLOAD_BY_NAME))
def test_smoke_traced(workload):
    code, line = drive(workload, seed=7, trace=1)
    assert code == 0 and line["failed"] == 0
    assert set(line["metrics"]) == set(metrics.PER_LAYER_BY_NAME)
    for name, entry in line["metrics"].items():
        layer = metrics.PER_LAYER_BY_NAME[name]
        assert entry["unit"] == layer.unit
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
        own_timing = workload in layer.workloads and layer.unit in ("s", "ms", "us")
        if own_timing and name != "server.http_floor_ms":
            assert entry["value"] > 0, name
    trace = json.loads(
        (HERE / "results" / f"trace-{workload}.json").read_text(encoding="utf-8")
    )
    assert abs(trace["span_coverage"] - 1.0) < 0.05
    assert {"id", "parent", "run", "name", "start", "end", "counts"} <= set(
        trace["spans"][0]
    )
    assert len({span["run"] for span in trace["spans"]}) == 1


def test_wrong_pinned_row_count_fails_the_run(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("lifecycle_main", MAIN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pins = queries.PINNED_ROWS[metrics.WORLD_SEED]
    monkeypatch.setitem(pins, "listing_1", pins["listing_1"] + 1)
    code = module.main(["--workload", "notebook_dict", "--seconds", str(SMOKE_SECONDS)])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False and line["failed"] > 0


# ---------------------------------------------------------------------------
# The seed drives request parameters, not names
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference():
    from repro.cypher import CypherEngine
    from repro.pipeline import build_iyp
    from repro.simnet import build_world

    world = build_world(metrics.world_config())
    iyp, _ = build_iyp(world, validate=False, analytics=False)
    return CypherEngine(iyp.store), world


def test_seed_changes_parameters_not_names(reference):
    engine, world = reference
    lap_a, lap_b = (queries.build_lap(engine, world, seed) for seed in (7, 8))
    assert [q.name for q in lap_a] == [q.name for q in lap_b]
    assert [q.text for q in lap_a] == [q.text for q in lap_b]
    assert [q.parameters for q in lap_a] != [q.parameters for q in lap_b]
    assert lap_a == queries.build_lap(engine, world, 7)  # same seed, same inputs
    mix_a, mix_b = (queries.build_http_mix(engine, world, seed) for seed in (7, 8))
    assert sorted(r.query.cls for r in mix_a) == sorted(r.query.cls for r in mix_b)
    assert [r.query.parameters for r in mix_a] != [r.query.parameters for r in mix_b]
    for mix in (mix_a, mix_b):
        assert sum(r.query.cls == "light" for r in mix) == 24
        assert sum(r.query.cls == "heavy" for r in mix) == 12
        assert sum(r.cached for r in mix) == 8
        assert len({r.slot for r in mix}) == len(mix)
        assert mix[0].query.cls == "light"

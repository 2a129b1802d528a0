"""Self-test of the benchmark harness (one to two minutes on two cores):

    python3 -m pytest -q perfbench/test_selftest.py

A very short run of every workload completes and reports every metric, and a
deliberately corrupted output is counted as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_library()
import workloads  # noqa: E402
from workloads import MEASURED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_reports_every_end_to_end_metric(name):
    res = _run("--workload", name, "--seed", "5", "--seconds", "0.1")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = _run("--workload", "choi-sweep", "--seed", "5", "--seconds", "0.1", "--trace", "1")
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = {k: v["value"] for k, v in res["metrics"].items()}
    assert layers["channel.diffusion_calls"] > 0 and layers["coupling.shift_calls"] > 0
    assert layers["three_qubit.objective_evals"] == 0
    spans = json.loads((HERE / "out" / "trace-choi-sweep-seed5.json").read_text())
    assert spans["absent"] == [] and spans["spans"]


def test_missing_name_is_absent_not_an_error(monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + (("numerics", "gone", "x.y", tracer.TALLY, None),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["numerics.gone"]


def test_speed_gauge_excludes_its_own_samples():
    import speed

    gauge = speed.SpeedGauge()
    gauge.begin()
    start = perf_counter()
    while perf_counter() - start < 4 * speed.INTERVAL_S:
        pass
    own, ref, kernel = gauge.end()
    wall = perf_counter() - start
    samples = gauge.samples
    assert len(samples) >= 2 and ref == pytest.approx(sum(samples) / len(samples))
    assert own == pytest.approx(wall - sum(samples), abs=0.01)
    assert 0 <= kernel < own
    assert speed.normalised(own, speed.NOMINAL_REF_S) == pytest.approx(own)
    assert speed.normalised(own, 2 * speed.NOMINAL_REF_S, kernel=own / 2) == pytest.approx(0.75 * own)


def test_inputs_depend_only_on_seed_and_index():
    for w in WORKLOADS.values():
        a, b = w.make_input(9, MEASURED, 4), w.make_input(9, MEASURED, 4)
        assert repr(a) == repr(b)
        assert repr(a) != repr(w.make_input(10, MEASURED, 4))


def _failed_ops(workload, corrupt=None):
    if corrupt is not None:
        op = workload.op
        workload = dataclasses.replace(workload, op=lambda inp: corrupt(op(inp)))
    durations, _, failures = worker.measure(workload, seed=3, seconds=0.0)
    assert len(durations) == 1
    return len(failures)


def test_scaled_channel_output_is_a_failed_op():
    # The channel-large op and check at N = 4, so that the test stays fast.
    small = dataclasses.replace(
        WORKLOADS["channel-large"],
        make_input=lambda seed, stream, k: (
            workloads.random_density(np.random.default_rng([seed, k]), 4), 0.5),
    )
    assert _failed_ops(small) == 0
    assert _failed_ops(small, lambda out: 1.01 * out) == 1


def test_scaled_choi_matrix_is_a_failed_op():
    assert _failed_ops(WORKLOADS["choi-sweep"], lambda out: 1.01 * out) == 1


def test_shifted_mc_mean_is_a_failed_op():
    def shift(results):
        r = results[-1]
        r.mean[0, 1] += 10 * r.stderr_re[0, 1]
        return results

    assert _failed_ops(WORKLOADS["mc-oracle"]) == 0
    assert _failed_ops(WORKLOADS["mc-oracle"], shift) == 1
    assert workloads.MC_FALSE_ALARM_PER_OP < 1e-6


def test_scaled_capacity_is_a_failed_op():
    def scale(rows):
        for ci, hol in rows:
            ci.value *= 1.01
            hol.capacity *= 1.01
        return rows

    assert _failed_ops(WORKLOADS["three-capacity"], scale) == 1

"""Tests of the benchmark itself: a seconds-long smoke run of every workload
path at tiny sizes, the metric-name schema of BENCHMARK.json, and output
checks that must fail on a corrupted reference, a forced cell error or a
broken schedule."""

import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from rdcn_bench import harness, workloads  # noqa: E402
from rdcn_bench.layers import LAYER_METRICS  # noqa: E402
from rdcn_bench.speed import SpeedReference  # noqa: E402
from rdcn_throughput import PeriodicSchedule, evaluation  # noqa: E402
from rdcn_throughput.decomposition import PermutationMatching  # noqa: E402
from rdcn_throughput.flowlp import SolverError  # noqa: E402

TINY_SWEEP = workloads.SweepWorkload(name="sweep-n4", n=4)
TINY_SCAN = workloads.ScanWorkload(name="scan-chessboard-n4", n=4, u=2)
TINY_SYNTH = workloads.SynthWorkload(name="synth-n8", n=8, u=2, scales=(1.0, 0.9))
TINY = (TINY_SWEEP, TINY_SCAN, TINY_SYNTH)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_once(workload, workdir, seed=3):
    return workload.run(workload.setup(seed, workdir))


@pytest.fixture
def no_probe(monkeypatch):
    """Tiny workloads are not runnable by name, so stub the set-up subprocess."""
    monkeypatch.setattr(harness, "probe_setup", lambda name, seed: 0.25)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_timed_run_smoke(workload, tmp_path, no_probe):
    result = harness.timed_run(workload, 3, 0, tmp_path, (None, None))
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_smoke(workload, tmp_path):
    result = harness.traced_run(workload, 3, tmp_path, (None, None), tmp_path)
    assert set(result) == RESULT_KEYS and result["correct"]
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    spans = (tmp_path / f"spans-{workload.name}-seed3.jsonl").read_text().splitlines()
    assert len(spans) > 1
    assert not list(tmp_path.glob("spool-*")), "worker spool files were merged and removed"
    if workload is TINY_SWEEP:
        assert metrics["evaluation.cells_planned"]["value"] == 12 * 4
        assert metrics["flowlp.highs_calls"]["value"] >= metrics["evaluation.cells_solved"]["value"]
        assert metrics["cli.self_s"]["value"] > 0
        records = [json.loads(line) for line in spans[1:]]
        cell_pids = {r["pid"] for r in records if r["name"] == "evaluation.cell"}
        assert len(cell_pids) == workloads.SWEEP_JOBS, "spans come from every pool worker"
        assert all(r["cell"] for r in records if r["name"] == "flowlp.linprog")
    if workload is TINY_SYNTH:
        assert metrics["decomposition.matchings"]["value"] == 12 * 2 * 8
        assert metrics["flowlp.highs_calls"]["value"] == 0


def test_pacing_samples_before_each_call_and_restores(tmp_path):
    speed = SpeedReference(tmp_path, "highs-ds")
    owner = SimpleNamespace(fn=lambda x: x + 1)
    original = owner.fn
    with speed.pacing(((owner, "fn"),)):
        assert owner.fn(1) == 2 and owner.fn(2) == 3
        worker = multiprocessing.get_context("fork").Process(target=owner.fn, args=(0,))
        worker.start()
        worker.join()
    assert owner.fn is original and worker.exitcode == 0
    speed.collect()
    assert [pid for _, _, pid in speed.samples] == [os.getpid()] * 2 + [worker.pid]
    assert all(wall > 0 for wall, _, _ in speed.samples)
    assert not list(tmp_path.iterdir()), "the worker's spool file was collected and removed"


def test_setup_probe_runs_in_a_fresh_interpreter():
    assert 0 < harness.probe_setup("scan-chessboard-n16", 0) < 60


def test_schema_matches_harness():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in LAYER_METRICS]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_reference_covers_default_and_held_out_seed():
    thetas = json.loads(harness.REFERENCE_PATH.read_text())["thetas"]
    for name in ("sweep-n8", "scan-chessboard-n16"):
        assert {"0", "1"} <= set(thetas[name])
    assert thetas["scan-chessboard-n16"]["0"]["chessboard|da-periodic|4"] == pytest.approx(0.84)
    assert len(thetas["sweep-n8"]["0"]) == len(workloads.WORKLOADS["sweep-n8"].keys())


def test_corrupted_reference_theta_fails(tmp_path):
    outcome = _run_once(TINY_SWEEP, tmp_path)
    assert TINY_SWEEP.check(outcome, outcome, None).failed == 0
    lp_key = workloads.cell_key("uniform", "oblivious", 4)
    da_key = workloads.cell_key("chessboard", "da-periodic", 4)
    for key, shift in ((lp_key, 1e-6), (da_key, 0.02)):
        ref = dict(outcome, **{key: outcome[key] + shift})
        check = TINY_SWEEP.check(outcome, ref, None)
        assert check.failed == 1 and key in check.problems[0]
    # the seed-free oblivious reference of seed 0 holds for every seed
    seed_free = dict(outcome, **{lp_key: outcome[lp_key] + 1e-6})
    assert TINY_SWEEP.check(outcome, None, seed_free).failed == 1


def test_forced_cell_error_raises_fail_ratio(tmp_path, monkeypatch, no_probe):
    def broken(*args, **kwargs):
        raise SolverError("forced failure")

    monkeypatch.setattr(evaluation, "solve_max_throughput", broken)
    outcome = _run_once(TINY_SCAN, tmp_path)
    assert all(math.isnan(theta) for theta in outcome.values())
    result = harness.timed_run(TINY_SCAN, 3, 0, tmp_path, (None, None))
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("workload", (TINY_SWEEP, TINY_SCAN), ids=lambda w: w.name)
def test_unexpected_cell_exception_fails_every_cell(workload, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(evaluation, "solve_max_throughput", broken)
    outcome = _run_once(workload, tmp_path)
    assert "RuntimeError" in outcome["error"]
    check = workload.check(outcome, None, None)
    assert check.failed == check.attempted == len(workload.keys())
    assert "RuntimeError" in check.problems[0]


def test_iteration_mismatch_fails(tmp_path):
    outcome = _run_once(TINY_SCAN, tmp_path)
    first = {k: v - 0.01 for k, v in outcome.items()}
    assert TINY_SCAN.check(outcome, None, None, first=first).failed == 1


def test_broken_schedule_fails(tmp_path):
    outcome = _run_once(TINY_SYNTH, tmp_path)
    assert TINY_SYNTH.check(outcome, None, None).failed == 0
    name, m, topo, schedule, error = outcome[0]
    n = TINY_SYNTH.n
    swapped = list(schedule.switches)
    slots = list(swapped[0])
    slots[0] = PermutationMatching(tuple(np.roll(np.arange(n), 1)))
    swapped[0] = tuple(slots)
    broken = PeriodicSchedule(tuple(swapped), period=schedule.period)
    check = TINY_SYNTH.check([(name, m, topo, broken, None)] + outcome[1:], None, None)
    assert check.failed >= 1 and "union" in check.problems[0]


def test_fails_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, it exits nonzero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-n64", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

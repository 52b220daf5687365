"""Timed and traced runs of one workload, and the result they print.

A timed run (tracing off) repeats the workload body, closed loop, until the
requested seconds have passed, and reports medians per body. Body times are
given in units of a reference kernel timed alongside the body (see speed.py),
since the host's speed drifts more than the bounds allow. Set-up is timed in
fresh interpreters, several times, since imports happen once per process;
those probes run after the bodies, so that the peak RSS read before them
covers only this process and its pool workers. A traced run makes one traced
pass of set-up plus body between two untraced ones, all with the same jobs
setting; the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from .layers import LAYER_METRICS, SpanSummary, instruments
from .spans import Tracer, add_self_times
from .speed import BOUNDARY_SAMPLES, SpeedReference
from .workloads import SWEEP_JOBS, Check, SweepWorkload

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
)


def environment() -> dict:
    """Provenance recorded with every result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def load_reference(workload: str, seed: int):
    """(reference thetas for this seed or None, seed-0 thetas or None)."""
    if not REFERENCE_PATH.exists():
        return None, None
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["thetas"].get(workload, {})
    return table.get(str(seed)), table.get("0")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has waited for (KiB on Linux).

    This is the largest single process, not the sum of the pool workers that
    ran at the same time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def probe_setup(workload_name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter: imports plus input generation."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _result(check, metrics) -> dict:
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }


def _report_check(check):
    ratio = check.failed / check.attempted if check.attempted else 1.0
    print(f"fail_ratio {ratio:.6g} ({check.failed} of {check.attempted} attempted)")
    for problem in check.problems:
        print(f"  check failed: {problem}")


def timed_run(workload, seed: int, seconds: float, workdir: Path, reference) -> dict:
    inputs = workload.setup(seed, workdir)
    ref, seed_free_ref = reference
    check = Check()
    speed = SpeedReference(workdir, workload.kernel)
    walls, wall_refs, cpu_refs = [], [], []
    first = None
    began = time.perf_counter()
    speed.boundary()
    while True:
        before = len(speed.samples) - BOUNDARY_SAMPLES
        paced_from = len(speed.samples)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        with speed.pacing(workload.paced_by):
            outcome = workload.run(inputs)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        speed.collect()
        paced = speed.samples[paced_from:]
        # Paced samples delay the body; pool workers take theirs side by side.
        wall -= sum(w for w, _, _ in paced) / max(1, len({pid for _, _, pid in paced}))
        cpu -= sum(c for _, c, _ in paced)
        speed.boundary()
        around = speed.samples[before:]  # the samples before, during and after this body
        kernel_wall = statistics.fmean(w for w, _, _ in around)
        kernel_cpu = statistics.fmean(c for _, c, _ in around)
        walls.append(wall)
        wall_refs.append(wall / kernel_wall)
        cpu_refs.append(cpu / kernel_cpu)
        check.merge(workload.check(outcome, ref, seed_free_ref, first))
        if first is None:
            first = outcome
        if time.perf_counter() - began >= seconds:
            break
    peak_rss_mb = _peak_rss_mb()
    setup_samples = [probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    kernel_walls = [w for w, _, _ in speed.samples]
    print(f"{workload.name} seed {seed}: {len(walls)} bodies, wall "
          + " ".join(f"{w:.3f}" for w in walls) + " s = "
          + " ".join(f"{r:.2f}" for r in wall_refs) + " ref; "
          + f"{len(kernel_walls)} kernel runs, {min(kernel_walls):.4f}-{max(kernel_walls):.4f} s, "
          + f"median {statistics.median(kernel_walls):.4f} s; set-up "
          + " ".join(f"{s:.3f}" for s in setup_samples) + " s")
    _report_check(check)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_ref": statistics.median(wall_refs),
        "cpu_ref": statistics.median(cpu_refs),
        "peak_rss_mb": peak_rss_mb,
    }
    return _result(check, {name: _metric(values[name], unit) for name, unit in END_TO_END})


def traced_run(workload, seed: int, workdir: Path, reference, out_dir: Path) -> dict:
    ref, seed_free_ref = reference
    check = Check()

    def untraced(first=None):
        t0 = time.perf_counter()
        outcome = workload.run(workload.setup(seed, workdir))
        elapsed = time.perf_counter() - t0
        check.merge(workload.check(outcome, ref, seed_free_ref, first))
        return outcome, elapsed

    # Untraced passes before and after the traced one cancel a linear drift
    # of the machine's speed out of the overhead.
    outcome, before_s = untraced()
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=out_dir))
    tracer = Tracer(spool)
    with tracer.installed(instruments()):
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            inputs = workload.setup(seed, workdir)
        with tracer.span("bench.body"):
            traced = workload.run(inputs)
        traced_s = time.perf_counter() - t0
    spans = tracer.collect()
    spool.rmdir()
    check.merge(workload.check(traced, ref, seed_free_ref, first=outcome))
    _, after_s = untraced(first=outcome)
    untraced_s = (before_s + after_s) / 2

    overlap = add_self_times(spans)
    summary = SpanSummary(spans)
    self_sum = sum(record["self"] for record in spans)
    span_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(span_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"environment": environment(), "workload": workload.name,
                             "seed": seed}) + "\n")
        for record in sorted(spans, key=lambda r: r["start"]):
            fh.write(json.dumps(record) + "\n")

    jobs = SWEEP_JOBS if isinstance(workload, SweepWorkload) else 1
    print(f"traced {workload.name} seed {seed} (jobs {jobs}); "
          f"spans written to {span_path}")
    print(f"{'span':<40} {'calls':>7} {'self_s':>10} {'share':>7}")
    for name in sorted(summary.calls, key=lambda k: -summary.self_s[k]):
        print(f"{name:<40} {summary.calls[name]:>7} {summary.self_s[name]:>10.4f} "
              f"{summary.self_s[name] / max(self_sum, 1e-12):>7.1%}")
    print(f"self times sum {self_sum:.4f} s - pool overlap {overlap:.4f} s "
          f"= traced wall {traced_s:.4f} s - unspanned {traced_s + overlap - self_sum:.4f} s")
    print(f"tracing overhead {traced_s - untraced_s:+.4f} s "
          f"({(traced_s - untraced_s) / untraced_s:+.2%} of untraced {untraced_s:.4f} s)")
    metrics = {}
    print(f"{'layer metric':<30} {'value':>14} {'unit':<6} moves")
    for layer in LAYER_METRICS:
        value = layer.value(summary)
        metrics[layer.name] = _metric(value, layer.unit)
        print(f"{layer.name:<30} {value:>14.6g} {layer.unit:<6} {layer.moves}")
    _report_check(check)
    return _result(check, metrics)

"""The benchmark's workloads: input set-up from the workload seed, the timed
body, and an output check made from outside the package.

Every workload is a closed loop with one caller: the body makes one call
after another, each waiting for its result.
"""

from __future__ import annotations

import io
import json
import math
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rdcn_throughput import NetworkParams, cli, demand, evaluation, topology

CAPACITY = 25e9
STEP = evaluation.DEFAULT_STEP
SWEEP_JOBS = 2  # the only workload that uses the process pool
SCAN_MATRIX = "chessboard"
SCAN_CLASS = "da-periodic"
LP_TOL = 1e-9  # LP theta against its reference
DA_CLASSES = ("da-static", "da-periodic")
# Oblivious cells carry no randomness, so their reference holds for every seed.
SEED_FREE_CLASSES = ("oblivious",)


@dataclass
class Check:
    """Output-check tally: each attempted cell or build passes or fails once."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    def merge(self, other: "Check"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 10 - len(self.problems))])


def _theta_problem(key: str, theta, ref, seed_free_ref, first) -> str | None:
    net_class = key.split("|")[1]
    da = net_class in DA_CLASSES
    if theta is None:
        return f"{key}: missing"
    if not math.isfinite(theta):
        return f"{key}: theta is {theta}"
    if first is not None and first.get(key) != theta:
        return f"{key}: theta {theta!r} differs from the first iteration's {first.get(key)!r}"
    tol = STEP + 1e-9 if da else LP_TOL
    expected = ref.get(key) if ref is not None else None
    if expected is None and net_class in SEED_FREE_CLASSES and seed_free_ref is not None:
        expected = seed_free_ref.get(key)
    if expected is not None:
        return None if abs(theta - expected) <= tol else f"{key}: theta {theta!r} != reference {expected!r}"
    if da:
        k = theta / STEP
        if not (STEP - 1e-9 <= theta <= 1 + 1e-9 and abs(k - round(k)) <= 1e-6):
            return f"{key}: DA theta {theta!r} is not a step multiple in [{STEP}, 1]"
    elif theta <= 0:
        return f"{key}: LP theta {theta!r} is not positive"
    return None


def check_thetas(thetas: dict, keys, ref, seed_free_ref, first=None) -> Check:
    """Check each expected cell's theta: against the recorded reference when one
    exists for this seed (1e-9 for LP cells, one heuristic step for DA cells),
    otherwise against the invariants every theta must meet; and bit for bit
    against the first iteration of the same run."""
    check = Check()
    for key in keys:
        check.record(_theta_problem(key, thetas.get(key), ref, seed_free_ref, first))
    return check


def cell_key(matrix: str, net_class: str, degree: int) -> str:
    return f"{matrix}|{net_class}|{degree}"


def suite_labels() -> list:
    """The evaluation suite's matrix labels, written out independently of the package."""
    return ["chessboard", "uniform", "permutation"] + [f"U+P {k / 10:.1f}" for k in range(1, 10)]


@dataclass(frozen=True)
class SweepWorkload:
    """`reproduce fig4` in-process: every class over the suite at each degree."""

    name: str = "sweep-n8"
    n: int = 8
    # One speed sample per cell: one per LP solve (538 a body) would triple the body.
    paced_by = ((evaluation, "_evaluate_cell"),)
    kernel = "highs-ipm"

    def degrees(self) -> list:
        return [d for d in (4, 8, 12, 16) if d <= self.n]

    def keys(self) -> list:
        return [cell_key(m, c, d) for d in self.degrees() for m in suite_labels()
                for c in evaluation.NETWORK_CLASSES]

    def setup(self, seed: int, workdir: Path):
        return ["reproduce", "fig4", "--n", str(self.n), "--jobs", str(SWEEP_JOBS),
                "--seed", str(seed), "--out", str(workdir)], workdir / "fig4.json"

    def run(self, inputs) -> dict:
        argv, result_path = inputs
        result_path.unlink(missing_ok=True)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli.main.main(args=argv, prog_name="rdcn-throughput", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # every expected cell then counts as missing
                return {"error": repr(exc)}
        if code not in (0, 4):  # 4 flags a landscape criterion; cell errors show as NaN
            return {"error": f"reproduce exited {code}"}
        rows = json.loads(result_path.read_text(encoding="utf-8"))["rows"]
        return {cell_key(r["matrix"], r["class"], r["degree"]): r["theta"] for r in rows}

    def check(self, outcome, ref, seed_free_ref, first=None) -> Check:
        return _check_cells(outcome, self.keys(), ref, seed_free_ref, first)


def _check_cells(outcome, keys, ref, seed_free_ref, first) -> Check:
    check = check_thetas(outcome, keys, ref, seed_free_ref, first)
    if "error" in outcome:
        check.problems.insert(0, outcome["error"])
    return check


@dataclass(frozen=True)
class ScanWorkload:
    """One demand-aware periodic cell through `sweep_matrices`: the heuristic
    descends one LP solve per step until the LP objective reaches 1."""

    name: str = "scan-chessboard-n16"
    n: int = 16
    u: int = 4
    paced_by = ((evaluation, "solve_max_throughput"),)  # one LP solve per heuristic step
    kernel = "highs-ipm"

    def keys(self) -> list:
        return [cell_key(SCAN_MATRIX, SCAN_CLASS, self.u)]

    def setup(self, seed: int, workdir: Path):
        p = NetworkParams(self.n, self.u, CAPACITY)
        return p, [(SCAN_MATRIX, demand.generate(SCAN_MATRIX, p))], seed

    def run(self, inputs) -> dict:
        p, suite, seed = inputs
        try:
            result = evaluation.sweep_matrices(p, suite, classes=(SCAN_CLASS,), seed=seed)
        except Exception as exc:  # every expected cell then counts as missing
            return {"error": repr(exc)}
        return {cell_key(r.matrix, r.net_class, r.degree): r.theta for r in result.rows}

    def check(self, outcome, ref, seed_free_ref, first=None) -> Check:
        return _check_cells(outcome, self.keys(), ref, seed_free_ref, first)


def build_seed(seed: int, label: str, scale: float) -> int:
    parts = [seed, zlib.crc32(label.encode()), round(scale * 1000)]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


@dataclass(frozen=True)
class SynthWorkload:
    """Demand-aware periodic synthesis (topology plus switch schedule) for the
    suite at several heuristic scales. No LP."""

    name: str = "synth-n64"
    n: int = 64
    u: int = 8
    scales: tuple = (1.0, 0.9, 0.8)
    paced_by = ((topology, "build_demand_aware_periodic"),)
    kernel = "highs-ds"

    def setup(self, seed: int, workdir: Path):
        p = NetworkParams(self.n, self.u, CAPACITY)
        builds = [(label, scale, m.scaled(scale), build_seed(seed, label, scale))
                  for label, m in evaluation.build_suite(p) for scale in self.scales]
        return p, builds

    def run(self, inputs) -> list:
        p, builds = inputs
        out = []
        for label, scale, m, seed in builds:
            try:
                topo, schedule = topology.build_demand_aware_periodic(m, p, seed=seed)
            except Exception as exc:  # a failed build is counted, the run goes on
                out.append((f"{label}@{scale}", m, None, None, repr(exc)))
                continue
            out.append((f"{label}@{scale}", m, topo, schedule, None))
        return out

    def check(self, outcome, ref, seed_free_ref, first=None) -> Check:
        check = Check()
        expected = len(suite_labels()) * len(self.scales)
        if len(outcome) != expected:
            check.record(f"{len(outcome)} builds, expected {expected}")
        for k, (name, m, topo, schedule, error) in enumerate(outcome):
            problem = error and f"{name}: {error}"
            if problem is None:
                problem = _schedule_problem(name, m, topo, schedule, self.n, self.u)
            if (problem is None and first is not None and first[k][2] is not None
                    and not np.array_equal(first[k][2].link_count, topo.link_count)):
                problem = f"{name}: topology differs from the first iteration's"
            check.record(problem)
        return check


def _schedule_problem(name, m, topo, schedule, n, u) -> str | None:
    """Recheck a synthesized network with plain numpy, not the package's helpers."""
    counts = np.asarray(topo.link_count)
    if counts.shape != (n, n) or np.any(counts.sum(axis=0) != n) or np.any(counts.sum(axis=1) != n):
        return f"{name}: topology is not {n}-regular"
    unit = CAPACITY * u / n
    floor = np.floor(m.entries / unit + 1e-9)
    np.fill_diagonal(floor, 0)
    if np.any(counts < floor):
        return f"{name}: topology lacks the floor links of its demand"
    if schedule is None or len(schedule.switches) != u:
        return f"{name}: schedule does not have {u} switches"
    union = np.zeros((n, n), dtype=np.int64)
    for slots in schedule.switches:
        if len(slots) != n // u:
            return f"{name}: a switch has {len(slots)} slots, expected {n // u}"
        for pm in slots:
            mapping = np.asarray(pm.mapping)
            if not np.array_equal(np.sort(mapping), np.arange(n)):
                return f"{name}: a slot is not a permutation"
            union[np.arange(n), mapping] += 1
    if not np.array_equal(union, counts):
        return f"{name}: schedule union differs from the topology's link counts"
    return None


WORKLOADS = {w.name: w for w in (SweepWorkload(), ScanWorkload(), SynthWorkload())}

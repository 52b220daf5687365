"""Top-level throughput procedures: per-class evaluation, the iterative
demand-aware heuristic, and the matrix/degree sweeps.

The demand-aware heuristic scales the demand matrix by `iter` descending from
1 in fixed steps, rebuilds the demand-aware topology for each scaled matrix,
and stops at the first iter whose LP objective reaches 1; that iter is the
reported throughput (granularity = one step).
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .demand import DemandMatrix, NetworkParams, generate, load_csv, normalize
from .flowlp import SolverError, solve_max_throughput, verify_solution
from .topology import (
    Topology,
    build_demand_aware_periodic,
    build_demand_aware_static,
    build_oblivious_equivalent,
    build_static_expander,
)

NETWORK_CLASSES = ("static", "oblivious", "da-static", "da-periodic")
DEFAULT_STEP = 0.01
OBJECTIVE_REACHED = 1.0 - 1e-9

_MIX_ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class HeuristicTrace:
    """Record of one descending heuristic scan.

    Step k scanned iter_values[k] on a topology built with seeds[k] and
    reached objectives[k]. When chosen_theta > 0, the last step's topology
    certifies it.
    """

    iter_values: tuple
    objectives: tuple
    chosen_theta: float
    step: float
    seeds: tuple

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "iter_values": list(self.iter_values),
            "objectives": list(self.objectives),
            "seeds": list(self.seeds),
            "chosen_theta": self.chosen_theta,
        }


@dataclass(frozen=True)
class SweepRow:
    matrix: str
    net_class: str
    degree: int
    theta: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    errors: tuple = field(default_factory=tuple)

    def theta(self, matrix: str, net_class: str, degree: int | None = None) -> float:
        for row in self.rows:
            if row.matrix == matrix and row.net_class == net_class and (
                degree is None or row.degree == degree
            ):
                return row.theta
        raise KeyError(f"no sweep cell ({matrix!r}, {net_class!r}, degree={degree})")

    def worst_case(self, net_class: str, degree: int | None = None):
        """Minimum theta over the suite for one class (optionally one degree).

        Returns (theta, matrix label) of the arg-min cell.
        """
        best = None
        for row in self.rows:
            if row.net_class != net_class or (degree is not None and row.degree != degree):
                continue
            if np.isnan(row.theta):
                continue
            if best is None or row.theta < best[0]:
                best = (row.theta, row.matrix)
        if best is None:
            raise KeyError(f"no sweep rows for class {net_class!r}, degree={degree}")
        return best

    def degrees(self) -> tuple:
        return tuple(sorted({row.degree for row in self.rows}))

    def to_csv_text(self) -> str:
        lines = ["matrix,class,degree,theta"]
        for row in self.rows:
            lines.append(f"{row.matrix},{row.net_class},{row.degree},{row.theta:.17g}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        payload = {
            "rows": [
                {"matrix": r.matrix, "class": r.net_class, "degree": r.degree, "theta": r.theta}
                for r in self.rows
            ],
            "worst_case": [],
        }
        for degree in self.degrees():
            for cls in NETWORK_CLASSES:
                try:
                    theta, label = self.worst_case(cls, degree)
                except KeyError:
                    continue
                payload["worst_case"].append(
                    {"class": cls, "degree": degree, "theta": theta, "matrix": label}
                )
        if self.errors:
            payload["errors"] = [
                {"matrix": m, "class": c, "degree": deg, "error": msg}
                for m, c, deg, msg in self.errors
            ]
        return payload


def _seed_int(*parts) -> int:
    """Stable 64-bit seed from mixed int/str parts (crc32 for strings)."""
    ints = []
    for part in parts:
        if isinstance(part, str):
            ints.append(zlib.crc32(part.encode()))
        else:
            ints.append(int(part) & 0xFFFFFFFFFFFF)
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


def _solve_verified(t: Topology, m_normalized: DemandMatrix, tol: float):
    result = solve_max_throughput(t, m_normalized, tol=tol).require_optimal()
    report = verify_solution(t, m_normalized, result, eps=1e-6)
    if not report.ok:
        worst = report.violations[0]
        raise SolverError(f"optimal solution failed verification: {worst.kind}: {worst.detail}")
    return result


def throughput_static(t: Topology, m: DemandMatrix, tol: float = 1e-7) -> float:
    """Raw LP optimum of m on a fixed topology (may exceed 1 for slack demand).

    Every returned optimum is independently re-checked against the flow
    constraints before being reported.
    """
    return _solve_verified(t, normalize(m, t.link_capacity), tol).theta


def throughput_oblivious(m: DemandMatrix, p: NetworkParams, tol: float = 1e-7) -> float:
    """Throughput of the rotor-equivalent complete graph at capacity c/Gamma."""
    return throughput_static(build_oblivious_equivalent(p), m, tol=tol)


def throughput_demand_aware(m: DemandMatrix, p: NetworkParams, mode: str,
                            step: float = DEFAULT_STEP, seed: int = 0,
                            tol: float = 1e-7):
    """Iterative heuristic for demand-aware networks. Returns (theta, HeuristicTrace).

    mode is "static" (one-shot topology, degree u) or "periodic" (emulated
    degree-n graph at capacity c*u/n). The reported theta is the first scan
    value whose LP objective reaches 1, hence a multiple of `step` with
    uncertainty one step; 0.0 with a full trace if no scan value succeeds.
    """
    if mode not in ("static", "periodic"):
        raise ValueError(f"mode must be 'static' or 'periodic', got {mode!r}")
    if not 0 < step < 1:
        raise ValueError(f"step must lie in (0, 1), got {step}")
    iter_values = []
    objectives = []
    seeds = []
    k = 0
    while True:
        scale = round(1.0 - k * step, 12)
        if scale <= 0:
            break
        k += 1
        scaled = m.scaled(scale)
        iter_seed = _seed_int(seed, "iter", k - 1)
        if mode == "static":
            topo = build_demand_aware_static(scaled, p, seed=iter_seed)
        else:
            topo, _schedule = build_demand_aware_periodic(scaled, p, seed=iter_seed)
        objective = _solve_verified(topo, normalize(scaled, topo.link_capacity), tol).theta
        iter_values.append(scale)
        objectives.append(objective)
        seeds.append(iter_seed)
        if objective >= OBJECTIVE_REACHED:
            trace = HeuristicTrace(tuple(iter_values), tuple(objectives), scale, step, tuple(seeds))
            return scale, trace
    trace = HeuristicTrace(tuple(iter_values), tuple(objectives), 0.0, step, tuple(seeds))
    return 0.0, trace


def build_suite(p: NetworkParams, csv_paths=()) -> list:
    """The evaluation suite: chessboard, uniform, permutation, the nine U+P
    mixes, plus any user-supplied CSV matrices. Returns (label, matrix) pairs."""
    suite = [
        ("chessboard", generate("chessboard", p)),
        ("uniform", generate("uniform", p)),
        ("permutation", generate("permutation", p)),
    ]
    for alpha in _MIX_ALPHAS:
        suite.append((f"U+P {alpha}", generate("mix", p, alpha=alpha)))
    for path in csv_paths:
        suite.append((Path(path).stem, load_csv(path)))
    return suite


def _cell_seed(net_class: str, master_seed: int, label: str) -> int:
    if net_class == "static":
        return _seed_int(master_seed, "static-topology")  # one expander per sweep
    if net_class in ("da-static", "da-periodic"):
        return _seed_int(master_seed, label)
    return 0  # oblivious builds carry no randomness


def _cell_key(entries: np.ndarray, net_class: str, p: NetworkParams, cell_seed: int,
              step: float, tol: float):
    """Content key for a sweep cell.

    The oblivious and da-periodic results depend on the demand only through
    m/(c*u/n) with a fixed degree budget of n, so suite matrices regenerated
    for different physical degrees collapse onto one key.
    """
    if net_class in ("oblivious", "da-periodic"):
        unit = p.c * p.u / p.n
        budget = p.n
    else:
        unit = p.c
        budget = p.u
    normalized = np.asarray(entries, dtype=float) / unit
    return (net_class, p.n, budget, cell_seed, step, tol, normalized.tobytes())


def _evaluate_cell(task):
    """Compute one sweep cell; module-level so process pools can pickle it."""
    (entries, net_class, n, u, c, cell_seed, step, tol) = task
    p = NetworkParams(n, u, c)
    m = DemandMatrix(entries)
    try:
        if net_class == "static":
            topo = build_static_expander(p, seed=cell_seed)
            theta = throughput_static(topo, m, tol=tol)
        elif net_class == "oblivious":
            theta = throughput_oblivious(m, p, tol=tol)
        elif net_class in ("da-static", "da-periodic"):
            mode = "static" if net_class == "da-static" else "periodic"
            theta, _ = throughput_demand_aware(m, p, mode, step=step, seed=cell_seed, tol=tol)
        else:
            raise ValueError(f"unknown network class {net_class!r}")
    except (SolverError, ValueError) as exc:
        return float("nan"), str(exc)
    return theta, None


def _run_cells(tasks, jobs: int):
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_evaluate_cell, tasks, chunksize=1))
    return [_evaluate_cell(task) for task in tasks]


def _plan_cells(p: NetworkParams, suite, classes, seed, step, tol):
    plans = []
    for label, m in suite:
        for net_class in classes:
            cell_seed = _cell_seed(net_class, seed, label)
            key = _cell_key(m.entries, net_class, p, cell_seed, step, tol)
            task = (np.array(m.entries), net_class, p.n, p.u, p.c, cell_seed, step, tol)
            plans.append(((label, net_class, p.u), key, task))
    return plans


def _execute_plans(plans, jobs: int) -> SweepResult:
    unique = {}
    order = []
    for _, key, task in plans:
        if key not in unique:
            unique[key] = task
            order.append(key)
    outcomes = dict(zip(order, _run_cells([unique[k] for k in order], jobs)))
    rows, errors = [], []
    for (label, net_class, degree), key, _ in plans:
        theta, err = outcomes[key]
        rows.append(SweepRow(label, net_class, degree, theta))
        if err is not None:
            errors.append((label, net_class, degree, err))
    return SweepResult(tuple(rows), tuple(errors))


def sweep_matrices(p: NetworkParams, suite, classes=NETWORK_CLASSES, seed: int = 0,
                   step: float = DEFAULT_STEP, tol: float = 1e-7, jobs: int = 1) -> SweepResult:
    """Throughput of every (matrix, class) pair of the suite at degree p.u.

    The per-cell seed is derived from the master seed and the matrix label
    only, so reruns and class/degree comparisons are reproducible cell by
    cell. Cells with identical content are solved once. Per-cell failures are
    recorded and the sweep continues.
    """
    return _execute_plans(_plan_cells(p, suite, classes, seed, step, tol), jobs)


def sweep_degree(p_base: NetworkParams, degrees, classes=NETWORK_CLASSES, seed: int = 0,
                 step: float = DEFAULT_STEP, tol: float = 1e-7, jobs: int = 1,
                 csv_paths=()) -> SweepResult:
    """Worst-case throughput study across physical degrees.

    The suite is regenerated per degree (matrix magnitudes scale with u) and
    all cells are planned together, so builds that are degree-invariant after
    normalization are solved once and shared.
    """
    plans = []
    for u in degrees:
        p = NetworkParams(p_base.n, u, p_base.c)
        plans.extend(_plan_cells(p, build_suite(p, csv_paths=csv_paths), classes, seed, step, tol))
    return _execute_plans(plans, jobs)

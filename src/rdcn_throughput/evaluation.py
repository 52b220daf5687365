"""Top-level throughput procedures: the one cell evaluator, the iterative
demand-aware heuristic, the matrix/degree sweeps and the table of landscape
criteria they are checked against.

The demand-aware heuristic scales the demand matrix by `iter` descending from
1 in steps of DEFAULT_STEP, rebuilds the demand-aware topology for each scaled
matrix, and stops at the first iter whose scaled matrix routes at theta = 1;
that iter is the reported throughput (granularity = one step). Each step is
decided on the demand its direct links leave (`solve_max_throughput` with
`direct_first`), which routes exactly when the full matrix does; that one
call skips, accepts or rejects the step by the rule in `flowlp`'s module
docstring. The scan starts at the first step that the demand alone
(`demand_upper_bound`) leaves room to reach 1.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .demand import (
    DemandMatrix,
    NetworkParams,
    UniformResidualClass,
    classify_uniform_residual,
    decompose_integer_residual,
    generate,
)
from .flowlp import (
    OBJECTIVE_REACHED,
    SKIP_MARGIN,
    SolverError,
    demand_upper_bound,
    solve_max_throughput,
    verify_solution,
)
# Nothing here calls build_demand_aware_periodic; the benchmark traces it as
# evaluation.build_demand_aware_periodic (bench/rdcn_bench/layers.py), so the
# name stays importable from this module.
from .topology import (  # noqa: F401
    Topology,
    build_demand_aware_emulated,
    build_demand_aware_periodic,
    build_demand_aware_static,
    build_oblivious_equivalent,
    build_static_expander,
    link_budget,
    require_hose,
    seed_sequence,
)

NETWORK_CLASSES = ("static", "oblivious", "da-static", "da-periodic")
# The heuristic's granularity: every demand-aware theta is a multiple of it.
DEFAULT_STEP = 0.01

_MIX_ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class HeuristicTrace:
    """Record of one descending heuristic scan, in steps of DEFAULT_STEP.

    demand_bound is the demand-only bound B on the throughput of every
    topology of the class, so the cell's theta lies in [chosen_theta, B]. The
    scan starts at the first step whose scale B leaves room to reach an
    objective of 1; every earlier step is one whose own bound rules it out.
    Scanned step k scaled the demand by iter_values[k], on a topology built
    with seeds[k], and `solve_max_throughput(..., direct_first=True)` decided
    it. objectives[k] is the step's `objective`: lambda, the theta of the
    residual LP as solved by the solve that decided the step. bounds[k] is
    its `bound`, lambda_b >= lambda. Both are None where the direct links
    carried all the demand and there is no residual, which happens only at
    the accepted step. objectives[k] alone is None where the rule skipped the
    LP on bounds[k]. When chosen_theta > 0, the last step is the one
    accepted, by the verdict `accepted` of the rule in `flowlp`'s module
    docstring, and its topology certifies chosen_theta.
    """

    iter_values: tuple
    bounds: tuple
    objectives: tuple
    chosen_theta: float
    seeds: tuple
    demand_bound: float

    def to_json_dict(self) -> dict:
        return {
            "step": DEFAULT_STEP,
            "iter_values": list(self.iter_values),
            "bounds": list(self.bounds),
            "objectives": list(self.objectives),
            "seeds": list(self.seeds),
            "chosen_theta": self.chosen_theta,
            "demand_bound": self.demand_bound,
        }


class Cell(NamedTuple):
    """One cell's throughput and the build that certifies it.

    `topology` is the network theta was computed on; for the demand-aware
    classes it is the heuristic's last step, built with `trace.seeds[-1]`
    (for da-periodic, the emulated graph: `synthesize_schedule` with that
    seed lays out its switch schedule when u divides n). `trace` is None for
    the LP classes.
    """

    theta: float
    trace: HeuristicTrace | None
    topology: Topology


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell. A demand-aware row keeps the heuristic trace, whose last
    step and seed rebuild the certifying topology at this row's degree. A
    failed cell has theta NaN and the failure's message as its error."""

    matrix: str
    net_class: str
    degree: int
    theta: float
    trace: HeuristicTrace | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple

    @property
    def errors(self) -> tuple:
        """(matrix, class, degree, message) of every failed cell, in row order."""
        return tuple((r.matrix, r.net_class, r.degree, r.error) for r in self.rows
                     if r.error is not None)

    def row(self, matrix: str, net_class: str, degree: int) -> SweepRow:
        for row in self.rows:
            if (row.matrix, row.net_class, row.degree) == (matrix, net_class, degree):
                return row
        raise KeyError(f"no sweep cell ({matrix!r}, {net_class!r}, degree={degree})")

    def theta(self, matrix: str, net_class: str, degree: int) -> float:
        return self.row(matrix, net_class, degree).theta

    def worst_case(self, net_class: str, degree: int):
        """Minimum theta over the suite for one class at one degree.

        Returns (theta, matrix label) of the arg-min cell, the first in row
        order on a tie. A failed (NaN) cell is the worst case.
        """
        rows = [r for r in self.rows if (r.net_class, r.degree) == (net_class, degree)]
        if not rows:
            raise KeyError(f"no sweep rows for class {net_class!r}, degree={degree}")
        worst = min(rows, key=lambda r: (not np.isnan(r.theta), r.theta))
        return worst.theta, worst.matrix

    def degrees(self) -> tuple:
        return tuple(sorted({row.degree for row in self.rows}))

    def to_csv_text(self) -> str:
        """The rows as CSV; a label holding a comma or a quote is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("matrix", "class", "degree", "theta"))
        for row in self.rows:
            writer.writerow((row.matrix, row.net_class, row.degree, f"{row.theta:.17g}"))
        return out.getvalue()

    def to_json_dict(self) -> dict:
        """The rows, worst cases and errors as standard JSON values: a failed
        cell's NaN theta is written as None (null)."""
        rows = []
        for r in self.rows:
            rows.append({"matrix": r.matrix, "class": r.net_class, "degree": r.degree,
                         "theta": _json_theta(r.theta)})
            if r.trace is not None:
                rows[-1]["trace"] = r.trace.to_json_dict()
        payload = {"rows": rows, "worst_case": []}
        for degree in self.degrees():
            for cls in NETWORK_CLASSES:
                try:
                    theta, label = self.worst_case(cls, degree)
                except KeyError:
                    continue
                payload["worst_case"].append(
                    {"class": cls, "degree": degree, "theta": _json_theta(theta), "matrix": label}
                )
        if self.errors:
            payload["errors"] = [
                {"matrix": m, "class": c, "degree": deg, "error": msg}
                for m, c, deg, msg in self.errors
            ]
        return payload


def _json_theta(theta: float):
    return None if np.isnan(theta) else theta


def _seed_int(*parts) -> int:
    """Stable 64-bit seed from mixed int/str parts (`seed_sequence`)."""
    return int(seed_sequence(*parts).generate_state(1)[0])


def throughput_static(t: Topology, m: DemandMatrix) -> float:
    """Raw LP optimum of m on a fixed topology (may exceed 1 for slack demand).

    Every returned optimum is independently re-checked against the flow
    constraints before being reported; a failed check raises SolverError
    naming its largest violation.
    """
    result = solve_max_throughput(t, m)
    report = verify_solution(result)
    if not report.ok:
        worst = max(report.violations, key=lambda v: v.magnitude)
        raise SolverError(f"optimal solution failed verification: {worst.kind}: {worst.detail}")
    return result.theta


def throughput_demand_aware(m: DemandMatrix, p: NetworkParams, net_class: str,
                            seed: int = 0) -> Cell:
    """Iterative heuristic for demand-aware networks. Returns a Cell whose
    trace is the HeuristicTrace and whose topology is the last step's build.

    net_class is "da-static" (static demand-aware topology, degree u) or
    "da-periodic" (emulated degree-n graph at capacity c*u/n). The reported
    theta is the first scan value whose scaled m routes at theta = 1 on its
    build, hence a multiple of DEFAULT_STEP with uncertainty one step; 0.0 if
    no scan value succeeds. Whether it routes is the step's `accepted` from
    `solve_max_throughput` with `direct_first`: the verdict of the rule in
    `flowlp`'s module docstring, so the accepted step's build certifies
    theta, and a step the rule leaves undecided is a SolverError. m must
    meet the hose bound at full scale: this is the cell's one hose check, so
    the builds of the scanned steps make none.

    The scan starts at the first step whose scale the demand-only bound B
    (`demand_upper_bound`, once per cell) leaves room to reach 1. B bounds
    the hop-volume bound of each step's topology, and a step that bound puts
    below 1 has its residual bound below 1 too (each residual unit crosses
    at least max(2, hop) arcs), so every step before is one the per-step
    skip rejects; and B >= 1/2 on a hose-feasible m keeps some step. Every
    scanned step builds its topology from its own seed, `_seed_int(seed,
    "iter", k)` with k counted from scale 1, and the one call that decides
    it solves an LP only where the skip leaves lambda room to reach 1; so
    neither skip changes a theta or a certifying build. A schedule takes no
    part in theta, so da-periodic steps build only the emulated graph, and
    none is synthesized here.
    """
    if net_class not in ("da-static", "da-periodic"):
        raise ValueError(f"unknown demand-aware class {net_class!r}")
    require_hose(m, p)  # at full scale: a scaled-down step would pass it
    demand_bound = demand_upper_bound(m, *link_budget(net_class, p))
    iter_values, bounds, objectives, seeds = [], [], [], []
    theta = 0.0
    for k in range(round(1 / DEFAULT_STEP)):
        scale = round(1.0 - k * DEFAULT_STEP, 12)
        # The scan starts at the first step whose demand-only bound reaches
        # OBJECTIVE_REACHED - 2 * SKIP_MARGIN: that bound is computed by other
        # arithmetic than the per-step skip's, and the second margin covers
        # the difference.
        if demand_bound < (OBJECTIVE_REACHED - 2 * SKIP_MARGIN) * scale:
            continue
        scaled = m.scaled(scale)
        iter_seed = _seed_int(seed, "iter", k)
        if net_class == "da-static":
            topo = build_demand_aware_static(scaled, p, seed=iter_seed)
        else:
            topo = build_demand_aware_emulated(scaled, p, seed=iter_seed)
        step = solve_max_throughput(topo, scaled, direct_first=True)
        iter_values.append(scale)
        bounds.append(step.bound)
        objectives.append(step.objective)
        seeds.append(iter_seed)
        if step.accepted:
            theta = scale
            break
    trace = HeuristicTrace(tuple(iter_values), tuple(bounds), tuple(objectives), theta,
                           tuple(seeds), demand_bound)
    return Cell(theta, trace, topo)


def build_suite(p: NetworkParams, matrices=()) -> list:
    """The evaluation suite: chessboard, uniform, permutation, the nine U+P
    mixes, plus the user's p.n x p.n matrices, given as (path, DemandMatrix)
    pairs read from CSV files and labelled by file stem. Returns (label,
    matrix) pairs; a repeated label is a ValueError."""
    suite = [
        ("chessboard", generate("chessboard", p)),
        ("uniform", generate("uniform", p)),
        ("permutation", generate("permutation", p)),
    ]
    for alpha in _MIX_ALPHAS:
        suite.append((f"U+P {alpha}", generate("mix", p, alpha=alpha)))
    for path, m in matrices:
        if m.n != p.n:
            raise ValueError(f"{path}: {m.n}x{m.n} matrix, but the network has n={p.n}")
        label = Path(path).stem
        if label in dict(suite):
            raise ValueError(f"{path}: the suite already has a matrix labelled {label!r}")
        suite.append((label, m))
    return suite


def evaluate_cell(m: DemandMatrix, p: NetworkParams, net_class: str, *, seed: int,
                  label: str) -> Cell:
    """Throughput of matrix m, labelled `label`, on one network class.

    An m over the hose bound c*u is the same ValueError in every class, raised
    before any build: here, or in `throughput_demand_aware`. Builds are seeded
    from the master seed and, for the demand-aware classes, the label (the
    static expander is one per master seed), so a matrix gets the same cell
    wherever it is evaluated: in a sweep or on its own.
    """
    if net_class in ("da-static", "da-periodic"):
        return throughput_demand_aware(m, p, net_class, seed=_seed_int(seed, label))
    if net_class not in ("static", "oblivious"):
        raise ValueError(f"unknown network class {net_class!r}")
    require_hose(m, p)
    if net_class == "static":
        topo = build_static_expander(p, seed=_seed_int(seed, "static-topology"))
    else:
        topo = build_oblivious_equivalent(p)  # carries no randomness
    return Cell(throughput_static(topo, m), None, topo)


def _cell_key(entries: np.ndarray, net_class: str, p: NetworkParams, seed: int, label: str):
    """Key for a sweep cell: its label, master seed and content.

    The oblivious and da-periodic results depend on the demand only through
    m/(c*u/n) with a fixed degree budget of n, so a label's suite matrices
    regenerated for different physical degrees collapse onto one key, rounded
    to 12 decimals in link units as rounding can part them in the last bits.
    The budget is the hose bound c*u in link units, so one key's cells accept
    the same demand. A static cell of degree min(u, n-1) = n-1 runs on the
    complete digraph, the oblivious graph, so it is keyed as an oblivious cell
    at link capacity c and budget u: the two share an LP at u = n.

    A da-static cell at u = n is keyed as the da-periodic cell when each
    node's outgoing entries are the same multiset as its incoming ones. At
    every heuristic scale equal values floor alike, so each node's floor row
    sum equals its column sum; the residual graph adds the same degree to
    both, so `_pad_to_regular` adds only self-loops, which carry no traffic.
    Both classes then build the same routable graph from the same seeds, at
    link capacity c = c*u/n and degree n, under the same
    `demand_upper_bound`: the same scan, LP for LP. Where c*n/n rounds away
    from c in the last bit, the key's rounding absorbs it, as it does across
    degrees. A matrix that fails the test keeps its own da-static scan.
    """
    entries = np.asarray(entries, dtype=float)
    if net_class == "da-static" and p.u == p.n and np.array_equal(
            np.sort(entries, axis=1), np.sort(entries.T, axis=1)):
        net_class = "da-periodic"
    unit, budget = link_budget(net_class, p)
    if net_class == "static" and min(p.u, p.n - 1) == p.n - 1:
        net_class = "oblivious"
    normalized = np.round(entries / unit, 12)
    return (net_class, p.n, budget, seed, label, normalized.tobytes())


def _evaluate_cell(task):
    """Compute one sweep cell as (theta, trace, error); module-level so process
    pools can pickle it. The topology stays behind: a shared da-periodic cell
    serves several degrees, and a build belongs to one."""
    (entries, net_class, n, u, c, seed, label) = task
    try:
        cell = evaluate_cell(DemandMatrix(entries), NetworkParams(n, u, c), net_class,
                             seed=seed, label=label)
    except (SolverError, ValueError) as exc:
        return float("nan"), None, str(exc)
    return cell.theta, cell.trace, None


def _run_cells(tasks, jobs: int):
    if jobs > 1 and len(tasks) > 1:
        # a fork pool starts all its workers at once, however few the tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_evaluate_cell, tasks, chunksize=1))
    return [_evaluate_cell(task) for task in tasks]


def _plan_cells(p: NetworkParams, suite, classes, seed):
    plans = []
    for label, m in suite:
        for net_class in classes:
            key = _cell_key(m.entries, net_class, p, seed, label)
            task = (np.array(m.entries), net_class, p.n, p.u, p.c, seed, label)
            plans.append(((label, net_class, p.u), key, task))
    return plans


def _execute_plans(plans, jobs: int) -> SweepResult:
    unique = {}
    for _, key, task in plans:
        unique.setdefault(key, task)
    outcomes = dict(zip(unique, _run_cells(list(unique.values()), jobs)))
    return SweepResult(tuple(SweepRow(*cell, *outcomes[key]) for cell, key, _ in plans))


def sweep_matrices(p: NetworkParams, suite, classes=NETWORK_CLASSES, seed: int = 0,
                   jobs: int = 1) -> SweepResult:
    """Throughput of every (matrix, class) pair of the suite at degree p.u.

    The per-cell seed is derived from the master seed and the matrix label
    only, so reruns and class/degree comparisons are reproducible cell by
    cell. Cells with identical content are solved once. Per-cell failures are
    recorded and the sweep continues.
    """
    return _execute_plans(_plan_cells(p, suite, classes, seed), jobs)


def sweep_degree(p_base: NetworkParams, degrees, seed: int = 0, jobs: int = 1,
                 matrices=()) -> SweepResult:
    """Worst-case throughput study across physical degrees.

    The suite is regenerated per degree (matrix magnitudes scale with u), the
    user's `matrices` joining it as given, and all cells are planned together,
    so builds that are degree-invariant after normalization are solved once
    and shared.
    """
    plans = []
    for u in degrees:
        p = NetworkParams(p_base.n, u, p_base.c)
        plans.extend(_plan_cells(p, build_suite(p, matrices), NETWORK_CLASSES, seed))
    return _execute_plans(plans, jobs)


class Criterion(NamedTuple):
    """A landscape criterion as `reproduce` and the acceptance tests check it.
    check(sweep, suite, p) -> (ok, detail) reads the cells at degree p.u; fig4
    entries compare worst cases over sweep.degrees()."""

    number: int
    figure: str
    check: Callable


def _dominance(result, suite, p):
    claim = f"da-periodic >= every class on every matrix at u={p.u}"
    nan_cells = [f"{label} {cls}" for label, _ in suite for cls in NETWORK_CLASSES
                 if np.isnan(result.theta(label, cls, p.u))]
    if nan_cells:
        return False, f"{claim}: NaN cells {', '.join(nan_cells)}"
    gap, label, cls = min(
        (result.theta(label, "da-periodic", p.u) - result.theta(label, cls, p.u), label, cls)
        for label, _ in suite for cls in ("static", "oblivious", "da-static")
    )
    return gap >= -1e-6, f"{claim} (tol 1e-6; tightest margin {gap:+.4f} vs {cls} on {label})"


def _cell_within(label, net_class, target, width, slack, digits, note=""):
    def check(result, suite, p):
        theta = result.theta(label, net_class, p.u)
        return abs(theta - target) <= width + slack, (
            f"{label} {net_class} = {theta:.{digits}f}, expected {target:g} +/- {width:g}{note}")
    return check


def _uniform_residual_floor(result, suite, p):
    bound = 2.0 / 3.0 - 0.01
    thetas = {
        label: result.theta(label, "da-periodic", p.u) for label, matrix in suite
        if classify_uniform_residual(decompose_integer_residual(matrix, p.c))
        is not UniformResidualClass.NOT_UNIFORM
    }
    # np.min reports a NaN cell as the minimum, and `not >=` makes it a failure
    low = float(np.min(list(thetas.values()))) if thetas else float("nan")
    failures = [(label, theta) for label, theta in thetas.items() if not theta >= bound - 1e-12]
    return bool(thetas) and not failures, (
        f"{len(thetas)} uniform-residual matrices: min da-periodic = {low:.3f} >= 2/3 - 0.01"
        + (f"; failures: {failures}" if failures else ""))


def _worst_cases(result, classes, degrees):
    """Worst-case thetas as an array indexed [class, degree], and a note naming
    the failed (NaN) cells among them. The reductions over the array propagate
    NaN, so a criterion that reads a failed cell fails."""
    cases = [[result.worst_case(cls, u) for u in degrees] for cls in classes]
    nan = [f"{label} {cls} u={u}" for cls, row in zip(classes, cases)
           for u, (theta, label) in zip(degrees, row) if np.isnan(theta)]
    thetas = np.array([[theta for theta, _ in row] for row in cases])
    return thetas, f"; NaN cells {', '.join(nan)}" if nan else ""


def _worst_case_spread(result, suite, p):
    (dap,), nan = _worst_cases(result, ("da-periodic",), result.degrees())
    spread = np.max(dap) - np.min(dap)
    return bool(spread <= 0.02 + 1e-12), (
        f"da-periodic worst-case spread over degrees = {spread:.4f} <= 0.02{nan}")


def _worst_case_separation(result, suite, p):
    (dap, obl), nan = _worst_cases(result, ("da-periodic", "oblivious"), result.degrees())
    separation = np.min(dap - obl)
    return bool(separation >= 0.28 - 1e-12), (
        f"worst-case separation da-periodic - oblivious = {separation:.4f} >= 0.28{nan}")


def _static_convergence(result, suite, p):
    """At u = n a da-static node has the emulated graph's n links, so the two
    demand-aware classes meet there; a sweep without u = n fails. On a matrix
    whose rows and columns are the same multisets the two cells are one
    (`_cell_key`), so the check compares two scans only on other matrices."""
    claim = f"da-static converges at u={p.n}"
    if p.n not in result.degrees():
        return False, (f"{claim}: the sweep has no u={p.n} "
                       f"(degrees {', '.join(map(str, result.degrees()))})")
    ((das,), (dap,)), nan = _worst_cases(result, ("da-static", "da-periodic"), (p.n,))
    gap = abs(das - dap)
    return bool(gap <= 0.02 + 1e-12), f"{claim}: |gap| = {gap:.4f} <= 0.02{nan}"


LANDSCAPE_CRITERIA = (
    Criterion(1, "fig3", _dominance),
    Criterion(2, "fig3", _cell_within("chessboard", "da-periodic", 0.84, 0.01, 1e-12, 3,
                                      " (floor plus simple random residual)")),
    Criterion(3, "fig3", _cell_within("permutation", "da-periodic", 1.0, 0.01, 1e-12, 3)),
    Criterion(3, "fig3", _cell_within("permutation", "oblivious", 0.5, 0.05, 1e-12, 3)),
    Criterion(4, "fig3", _cell_within("uniform", "oblivious", 1.0, 1e-6, 0.0, 8)),
    Criterion(5, "fig3", _uniform_residual_floor),
    Criterion(6, "fig4", _worst_case_spread),
    Criterion(6, "fig4", _worst_case_separation),
    Criterion(7, "fig4", _static_convergence),
)


def check_landscape(result: SweepResult, suite, p: NetworkParams, *, figure: str) -> list:
    """(criterion, ok, detail) for every table entry of one figure."""
    return [(c, *c.check(result, suite, p)) for c in LANDSCAPE_CRITERIA if c.figure == figure]

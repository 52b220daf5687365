"""Exact throughput via the max-concurrent-flow linear program.

Source-aggregated edge formulation (as in Jyothi et al., "Measuring and
Understanding Throughput of Network Topologies", SC'16): one flow per source
with positive demand, on each routable arc. Parallel links between a pair
aggregate into a single arc whose capacity is the link count. Demand enters
in bits/s; `_link_units` divides it by t.link_capacity, so the rows below,
the flows and VERIFY_EPS are in link units. Padding self-loops never enter
the variable set.

    maximize theta subject to
      bal_s_v:  sum_i f[s,i,v] - sum_j f[s,v,j] = theta * m[s,v]
                for each source s and each node v != s
      cap_i_j:  sum_s f[s,i,j] <= links(i,j)   for each arc (i,j)
      f >= 0, theta >= 0

Aggregating by source is exact for max concurrent flow. The per-(s, d)
commodity flows of any feasible routing sum to a source flow that meets the
balance rows with the same arc loads. Conversely, a single-source flow that
meets them decomposes into paths from s to each v carrying theta * m[s, v],
plus cycles that only use capacity. So the optimum is the one the per-pair
and the path formulations give, with one flow block per source instead of one
per (s, d) pair: 16 blocks instead of 240 on the complete graph at n=16.

The balance rows are equalities, so net flow is what counts: a cycle through
an endpoint delivers nothing, and a flow that over-delivers at a destination
does not meet its row.

`_assemble_lp` builds the sparse LP once per call on the index sets of
`_layout`; `solve_max_throughput` hands it to HiGHS through `linprog`, one
direct call into the binding that scipy bundles, and returns its flow
columns as a sources x arcs block, `verify_solution` checks such a block
against the layout's arcs and rows without building the matrices, and
`export_lp` renders the rows as text. `throughput_upper_bound`
bounds the LP's optimum from the topology alone, without solving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as err:  # private scipy API: see test_highs_binding_is_present
    raise ImportError(
        "rdcn_throughput.flowlp needs the HiGHS binding scipy.optimize._highspy._core, "
        "shipped by scipy>=1.17.1") from err

from .demand import DemandMatrix
from .topology import Topology

DEFAULT_TOL = 1e-7
# Every HiGHS option `linprog` sets but `solver`, in one table. output_flag goes
# first, so that HiGHS prints nothing (it writes at C level, past sys.stdout)
# from the next option on.
_HIGHS_OPTIONS = {
    "output_flag": False,
    "presolve": "on",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": DEFAULT_TOL,
    "dual_feasibility_tolerance": DEFAULT_TOL,
}
# The HiGHS solver follows the LP's size. Below SIMPLEX_MAX_COLUMNS columns
# (every sweep cell at n=8) dual simplex takes about two thirds of the
# interior point time; above it interior point with crossover is the faster
# (the n=16 chessboard scan LP, 3,105 columns). Both return the same vertex
# optima to rounding. A solver that fails is retried once with the other.
SIMPLEX_MAX_COLUMNS = 1500
_OPTIMAL = _highs.HighsModelStatus.kOptimal
# How SolverError names the model status of a failed solve; any other is
# numerical-trouble.
_FAILURE = {_highs.HighsModelStatus.kInfeasible: "infeasible",
            _highs.HighsModelStatus.kUnbounded: "unbounded"}
# Largest violation (link units) that verify_solution lets pass.
VERIFY_EPS = 1e-6


class SolverError(RuntimeError):
    """LP backend failed to return a usable optimum."""


@dataclass(frozen=True)
class FlowViolation:
    # capacity | demand (balance row with m[s, v] > 0) | conservation (m[s, v] = 0)
    # | negative-flow | layout (flows is not the LP's sources x arcs block)
    kind: str
    detail: str
    magnitude: float


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)  # == on an array field would raise; compare fields
class ThroughputResult:
    """Optimal scaling factor plus the flow assignment that certifies it.

    flows[k, a] is the flow that the LP's k-th source sends over its a-th arc,
    in link-capacity units, summed over all of the source's destinations: the
    solver's flow columns in their own order (`_FlowLP`). The sources are the
    nodes with positive demand, ascending; the arcs are the routable (i, j),
    row-major. `solve_max_throughput` returns the block read-only.
    """

    theta: float
    flows: np.ndarray


@dataclass(frozen=True)
class _Layout:
    """The LP's index sets, without its matrices: what `verify_solution` checks
    a flow block against and `_assemble_lp` builds the rows on."""

    arcs: np.ndarray  # (A, 2) routable arcs (i, j), row-major
    capacity: np.ndarray  # (A,) link count of each arc: the cap rows' bounds
    demand: np.ndarray  # (n, n) demand in link units: -theta's coefficient in each bal row
    sources: np.ndarray  # (S,) nodes with positive demand
    balance: np.ndarray  # (R, 2) the (s, v) of each bal row

    def column_names(self) -> list:
        i, j = self.arcs.T.tolist()
        return ["theta"] + [f"f_{s}_{a}_{b}" for s in self.sources.tolist() for a, b in zip(i, j)]


@dataclass(frozen=True)
class _FlowLP(_Layout):
    """The assembled LP. Column 0 is theta; column 1 + k*len(arcs) + a is the
    flow of sources[k] on arcs[a]."""

    c: np.ndarray
    A_ub: sp.csr_matrix  # one cap row per arc, <= capacity
    A_eq: sp.csr_matrix  # one bal row per (s, v) of balance, == 0


def _link_units(t: Topology, m: DemandMatrix) -> np.ndarray:
    """m's entries (bits/s) in units of t's link capacity, once m is checked to
    fit t and to hold some positive demand."""
    if t.n != m.n:
        raise ValueError(f"dimension mismatch: topology n={t.n}, demand n={m.n}")
    demand = m.entries / t.link_capacity
    if not (demand > 0).any():
        raise ValueError("demand matrix has no positive entries; throughput is unbounded")
    return demand


def _layout(t: Topology, m: DemandMatrix) -> _Layout:
    """Arcs, sources and balance rows of m's LP on t. A bal row (s, v), v != s,
    exists where it has a term: s demands at v, or v touches a routable arc."""
    n = t.n
    demand = _link_units(t, m)
    counts = t.routable_counts()
    tail, head = np.nonzero(counts > 0)
    sources = np.flatnonzero((demand > 0).any(axis=1))
    touched = np.zeros(n, dtype=bool)
    touched[tail] = touched[head] = True
    has_row = (demand[sources] > 0) | touched
    has_row[np.arange(sources.size), sources] = False
    src_idx, node = np.nonzero(has_row)
    return _Layout(
        arcs=np.column_stack((tail, head)),
        capacity=counts[tail, head].astype(float),
        demand=demand,
        sources=sources,
        balance=np.column_stack((sources[src_idx], node)),
    )


def _assemble_lp(t: Topology, m: DemandMatrix) -> _FlowLP:
    layout = _layout(t, m)
    tail, head = layout.arcs.T
    src, node = layout.balance.T
    n_arcs, n_src, n_rows = tail.size, layout.sources.size, src.size
    nvar = 1 + n_src * n_arcs

    # row_of maps (source index, node) to its bal row; -1 where there is none.
    row_of = np.full((n_src, t.n), -1)
    row_of[np.searchsorted(layout.sources, src), node] = np.arange(n_rows)
    need = layout.demand[src, node]
    has_need = need > 0
    var = 1 + np.arange(n_src * n_arcs)
    k, a = np.divmod(var - 1, n_arcs)
    into = row_of[k, head[a]]  # -1 where the arc enters the flow's own source
    out_of = row_of[k, tail[a]]
    enters, leaves = into >= 0, out_of >= 0
    rows = np.concatenate((np.flatnonzero(has_need), into[enters], out_of[leaves]))
    cols = np.concatenate((np.zeros(has_need.sum(), dtype=np.int64), var[enters], var[leaves]))
    data = np.concatenate((-need[has_need], np.ones(enters.sum()), -np.ones(leaves.sum())))
    A_eq = sp.csr_matrix((data, (rows, cols)), shape=(n_rows, nvar))
    A_ub = sp.csr_matrix((np.ones(var.size), (a, var)), shape=(n_arcs, nvar))
    c = np.zeros(nvar)
    c[0] = -1.0
    return _FlowLP(**vars(layout), c=c, A_ub=A_ub, A_eq=A_eq)


class LPResult(NamedTuple):
    """What `linprog` reads back from HiGHS."""

    status: _highs.HighsModelStatus  # the model status HiGHS ends with
    x: np.ndarray | None  # the column values; None unless status is _OPTIMAL
    nit: int  # simplex iterations, or interior-point ones if there were none
    message: str


def linprog(c, *, A_ub, b_ub, A_eq, solver) -> LPResult:
    """min c @ x subject to A_ub @ x <= b_ub, A_eq @ x == 0 and x >= 0, by
    HiGHS's own binding that scipy ships: the module's only solver call.

    `solver` is HiGHS's option value: "simplex" (dual simplex) or "ipm"
    (interior point with crossover). The other options are `_HIGHS_OPTIONS`,
    the ones `scipy.optimize.linprog` passes, so the two give the same x bit
    for bit. The name and the keywords A_ub and A_eq stay because the
    benchmark traces `flowlp.linprog` by attribute and reads c, A_ub, A_eq and
    `nit` off the call.
    """
    A = sp.vstack((A_ub, A_eq)).tocsc()  # a quarter of format="csc"'s time on the n=8 LPs
    lp = _highs.HighsLp()
    lp.num_row_, lp.num_col_ = A.shape
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(c.size)
    lp.col_upper_ = np.full(c.size, _highs.kHighsInf)
    zero = np.zeros(A_eq.shape[0])
    lp.row_lower_ = np.concatenate((np.full(b_ub.size, -_highs.kHighsInf), zero))
    lp.row_upper_ = np.concatenate((b_ub, zero))
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = lp.num_col_, lp.num_row_
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data

    highs = _highs._Highs()
    for name, value in {**_HIGHS_OPTIONS, "solver": solver}.items():
        if highs.setOptionValue(name, value) != _highs.HighsStatus.kOk:
            raise SolverError(f"HiGHS rejected option {name}={value!r}")
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return LPResult(_highs.HighsModelStatus.kModelError, None, 0, "HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    x = np.array(highs.getSolution().col_value) if status == _OPTIMAL else None
    return LPResult(status, x, info.simplex_iteration_count or info.ipm_iteration_count,
                    highs.modelStatusToString(status))


def solve_max_throughput(t: Topology, m: DemandMatrix) -> ThroughputResult:
    """Maximize theta such that theta*m admits a feasible flow on t.

    `m` is in bits/s; the flows come back in link units. The LP goes to
    HiGHS through `linprog`, once per attempt, with `_HIGHS_OPTIONS`:
    dual simplex below SIMPLEX_MAX_COLUMNS columns, interior point from there.
    If that solver fails, the other is tried once; if that fails too,
    SolverError names the model status and its message.
    """
    lp = _assemble_lp(t, m)
    solvers = ("simplex", "ipm") if lp.c.size < SIMPLEX_MAX_COLUMNS else ("ipm", "simplex")
    for solver in solvers:
        res = linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.capacity, A_eq=lp.A_eq, solver=solver)
        if res.status in (_OPTIMAL, _highs.HighsModelStatus.kUnbounded):
            break  # the other solver cannot bound an unbounded LP

    if res.status != _OPTIMAL:
        raise SolverError(f"solver returned {_FAILURE.get(res.status, 'numerical-trouble')}: "
                          f"{res.message}")

    flows = res.x[1:].reshape(len(lp.sources), len(lp.arcs))
    flows.setflags(write=False)
    theta = float(res.x[0]) + 0.0  # HiGHS may return -0.0 when some demand has no route
    return ThroughputResult(theta, flows)


def _hops(adjacent: np.ndarray) -> np.ndarray:
    """Directed BFS distances: hop[i, j] is the fewest arcs from i to j, inf
    where j is unreachable, 0 on the diagonal. Each round extends the
    frontier of every source at once by one float (BLAS) matrix product; the
    counts it sums are at most n, so the test `> 0` is exact."""
    n = adjacent.shape[0]
    step = adjacent.astype(float)
    hop = np.full((n, n), np.inf)
    np.fill_diagonal(hop, 0.0)
    reached = np.eye(n, dtype=bool)
    frontier = reached
    for d in range(1, n):
        frontier = (frontier.astype(float) @ step > 0) & ~reached
        if not frontier.any():
            break
        hop[frontier] = d
        reached |= frontier
    return hop


def throughput_upper_bound(t: Topology, m: DemandMatrix) -> float:
    """Upper bound on `solve_max_throughput(t, m).theta` (m in bits/s), without
    an LP.

    A pair's flow beyond its own direct links takes a path of at least
    h = max(2, hop) arcs, hop being its BFS distance in the routable graph, so
    delivering theta*x needs sum(theta*x + (h - 1) * max(0, theta*x - L)) link
    units, and the network has sum(L). The left side is convex and piecewise
    linear in theta with breakpoints L/x; the largest theta that fits is read
    off the sorted breakpoints. 0.0 when some positive demand has no path.
    """
    demand = _link_units(t, m)
    links = t.routable_counts().astype(float)
    pair = demand > 0  # off the diagonal: a DemandMatrix has none there
    hop = _hops(links > 0)[pair]
    if not np.isfinite(hop).all():
        return 0.0
    x, cap = demand[pair], links[pair]
    weight = np.maximum(hop, 2.0) - 1.0
    breaks = cap / x
    order = np.argsort(breaks, kind="stable")
    x, cap, weight, breaks = x[order], cap[order], weight[order], breaks[order]
    # Past breaks[j - 1] and up to breaks[j], the j pairs sorted first have used
    # up their direct links: units(theta) = (sum(x) + slope[j]) * theta - offset[j].
    slope = np.concatenate(([0.0], np.cumsum(weight * x)))
    offset = np.concatenate(([0.0], np.cumsum(weight * cap)))
    budget = links.sum()
    over = (x.sum() + slope[1:]) * breaks - offset[1:] > budget
    j = int(np.argmax(over)) if over.any() else x.size
    return float((budget + offset[j]) / (x.sum() + slope[j]))


# demand_upper_bound stops once |g(theta)| is within this share of the link
# budget, well above g's rounding error, then takes one last Newton step.
_BOUND_RTOL = 1e-13
_BOUND_ROUNDS = 200


def _cut_excess(x: np.ndarray, theta: float, degree: int):
    """g(theta) of `demand_upper_bound` and its slope just right of theta."""
    y = theta * x
    whole = np.floor(y)
    frac = y - whole
    whole_cuts = whole.sum(axis=1)
    order = np.argsort(-frac, axis=1)  # each row's largest fractional parts first
    take = np.arange(x.shape[1]) < (degree - whole_cuts)[:, None]  # links left for them
    cuts = (np.minimum(whole_cuts, degree).sum()
            + (np.take_along_axis(frac, order, 1) * take).sum())
    value = 2.0 * y.sum() - cuts - x.shape[0] * degree
    slope = 2.0 * x.sum() - (np.take_along_axis(x, order, 1) * take).sum()
    return value, slope


def demand_upper_bound(m: DemandMatrix, link_capacity: float, degree: int) -> float:
    """Upper bound B on `solve_max_throughput(t, m).theta` (m in bits/s) over
    every topology t of `link_capacity` links whose routable out-degree is at
    most `degree`, from the demand alone.

    It relaxes `throughput_upper_bound` over the topology: every excess is
    weighted 1, not h - 1 >= 1, and the links are chosen for the bound. A link
    count L_ij cuts pair (i, j)'s 2*theta*x_ij link units by min(theta*x_ij,
    L_ij), its k-th link by min(1, max(0, theta*x_ij - (k - 1))); row i's
    `degree` links cut at most its top `degree` single-link cuts, top_i(theta):
    the whole ones, floor(theta*x_ij) per pair, then the largest fractional
    parts. So theta fits a topology only if
    g(theta) = sum_i [2*sum_j theta*x_ij - top_i(theta) - degree] <= 0, and B
    is the root of g. g is piecewise linear with slopes in [X, 2X], X = sum(x),
    so B lies in [n*degree/(2X), n*degree/X]. It is found by Newton steps on
    g's pieces, kept in that bracket by bisection, and is exact up to
    rounding. B(s*m) = B(m)/s, and B >= 1/2 when m meets the hose bound
    degree*link_capacity.
    """
    x = np.asarray(m.entries, dtype=float) / link_capacity
    total = x.sum()
    if not total > 0:
        raise ValueError("demand matrix has no positive entries; throughput is unbounded")
    budget = x.shape[0] * degree
    lo, hi = budget / (2.0 * total), budget / total
    theta, last_move = hi, hi - lo
    for _ in range(_BOUND_ROUNDS):
        value, slope = _cut_excess(x, theta, degree)
        if abs(value) <= _BOUND_RTOL * budget:
            return float(theta - value / slope)
        if value < 0:
            lo = theta
        else:
            hi = theta
        newton = theta - value / slope
        # bisect when Newton leaves the bracket or halves no earlier move
        if lo < newton < hi and 2.0 * abs(newton - theta) < last_move:
            last_move, theta = abs(newton - theta), newton
        else:
            last_move, theta = hi - lo, 0.5 * (lo + hi)
    return float(hi)


def verify_solution(t: Topology, m: DemandMatrix, r: ThroughputResult) -> VerificationReport:
    """Re-check every LP constraint from the raw flows with fresh arithmetic.

    The arcs, sources and rows come from the LP's `_layout`; arc loads and
    per-(s, v) net inflows are summed here from `r.flows`, not read off the
    constraint matrices. `m` is in bits/s, as given to `solve_max_throughput`.
    Returns a report of violations exceeding VERIFY_EPS (in link units); an
    empty report means the flows certify theta. A block whose shape is not the
    LP's sources x arcs gets one layout violation and no further check.
    """
    lp = _layout(t, m)
    flows = np.asarray(r.flows, dtype=float)
    shape = (len(lp.sources), len(lp.arcs))
    if flows.shape != shape:
        return VerificationReport((FlowViolation(
            "layout", f"flows have shape {flows.shape}, the LP has {shape} (sources x arcs)",
            math.inf),))
    violations = []

    for k, a in zip(*np.nonzero(flows < -VERIFY_EPS)):
        (i, j), f = lp.arcs[a].tolist(), float(flows[k, a])
        violations.append(FlowViolation(
            "negative-flow", f"f({lp.sources[k]}, {i}, {j}) = {f}", -f))

    load = flows.sum(axis=0)
    for a in np.flatnonzero(load - lp.capacity > VERIFY_EPS):
        (i, j), cap = lp.arcs[a].tolist(), lp.capacity[a]
        violations.append(FlowViolation(
            "capacity", f"arc ({i},{j}) carries {load[a]:.9g} > {cap:.9g}",
            float(load[a] - cap)))

    tail, head = lp.arcs.T
    net_in = np.zeros((t.n, len(lp.sources)))  # [v, k]: inflow minus outflow of source k at v
    np.add.at(net_in, head, flows.T)
    np.add.at(net_in, tail, -flows.T)
    src, node = lp.balance.T
    got = net_in[node, np.searchsorted(lp.sources, src)]
    need = r.theta * lp.demand[src, node]
    gap = got - need
    for q in np.flatnonzero(np.abs(gap) > VERIFY_EPS):
        s_q, v_q = int(src[q]), int(node[q])
        if lp.demand[s_q, v_q] > 0:
            violations.append(FlowViolation(
                "demand", f"source {s_q} nets {got[q]:.9g} at node {v_q}, "
                          f"needs {need[q]:.9g}", abs(float(gap[q]))))
        else:
            violations.append(FlowViolation(
                "conservation", f"source {s_q} unbalanced at node {v_q} by {gap[q]:.9g}",
                abs(float(gap[q]))))
    return VerificationReport(tuple(violations))


def _lp_expr(cols, coefs, names) -> str:
    terms = []
    for col, coef in zip(cols.tolist(), coefs.tolist()):
        body = names[col] if abs(coef) == 1 else f"{abs(coef):.17g} {names[col]}"
        terms.append(f"{'-' if coef < 0 else '+'} {body}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def export_lp(t: Topology, m: DemandMatrix) -> str:
    """Render the assembled LP of m (bits/s) on t as text: columns theta and
    f_<s>_<i>_<j>, rows cap_<i>_<j> then bal_<s>_<v> in link units, in the
    order the solver receives them."""
    lp = _assemble_lp(t, m)
    names = lp.column_names()
    objective = np.flatnonzero(lp.c)
    lines = [
        f"\\ max-throughput LP for a {t.net_class!r} network, n={t.n}",
        "Maximize",
        f" obj: {_lp_expr(objective, -lp.c[objective], names)}",
        "Subject To",
    ]
    blocks = (
        (lp.A_ub, (f"cap_{i}_{j}" for i, j in lp.arcs.tolist()), "<=", lp.capacity),
        (lp.A_eq, (f"bal_{s}_{v}" for s, v in lp.balance.tolist()), "=", np.zeros(len(lp.balance))),
    )
    for matrix, row_names, sense, rhs in blocks:
        for row, name in enumerate(row_names):
            span = slice(matrix.indptr[row], matrix.indptr[row + 1])
            expr = _lp_expr(matrix.indices[span], matrix.data[span], names)
            lines.append(f" {name}: {expr} {sense} {rhs[row]:.17g}")
    lines += ["Bounds", " theta >= 0", "End", ""]
    return "\n".join(lines)

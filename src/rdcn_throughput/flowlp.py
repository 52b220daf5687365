"""Exact throughput via the max-concurrent-flow linear program.

Source-aggregated edge formulation (as in Jyothi et al., "Measuring and
Understanding Throughput of Network Topologies", SC'16): one flow per source
with positive demand, on each routable arc. Parallel links between a pair
aggregate into a single arc whose capacity is the link count (unit link
capacities; demand must be normalized to the same unit). Padding self-loops
never enter the variable set.

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

`_assemble_lp` builds the sparse LP once per call; `solve_max_throughput`
hands it to the solver, `verify_solution` checks a flow against its arcs and
rows, and `export_lp` renders its rows as text. `throughput_upper_bound`
bounds the LP's optimum from the topology alone, without solving it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import shortest_path

from .demand import DemandMatrix
from .topology import Topology

DEFAULT_TOL = 1e-7
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": DEFAULT_TOL,
    "dual_feasibility_tolerance": DEFAULT_TOL,
}
# Interior point with crossover is markedly faster than simplex on the
# degenerate demand-aware instances and returns the same vertex optima;
# dual simplex stays available as the fallback.
DEFAULT_METHOD = "highs-ipm"
FALLBACK_METHOD = "highs-ds"
FLOW_EPS = 1e-12


class SolverError(RuntimeError):
    """LP backend failed to return a usable optimum."""


@dataclass(frozen=True)
class FlowViolation:
    # capacity | demand (balance row with m[s, v] > 0) | conservation (m[s, v] = 0)
    # | negative-flow | unknown-arc (no LP variable for this source and arc)
    kind: str
    detail: str
    magnitude: float


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ThroughputResult:
    """Optimal scaling factor plus the flow assignment that certifies it.

    flows maps (s, i, j) to the flow that source s sends over arc (i, j), in
    link-capacity units, summed over all of s's destinations; entries at or
    below FLOW_EPS are left out.
    """

    theta: float
    flows: dict


@dataclass(frozen=True)
class _FlowLP:
    """The assembled LP. Column 0 is theta; column 1 + k*len(arcs) + a is the
    flow of sources[k] on arcs[a]."""

    arcs: np.ndarray  # (A, 2) routable arcs (i, j), row-major
    capacity: np.ndarray  # (A,) link count of each arc: the cap rows' bounds
    sources: np.ndarray  # (S,) nodes with positive demand
    balance: np.ndarray  # (R, 2) the (s, v) of each bal row
    c: np.ndarray
    A_ub: sp.csr_matrix  # one cap row per arc
    A_eq: sp.csr_matrix
    b_eq: np.ndarray

    def column_names(self) -> list:
        i, j = self.arcs.T.tolist()
        return ["theta"] + [f"f_{s}_{a}_{b}" for s in self.sources.tolist() for a, b in zip(i, j)]


def _assemble_lp(t: Topology, m: DemandMatrix) -> _FlowLP:
    if t.n != m.n:
        raise ValueError(f"dimension mismatch: topology n={t.n}, demand n={m.n}")
    n = t.n
    demand = m.entries
    counts = t.routable_counts()
    tail, head = np.nonzero(counts > 0)
    sources = np.flatnonzero((demand > 0).any(axis=1))
    if not sources.size:
        raise ValueError("demand matrix has no positive entries; throughput is unbounded")
    n_arcs, n_src = tail.size, sources.size
    nvar = 1 + n_src * n_arcs

    # Balance rows, one per (source, node != source); row_of maps them back.
    src_idx, node = np.nonzero(np.arange(n)[None, :] != sources[:, None])
    row_of = np.full((n_src, n), -1)
    row_of[src_idx, node] = np.arange(src_idx.size)
    need = demand[sources[src_idx], node]
    has_need = need > 0
    var = 1 + np.arange(n_src * n_arcs)
    k, a = np.divmod(var - 1, n_arcs)
    into = row_of[k, head[a]]  # -1 where the arc enters the flow's own source
    out_of = row_of[k, tail[a]]
    enters, leaves = into >= 0, out_of >= 0
    rows = np.concatenate((np.flatnonzero(has_need), into[enters], out_of[leaves]))
    cols = np.concatenate((np.zeros(has_need.sum(), dtype=np.int64), var[enters], var[leaves]))
    data = np.concatenate((-need[has_need], np.ones(enters.sum()), -np.ones(leaves.sum())))
    A_eq = sp.csr_matrix((data, (rows, cols)), shape=(src_idx.size, nvar))
    # A node no arc touches and no demand reaches has an empty row; drop it.
    kept = np.flatnonzero(np.diff(A_eq.indptr))
    A_eq = A_eq[kept]
    A_ub = sp.csr_matrix((np.ones(var.size), (a, var)), shape=(n_arcs, nvar))
    c = np.zeros(nvar)
    c[0] = -1.0
    return _FlowLP(
        arcs=np.column_stack((tail, head)),
        capacity=counts[tail, head].astype(float),
        sources=sources,
        balance=np.column_stack((sources[src_idx[kept]], node[kept])),
        c=c,
        A_ub=A_ub,
        A_eq=A_eq,
        b_eq=np.zeros(kept.size),
    )


def solve_max_throughput(t: Topology, m: DemandMatrix,
                         method: str = DEFAULT_METHOD) -> ThroughputResult:
    """Maximize theta such that theta*m admits a feasible flow on t.

    `m` must already be normalized to t.link_capacity units. `method` names the
    scipy.optimize.linprog backend, run at feasibility tolerances of
    DEFAULT_TOL. If the chosen method fails, the dual simplex is tried once;
    if that fails too, SolverError names the solver's status and message.
    """
    lp = _assemble_lp(t, m)
    for attempt in dict.fromkeys((method, FALLBACK_METHOD)):
        res = linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.capacity, A_eq=lp.A_eq, b_eq=lp.b_eq,
                      bounds=(0, None), method=attempt, options=_HIGHS_OPTIONS)
        if res.status in (0, 3):
            break

    if res.status != 0:
        status = {2: "infeasible", 3: "unbounded"}.get(res.status, "numerical-trouble")
        raise SolverError(f"solver returned {status}: {res.message}")

    x = res.x
    idx = np.flatnonzero(x[1:] > FLOW_EPS)
    k, a = np.divmod(idx, len(lp.arcs))
    keys = zip(lp.sources[k].tolist(), *lp.arcs[a].T.tolist())
    theta = float(x[0]) + 0.0  # HiGHS may return -0.0 when some demand has no route
    return ThroughputResult(theta, dict(zip(keys, x[1 + idx].tolist())))


def throughput_upper_bound(t: Topology, m: DemandMatrix) -> float:
    """Upper bound on the LP optimum of m on t, as `throughput_static` solves it
    (m in bits/s, normalized here by t.link_capacity), without an LP.

    A pair's flow beyond its own direct links takes a path of at least
    h = max(2, hop) arcs, hop being its BFS distance in the routable graph, so
    delivering theta*x needs sum(theta*x + (h - 1) * max(0, theta*x - L)) link
    units, and the network has sum(L). The left side is convex and piecewise
    linear in theta with breakpoints L/x; the largest theta that fits is read
    off the sorted breakpoints. 0.0 when some positive demand has no path.
    """
    if t.n != m.n:
        raise ValueError(f"dimension mismatch: topology n={t.n}, demand n={m.n}")
    links = t.routable_counts().astype(float)
    demand = m.entries / t.link_capacity
    pair = demand > 0  # off the diagonal: a DemandMatrix has none there
    if not pair.any():
        raise ValueError("demand matrix has no positive entries; throughput is unbounded")
    hop = shortest_path(links > 0, unweighted=True)[pair]
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


def verify_solution(t: Topology, m: DemandMatrix, r: ThroughputResult,
                    eps: float = 1e-6) -> VerificationReport:
    """Re-check every LP constraint from the raw flows with fresh arithmetic.

    The arcs, sources and rows come from the assembled LP; arc loads and
    per-(s, v) net inflows are summed here from `r.flows`, not read off the
    constraint matrices. Returns a report of violations exceeding eps (in
    link-capacity units); an empty report means the flows certify theta.
    """
    lp = _assemble_lp(t, m)
    n = t.n
    keys = np.array(list(r.flows), dtype=np.int64).reshape(-1, 3)
    vals = np.fromiter(r.flows.values(), dtype=float, count=len(r.flows))
    violations = []

    for q in np.flatnonzero(vals < -eps):
        violations.append(FlowViolation("negative-flow", f"f{tuple(keys[q].tolist())} = {vals[q]}",
                                        -float(vals[q])))

    # Variable index per (source, arc); -1 where the LP has no such variable.
    arc_id = np.full((n, n), -1)
    arc_id[lp.arcs[:, 0], lp.arcs[:, 1]] = np.arange(len(lp.arcs))
    is_source = np.zeros(n, dtype=bool)
    is_source[lp.sources] = True
    arc = np.full(len(vals), -1)
    in_range = ((keys >= 0) & (keys < n)).all(axis=1)
    s, i, j = keys[in_range].T
    arc[in_range] = np.where(is_source[s], arc_id[i, j], -1)
    for q in np.flatnonzero(arc < 0):
        violations.append(FlowViolation(
            "unknown-arc", f"flow f{tuple(keys[q].tolist())} on a nonexistent arc or source",
            float(vals[q])))

    known = arc >= 0
    s, i, j = keys[known].T
    flow = vals[known]
    load = np.bincount(arc[known], weights=flow, minlength=len(lp.arcs))
    for a in np.flatnonzero(load - lp.capacity > eps):
        (i_a, j_a), cap = lp.arcs[a].tolist(), lp.capacity[a]
        violations.append(FlowViolation(
            "capacity", f"arc ({i_a},{j_a}) carries {load[a]:.9g} > {cap:.9g}",
            float(load[a] - cap)))

    net_in = np.zeros((n, n))  # net_in[s, v]: inflow minus outflow of s's flow at v
    np.add.at(net_in, (s, j), flow)
    np.add.at(net_in, (s, i), -flow)
    src, node = lp.balance.T
    need = r.theta * m.entries[src, node]
    gap = net_in[src, node] - need
    for q in np.flatnonzero(np.abs(gap) > eps):
        s_q, v_q = int(src[q]), int(node[q])
        if m.entries[s_q, v_q] > 0:
            violations.append(FlowViolation(
                "demand", f"source {s_q} nets {net_in[s_q, v_q]:.9g} at node {v_q}, "
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
    """Render the assembled LP as text: columns theta and f_<s>_<i>_<j>, rows
    bal_<s>_<v> and cap_<i>_<j>, in the order the solver receives them."""
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
        (lp.A_eq, (f"bal_{s}_{v}" for s, v in lp.balance.tolist()), "=", lp.b_eq),
        (lp.A_ub, (f"cap_{i}_{j}" for i, j in lp.arcs.tolist()), "<=", lp.capacity),
    )
    for matrix, row_names, sense, rhs in blocks:
        for row, name in enumerate(row_names):
            span = slice(matrix.indptr[row], matrix.indptr[row + 1])
            expr = _lp_expr(matrix.indices[span], matrix.data[span], names)
            lines.append(f" {name}: {expr} {sense} {rhs[row]:.17g}")
    lines += ["Bounds", " theta >= 0", "End", ""]
    return "\n".join(lines)

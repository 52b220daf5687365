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

`_assemble_lp` builds the LP of a link-unit demand on a per-pair capacity
once per call, index sets and sparse matrices in one `_FlowLP` record.
`solve_max_throughput` hands it to HiGHS through `linprog`, one direct call
into the binding that scipy bundles, and returns its flow columns as a
sources x arcs block together with the record. `verify_solution` checks that
block against the record's arcs and rows without touching its matrices,
returning a `demand.Report` of `Violation`s.

Whether theta = 1 is feasible, the one question of a demand-aware heuristic
step, has a smaller LP (`solve_max_throughput(..., direct_first=True)`).
Exchange lemma: if demand x routes on capacity L, some routing sends each
pair's first min(x_ij, L_ij) over its own arc (i, j). Where the arc has
slack, move the pair's indirect flow onto it; where transit flow
a->...->i->j->...->b fills it, swap delta of that flow with delta of the
pair's own path P from i to j: the transit flow takes P, the pair goes
direct, and no arc's load changes. So x routes at theta = 1 exactly when the
residual demand x' = x - min(x, L) routes on the residual capacity
L' = L - min(x, L), that is when x' = 0 (no LP at all) or the max-throughput
lambda of x' on L' is at least 1. Its flows divided by lambda, plus each
pair's direct min(x, L), are a flow block of the full LP at theta = 1
(`DirectFirstResult.at_one`), which `verify_solution` checks as any other.

Any arc lengths l >= 0 bound lambda from above: a routing of lambda * x'
sends each unit from s to v along a path no shorter than dist_l(s, v), and
each arc carries at most L', so lambda* <= sum L' * l / sum x' * dist_l
(Shahrokhi and Matula 1990; Garg and Koenemann 1998). One routine,
`_length_bound`, computes it in numpy by Floyd-Warshall over the arcs of L',
in which an arc of length 0 is an arc, and two choices of l use it. With
every l = 1 it needs no LP: lambda_b, the hop-volume bound of x' on L',
which a step reads before it pays for the LP. With l = max(-y, 0), y the
cap-row duals that every solve reads back (y <= 0 on a cap row of this
minimization): lambda_d, `_dual_bound`, which tends to lambda* as y tends to
an optimal dual, and meets it to rounding at an exact optimum.

One rule decides every step, on bounds and certificates computed here:
  - skip, rejected with no LP, when lambda_b is below
    OBJECTIVE_REACHED - SKIP_MARGIN;
  - accept when the flow block of `at_one` passes `verify_solution` and
    lambda is None (x' = 0) or at least OBJECTIVE_REACHED, + DEFAULT_TOL on
    an interior point;
  - reject when lambda and lambda_d are both below OBJECTIVE_REACHED.
From SIMPLEX_MAX_COLUMNS columns on, the residual LP is first solved by
interior point without crossover (`linprog(..., crossover=False)`). Its
theta column lambda_p is no bound: the point meets the rows only to
DEFAULT_TOL, and lambda_p was seen up to 3.6e-8 above lambda* on small
random instances. A point the rule leaves undecided (a bracket
[lambda_p, lambda_d] across OBJECTIVE_REACHED or its margin, a status other
than optimal, or a candidate that fails the check), and a smaller LP, go to
the exact solve `_solve`. An exact optimum the rule leaves undecided is a
SolverError naming lambda, lambda_d and its flow block's largest violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as err:  # private scipy API: see test_highs_binding_is_present
    raise ImportError(
        "rdcn_throughput.flowlp needs the HiGHS binding scipy.optimize._highspy._core, "
        "shipped by scipy>=1.17.1") from err

from .demand import DemandMatrix, Report, Violation
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
    "small_matrix_value": 1e-9,  # HiGHS's default: smaller coefficients are dropped
}
# What `linprog(..., crossover=False)` sets on top: HiGHS's interior point
# returns its own point and duals, with no presolve to undo and no crossover.
_INTERIOR_ONLY = {"presolve": "off", "run_crossover": "off"}
# The HiGHS solver follows the LP's size. Below SIMPLEX_MAX_COLUMNS columns
# (every sweep cell at n=8) dual simplex takes about two thirds of the
# interior point time; above it interior point with crossover is the faster
# (the n=16 chessboard full LP, 3,105 columns). Both return the same vertex
# optima to rounding. A solver that fails is retried once with the other. From
# this size on a heuristic step's residual LP (2,049 columns in the n=16
# chessboard scan) is first solved without crossover (module docstring).
SIMPLEX_MAX_COLUMNS = 1500
# A heuristic step is accepted when its lambda reaches this: 1 up to a margin
# far below the solver's 1e-7 feasibility tolerance.
OBJECTIVE_REACHED = 1.0 - 1e-9
# A step's LP is skipped when lambda_b, the LP-free bound on its lambda, lies
# below OBJECTIVE_REACHED by more than this: ten times the solver's feasibility
# tolerance, so a step the LP could accept is always solved.
SKIP_MARGIN = 1e-6
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
class _FlowLP:
    """The LP of a demand on a capacity, built once by `_assemble_lp`: what
    HiGHS solves and `verify_solution` checks a flow block against.
    Column 0 is theta; column 1 + k*len(arcs) + a is the flow of sources[k]
    on arcs[a]."""

    arcs: np.ndarray  # (A, 2) arcs (i, j) of positive capacity, row-major
    capacity: np.ndarray  # (A,) capacity of each arc in link units: the cap rows' bounds
    demand: np.ndarray  # (n, n) demand in link units: -theta's coefficient in each bal row
    sources: np.ndarray  # (S,) nodes with positive demand
    balance: np.ndarray  # (R, 2) the (s, v) of each bal row
    c: np.ndarray
    A_ub: sp.csr_matrix  # one cap row per arc, <= capacity
    A_eq: sp.csr_matrix  # one bal row per (s, v) of balance, == 0


@dataclass(frozen=True, eq=False)  # == on an array field would raise; compare fields
class ThroughputResult:
    """Optimal scaling factor, the flow assignment that certifies it, and
    `lp`, the LP that was solved, which `verify_solution` reads.

    flows[k, a] is the flow that lp's k-th source sends over its a-th arc, in
    link-capacity units, summed over all of the source's destinations: the
    solver's flow columns in their own order. The sources are the nodes with
    positive demand, ascending; the arcs are the (i, j) of positive capacity
    (on a topology, the routable ones), row-major.
    `solve_max_throughput` returns the block read-only.
    """

    theta: float
    flows: np.ndarray
    lp: _FlowLP


def _link_units(t: Topology, m: DemandMatrix) -> np.ndarray:
    """m's entries (bits/s) in units of t's link capacity, once m is checked to
    fit t and to hold some demand, none of it so small that HiGHS would drop
    its coefficient and leave the pair out of the LP unseen."""
    if t.n != m.n:
        raise ValueError(f"dimension mismatch: topology n={t.n}, demand n={m.n}")
    demand = m.entries / t.link_capacity
    if not (demand > 0).any():
        raise ValueError("demand matrix has no positive entries; throughput is unbounded")
    limit = _HIGHS_OPTIONS["small_matrix_value"]
    small = np.argwhere((demand > 0) & (demand < limit))
    if small.size:
        i, j = small[0]
        raise ValueError(f"demand at ({i}, {j}), {demand[i, j]:.6g} link units, is below "
                         f"{limit:g}, HiGHS's small_matrix_value, so the LP would drop it")
    return demand


def _assemble_lp(capacity: np.ndarray, demand: np.ndarray) -> _FlowLP:
    """The LP of `demand` on `capacity`, both (n, n) in link units; the arcs
    are the pairs of positive capacity. A bal row (s, v), v != s, exists where
    it has a term: s demands at v, or v touches an arc."""
    n = len(demand)
    tail, head = np.nonzero(capacity > 0)
    sources = np.flatnonzero((demand > 0).any(axis=1))
    touched = np.zeros(n, dtype=bool)
    touched[tail] = touched[head] = True
    has_row = (demand[sources] > 0) | touched
    has_row[np.arange(sources.size), sources] = False
    src_idx, node = np.nonzero(has_row)
    src = sources[src_idx]
    n_arcs, n_src, n_rows = tail.size, sources.size, src.size
    nvar = 1 + n_src * n_arcs

    # row_of maps (source index, node) to its bal row; -1 where there is none.
    row_of = np.full((n_src, n), -1)
    row_of[src_idx, node] = np.arange(n_rows)
    need = demand[src, node]
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
    return _FlowLP(arcs=np.column_stack((tail, head)), capacity=capacity[tail, head],
                   demand=demand, sources=sources, balance=np.column_stack((src, node)),
                   c=c, A_ub=A_ub, A_eq=A_eq)


class LPResult(NamedTuple):
    """What `linprog` reads back from HiGHS."""

    status: _highs.HighsModelStatus  # the model status HiGHS ends with
    x: np.ndarray | None  # the column values; None unless status is _OPTIMAL
    nit: int  # simplex iterations, or interior-point ones if there were none
    message: str
    ub_dual: np.ndarray | None = None  # the duals of the A_ub rows; None unless _OPTIMAL


def linprog(c, *, A_ub, b_ub, A_eq, solver, crossover=True) -> LPResult:
    """min c @ x subject to A_ub @ x <= b_ub, A_eq @ x == 0 and x >= 0, by
    HiGHS's own binding that scipy ships: the module's only solver call.

    Three modes. `solver` is HiGHS's option value: "simplex" (dual simplex)
    or "ipm" (interior point with crossover); both return a vertex. The other
    options are `_HIGHS_OPTIONS`, the ones `scipy.optimize.linprog` passes, so
    these two give the same x and `ub_dual` as it does with highs-ds or
    highs-ipm (its `ineqlin.marginals`), bit for bit. "ipm" with `crossover`
    False adds `_INTERIOR_ONLY`: it returns the interior point and its duals
    as HiGHS's interior-point solver leaves them, near-optimal but no vertex
    and not scipy's. The name and the keywords A_ub and A_eq stay because the
    benchmark traces `flowlp.linprog` by attribute and reads c, A_ub, A_eq
    and `nit` off the call.
    """
    A = sp.vstack((A_ub, A_eq), format="csr")
    lp = _highs.HighsLp()
    lp.num_row_, lp.num_col_ = A.shape
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(c.size)
    lp.col_upper_ = np.full(c.size, _highs.kHighsInf)
    zero = np.zeros(A_eq.shape[0])
    lp.row_lower_ = np.concatenate((np.full(b_ub.size, -_highs.kHighsInf), zero))
    lp.row_upper_ = np.concatenate((b_ub, zero))
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = lp.num_col_, lp.num_row_
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data

    highs = _highs._Highs()
    options = {**_HIGHS_OPTIONS, "solver": solver, **({} if crossover else _INTERIOR_ONLY)}
    for name, value in options.items():
        if highs.setOptionValue(name, value) != _highs.HighsStatus.kOk:
            raise SolverError(f"HiGHS rejected option {name}={value!r}")
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return LPResult(_highs.HighsModelStatus.kModelError, None, 0, "HiGHS rejected the model")
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    x = ub_dual = None
    if status == _OPTIMAL:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        ub_dual = np.array(solution.row_dual[:b_ub.size])
    return LPResult(status, x, info.simplex_iteration_count or info.ipm_iteration_count,
                    highs.modelStatusToString(status), ub_dual)


def _solve(lp: _FlowLP) -> LPResult:
    """lp's exact optimum, as `solve_max_throughput` describes."""
    solvers = ("simplex", "ipm") if lp.c.size < SIMPLEX_MAX_COLUMNS else ("ipm", "simplex")
    for solver in solvers:
        res = linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.capacity, A_eq=lp.A_eq, solver=solver)
        if res.status in (_OPTIMAL, _highs.HighsModelStatus.kUnbounded):
            break  # the other solver cannot bound an unbounded LP

    if res.status != _OPTIMAL:
        raise SolverError(f"solver returned {_FAILURE.get(res.status, 'numerical-trouble')}: "
                          f"{res.message}")
    return res


def _result(lp: _FlowLP, x: np.ndarray) -> ThroughputResult:
    """The ThroughputResult of lp's column values x."""
    flows = x[1:].reshape(len(lp.sources), len(lp.arcs))
    flows.setflags(write=False)
    theta = float(x[0]) + 0.0  # HiGHS may return -0.0 when some demand has no route
    return ThroughputResult(theta, flows, lp)


def _length_bound(capacity: np.ndarray, demand: np.ndarray, length: np.ndarray) -> float:
    """The arc-length bound of the module docstring on the max throughput of
    `demand` on `capacity` under arc lengths `length` >= 0, all (n, n) in link
    units: sum(capacity * length) over sum(demand * dist). Shortest paths are
    by Floyd-Warshall over the arcs of positive capacity, where only a missing
    arc is inf, so an arc of length 0 stays an arc. 0.0 when some demand has
    no path; inf when every demand has a path of length 0."""
    dist = np.where(capacity > 0, length, np.inf)
    np.fill_diagonal(dist, 0.0)
    for v in range(len(dist)):
        np.minimum(dist, dist[:, v, None] + dist[v], out=dist)
    pair = demand > 0
    need = float(demand[pair] @ dist[pair])
    return float((capacity * length).sum()) / need if need > 0 else math.inf


def _dual_bound(lp: _FlowLP, ub_dual: np.ndarray) -> float:
    """lambda_d: `_length_bound` of lp with the lengths l = max(-ub_dual, 0)
    on its arcs."""
    n = len(lp.demand)
    capacity, length = np.zeros((n, n)), np.zeros((n, n))
    capacity[tuple(lp.arcs.T)] = lp.capacity
    length[tuple(lp.arcs.T)] = np.maximum(-ub_dual, 0.0)
    return _length_bound(capacity, lp.demand, length)


@dataclass(frozen=True, eq=False)
class DirectFirstResult:
    """Demand x on capacity L (both (n, n), link units) decided direct links
    first, as `solve_max_throughput(..., direct_first=True)` returns it.

    x' = x - min(x, L), with entries below HiGHS's small_matrix_value zeroed,
    is the demand left once each pair takes min(x, L) on its own links, and
    L' = L - min(x, L) the capacity left. `bound` is lambda_b, the LP-free
    bound on the max throughput lambda of x' on L'; None exactly when
    x' = 0. `residual` is the solve of that LP that the rule of the module
    docstring decided on: the exact optimum, or the crossover-free interior
    point (lambda_p as its theta), and `ub_dual` its cap-row duals; None
    where no LP was solved, because x' = 0 or lambda_b skipped it. By the
    exchange lemma (module docstring), x routes on L at theta = 1 exactly
    when x' = 0 or lambda is at least 1. `accepted` is whether it does: the
    verdict of the rule in the module docstring, which `_decide` alone sets.
    A skipped or rejected step keeps False.
    """

    capacity: np.ndarray
    demand: np.ndarray
    bound: float | None
    residual: ThroughputResult | None = None
    ub_dual: np.ndarray | None = None
    accepted: bool = False

    @property
    def dual_bound(self) -> float | None:
        """lambda_d >= lambda*, or None when no LP was solved."""
        return None if self.residual is None else _dual_bound(self.residual.lp, self.ub_dual)

    @property
    def objective(self) -> float | None:
        """lambda, or None when no LP was solved."""
        return None if self.residual is None else self.residual.theta

    def at_one(self) -> ThroughputResult:
        """The full LP of x on L at theta = 1, with the flow block that sends
        each pair's min(x, L) over its own arc and adds the residual flows
        divided by lambda. The block meets the LP's rows when lambda >= 1 (to
        solver tolerance), the case it certifies; `verify_solution` checks it.
        lambda must be positive."""
        lp = _assemble_lp(self.capacity, self.demand)
        n = len(self.demand)
        arc = np.full((n, n), -1)
        arc[tuple(lp.arcs.T)] = np.arange(len(lp.arcs))
        source = np.full(n, -1)
        source[lp.sources] = np.arange(len(lp.sources))
        flows = np.zeros((len(lp.sources), len(lp.arcs)))
        direct = np.minimum(self.demand, self.capacity)
        s, v = np.nonzero(direct)
        flows[source[s], arc[s, v]] = direct[s, v]
        if self.residual is not None:
            r = self.residual
            flows[np.ix_(source[r.lp.sources], arc[tuple(r.lp.arcs.T)])] += r.flows / r.theta
        flows.setflags(write=False)
        return ThroughputResult(1.0, flows, lp)


def _residual(t: Topology, m: DemandMatrix):
    """(L, x, L', x'): t's routable link counts L and m in link units x, and
    what each pair's min(x, L) on its own links leaves of them,
    L' = L - min(x, L) and x' = x - min(x, L) with entries below HiGHS's
    small_matrix_value zeroed."""
    demand = _link_units(t, m)
    capacity = t.routable_counts().astype(float)
    direct = np.minimum(demand, capacity)
    left = demand - direct
    left[left < _HIGHS_OPTIONS["small_matrix_value"]] = 0.0
    return capacity, demand, capacity - direct, left


def solve_max_throughput(t: Topology, m: DemandMatrix, *,
                         direct_first: bool = False) -> ThroughputResult | DirectFirstResult:
    """Maximize theta such that theta*m admits a feasible flow on t.

    `m` is in bits/s; the flows come back in link units. The LP goes to
    HiGHS through `linprog`, once per attempt, with `_HIGHS_OPTIONS`:
    dual simplex below SIMPLEX_MAX_COLUMNS columns, interior point from there.
    If that solver fails, the other is tried once; if that fails too,
    SolverError names the model status and its message.

    With `direct_first`, it answers only whether theta = 1 is feasible: a
    `DirectFirstResult` whose `accepted` is the verdict of the rule in the
    module docstring. It solves no LP when each pair's direct links leave no
    demand, or when lambda_b rules the step out; otherwise the
    max-throughput LP of the demand they leave on the capacity they leave.
    From SIMPLEX_MAX_COLUMNS columns on, that LP is first solved by interior
    point without crossover, and solved as above where the rule leaves that
    point undecided. A step the rule leaves undecided after that is a
    SolverError.
    """
    if not direct_first:
        lp = _assemble_lp(t.routable_counts().astype(float), _link_units(t, m))
        return _result(lp, _solve(lp).x)
    capacity, demand, room, left = _residual(t, m)
    if not left.any():
        return _decide(DirectFirstResult(capacity, demand, None), exact=True)
    bound = _length_bound(room, left, np.ones_like(room))
    if bound < OBJECTIVE_REACHED - SKIP_MARGIN:
        return DirectFirstResult(capacity, demand, bound)
    lp = _assemble_lp(room, left)
    # The attempts: from SIMPLEX_MAX_COLUMNS columns on the crossover-free
    # interior point, then the exact solve, which returns a step or raises.
    exact = lp.c.size < SIMPLEX_MAX_COLUMNS
    while True:
        res = _solve(lp) if exact else linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.capacity,
                                                 A_eq=lp.A_eq, solver="ipm", crossover=False)
        if exact or res.status == _OPTIMAL:
            step = _decide(DirectFirstResult(capacity, demand, bound, _result(lp, res.x),
                                             res.ub_dual), exact=exact)
            if exact or step is not None:
                return step
        exact = True


def _decide(step: DirectFirstResult, *, exact: bool) -> DirectFirstResult | None:
    """step with its verdict, once the rule of the module docstring settles
    it: accepted, or step as it is, rejected. If the rule does not settle it,
    None for an interior point, SolverError for an exact optimum. lambda_d is
    computed only where the accept side did not settle it."""
    objective = step.objective
    if objective is None or objective >= OBJECTIVE_REACHED + (0.0 if exact else DEFAULT_TOL):
        if verify_solution(step.at_one()).ok:
            return replace(step, accepted=True)
    elif objective < OBJECTIVE_REACHED and step.dual_bound < OBJECTIVE_REACHED:
        return step
    if not exact:
        return None
    worst = max(verify_solution(step.at_one()).violations, key=lambda v: v.magnitude,
                default=None)
    raise SolverError(
        f"undecided step: lambda = {objective!r} and lambda_d = {step.dual_bound!r} against "
        f"{OBJECTIVE_REACHED!r}; its flows at theta = 1 "
        + (f"failed verification: {worst.kind}: {worst.detail}" if worst else "verify"))


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

    It relaxes the hop-volume bound of one topology (Jyothi et al., SC'16):
    there, a pair's flow beyond its own L_ij links takes at least
    h = max(2, hop) arcs, so theta fits only if
    sum(theta*x + (h - 1) * max(0, theta*x - L)) <= sum(L). Here every excess
    is weighted 1, not h - 1 >= 1, and the links are chosen for the bound. A
    link count L_ij cuts pair (i, j)'s 2*theta*x_ij link units by
    min(theta*x_ij, L_ij), its k-th link by min(1, max(0, theta*x_ij - (k - 1)));
    row i's `degree` links cut at most its top `degree` single-link cuts,
    top_i(theta): the whole ones, floor(theta*x_ij) per pair, then the largest
    fractional parts. So theta fits a topology only if
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


def verify_solution(r: ThroughputResult) -> Report:
    """Re-check every constraint of the LP `r` solves with fresh arithmetic.

    The arcs, sources, rows and demand (link units) come from `r.lp`; arc
    loads and per-(s, v) net inflows are summed here from `r.flows`, not read
    off the constraint matrices. Returns a report of violations exceeding
    VERIFY_EPS (in link units); an empty report means the flows certify
    theta. A non-finite theta or flow entry gets one non-finite violation, and
    a block whose shape is not the LP's sources x arcs one layout violation,
    with no further check.
    """
    lp = r.lp
    flows = np.asarray(r.flows, dtype=float)
    bad = np.count_nonzero(~np.isfinite(flows))
    if bad or not math.isfinite(r.theta):
        return Report((Violation(
            "non-finite", f"theta = {r.theta!r}, {bad} non-finite flow entries", math.inf),))
    shape = (len(lp.sources), len(lp.arcs))
    if flows.shape != shape:
        return Report((Violation(
            "layout", f"flows have shape {flows.shape}, the LP has {shape} (sources x arcs)",
            math.inf),))
    violations = []

    for k, a in zip(*np.nonzero(flows < -VERIFY_EPS)):
        (i, j), f = lp.arcs[a].tolist(), float(flows[k, a])
        violations.append(Violation(
            "negative-flow", f"f({lp.sources[k]}, {i}, {j}) = {f}", -f))

    load = flows.sum(axis=0)
    for a in np.flatnonzero(load - lp.capacity > VERIFY_EPS):
        (i, j), cap = lp.arcs[a].tolist(), lp.capacity[a]
        violations.append(Violation(
            "capacity", f"arc ({i},{j}) carries {load[a]:.9g} > {cap:.9g}",
            float(load[a] - cap)))

    tail, head = lp.arcs.T
    # net_in[v, k]: inflow minus outflow of source k at v
    net_in = np.zeros((len(lp.demand), len(lp.sources)))
    np.add.at(net_in, head, flows.T)
    np.add.at(net_in, tail, -flows.T)
    src, node = lp.balance.T
    got = net_in[node, np.searchsorted(lp.sources, src)]
    need = r.theta * lp.demand[src, node]
    gap = got - need
    for q in np.flatnonzero(np.abs(gap) > VERIFY_EPS):
        s_q, v_q = int(src[q]), int(node[q])
        if lp.demand[s_q, v_q] > 0:
            violations.append(Violation(
                "demand", f"source {s_q} nets {got[q]:.9g} at node {v_q}, "
                          f"needs {need[q]:.9g}", abs(float(gap[q]))))
        else:
            violations.append(Violation(
                "conservation", f"source {s_q} unbalanced at node {v_q} by {gap[q]:.9g}",
                abs(float(gap[q]))))
    return Report(tuple(violations))

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.optimize
import scipy.sparse as sp
from scipy.optimize._highspy._core import HighsModelStatus, _Highs
from scipy.sparse.csgraph import shortest_path

from rdcn_throughput import (
    DemandMatrix,
    NetworkParams,
    SolverError,
    Topology,
    build_oblivious_equivalent,
    generate,
    solve_max_throughput,
    verify_solution,
)

from rdcn_throughput import evaluation, flowlp
from rdcn_throughput.evaluation import build_suite, sweep_degree
from rdcn_throughput.flowlp import (
    OBJECTIVE_REACHED,
    SKIP_MARGIN,
    _assemble_lp,
    _length_bound,
    demand_upper_bound,
)
from rdcn_throughput.topology import (
    build_demand_aware_emulated,
    build_demand_aware_static,
    link_budget,
)

from conftest import exact_only, no_skip, sinkhorn_doubly_stochastic
from lp_oracle import path_lp_throughput


def complete_topology(n, cap=1.0):
    counts = np.ones((n, n), dtype=int)
    np.fill_diagonal(counts, 0)
    return Topology(counts, cap, "test")


def _lp_of(t, m):
    """The LP `solve_max_throughput(t, m)` solves: m in link units on t's routable links."""
    return _assemble_lp(t.routable_counts().astype(float), m.entries / t.link_capacity)


def unit_uniform_demand(n):
    entries = np.ones((n, n))
    np.fill_diagonal(entries, 0.0)
    return DemandMatrix(entries)


class TestSolveMaxThroughput:
    def test_complete_graph_carries_unit_uniform_exactly(self):
        result = solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert result.theta == pytest.approx(1.0, abs=1e-9)

    def test_single_link_half_throughput(self):
        counts = np.zeros((2, 2), dtype=int)
        counts[0, 1] = 1
        t = Topology(counts, 1.0, "test")
        entries = np.zeros((2, 2))
        entries[0, 1] = 2.0
        result = solve_max_throughput(t, DemandMatrix(entries))
        assert result.theta == pytest.approx(0.5, abs=1e-9)

    def test_commodity_with_no_outgoing_arcs_forces_zero(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[1, 2] = 1
        t = Topology(counts, 1.0, "test")
        entries = np.zeros((3, 3))
        entries[0, 1] = 1.0
        result = solve_max_throughput(t, DemandMatrix(entries))
        assert result.theta == pytest.approx(0.0, abs=1e-9)
        assert math.copysign(1.0, result.theta) == 1.0  # +0.0, not -0.0

    def test_oblivious_lp_at_least_two_hop_oracle(self):
        p = NetworkParams(8, 2, 1.0)
        t = build_oblivious_equivalent(p)
        m = generate("permutation", p)
        full = solve_max_throughput(t, m).theta
        restricted = path_lp_throughput(t.routable_counts(), m.entries / t.link_capacity,
                                        max_len=2)
        assert full >= restricted - 1e-9

    def test_theta_can_exceed_one_for_slack_demand(self):
        entries = np.zeros((2, 2))
        entries[0, 1] = 0.25
        counts = np.zeros((2, 2), dtype=int)
        counts[0, 1] = 1
        t = Topology(counts, 1.0, "test")
        result = solve_max_throughput(t, DemandMatrix(entries))
        assert result.theta == pytest.approx(4.0, abs=1e-8)

    def test_scaling_duality(self):
        p = NetworkParams(6, 2, 1.0)
        t = build_oblivious_equivalent(p)
        m = generate("random-saturated", p, seed=4)
        base = solve_max_throughput(t, m).theta
        for k in (0.5, 2.0, 3.0):
            scaled = solve_max_throughput(t, m.scaled(k)).theta
            assert scaled == pytest.approx(base / k, abs=2e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_adding_a_link_never_hurts(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        counts = (rng.random((n, n)) < 0.5).astype(int)
        np.fill_diagonal(counts, 0)
        counts[0, 1] = max(counts[0, 1], 1)  # keep at least one arc
        entries = rng.random((n, n)) * (counts.sum() > 0)
        np.fill_diagonal(entries, 0.0)
        if not entries.any():
            entries[0, 1] = 1.0
        t = Topology(counts, 1.0, "test")
        base = solve_max_throughput(t, DemandMatrix(entries)).theta
        bumped = counts.copy()
        i, j = rng.integers(0, n, 2)
        while i == j:
            j = rng.integers(0, n)
        bumped[i, j] += 1
        t2 = Topology(bumped, 1.0, "test")
        assert solve_max_throughput(t2, DemandMatrix(entries)).theta >= base - 1e-7

    def test_methods_agree(self, monkeypatch):
        # every LP that the n=8 sweep of all four classes solves, by both
        # exact methods: the full LP of an LP class, and a heuristic step's
        # residual one on the exact path an undecided interior point falls to
        solve = evaluation.solve_max_throughput
        gaps = []

        def both(t, m, **kwargs):
            with monkeypatch.context() as size_rule:
                exact_only(size_rule)
                size_rule.setattr(flowlp, "SIMPLEX_MAX_COLUMNS", 0)  # interior point
                a = solve(t, m, **kwargs)
                size_rule.setattr(flowlp, "SIMPLEX_MAX_COLUMNS", math.inf)  # dual simplex
                b = solve(t, m, **kwargs)
            if kwargs.get("direct_first"):
                a, b = a.residual, b.residual
            if a is not None:
                gaps.append(abs(a.theta - b.theta))
            return solve(t, m, **kwargs)

        monkeypatch.setattr(evaluation, "solve_max_throughput", both)
        no_skip(monkeypatch)  # every scanned step reaches its LP
        sweep_degree(NetworkParams(8, 4, 25e9), [4, 8], seed=0)
        assert len(gaps) > 100
        assert max(gaps) <= 1e-9

    def test_demand_in_bits_per_second(self, desk_params):
        # 25 Gb/s links at u=4 of 16 ports: the oblivious graph's links carry
        # 6.25 Gb/s each, and the uniform hose matrix fits it exactly.
        t = build_oblivious_equivalent(desk_params)
        m = generate("uniform", desk_params)
        result = solve_max_throughput(t, m)
        assert result.theta == pytest.approx(1.0, abs=1e-9)
        assert verify_solution(result).ok
        # each pair fits its own links
        assert solve_max_throughput(t, m, direct_first=True).bound is None

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError, match="no positive entries"):
            solve_max_throughput(complete_topology(3), DemandMatrix(np.zeros((3, 3))))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            solve_max_throughput(complete_topology(3), unit_uniform_demand(4))

    def test_demand_below_small_matrix_value_is_named(self):
        # Links 0->1->2->0 and 3->0: no path reaches 3, so theta is 0. HiGHS
        # would drop the 1e-10 coefficient and report the pair (0, 1)'s 1.0.
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 1] = counts[1, 2] = counts[2, 0] = counts[3, 0] = 1
        t = Topology(counts, 1.0, "test")
        entries = np.zeros((4, 4))
        entries[0, 1], entries[0, 3] = 1.0, 1e-10
        message = (r"demand at \(0, 3\), 1e-10 link units, is below 1e-09, HiGHS's "
                   r"small_matrix_value, so the LP would drop it")
        for solve in (solve_max_throughput, partial(solve_max_throughput, direct_first=True)):
            with pytest.raises(ValueError, match=message):
                solve(t, DemandMatrix(entries))
        entries[0, 3] = 1e-3
        assert solve_max_throughput(t, DemandMatrix(entries)).theta == 0.0


@st.composite
def near_one_instances(draw):
    """A random instance whose demand is rescaled so that its full-LP theta*
    is 1/factor, within a factor of 1.25 of 1 but more than 1e-6 from it; a
    theta* of 0 (some demand has no path) stays 0."""
    t, m = draw(random_instances())
    theta = solve_max_throughput(t, m).theta
    factor = draw(st.floats(0.8, 1.25))
    assume(abs(1 / factor - 1) > 1e-6)
    return t, m.scaled(theta * factor) if theta > 0 else m


class TestDirectFirst:
    """A step decided on the demand its direct links leave: the same yes/no
    as the full LP's theta* >= 1, and a full-LP flow block at theta = 1 that
    verifies when the answer is yes."""

    @staticmethod
    def _line():
        # 0->1, 1->2 and 0->2, one link each
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = counts[1, 2] = counts[0, 2] = 1
        return Topology(counts, 1.0, "line")

    @staticmethod
    def _demand(x):
        entries = np.zeros((3, 3))
        entries[0, 2] = x
        return DemandMatrix(entries)

    def test_no_lp_when_the_direct_links_carry_all(self, monkeypatch):
        calls = []
        monkeypatch.setattr(flowlp, "linprog", lambda *a, **k: calls.append(k["mode"]))
        result = solve_max_throughput(complete_topology(4), unit_uniform_demand(4),
                                      direct_first=True)
        assert (result.bound, result.residual, result.objective, calls) == (None, None, None, [])
        assert (result.method, result.accepted) == ("direct", True)
        full = result.at_one()
        assert full.theta == 1.0 and verify_solution(full).ok
        # each source sends 1 on each of its own arcs, nothing else
        assert np.array_equal(full.flows, (full.lp.arcs[:, 0] == full.lp.sources[:, None]) * 1.0)

    def test_residual_lp_and_its_certificate(self):
        # 1 of the 1.5 goes direct; the other 0.5 fits 0->1->2 twice over
        result = solve_max_throughput(self._line(), self._demand(1.5), direct_first=True)
        assert result.objective == pytest.approx(2.0, abs=1e-9)
        assert result.residual.lp.arcs.tolist() == [[0, 1], [1, 2]]
        full = result.at_one()
        assert verify_solution(full).ok
        assert full.lp.arcs.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert full.flows == pytest.approx(np.array([[0.5, 1.0, 0.5]]), abs=1e-9)

    def test_certificate_of_a_rejected_step_fails(self, monkeypatch):
        # 3 from 0 to 2: 1 direct, and the path carries 1 of the other 2
        no_skip(monkeypatch)
        result = solve_max_throughput(self._line(), self._demand(3.0), direct_first=True)
        assert result.objective == pytest.approx(0.5, abs=1e-9)
        assert solve_max_throughput(self._line(), self._demand(3.0)).theta == pytest.approx(
            2 / 3, abs=1e-9)
        kinds = {v.kind for v in verify_solution(result.at_one()).violations}
        assert kinds == {"capacity"}

    def test_step_the_bound_rules_out_solves_no_lp(self, monkeypatch):
        # 3 from 0 to 2 leaves 2 on 0->1->2: 2 units of room over 2 hops per
        # unit, so lambda_b = 0.5 is below the skip threshold
        def reached(*args, **kwargs):
            raise AssertionError("a skipped step reached its LP")

        monkeypatch.setattr(flowlp, "_assemble_lp", reached)
        monkeypatch.setattr(flowlp, "linprog", reached)
        t, m = self._line(), self._demand(3.0)
        step = solve_max_throughput(t, m, direct_first=True)
        assert step.bound == residual_hop_bound(t, m) == 0.5
        assert (step.accepted, step.objective, step.dual_bound) == (False, None, None)

    def test_no_arc_left_gives_zero(self, monkeypatch):
        # the direct link is full, and no other arc leaves 0
        no_skip(monkeypatch)
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 2] = counts[2, 1] = 1
        result = solve_max_throughput(Topology(counts, 1.0, "test"), self._demand(1.5),
                                      direct_first=True)
        assert result.objective == 0.0

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(near_one_instances())
    def test_decides_as_the_full_lp(self, instance):
        t, m = instance
        reached = evaluation.OBJECTIVE_REACHED
        full = solve_max_throughput(t, m).theta >= reached
        assert solve_max_throughput(t, m, direct_first=True).accepted == full
        with pytest.MonkeyPatch.context() as patch:
            no_skip(patch)
            result = solve_max_throughput(t, m, direct_first=True)
        accepted = result.objective is None or result.objective >= reached
        assert accepted == full
        if accepted:
            assert verify_solution(result.at_one()).ok


class TestPathOracleEquivalence:
    """Edge and path formulations agree on every small topology with unit demands."""

    def topologies(self, n):
        yield complete_topology(n)
        ring = np.zeros((n, n), dtype=int)
        for i in range(n):
            ring[i, (i + 1) % n] = 1
        yield Topology(ring, 1.0, "ring")
        rng = np.random.default_rng(n)
        for seed in range(4):
            counts = rng.integers(0, 3, size=(n, n))
            np.fill_diagonal(counts, 0)
            # make sure every node can reach out and be reached
            for i in range(n):
                counts[i, (i + 1) % n] = max(counts[i, (i + 1) % n], 1)
            yield Topology(counts, 1.0, f"rand{seed}")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equivalence(self, n):
        demand = unit_uniform_demand(n)
        for t in self.topologies(n):
            edge_opt = solve_max_throughput(t, demand).theta
            path_opt = path_lp_throughput(t.routable_counts(), demand.entries)
            assert edge_opt == pytest.approx(path_opt, abs=1e-6), t.net_class


@st.composite
def random_instances(draw):
    n = draw(st.integers(2, 5))
    counts = np.array(draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n)))
    counts = counts.reshape(n, n)
    np.fill_diagonal(counts, 0)
    demand = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
    entries = np.array(draw(st.lists(demand, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(entries, 0.0)
    assume(entries.any())
    return Topology(counts, 1.0, "random"), DemandMatrix(entries)


class TestRandomInstances:
    """Edge LP = path oracle, with a clean verification, on random small instances."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(random_instances())
    def test_matches_path_oracle_and_verifies(self, instance):
        t, m = instance
        result = solve_max_throughput(t, m)
        assert result.theta == pytest.approx(
            path_lp_throughput(t.routable_counts(), m.entries), abs=1e-6)
        assert verify_solution(result).ok


def _interior(lp):
    """lp's "interior" point, with no crossover: (lambda_p, lambda_d)."""
    res = flowlp.linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.capacity, A_eq=lp.A_eq, mode="interior")
    assert res.status == HighsModelStatus.kOptimal
    return res.x[0], flowlp._dual_bound(lp, res.ub_dual)


def _chessboard_step(scale, n=16):
    """The topology and demand of the u=4 chessboard scan's step at `scale`,
    at seed 0. At n=16, da-periodic, 0.86 and 0.85 are rejected and 0.84
    accepted from the interior point; at n=8, da-static, 0.69 is rejected
    by dual simplex."""
    p = NetworkParams(n, 4, 25e9)
    m = generate("chessboard", p).scaled(scale)
    k = round((1 - scale) / evaluation.DEFAULT_STEP)
    seed = evaluation._seed_int(evaluation._seed_int(0, "chessboard"), "iter", k)
    build = build_demand_aware_emulated if n == 16 else build_demand_aware_static
    return build(m, p, seed=seed), m


class TestDecisionBracket:
    """Every step is decided by one rule: accepted on lambda and a verified
    certificate, rejected on the dual bound lambda_d. An "interior" point
    that neither settles is solved exactly, and an exact optimum that neither
    settles is a SolverError. Each step names the method that decided it."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.one_of(random_instances(), near_one_instances()))
    def test_bracket_holds_the_optimum(self, instance):
        # lambda_d is a bound, near-optimal duals make it tight and the exact
        # solve's duals tight to rounding; lambda_p is a point feasible to
        # DEFAULT_TOL only
        lp = _lp_of(*instance)
        exact = flowlp._solve(lp)
        optimum = exact.x[0]
        primal, dual = _interior(lp)
        assert primal <= optimum + flowlp.DEFAULT_TOL
        assert optimum <= dual + 1e-9
        assert dual <= optimum * (1 + 1e-6) + 1e-9
        exact_dual = flowlp._dual_bound(lp, exact.ub_dual)
        # the exact lambda_d was seen one rounding step below lambda*
        assert optimum * (1 - 1e-12) <= exact_dual <= optimum * (1 + 1e-9)

    def test_arcs_of_zero_length_stay_arcs(self):
        # 0->1 (10 links) and 1->2 (1 link) carry 1 from 0 to 2: lambda* = 1.
        # The optimal duals price 0->1, which has slack, at 0.
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1], counts[1, 2] = 10, 1
        entries = np.zeros((3, 3))
        entries[0, 2] = 1.0
        lp = _lp_of(Topology(counts, 1.0, "test"), DemandMatrix(entries))
        assert lp.arcs.tolist() == [[0, 1], [1, 2]]
        optimal = np.array([0.0, -1.0])
        assert flowlp._dual_bound(lp, optimal) == 1.0
        # csgraph reads a dense zero as no arc: 2 looks unreachable, bound 0
        dense = np.zeros((3, 3))
        dense[tuple(lp.arcs.T)] = -optimal
        assert np.isinf(shortest_path(dense)[0, 2])
        primal, dual = _interior(lp)
        assert primal <= 1.0 + 1e-9 <= dual + 2e-9

    @staticmethod
    def _spy(monkeypatch, tamper=lambda res, mode: res):
        """The mode of each HiGHS call from here on, each result passed
        through `tamper` with its mode."""
        calls = []
        real = flowlp.linprog

        def linprog(*args, mode, **kwargs):
            calls.append(mode)
            return tamper(real(*args, mode=mode, **kwargs), mode)

        monkeypatch.setattr(flowlp, "linprog", linprog)
        return calls

    def test_straddling_bracket_is_solved_exactly(self, monkeypatch):
        no_skip(monkeypatch)
        calls = self._spy(monkeypatch)
        untouched = solve_max_throughput(*_chessboard_step(0.86), direct_first=True)
        assert calls == ["interior"] and untouched.method == "interior"
        assert not untouched.accepted and untouched.dual_bound < OBJECTIVE_REACHED

        # the interior point's duals zeroed: lambda_d = inf leaves
        # lambda_p < 1 <= lambda_d undecided, and the exact duals reject
        def zeroed(res, mode):
            return res if mode != "interior" else res._replace(ub_dual=np.zeros_like(res.ub_dual))

        calls = self._spy(monkeypatch, zeroed)
        step = solve_max_throughput(*_chessboard_step(0.86), direct_first=True)
        assert calls == ["interior", "ipm"] and step.method == "exact"
        assert not step.accepted and step.dual_bound < OBJECTIVE_REACHED
        assert step.objective == flowlp._solve(step.residual.lp).x[0]

    @pytest.mark.parametrize("scale, accepted", [(0.86, False), (0.84, True)])
    def test_candidate_that_fails_verification_is_solved_exactly(self, monkeypatch, scale,
                                                                 accepted):
        # lambda_p doubled: the point's flows divided by it fall short
        def doubled(res, mode):
            if mode != "interior":
                return res
            x = res.x.copy()
            x[0] *= 2
            return res._replace(x=x)

        no_skip(monkeypatch)
        calls = self._spy(monkeypatch, doubled)
        step = solve_max_throughput(*_chessboard_step(scale), direct_first=True)
        assert calls == ["interior", "ipm"] and step.method == "exact"
        assert step.accepted == accepted
        assert step.objective == flowlp._solve(step.residual.lp).x[0]
        if accepted:
            assert verify_solution(step.at_one()).ok

    @pytest.mark.parametrize("scale, accepted", [(0.84, True), (0.86, False)])
    def test_verdict_is_kept_not_read_again(self, monkeypatch, scale, accepted):
        # the threshold moved past lambda after the call: the step keeps the
        # verdict the rule gave it
        no_skip(monkeypatch)
        step = solve_max_throughput(*_chessboard_step(scale), direct_first=True)
        assert step.accepted == accepted and step.residual is not None
        monkeypatch.setattr(flowlp, "OBJECTIVE_REACHED",
                            step.objective * (2.0 if accepted else 0.5))
        assert step.accepted == accepted

    @pytest.mark.parametrize("n, scale, modes", [
        (8, 0.69, ["simplex"]),
        (16, 0.86, ["interior", "ipm"]),
    ], ids=["n8-exact", "n16-interior"])
    def test_zeroed_duals_never_reject(self, monkeypatch, n, scale, modes):
        # lengths of 0 leave every demand a path of length 0, so lambda_d is
        # inf and certifies no reject: an interior point goes to the exact
        # solve, and the exact optimum is a SolverError
        no_skip(monkeypatch)
        calls = self._spy(monkeypatch, lambda res, mode: res._replace(
            ub_dual=np.zeros_like(res.ub_dual)))
        with pytest.raises(SolverError, match=r"lambda_d = inf against"):
            solve_max_throughput(*_chessboard_step(scale, n), direct_first=True)
        assert calls == modes

    def test_undecided_exact_step_names_lambda_and_lambda_d(self, monkeypatch):
        step = _chessboard_step(0.69, n=8)
        objective = solve_max_throughput(*step, direct_first=True).objective
        assert objective < OBJECTIVE_REACHED
        monkeypatch.setattr(flowlp, "_dual_bound", lambda lp, ub_dual: 2.0)
        with pytest.raises(SolverError) as err:
            solve_max_throughput(*step, direct_first=True)
        assert str(err.value).startswith(
            f"undecided step: lambda = {objective!r} and lambda_d = 2.0 against 0.999999999; "
            "its flows at theta = 1 failed verification: capacity: arc ")


def hop_volume_bisection(t, m):
    """The largest theta with sum(theta*x + (h - 1) * max(0, theta*x - L)) <=
    sum(L), h = max(2, BFS hops), found by bisection over a plain loop."""
    links = t.routable_counts().astype(float)
    x = m.entries / t.link_capacity
    n = t.n
    hop = np.full((n, n), np.inf)
    for s in range(n):
        hop[s, s], frontier, k = 0, [s], 0
        while frontier:
            k += 1
            frontier = [v for u in frontier for v in range(n)
                        if links[u, v] > 0 and hop[s, v] == np.inf]
            for v in frontier:
                hop[s, v] = k
    pair = x > 0
    if np.isinf(hop[pair]).any():
        return 0.0
    weight = np.maximum(hop[pair], 2) - 1
    lo, hi = 0.0, links.sum() / x[pair].sum()
    for _ in range(100):
        mid = (lo + hi) / 2
        units = (mid * x[pair] + weight * np.maximum(mid * x[pair] - links[pair], 0)).sum()
        lo, hi = (mid, hi) if units <= links.sum() else (lo, mid)
    return lo


def residual_hop_bound(t, m):
    """lambda_b by plain loops: the residual x' and L' pair by pair, BFS hops
    in the arcs of positive L', and sum(L') / sum(x' * hops); None when x' is
    0, 0.0 when some pair of x' has no path."""
    links = t.routable_counts().astype(float)
    x = m.entries / t.link_capacity
    n = t.n
    room = np.zeros((n, n))
    left = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            direct = min(x[i, j], links[i, j])
            room[i, j] = links[i, j] - direct
            left[i, j] = x[i, j] - direct if x[i, j] - direct >= 1e-9 else 0.0
    if not left.any():
        return None
    volume = 0.0
    for s in range(n):
        hop, frontier, k = {s: 0}, [s], 0
        while frontier:
            k += 1
            frontier = [v for u in frontier for v in range(n) if room[u, v] > 0 and v not in hop]
            hop.update((v, k) for v in frontier)
        for v in range(n):
            if left[s, v] > 0:
                if v not in hop:
                    return 0.0
                volume += left[s, v] * hop[v]
    return room.sum() / volume


def _unskipped(t, m):
    """solve_max_throughput(t, m, direct_first=True) with no step skipped."""
    with pytest.MonkeyPatch.context() as patch:
        no_skip(patch)
        return solve_max_throughput(t, m, direct_first=True)


class TestThroughputUpperBound:
    """lambda_b, the LP-free bound a direct-first step reads as its `bound`
    and skips its LP on: never below the residual LP's lambda, the exact
    value of its own formula, and never above the skip threshold where the
    full LP's hop-volume bound is below it."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(random_instances())
    def test_never_below_the_lp(self, instance):
        t, m = instance
        step = _unskipped(t, m)
        bound, objective = step.bound, step.objective
        assert (bound is None) == (objective is None)  # x' = 0: no LP to bound
        if bound is not None:
            assert bound >= objective - 1e-9
            assert bound == pytest.approx(residual_hop_bound(t, m), rel=1e-12, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(near_one_instances())
    def test_rules_out_every_step_the_hop_volume_bound_does(self, instance):
        # each residual unit crosses hop' >= max(2, hop) arcs of L' (x' > 0
        # leaves its own arc no room), so it skips where the full LP's bound did
        t, m = instance
        skip = OBJECTIVE_REACHED - SKIP_MARGIN
        if hop_volume_bisection(t, m) < skip:
            step = solve_max_throughput(t, m, direct_first=True)
            assert step.bound is not None and step.bound < skip
            assert (step.residual, step.accepted) == (None, False)

    def test_none_exactly_when_the_direct_links_carry_all(self):
        def bound(t, m):
            return solve_max_throughput(t, m, direct_first=True).bound

        t = TestDirectFirst._line()
        entries = np.zeros((3, 3))
        entries[0, 2] = 1.0
        assert bound(t, DemandMatrix(entries)) is None
        # what is left below HiGHS's small_matrix_value is no demand
        entries[0, 2] = 1.0 + 5e-10
        assert bound(t, DemandMatrix(entries)) is None
        # 0.5 left over 0->1->2: 2 units of room over 2 hops per unit
        entries[0, 2] = 1.5
        assert bound(t, DemandMatrix(entries)) == 2.0
        assert bound(complete_topology(4), unit_uniform_demand(4)) is None

    def test_tight_on_the_all_heavy_chessboard_graph(self, monkeypatch):
        # 2 links on every opposite-parity pair at n=16, u=4: those pairs send
        # their 1.5 direct and leave 0.5 of room on each of 128 arcs; the 112
        # same-parity pairs have no link, and their 4/7 each needs 2 hops per
        # unit, so lambda = 64 / 128 (the full LP's theta* is criterion 2's 4/5)
        p = NetworkParams(16, 4, 25e9)
        heavy = np.add.outer(np.arange(p.n), np.arange(p.n)) % 2
        t = Topology(2 * heavy, p.c * p.u / p.n, "all-heavy")
        m = generate("chessboard", p)
        assert solve_max_throughput(t, m, direct_first=True).bound == pytest.approx(
            0.5, abs=1e-12)
        exact_only(monkeypatch)  # the exact vertex
        no_skip(monkeypatch)
        step = solve_max_throughput(t, m, direct_first=True)
        assert step.objective == pytest.approx(0.5, abs=1e-9)
        assert solve_max_throughput(t, m).theta == pytest.approx(0.80, abs=1e-6)

    def test_unreachable_demand_gives_zero_without_warnings(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[1, 2] = 1
        t = Topology(counts, 1.0, "test")
        entries = np.zeros((3, 3))
        entries[0, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_max_throughput(t, DemandMatrix(entries), direct_first=True).bound == 0.0
        # the direct link is full, and the arc left does not leave 0
        counts[0, 1] = 1
        entries[0, 1] = 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_max_throughput(t, DemandMatrix(entries), direct_first=True).bound == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_hops_are_the_bfs_distances(self, seed):
        # with unit lengths, one unit on a single pair gives sum(capacity) over
        # its BFS distance, 0.0 where it has none: on sparse random digraphs,
        # often disconnected, and on one of two components
        rng = np.random.default_rng(seed)
        graphs = [rng.random((n, n)) < rng.uniform(0.0, 0.3) for n in (1, 2, 5, 16, 40)]
        two = np.zeros((8, 8), dtype=bool)
        two[:4, :4] = two[4:, 4:] = True
        for adjacent in graphs + [two]:
            np.fill_diagonal(adjacent, False)
            capacity = adjacent * rng.integers(1, 4, adjacent.shape).astype(float)
            hops = shortest_path(adjacent, unweighted=True)
            for s, v in zip(*np.nonzero(~np.eye(len(adjacent), dtype=bool))):
                demand = np.zeros_like(capacity)
                demand[s, v] = 1.0
                bound = _length_bound(capacity, demand, np.ones_like(capacity))
                assert bound == (capacity.sum() / hops[s, v] if hops[s, v] < np.inf else 0.0)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.one_of(random_instances(), near_one_instances()))
    def test_is_the_dual_bound_with_unit_lengths(self, instance):
        # lambda_b and lambda_d are one formula: lambda_d on lengths of 1
        t, m = instance
        step = _unskipped(t, m)
        assume(step.residual is not None)
        lp = step.residual.lp
        dual = flowlp._dual_bound(lp, -np.ones(len(lp.arcs)))
        assert dual.hex() == step.bound.hex()

    def test_zero_demand_and_mismatch_rejected(self):
        solve = partial(solve_max_throughput, direct_first=True)
        with pytest.raises(ValueError, match="no positive entries"):
            solve(complete_topology(3), DemandMatrix(np.zeros((3, 3))))
        with pytest.raises(ValueError, match="mismatch"):
            solve(complete_topology(3), unit_uniform_demand(4))


def greedy_cut_bisection(x, degree):
    """B(x, degree) by a plain loop: each row lists every link's cut
    min(1, max(0, theta*x - (k - 1))), keeps its top `degree`, and theta is
    found by bisection."""
    n = x.shape[0]

    def excess(theta):
        total = 0.0
        for i in range(n):
            cuts = sorted((min(1.0, max(0.0, theta * x[i, j] - (k - 1)))
                           for j in range(n) for k in range(1, degree + 1)), reverse=True)
            total += 2 * theta * x[i].sum() - sum(cuts[:degree]) - degree
        return total

    lo, hi = 0.0, 2.0 * n * degree / x.sum()
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) <= 0 else (lo, mid)
    return lo


class TestDemandUpperBound:
    """The demand-only bound B(M, d) the heuristic starts its scan at: above
    the hop-volume bound of every topology of routable out-degree <= d, and
    so above its LP optimum."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(random_instances())
    def test_above_every_topology_bound_and_its_lp(self, instance):
        t, m = instance
        degree = max(int(t.routable_counts().sum(axis=1).max()), 1)
        bound = demand_upper_bound(m, t.link_capacity, degree)
        per_topology = hop_volume_bisection(t, m)
        assert bound >= per_topology - 1e-9
        assert per_topology >= solve_max_throughput(t, m).theta - 1e-9
        assert bound == pytest.approx(greedy_cut_bisection(m.entries / t.link_capacity, degree),
                                      rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(random_instances(), st.floats(1e-3, 1e3), st.integers(1, 6))
    def test_scales_inversely_with_the_demand(self, instance, scale, degree):
        _, m = instance
        bound = demand_upper_bound(m, 1.0, degree)
        assert demand_upper_bound(m.scaled(scale), 1.0, degree) == pytest.approx(
            bound / scale, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 8, 16, 64])
    def test_at_least_half_within_the_hose_bound(self, n):
        rng = np.random.default_rng(n)
        for degree in sorted({1, max(1, n // 4), n}):
            for seed in range(4):
                # hose-tight: every row and column sums to `degree` links
                tight = sinkhorn_doubly_stochastic(n, seed, target=degree, zero_diagonal=True)
                assert demand_upper_bound(DemandMatrix(tight), 1.0, degree) >= 0.5 - 1e-12
                sparse = tight * (rng.random((n, n)) < 0.3)
                if sparse.any():
                    assert demand_upper_bound(DemandMatrix(sparse), 1.0, degree) >= 0.5 - 1e-12

    @pytest.mark.parametrize("label, net_class, expected", [
        ("chessboard", "da-periodic", 46 / 53),
        ("U+P 0.2", "da-periodic", 20 / 21),
        ("permutation", "da-periodic", 1.0),
        ("chessboard", "da-static", 8 / 13),
    ])
    def test_n16_suite_values(self, desk_params, label, net_class, expected):
        # da-periodic: the emulated graph, degree n at c*u/n; da-static: degree u at c
        m = dict(build_suite(desk_params))[label]
        bound = demand_upper_bound(m, *link_budget(net_class, desk_params))
        assert bound == pytest.approx(expected, rel=1e-12)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError, match="no positive entries"):
            demand_upper_bound(DemandMatrix(np.zeros((3, 3))), 1.0, 2)


class TestVerifySolution:
    def _solved(self):
        t = complete_topology(4)
        m = unit_uniform_demand(4)
        return t, m, solve_max_throughput(t, m)

    def test_optimal_solution_is_clean(self):
        t, m, result = self._solved()
        assert verify_solution(result).ok

    def test_verification_rederives_nothing(self, monkeypatch):
        # The solved LP travels with the result: checking it builds no LP and
        # reads no topology.
        t, m, result = self._solved()

        def rederived(*args, **kwargs):
            raise AssertionError("verify_solution re-derived the LP")

        monkeypatch.setattr(flowlp, "_assemble_lp", rederived)
        monkeypatch.setattr(Topology, "routable_counts", rederived)
        assert verify_solution(result).ok

    def test_flows_are_the_solvers_read_only_block(self, monkeypatch):
        solved = []
        real = flowlp.linprog

        def linprog(*args, **kwargs):
            solved.append(real(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(flowlp, "linprog", linprog)
        t, m, result = self._solved()
        lp = result.lp
        assert result.flows.shape == (len(lp.sources), len(lp.arcs))
        assert np.array_equal(result.flows.ravel(), solved[-1].x[1:])
        with pytest.raises(ValueError, match="read-only"):
            result.flows[0, 0] = 1.0

    def test_capacity_violation_detected(self):
        t, m, result = self._solved()
        flows = result.flows.copy()
        flows[0, 0] += 1.0
        report = verify_solution(replace(result, flows=flows))
        assert any(v.kind == "capacity" for v in report.violations)

    def test_inflated_theta_detected(self):
        t, m, result = self._solved()
        report = verify_solution(replace(result, theta=result.theta * 1.1))
        assert {v.kind for v in report.violations} == {"demand"}

    def test_over_delivery_detected(self):
        # Balance rows are equalities: flows that deliver more than theta*m fail.
        t, m, result = self._solved()
        report = verify_solution(replace(result, theta=result.theta * 0.9))
        assert {v.kind for v in report.violations} == {"demand"}
        assert len(report.violations) == 12  # every (s, v) pair of the 4-node uniform demand

    def test_negative_flow_detected(self):
        t, m, result = self._solved()
        flows = result.flows.copy()
        flows[1, 2] = -0.5
        report = verify_solution(replace(result, flows=flows))
        [negative] = [v for v in report.violations if v.kind == "negative-flow"]
        assert negative.magnitude == 0.5

    @pytest.mark.parametrize("field, value", [
        ("theta", math.nan), ("theta", math.inf), ("flow", math.nan), ("flow", math.inf),
    ], ids=["theta-nan", "theta-inf", "flow-nan", "flow-inf"])
    def test_non_finite_is_one_violation(self, monkeypatch, field, value):
        # Every comparison with nan is False, so nan must be caught before any.
        t, m, result = self._solved()
        if field == "theta":
            tampered = replace(result, theta=value)
        else:
            flows = result.flows.copy()
            flows[1, 2] = value
            tampered = replace(result, flows=flows)
        report = verify_solution(tampered)
        assert [(v.kind, v.magnitude) for v in report.violations] == [("non-finite", math.inf)]
        monkeypatch.setattr(evaluation, "solve_max_throughput", lambda t, m: tampered)
        with pytest.raises(SolverError, match="failed verification: non-finite: "):
            evaluation.throughput_static(t, m)

    @pytest.mark.parametrize("shape", [(4, 11), (3, 12), (12, 4), (48,)])
    def test_wrong_shape_is_one_layout_violation(self, shape):
        # The complete 4-node LP has 4 sources and 12 arcs.
        t, m, result = self._solved()
        flows = np.zeros(shape)
        report = verify_solution(replace(result, flows=flows))
        assert [v.kind for v in report.violations] == ["layout"]

    def test_conservation_violation_detected(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = counts[1, 2] = 1
        t = Topology(counts, 1.0, "line")
        entries = np.zeros((3, 3))
        entries[0, 2] = 1.0
        m = DemandMatrix(entries)
        result = solve_max_throughput(t, m)
        lp = result.lp
        arc = lp.arcs.tolist().index([1, 2])
        assert lp.sources.tolist() == [0]
        flows = result.flows.copy()
        flows[0, arc] += 0.25
        report = verify_solution(replace(result, flows=flows))
        assert any(v.kind == "conservation" for v in report.violations)


class TestSolverFallback:
    """Dual simplex solves an LP below SIMPLEX_MAX_COLUMNS columns, interior
    point one from there. A failed solve is retried once with the other
    solver; a failure of that raises SolverError with its status and message."""

    @staticmethod
    def _failing(monkeypatch, failing, status=HighsModelStatus.kSolveError):
        calls = []
        real = flowlp.linprog

        def linprog(*args, mode, **kwargs):
            calls.append(mode)
            if mode in failing:
                return flowlp.LPResult(status, None, 0, f"forced failure of {mode}")
            return real(*args, mode=mode, **kwargs)

        monkeypatch.setattr(flowlp, "linprog", linprog)
        return calls

    @staticmethod
    def _large():
        """The n=16 oblivious graph under uniform demand: 16 sources x 240 arcs
        plus theta, 3,841 columns."""
        p = NetworkParams(16, 4, 1.0)
        t, m = build_oblivious_equivalent(p), generate("uniform", p)
        assert _lp_of(t, m).c.size == 3841 > flowlp.SIMPLEX_MAX_COLUMNS
        return t, m

    def test_method_follows_the_lp_size(self, monkeypatch):
        calls = self._failing(monkeypatch, set())
        solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert calls == ["simplex"]
        calls.clear()
        solve_max_throughput(*self._large())
        assert calls == ["ipm"]

    def test_failed_interior_point_falls_back_to_dual_simplex(self, monkeypatch):
        calls = self._failing(monkeypatch, {"ipm"})
        monkeypatch.setattr(flowlp, "SIMPLEX_MAX_COLUMNS", 0)  # every LP to interior point
        result = solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert calls == ["ipm", "simplex"]
        assert result.theta == pytest.approx(1.0, abs=1e-9)

    def test_failed_dual_simplex_falls_back_to_interior_point(self, monkeypatch):
        calls = self._failing(monkeypatch, {"simplex"})
        result = solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert calls == ["simplex", "ipm"]
        assert result.theta == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("status,name", [
        (HighsModelStatus.kInfeasible, "infeasible"),
        (HighsModelStatus.kSolveError, "numerical-trouble"),
        (HighsModelStatus.kTimeLimit, "numerical-trouble"),
    ], ids=["infeasible", "numerical-trouble", "time-limit"])
    def test_both_methods_fail_raises(self, monkeypatch, status, name):
        calls = self._failing(monkeypatch, {"ipm", "simplex"}, status)
        with pytest.raises(SolverError) as err:
            solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert str(err.value) == f"solver returned {name}: forced failure of ipm"
        assert calls == ["simplex", "ipm"]

    def test_unbounded_is_not_retried(self, monkeypatch):
        calls = self._failing(monkeypatch, {"simplex"}, HighsModelStatus.kUnbounded)
        with pytest.raises(SolverError) as err:
            solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert str(err.value) == "solver returned unbounded: forced failure of simplex"
        assert calls == ["simplex"]


def _solve_by(method, t, m):
    """The exact solve of solve_max_throughput(t, m), its `LPResult`, with the
    solver that scipy's `method` names (highs-ds: simplex, highs-ipm: ipm)
    forced through the size rule."""
    with pytest.MonkeyPatch.context() as size_rule:
        size_rule.setattr(flowlp, "SIMPLEX_MAX_COLUMNS", math.inf if method == "highs-ds" else 0)
        return flowlp._solve(_lp_of(t, m))


def _scipy_linprog(method, t, m):
    """The same LP through scipy's public linprog, at the seam's tolerances."""
    lp = _lp_of(t, m)
    tolerances = {k: v for k, v in flowlp._HIGHS_OPTIONS.items() if k.endswith("_tolerance")}
    res = scipy.optimize.linprog(lp.c, A_ub=lp.A_ub, b_ub=lp.capacity, A_eq=lp.A_eq,
                                 b_eq=np.zeros(lp.A_eq.shape[0]), bounds=(0, None), method=method,
                                 options=tolerances)
    assert res.status == 0, res.message
    return res


class TestHighsSeam:
    """`flowlp.linprog` hands the LP straight to scipy's bundled HiGHS binding:
    same options, same optimum bit for bit as scipy's public linprog, silent,
    and every failure goes through the real binding."""

    HIGHS_API = ("passModel", "run", "getSolution", "getModelStatus", "getInfo",
                 "setOptionValue")

    def test_highs_binding_is_present(self):
        from scipy.optimize._highspy import _core

        missing = [name for name in self.HIGHS_API if not hasattr(_core._Highs, name)]
        assert not missing, (f"scipy.optimize._highspy._core._Highs lacks {missing}: "
                             "rdcn_throughput.flowlp needs scipy>=1.17.1")

    def test_missing_binding_names_it_and_the_scipy_version(self):
        blocked = ("import sys; sys.modules['scipy.optimize._highspy._core'] = None; "
                   "import rdcn_throughput")
        run = subprocess.run([sys.executable, "-c", blocked], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode != 0
        assert ("ImportError: rdcn_throughput.flowlp needs the HiGHS binding "
                "scipy.optimize._highspy._core, shipped by scipy>=1.17.1") in run.stderr

    @staticmethod
    def _assert_same_as_scipy(t, m, method):
        res, expected = _solve_by(method, t, m), _scipy_linprog(method, t, m)
        assert res.x.tobytes() == expected.x.tobytes()
        assert res.ub_dual.tobytes() == expected.ineqlin.marginals.tobytes()

    @pytest.mark.parametrize("method", ["highs-ds", "highs-ipm"])
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(instance=random_instances())
    def test_bit_identical_to_scipy_linprog(self, method, instance):
        self._assert_same_as_scipy(*instance, method)

    @pytest.mark.parametrize("method", ["highs-ds", "highs-ipm"])
    def test_bit_identical_to_scipy_linprog_on_the_n16_oblivious_lp(self, method):
        self._assert_same_as_scipy(*TestSolverFallback._large(), method)

    @pytest.mark.parametrize("method", ["highs-ds", "highs-ipm"])
    def test_solver_is_silent(self, capfd, method):
        # HiGHS writes at C level, which capsys cannot see: capfd reads fds 1 and 2.
        _solve_by(method, complete_topology(4), unit_uniform_demand(4))
        assert capfd.readouterr() == ("", "")

    def test_silence_is_the_output_flag(self, monkeypatch, capfd):
        # the check above can see HiGHS's log: with output_flag on, it appears
        monkeypatch.setitem(flowlp._HIGHS_OPTIONS, "output_flag", True)
        solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert "HiGHS" in capfd.readouterr().out

    def test_rejected_option_raises_naming_it(self, monkeypatch):
        monkeypatch.setitem(flowlp._HIGHS_OPTIONS, "no_such_option", 1)
        with pytest.raises(SolverError, match="HiGHS rejected option no_such_option=1"):
            solve_max_throughput(complete_topology(4), unit_uniform_demand(4))

    @pytest.mark.parametrize("bound,status,message", [
        (1.0, HighsModelStatus.kOptimal, "Optimal"),
        (-1.0, HighsModelStatus.kInfeasible, "Infeasible"),  # x >= 0 cannot sum below 0
        (math.inf, HighsModelStatus.kUnbounded, "Unbounded"),
        (math.nan, HighsModelStatus.kModelError, "HiGHS rejected the model"),
    ], ids=["optimal", "infeasible", "unbounded", "rejected model"])
    def test_model_status(self, bound, status, message):
        # min -x0 - x1 subject to x0 + x1 <= bound, x0 - x1 == 0, x >= 0
        res = flowlp.linprog(np.array([-1.0, -1.0]), A_ub=sp.csr_matrix(np.ones((1, 2))),
                             b_ub=np.array([bound]), A_eq=sp.csr_matrix([[1.0, -1.0]]),
                             mode="simplex")
        assert (res.status, res.message) == (status, message)
        assert (res.x is None) == (status != HighsModelStatus.kOptimal)
        if res.x is not None:
            assert res.x.tolist() == [0.5, 0.5]

    COMMON = [("output_flag", False), ("presolve", "on"), ("simplex_strategy", 1),
              ("primal_feasibility_tolerance", 1e-7), ("dual_feasibility_tolerance", 1e-7),
              ("small_matrix_value", 1e-9)]

    @pytest.mark.parametrize("mode, options", [
        ("simplex", COMMON + [("solver", "simplex")]),
        ("ipm", COMMON + [("solver", "ipm")]),
        ("interior", [("output_flag", False), ("presolve", "off"), *COMMON[2:],
                      ("solver", "ipm"), ("run_crossover", "off")]),
    ], ids=["simplex", "ipm", "interior"])
    def test_mode_sets_these_options_in_this_order(self, monkeypatch, mode, options):
        # the options HiGHS is given, written out: a change to _HIGHS_OPTIONS
        # or _MODES changes what every solve does, and shows here first
        calls = []
        real = _Highs.setOptionValue

        def set_option(highs, name, value):
            calls.append((name, value))
            return real(highs, name, value)

        monkeypatch.setattr(_Highs, "setOptionValue", set_option)
        res = flowlp.linprog(np.array([-1.0, -1.0]), A_ub=sp.csr_matrix(np.ones((1, 2))),
                             b_ub=np.array([1.0]), A_eq=sp.csr_matrix([[1.0, -1.0]]), mode=mode)
        assert res.status == HighsModelStatus.kOptimal
        assert calls == options

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        real = flowlp.linprog

        def linprog(*args, mode, **kwargs):
            res = real(*args, mode=mode, **kwargs)
            calls.append((mode, res.status, res.message))
            return res

        monkeypatch.setattr(flowlp, "linprog", linprog)
        return calls

    def test_simplex_iteration_limit_falls_back_to_interior_point(self, monkeypatch):
        calls = self._spy(monkeypatch)
        monkeypatch.setitem(flowlp._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
        result = solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert calls == [("simplex", HighsModelStatus.kIterationLimit, "Iteration limit reached"),
                         ("ipm", HighsModelStatus.kOptimal, "Optimal")]
        assert result.theta == pytest.approx(1.0, abs=1e-9)

    def test_both_iteration_limits_raise(self, monkeypatch):
        calls = self._spy(monkeypatch)
        monkeypatch.setitem(flowlp._HIGHS_OPTIONS, "simplex_iteration_limit", 0)
        monkeypatch.setitem(flowlp._HIGHS_OPTIONS, "ipm_iteration_limit", 0)
        with pytest.raises(SolverError) as err:
            solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert str(err.value) == "solver returned numerical-trouble: Iteration limit reached"
        assert [mode for mode, *_ in calls] == ["simplex", "ipm"]


class TestAssembleLp:
    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(random_instances())
    def test_balance_rows_are_the_rows_with_a_term(self, instance):
        # a row exists exactly where it has a term: no empty row is kept, none dropped
        t, m = instance
        lp = _lp_of(t, m)
        assert np.all(np.diff(lp.A_eq.indptr) > 0)
        touched = set(lp.arcs.reshape(-1).tolist())
        demand = m.entries / t.link_capacity
        expected = [(s, v) for s in lp.sources.tolist() for v in range(t.n)
                    if v != s and (demand[s, v] > 0 or v in touched)]
        assert lp.balance.tolist() == [list(row) for row in expected]

    def test_rows_of_a_hand_instance(self):
        # arcs 0->1, 1->2 (two links), 2->3, 3->0; sources 0 and 2
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 1] = counts[2, 3] = counts[3, 0] = 1
        counts[1, 2] = 2
        entries = np.zeros((4, 4))
        entries[0, 2] = 1.5
        entries[0, 3] = 0.25
        entries[2, 1] = 0.75
        lp = solve_max_throughput(Topology(counts, 1.0, "ring"), DemandMatrix(entries)).lp
        arcs = [tuple(arc) for arc in lp.arcs.tolist()]

        def col(s, arc):
            return 1 + lp.sources.tolist().index(s) * len(arcs) + arcs.index(arc)

        def terms(matrix, row):
            return {c: v for c, v in enumerate(matrix[row].toarray().ravel().tolist()) if v}

        # one cap row per arc, and 2 sources x 3 other nodes
        assert (lp.A_ub.shape[0], lp.A_eq.shape[0], len(lp.balance)) == (4, 2 * 3, 2 * 3)
        bal = lp.balance.tolist().index([0, 2])
        assert terms(lp.A_eq, bal) == {0: -1.5, col(0, (1, 2)): 1.0, col(0, (2, 3)): -1.0}
        cap = arcs.index((1, 2))
        assert terms(lp.A_ub, cap) == {col(0, (1, 2)): 1.0, col(2, (1, 2)): 1.0}
        assert lp.capacity[cap] == 2.0

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult
from scipy.sparse.csgraph import shortest_path

from rdcn_throughput import (
    DemandMatrix,
    NetworkParams,
    SolverError,
    Topology,
    ThroughputResult,
    build_oblivious_equivalent,
    export_lp,
    generate,
    solve_max_throughput,
    verify_solution,
)

from rdcn_throughput import evaluation, flowlp
from rdcn_throughput.evaluation import _link_budget, build_suite, sweep_degree
from rdcn_throughput.flowlp import (
    _assemble_lp,
    _hops,
    _layout,
    demand_upper_bound,
    throughput_upper_bound,
)

from conftest import sinkhorn_doubly_stochastic
from lp_oracle import path_lp_throughput


def complete_topology(n, cap=1.0):
    counts = np.ones((n, n), dtype=int)
    np.fill_diagonal(counts, 0)
    return Topology(counts, cap, "test", degree_budget=n - 1)


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
        t = Topology(counts, 1.0, "test", degree_budget=1)
        entries = np.zeros((2, 2))
        entries[0, 1] = 2.0
        result = solve_max_throughput(t, DemandMatrix(entries))
        assert result.theta == pytest.approx(0.5, abs=1e-9)

    def test_commodity_with_no_outgoing_arcs_forces_zero(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[1, 2] = 1
        t = Topology(counts, 1.0, "test", degree_budget=1)
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
        t = Topology(counts, 1.0, "test", degree_budget=1)
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
        t = Topology(counts, 1.0, "test", degree_budget=n)
        base = solve_max_throughput(t, DemandMatrix(entries)).theta
        bumped = counts.copy()
        i, j = rng.integers(0, n, 2)
        while i == j:
            j = rng.integers(0, n)
        bumped[i, j] += 1
        t2 = Topology(bumped, 1.0, "test", degree_budget=n + 1)
        assert solve_max_throughput(t2, DemandMatrix(entries)).theta >= base - 1e-7

    def test_methods_agree(self, monkeypatch):
        # every LP that the n=8 sweep of all four classes solves, by both methods
        solve = evaluation.solve_max_throughput
        gaps = []

        def both(t, m):
            a = solve(t, m, method="highs-ipm").theta
            b = solve(t, m, method="highs-ds").theta
            gaps.append(abs(a - b))
            return solve(t, m)

        monkeypatch.setattr(evaluation, "solve_max_throughput", both)
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
        assert verify_solution(t, m, result).ok
        assert throughput_upper_bound(t, m) == pytest.approx(1.0, abs=1e-9)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError, match="no positive entries"):
            solve_max_throughput(complete_topology(3), DemandMatrix(np.zeros((3, 3))))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            solve_max_throughput(complete_topology(3), unit_uniform_demand(4))


class TestPathOracleEquivalence:
    """Edge and path formulations agree on every small topology with unit demands."""

    def topologies(self, n):
        yield complete_topology(n)
        ring = np.zeros((n, n), dtype=int)
        for i in range(n):
            ring[i, (i + 1) % n] = 1
        yield Topology(ring, 1.0, "ring", degree_budget=1)
        rng = np.random.default_rng(n)
        for seed in range(4):
            counts = rng.integers(0, 3, size=(n, n))
            np.fill_diagonal(counts, 0)
            # make sure every node can reach out and be reached
            for i in range(n):
                counts[i, (i + 1) % n] = max(counts[i, (i + 1) % n], 1)
            yield Topology(counts, 1.0, f"rand{seed}", degree_budget=int(counts.sum(axis=1).max()))

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
    budget = max(int(counts.sum(axis=0).max()), int(counts.sum(axis=1).max()), 1)
    return Topology(counts, 1.0, "random", degree_budget=budget), DemandMatrix(entries)


class TestRandomInstances:
    """Edge LP = path oracle, with a clean verification, on random small instances."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(random_instances())
    def test_matches_path_oracle_and_verifies(self, instance):
        t, m = instance
        result = solve_max_throughput(t, m)
        assert result.theta == pytest.approx(
            path_lp_throughput(t.routable_counts(), m.entries), abs=1e-6)
        assert verify_solution(t, m, result).ok


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


class TestThroughputUpperBound:
    """The hop-volume bound the heuristic uses to skip LPs: never below the LP
    optimum, and the exact solution of its own inequality."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(random_instances())
    def test_never_below_the_lp(self, instance):
        t, m = instance
        bound = throughput_upper_bound(t, m)
        assert bound >= solve_max_throughput(t, m).theta - 1e-9
        assert bound == pytest.approx(hop_volume_bisection(t, m), rel=1e-12, abs=1e-12)

    def test_tight_on_the_all_heavy_chessboard_graph(self):
        # criterion 2's 4/5: 2 links on every opposite-parity pair at n=16, u=4
        p = NetworkParams(16, 4, 25e9)
        heavy = np.add.outer(np.arange(p.n), np.arange(p.n)) % 2
        t = Topology(2 * heavy, p.c * p.u / p.n, "all-heavy", degree_budget=p.n)
        m = generate("chessboard", p)
        lp = solve_max_throughput(t, m).theta
        assert throughput_upper_bound(t, m) == pytest.approx(0.80, abs=1e-9)
        assert lp == pytest.approx(0.80, abs=1e-6)

    def test_unreachable_demand_gives_zero_without_warnings(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[1, 2] = 1
        t = Topology(counts, 1.0, "test", degree_budget=1)
        entries = np.zeros((3, 3))
        entries[0, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert throughput_upper_bound(t, DemandMatrix(entries)) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_hops_are_the_bfs_distances(self, seed):
        # sparse random digraphs, often disconnected, and one of two components
        rng = np.random.default_rng(seed)
        for n in (1, 2, 5, 16, 40):
            adjacent = rng.random((n, n)) < rng.uniform(0.0, 0.3)
            assert _hops(adjacent).tobytes() == shortest_path(adjacent, unweighted=True).tobytes()
        two = np.zeros((8, 8), dtype=bool)
        two[:4, :4] = two[4:, 4:] = ~np.eye(4, dtype=bool)
        assert _hops(two).tobytes() == shortest_path(two, unweighted=True).tobytes()

    def test_zero_demand_and_mismatch_rejected(self):
        with pytest.raises(ValueError, match="no positive entries"):
            throughput_upper_bound(complete_topology(3), DemandMatrix(np.zeros((3, 3))))
        with pytest.raises(ValueError, match="mismatch"):
            throughput_upper_bound(complete_topology(3), unit_uniform_demand(4))


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
        per_topology = throughput_upper_bound(t, m)
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
        bound = demand_upper_bound(m, *_link_budget(net_class, desk_params))
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
        assert verify_solution(t, m, result).ok

    def test_flows_are_the_solvers_read_only_block(self, monkeypatch):
        solved = []
        real = flowlp.linprog

        def linprog(*args, **kwargs):
            solved.append(real(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(flowlp, "linprog", linprog)
        t, m, result = self._solved()
        lp = _assemble_lp(t, m)
        assert result.flows.shape == (len(lp.sources), len(lp.arcs))
        assert np.array_equal(result.flows.ravel(), solved[-1].x[1:])
        with pytest.raises(ValueError, match="read-only"):
            result.flows[0, 0] = 1.0

    def test_capacity_violation_detected(self):
        t, m, result = self._solved()
        flows = result.flows.copy()
        flows[0, 0] += 1.0
        report = verify_solution(t, m, ThroughputResult(result.theta, flows))
        assert any(v.kind == "capacity" for v in report.violations)

    def test_inflated_theta_detected(self):
        t, m, result = self._solved()
        report = verify_solution(t, m, ThroughputResult(result.theta * 1.1, result.flows))
        assert {v.kind for v in report.violations} == {"demand"}

    def test_over_delivery_detected(self):
        # Balance rows are equalities: flows that deliver more than theta*m fail.
        t, m, result = self._solved()
        report = verify_solution(t, m, ThroughputResult(result.theta * 0.9, result.flows))
        assert {v.kind for v in report.violations} == {"demand"}
        assert len(report.violations) == 12  # every (s, v) pair of the 4-node uniform demand

    def test_negative_flow_detected(self):
        t, m, result = self._solved()
        flows = result.flows.copy()
        flows[1, 2] = -0.5
        report = verify_solution(t, m, ThroughputResult(result.theta, flows))
        [negative] = [v for v in report.violations if v.kind == "negative-flow"]
        assert negative.magnitude == 0.5

    @pytest.mark.parametrize("shape", [(4, 11), (3, 12), (12, 4), (48,)])
    def test_wrong_shape_is_one_layout_violation(self, shape):
        # The complete 4-node LP has 4 sources and 12 arcs.
        t, m, result = self._solved()
        flows = np.zeros(shape)
        report = verify_solution(t, m, ThroughputResult(result.theta, flows))
        assert [v.kind for v in report.violations] == ["layout"]

    def test_conservation_violation_detected(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = counts[1, 2] = 1
        t = Topology(counts, 1.0, "line", degree_budget=1)
        entries = np.zeros((3, 3))
        entries[0, 2] = 1.0
        m = DemandMatrix(entries)
        result = solve_max_throughput(t, m)
        lp = _assemble_lp(t, m)
        arc = lp.arcs.tolist().index([1, 2])
        assert lp.sources.tolist() == [0]
        flows = result.flows.copy()
        flows[0, arc] += 0.25
        report = verify_solution(t, m, ThroughputResult(result.theta, flows))
        assert any(v.kind == "conservation" for v in report.violations)


class TestSolverFallback:
    """Dual simplex solves an LP below SIMPLEX_MAX_COLUMNS columns, interior
    point one from there. A failed solve is retried once with the other
    method; a failure of that raises SolverError with its status and message."""

    @staticmethod
    def _failing(monkeypatch, failing, status=4):
        calls = []
        real = flowlp.linprog

        def linprog(*args, method, **kwargs):
            calls.append(method)
            if method in failing:
                return OptimizeResult(status=status, message=f"forced failure of {method}")
            return real(*args, method=method, **kwargs)

        monkeypatch.setattr(flowlp, "linprog", linprog)
        return calls

    @staticmethod
    def _large():
        """The n=16 oblivious graph under uniform demand: 16 sources x 240 arcs
        plus theta, 3,841 columns."""
        p = NetworkParams(16, 4, 1.0)
        t, m = build_oblivious_equivalent(p), generate("uniform", p)
        assert _assemble_lp(t, m).c.size == 3841 > flowlp.SIMPLEX_MAX_COLUMNS
        return t, m

    def test_method_follows_the_lp_size(self, monkeypatch):
        calls = self._failing(monkeypatch, set())
        solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert calls == ["highs-ds"]
        calls.clear()
        solve_max_throughput(*self._large())
        assert calls == ["highs-ipm"]

    def test_failed_interior_point_falls_back_to_dual_simplex(self, monkeypatch):
        calls = self._failing(monkeypatch, {"highs-ipm"})
        result = solve_max_throughput(*self._large())
        assert calls == ["highs-ipm", "highs-ds"]
        assert result.theta == pytest.approx(1.0, abs=1e-9)

    def test_failed_dual_simplex_falls_back_to_interior_point(self, monkeypatch):
        calls = self._failing(monkeypatch, {"highs-ds"})
        result = solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert calls == ["highs-ds", "highs-ipm"]
        assert result.theta == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("status,name", [(2, "infeasible"), (4, "numerical-trouble")])
    def test_both_methods_fail_raises(self, monkeypatch, status, name):
        calls = self._failing(monkeypatch, {"highs-ipm", "highs-ds"}, status)
        with pytest.raises(SolverError) as err:
            solve_max_throughput(complete_topology(4), unit_uniform_demand(4))
        assert str(err.value) == f"solver returned {name}: forced failure of highs-ipm"
        assert calls == ["highs-ds", "highs-ipm"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown LP method 'highs'"):
            solve_max_throughput(complete_topology(4), unit_uniform_demand(4), method="highs")


def _parse_lp_rows(text):
    """{row name: ({column name: coefficient}, sense, rhs)} for every constraint row."""
    body = text.split("Subject To\n", 1)[1].split("Bounds\n", 1)[0]
    rows = {}
    for line in body.splitlines():
        name, expr = line.strip().split(": ", 1)
        *tokens, sense, rhs = expr.split()
        coefs, sign, scale = {}, 1.0, 1.0
        for token in tokens:
            if token in "+-":
                sign = -1.0 if token == "-" else 1.0
            elif token[0].isdigit():
                scale = float(token)
            else:
                assert token not in coefs, f"{name}: {token} appears twice"
                coefs[token] = sign * scale
                sign, scale = 1.0, 1.0
        rows[name] = (coefs, sense, float(rhs))
    return rows


class TestLayout:
    """verify_solution reads `_layout` instead of the assembled LP, so the two
    must agree on the arcs and on which balance rows exist."""

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(random_instances())
    def test_matches_the_assembled_lp(self, instance):
        t, m = instance
        layout, lp = _layout(t, m), _assemble_lp(t, m)
        for name in ("arcs", "capacity", "demand", "sources", "balance"):
            assert np.array_equal(getattr(layout, name), getattr(lp, name)), name
        # a row exists exactly where it has a term: no empty row is kept, none dropped
        assert np.all(np.diff(lp.A_eq.indptr) > 0)
        touched = set(lp.arcs.reshape(-1).tolist())
        demand = m.entries / t.link_capacity
        expected = [(s, v) for s in lp.sources.tolist() for v in range(t.n)
                    if v != s and (demand[s, v] > 0 or v in touched)]
        assert lp.balance.tolist() == [list(row) for row in expected]


class TestExportLp:
    def test_stable_naming_and_structure(self):
        # Every text row is the matching row of the matrices linprog receives.
        counts = np.zeros((4, 4), dtype=int)
        counts[0, 1] = counts[2, 3] = counts[3, 0] = 1
        counts[1, 2] = 2
        t = Topology(counts, 1.0, "ring", degree_budget=2)
        entries = np.zeros((4, 4))
        entries[0, 2] = 1.5
        entries[0, 3] = 0.25
        entries[2, 1] = 0.75
        m = DemandMatrix(entries)
        text = export_lp(t, m)
        assert "Maximize" in text and "obj: theta" in text
        assert text.rstrip().endswith("End")

        lp = _assemble_lp(t, m)
        names = lp.column_names()
        assert names[0] == "theta" and names[1] == "f_0_0_1"
        expected = {}
        for matrix, row_names, sense, rhs in (
            (lp.A_eq, [f"bal_{s}_{v}" for s, v in lp.balance.tolist()], "=", lp.b_eq),
            (lp.A_ub, [f"cap_{i}_{j}" for i, j in lp.arcs.tolist()], "<=", lp.capacity),
        ):
            dense = matrix.toarray()
            for row, name in enumerate(row_names):
                cols = np.flatnonzero(dense[row])
                expected[name] = ({names[c]: dense[row, c] for c in cols}, sense, rhs[row])
        assert _parse_lp_rows(text) == expected
        # 2 sources x 3 other nodes, and one cap row per arc.
        assert len(expected) == 2 * 3 + 4
        assert expected["bal_0_2"][0] == {"theta": -1.5, "f_0_1_2": 1.0, "f_0_2_3": -1.0}
        assert expected["cap_1_2"] == ({"f_0_1_2": 1.0, "f_2_1_2": 1.0}, "<=", 2.0)

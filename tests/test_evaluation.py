import csv
import io
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcn_throughput import (
    DemandMatrix,
    HeuristicTrace,
    NetworkParams,
    SolverError,
    Topology,
    build_demand_aware_periodic,
    build_oblivious_equivalent,
    build_suite,
    edge_color_regular,
    evaluate_cell,
    generate,
    load_csv,
    save_csv,
    solve_max_throughput,
    sweep_degree,
    sweep_matrices,
    synthesize_schedule,
    throughput_demand_aware,
    throughput_static,
)
from rdcn_throughput import evaluation, flowlp, topology
from rdcn_throughput.cli import fig4_degrees
from rdcn_throughput.flowlp import DEFAULT_TOL, SKIP_MARGIN
from rdcn_throughput.evaluation import (
    NETWORK_CLASSES,
    OBJECTIVE_REACHED,
    SweepResult,
    SweepRow,
)

from conftest import exact_only, no_skip

SMALL = NetworkParams(4, 2, 1e9)


def _oblivious_closed_form(label: str) -> float:
    """The oblivious network's throughput on a suite matrix, independent of n:
    uniform 1, permutation 1/2 (Valiant load balancing), chessboard 2/3 and
    U+P alpha 1/(1 + alpha)."""
    fixed = {"uniform": 1.0, "permutation": 0.5, "chessboard": 2 / 3}
    if label in fixed:
        return fixed[label]
    return 1 / (1 + float(label.removeprefix("U+P ")))


def _two_hop_root(m: DemandMatrix, p: NetworkParams) -> float:
    """The largest theta with sum min(theta x, 1) + 2 sum max(theta x - 1, 0)
    <= n(n-1), x the off-diagonal demand in links of c*u/n: each pair's own
    arc carries at most 1, and its excess crosses at least 2 of the n(n-1)
    arcs. The left side is the maximum, over k, of theta (S + T_k) - k, where S
    sums every x and T_k the k largest; so the root is the least of the roots
    (n(n-1) + k) / (S + T_k)."""
    n = p.n
    x = np.sort(m.entries[~np.eye(n, dtype=bool)] / (p.c * p.u / n))[::-1]
    tops = np.concatenate(([0.0], np.cumsum(x)))
    return float(np.min((n * (n - 1) + np.arange(len(tops))) / (x.sum() + tops)))


@st.composite
def hose_matrices(draw):
    """A hose-feasible random-saturated, mix or chessboard matrix at n in 3..8
    and any degree, scaled by s in [0.05, 1]."""
    n = draw(st.integers(3, 8))
    p = NetworkParams(n, draw(st.integers(1, n)), 1e9)
    kind = draw(st.sampled_from(["random-saturated", "mix"]
                                + ["chessboard"] * (n % 2 == 0)))
    m = generate(kind, p, alpha=draw(st.floats(0, 1)) if kind == "mix" else None,
                 seed=draw(st.integers(0, 2**16)))
    return m.scaled(draw(st.floats(0.05, 1))), p


class TestThroughputFunctions:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("label", [label for label, _ in build_suite(NetworkParams(8, 4, 1e9))])
    def test_oblivious_suite_closed_forms(self, n, label):
        p = NetworkParams(n, 4, 1e9)
        m = dict(build_suite(p))[label]
        theta = throughput_static(build_oblivious_equivalent(p), m)
        assert theta == pytest.approx(_oblivious_closed_form(label), abs=1e-12)

    @pytest.mark.parametrize("n", [8, 16])
    def test_two_hop_root_gives_the_derived_closed_forms(self, n):
        # the root meets the LP everywhere but on the chessboard, whose 2/3
        # lies below it
        p = NetworkParams(n, 4, 1e9)
        for label, m in build_suite(p):
            root = _two_hop_root(m, p)
            if label == "chessboard":
                assert root > _oblivious_closed_form(label) + 0.1
            else:
                assert root == pytest.approx(_oblivious_closed_form(label), abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(hose_matrices())
    def test_two_hop_root_is_never_below_the_oblivious_lp(self, instance):
        m, p = instance
        theta = throughput_static(build_oblivious_equivalent(p), m)
        assert _two_hop_root(m, p) >= theta - 1e-9

    def test_failed_verification_names_the_largest_violation(self, monkeypatch):
        # Arcs 0->1, 1->0, 1->2 (row-major), one source (0) sending 1 to node 2.
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = counts[1, 0] = counts[1, 2] = 1
        t = Topology(counts, 1.0, "test")
        entries = np.zeros((3, 3))
        entries[0, 2] = 1.0
        m = DemandMatrix(entries)
        # 0.1 less on 0->1 and -0.1 on 1->0 keep node 1 balanced: one negative
        # flow of 0.1, reported first; theta 1.5 leaves node 2 short by 0.5.
        tampered = replace(solve_max_throughput(t, m), theta=1.5,
                           flows=np.array([[0.9, -0.1, 1.0]]))
        monkeypatch.setattr(evaluation, "solve_max_throughput", lambda t, m: tampered)
        report = evaluation.verify_solution(tampered)
        assert [(v.kind, round(v.magnitude, 9)) for v in report.violations] == [
            ("negative-flow", 0.1), ("demand", 0.5)]
        with pytest.raises(SolverError, match="failed verification: demand: source 0 nets 1 "
                                              "at node 2, needs 1.5"):
            throughput_static(t, m)

    def test_static_expander_below_oblivious_on_permutation(self):
        from rdcn_throughput import build_static_expander
        m = generate("permutation", SMALL)
        static = throughput_static(build_static_expander(SMALL, seed=1), m)
        oblivious = throughput_static(build_oblivious_equivalent(SMALL), m)
        assert static <= oblivious + 1e-9


class TestDemandAwareHeuristic:
    def test_permutation_stops_at_first_iter(self):
        # each pair's demand fits its own links: accepted with no LP
        theta, trace, _topo = throughput_demand_aware(
            generate("permutation", SMALL), SMALL, "da-periodic")
        assert theta == 1.0
        assert trace.iter_values == (1.0,)
        assert trace.objectives == (None,)
        assert trace.bounds == (None,)  # no residual demand, so nothing to bound
        assert trace.chosen_theta == 1.0

    def test_trace_records_descending_multiples_of_step(self):
        # at n = 16, u = 4 the chessboard scans 0.86, 0.85 and 0.84
        p = NetworkParams(16, 4, 25e9)
        theta, trace, _topo = throughput_demand_aware(generate("chessboard", p), p,
                                                      "da-periodic")
        step = evaluation.DEFAULT_STEP
        assert step == 0.01 and len(trace.iter_values) > 1
        values = np.array(trace.iter_values)
        assert np.allclose(np.diff(values), -step)
        assert all(round(v / step, 9) == round(v / step) for v in values)
        assert theta == trace.chosen_theta == trace.iter_values[-1]
        # stopping rule: chosen iter is the first whose objective reached 1;
        # every earlier step was solved below it or skipped on its bound
        assert trace.objectives[-1] >= OBJECTIVE_REACHED
        assert all(obj < OBJECTIVE_REACHED if obj is not None
                   else bound < OBJECTIVE_REACHED - SKIP_MARGIN
                   for obj, bound in zip(trace.objectives[:-1], trace.bounds[:-1]))

    def test_static_and_periodic_agree_when_u_equals_n(self):
        # Exact equality whenever the floor matrix is degree-symmetric (all
        # suite matrices are): both classes then build the same topology.
        p = NetworkParams(6, 6, 2.0)
        for kind in ("chessboard", "permutation", "uniform"):
            m = generate(kind, p)
            th_static = throughput_demand_aware(m, p, "da-static", seed=5).theta
            th_periodic = throughput_demand_aware(m, p, "da-periodic", seed=5).theta
            assert th_static == th_periodic, kind

    def test_periodic_never_below_static_at_full_degree(self):
        # Asymmetric floors make the periodic build complete its port budget
        # with extra real links, so it may strictly exceed the one-shot build.
        p = NetworkParams(6, 6, 2.0)
        m = generate("random-saturated", p, seed=8)
        th_static = throughput_demand_aware(m, p, "da-static", seed=5).theta
        th_periodic = throughput_demand_aware(m, p, "da-periodic", seed=5).theta
        assert th_periodic >= th_static - 1e-9

    def test_bad_mode_and_step(self):
        m = generate("uniform", SMALL)
        with pytest.raises(ValueError, match="unknown demand-aware class"):
            throughput_demand_aware(m, SMALL, "oblivious")
        with pytest.raises(TypeError, match="step"):  # the step is DEFAULT_STEP, fixed
            throughput_demand_aware(m, SMALL, "da-static", step=0.01)

    def test_trace_json(self):
        trace = throughput_demand_aware(generate("uniform", SMALL), SMALL, "da-periodic").trace
        payload = trace.to_json_dict()
        assert set(payload) == {"step", "iter_values", "bounds", "objectives", "seeds",
                                "chosen_theta", "demand_bound"}
        assert len(payload["seeds"]) == len(payload["bounds"]) == len(payload["iter_values"])
        json.dumps(payload)


class TestBoundGuidedScan:
    """A step is skipped only when the bound on its residual LP proves lambda
    short of OBJECTIVE_REACHED, so the scan reports what solving every step would."""

    P8 = NetworkParams(8, 4, 25e9)

    def _scans(self):
        p16 = NetworkParams(16, 4, 25e9)
        yield throughput_demand_aware(generate("chessboard", p16), p16, "da-periodic").trace
        for label, m in build_suite(self.P8):
            for net_class in ("da-static", "da-periodic"):
                yield throughput_demand_aware(m, self.P8, net_class, seed=3).trace

    def test_skips_only_what_the_bound_rules_out(self):
        skipped = 0
        for trace in self._scans():
            assert trace.chosen_theta > 0
            assert len(trace.bounds) == len(trace.objectives) == len(trace.iter_values)
            *rejected, (objective, bound) = zip(trace.objectives, trace.bounds)
            # the accepted step is solved; None in both: its direct links carry all
            assert (objective is None) == (bound is None)
            if objective is not None:
                assert bound >= OBJECTIVE_REACHED - SKIP_MARGIN
                assert OBJECTIVE_REACHED <= objective <= bound + DEFAULT_TOL
            for objective, bound in rejected:
                assert bound is not None
                if objective is None:
                    skipped += 1
                    assert bound < OBJECTIVE_REACHED - SKIP_MARGIN
                else:
                    assert bound >= OBJECTIVE_REACHED - SKIP_MARGIN
                    assert objective < OBJECTIVE_REACHED
                    assert objective <= bound + DEFAULT_TOL
        assert skipped > 0

    def test_one_residual_per_scanned_step(self, monkeypatch):
        # the one call that decides a step forms its x' and L' once
        calls = []
        real = flowlp._residual

        def residual(t, m):
            calls.append(m)
            return real(t, m)

        monkeypatch.setattr(flowlp, "_residual", residual)
        for trace in self._scans():
            assert len(calls) == len(trace.iter_values)
            calls.clear()

    def test_same_scan_as_solving_every_step(self, monkeypatch):
        suite = build_suite(self.P8)[:6]
        calls = []
        real = flowlp.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs["mode"])
            return real(*args, **kwargs)

        monkeypatch.setattr(flowlp, "linprog", counted)
        scans = {(label, cls): throughput_demand_aware(m, self.P8, cls, seed=3)
                 for label, m in suite for cls in ("da-static", "da-periodic")}
        skipping = len(calls)
        no_skip(monkeypatch)
        for (label, cls), cell in scans.items():
            full = throughput_demand_aware(dict(suite)[label], self.P8, cls, seed=3)
            assert (cell.theta, cell.trace.iter_values, cell.trace.seeds) == (
                full.theta, full.trace.iter_values, full.trace.seeds), (label, cls)
            assert np.array_equal(cell.topology.link_count, full.topology.link_count)
            for objective, solved in zip(cell.trace.objectives, full.trace.objectives):
                assert objective is None or objective == solved
        # the patch reached the scan: solving every step took more LPs
        assert len(calls) - skipping > skipping

    def test_demand_bound_start_drops_only_rejected_steps(self, monkeypatch):
        # Every step before the start, scanned from scale 1 with its own seed,
        # is rejected on its residual bound; the scan from the start is the
        # tail of that full scan, step for step.
        suite = dict(build_suite(self.P8))
        scans = {(label, cls): throughput_demand_aware(m, self.P8, cls, seed=3)
                 for label, m in suite.items() for cls in ("da-static", "da-periodic")}
        monkeypatch.setattr(evaluation, "demand_upper_bound", lambda *args: float("inf"))
        dropped = 0
        for (label, cls), cell in scans.items():
            trace = cell.trace
            assert trace.chosen_theta <= trace.demand_bound
            full = throughput_demand_aware(suite[label], self.P8, cls, seed=3)
            start = len(full.trace.iter_values) - len(trace.iter_values)
            dropped += start
            assert full.theta == cell.theta
            assert np.array_equal(full.topology.link_count, cell.topology.link_count)
            for field in ("iter_values", "bounds", "objectives", "seeds"):
                assert getattr(full.trace, field)[start:] == getattr(trace, field), field
            assert full.trace.objectives[:start] == (None,) * start
            assert max(full.trace.bounds[:start], default=0) < OBJECTIVE_REACHED - SKIP_MARGIN
        assert dropped > 0

    def test_hose_check_reads_the_unscaled_matrix(self):
        # 1.5x the hose bound: the scan would start below 2/3, where it fits
        p = NetworkParams(8, 4, 25e9)
        hot = generate("permutation", NetworkParams(8, 6, 25e9))
        for net_class in ("da-static", "da-periodic"):
            with pytest.raises(ValueError, match=r"violates hose model: row 0 sums to 1\.5e\+11"):
                throughput_demand_aware(hot, p, net_class)


class TestDirectFirstDecision:
    """Each heuristic step is decided on the demand its direct links leave
    (`solve_max_throughput(..., direct_first=True)`); the full max-theta LP
    stays the reference for that decision and for its certificate."""

    BUILDS = {"da-static": topology.build_demand_aware_static,
              "da-periodic": topology.build_demand_aware_emulated}

    def _check_scan(self, m, p, net_class, seed):
        cell = throughput_demand_aware(m, p, net_class, seed=seed)
        trace = cell.trace
        for k, (scale, step_seed) in enumerate(zip(trace.iter_values, trace.seeds)):
            scaled = m.scaled(scale)
            topo = self.BUILDS[net_class](scaled, p, seed=step_seed)
            with pytest.MonkeyPatch.context() as patch:
                no_skip(patch)  # lambda of every step with a residual
                step = solve_max_throughput(topo, scaled, direct_first=True)
            accepted = step.objective is None or step.objective >= OBJECTIVE_REACHED
            full = solve_max_throughput(topo, scaled).theta
            assert accepted == (full >= OBJECTIVE_REACHED), (net_class, seed, scale, full)
            assert accepted == (k == len(trace.iter_values) - 1 and cell.theta > 0)
            if trace.objectives[k] is not None:
                assert trace.objectives[k] == step.objective
            if accepted:
                certificate = step.at_one()
                assert certificate.theta == 1.0 and evaluation.verify_solution(certificate).ok
        return len(trace.iter_values)

    @pytest.mark.parametrize("seed", range(3))
    def test_n8_suite_steps(self, seed):
        p = NetworkParams(8, 4, 25e9)
        steps = sum(self._check_scan(m, p, net_class, evaluation._seed_int(seed, label))
                    for label, m in build_suite(p) for net_class in ("da-static", "da-periodic"))
        assert steps > 24  # more than one step per scan

    def test_n16_chessboard_steps(self):
        p = NetworkParams(16, 4, 25e9)
        m = generate("chessboard", p)
        for seed in range(10):
            self._check_scan(m, p, "da-periodic", evaluation._seed_int(seed, "chessboard"))

    def test_n16_steps_decide_as_the_exact_solve(self, monkeypatch):
        # Every scanned step of the n=16 suite's demand-aware cells at u=4, and
        # of the n=16 chessboard scan at seeds 0-9, with the bound's skip
        # patched off, against the exact vertex solve of the same residual LP;
        # and how many residual LPs large enough for an interior-point attempt
        # were left by it to the exact solve.
        real = evaluation.solve_max_throughput
        settled, lp_steps = [], []

        def compared(t, m, **kwargs):
            step = real(t, m, **kwargs)
            if step.method in ("interior", "exact"):
                lp_steps.append(step.method)
                if step.residual.lp.c.size >= flowlp.SIMPLEX_MAX_COLUMNS:
                    settled.append(step.method == "interior")
            with monkeypatch.context() as exact:
                exact_only(exact)
                assert step.accepted == real(t, m, **kwargs).accepted
            return step

        monkeypatch.setattr(evaluation, "solve_max_throughput", compared)
        no_skip(monkeypatch)
        p = NetworkParams(16, 4, 25e9)
        for label, m in build_suite(p):
            for net_class in ("da-static", "da-periodic"):
                evaluate_cell(m, p, net_class, seed=0, label=label)
        for seed in range(10):
            evaluate_cell(generate("chessboard", p), p, "da-periodic", seed=seed,
                          label="chessboard")
        assert (len(lp_steps), len(settled), settled.count(False)) == (229, 49, 0)

    def test_accepted_step_must_verify(self, monkeypatch):
        # a lambda twice the solver's, on every solve: the residual flows
        # divided by it fall short, and no step is accepted unverified
        real = flowlp.linprog

        def inflated(*args, **kwargs):
            res = real(*args, **kwargs)
            x = res.x.copy()
            x[0] *= 2
            return res._replace(x=x)

        monkeypatch.setattr(flowlp, "linprog", inflated)
        p = NetworkParams(16, 4, 25e9)
        with pytest.raises(SolverError, match="failed verification: demand: "):
            throughput_demand_aware(generate("chessboard", p), p, "da-periodic")

    @pytest.mark.parametrize("n, interior", [(8, False), (16, True)])
    def test_accepted_step_is_certified_once(self, monkeypatch, n, interior):
        # the chessboard da-periodic scan accepts its last step by dual simplex
        # at n=8 and from the interior point at n=16; either way the full LP at
        # theta = 1 is assembled once and verified once, inside the step's
        # decision, and its dual bound is not computed
        steps, full_demands, checked, bounds, solvers = [], [], [], [], []
        real_solve, real_assemble = evaluation.solve_max_throughput, flowlp._assemble_lp
        real_bound, real_linprog = flowlp._dual_bound, flowlp.linprog

        def solve(t, m, **kwargs):
            bounds.clear()
            solvers.clear()
            steps.append(real_solve(t, m, **kwargs))
            return steps[-1]

        def assemble(capacity, demand):
            full_demands.append(demand)
            return real_assemble(capacity, demand)

        def counted(verify):
            def check(result):
                checked.append(result)
                return verify(result)
            return check

        def bound(lp, ub_dual):
            bounds.append(lp)
            return real_bound(lp, ub_dual)

        def linprog(*args, mode, **kwargs):
            solvers.append(mode)
            return real_linprog(*args, mode=mode, **kwargs)

        monkeypatch.setattr(evaluation, "solve_max_throughput", solve)
        monkeypatch.setattr(flowlp, "_assemble_lp", assemble)
        monkeypatch.setattr(flowlp, "_dual_bound", bound)
        monkeypatch.setattr(flowlp, "linprog", linprog)
        for module in (flowlp, evaluation):
            monkeypatch.setattr(module, "verify_solution", counted(module.verify_solution))
        p = NetworkParams(n, 4, 25e9)
        cell = throughput_demand_aware(generate("chessboard", p), p, "da-periodic")
        step = steps[-1]
        assert cell.theta > 0 and step.accepted and step.residual is not None
        assert step.method == ("interior" if interior else "exact")
        assert solvers == [("interior" if interior else "simplex")] and bounds == []
        assert sum(demand is step.demand for demand in full_demands) == 1
        assert len(checked) == 1
        assert checked[0].theta == 1.0 and checked[0].lp.demand is step.demand
        assert step.dual_bound >= OBJECTIVE_REACHED

    @pytest.mark.parametrize("n", [16, 32])
    def test_exactly_one_is_accepted_without_an_lp(self, n, monkeypatch):
        # the fig3 steps whose full-LP optimum is exactly 1.0
        calls = []
        monkeypatch.setattr(flowlp, "linprog", lambda *a, **k: calls.append(k["mode"]))
        p = NetworkParams(n, 4, 25e9)
        for label, net_class in (("permutation", "da-static"), ("permutation", "da-periodic"),
                                 ("uniform", "da-periodic")):
            cell = evaluate_cell(generate(label, p), p, net_class, seed=0, label=label)
            assert (cell.theta, cell.trace.objectives) == (1.0, (None,)), (label, net_class)
        assert calls == []


def reference_thetas(workload: str, seed: int) -> dict:
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    return json.loads(path.read_text(encoding="utf-8"))["thetas"][workload][str(seed)]


class TestReferenceThetas:
    """Cells against the thetas recorded in bench/reference.json: demand-aware
    cells bit for bit, LP cells to 1e-9."""

    @pytest.mark.parametrize("seed", range(10))
    def test_sweep_n8_matches_reference(self, seed):
        reference = reference_thetas("sweep-n8", seed)
        result = sweep_degree(NetworkParams(8, 4, 25e9), [4, 8], seed=seed)
        thetas = {f"{r.matrix}|{r.net_class}|{r.degree}": r.theta for r in result.rows}
        assert set(thetas) == set(reference)
        for key, expected in reference.items():
            if key.split("|")[1] in ("da-static", "da-periodic"):
                assert thetas[key] == expected, key
            else:
                assert thetas[key] == pytest.approx(expected, abs=1e-9), key

    @pytest.mark.parametrize("seed", range(10))
    def test_scan_chessboard_n16_matches_reference(self, seed):
        p = NetworkParams(16, 4, 25e9)
        result = sweep_matrices(p, [("chessboard", generate("chessboard", p))],
                                classes=("da-periodic",), seed=seed)
        [row] = result.rows
        assert reference_thetas("scan-chessboard-n16", seed) == {
            f"{row.matrix}|{row.net_class}|{row.degree}": row.theta}
        # the scan starts at 0.86, the first step B = 46/53 leaves room to reach 1
        steps = round((0.86 - row.theta) / 0.01) + 1
        assert row.trace.iter_values == tuple(round(0.86 - 0.01 * k, 12) for k in range(steps))
        assert row.trace.seeds[-1] == evaluation._seed_int(
            evaluation._seed_int(seed, "chessboard"), "iter", round((1 - row.theta) / 0.01))


class TestEvaluateCell:
    def test_agrees_with_sweep_cell_by_cell(self):
        suite = build_suite(SMALL)[:4]
        sweep = sweep_matrices(SMALL, suite, seed=3)
        for label, m in suite:
            for net_class in NETWORK_CLASSES:
                cell = evaluate_cell(m, SMALL, net_class, seed=3, label=label)
                row = sweep.row(label, net_class, SMALL.u)
                assert (cell.theta, cell.trace) == (row.theta, row.trace), (label, net_class)
                assert (cell.trace is None) == (net_class in ("static", "oblivious"))

    def test_demand_aware_cell_carries_its_certificate(self):
        p = NetworkParams(8, 2, 1.0)
        m = generate("chessboard", p)
        cell = evaluate_cell(m, p, "da-periodic", seed=0, label="chessboard")
        assert 0 < cell.theta < 1
        scaled = m.scaled(cell.theta)
        assert solve_max_throughput(cell.topology, scaled).theta >= OBJECTIVE_REACHED

    @pytest.mark.parametrize("u", [4, 8, 3])
    def test_periodic_cell_is_the_full_build_of_its_last_step(self, u):
        # Steps build only the emulated graph; the schedule `eval --emit-topo`
        # colours from it with the last seed is build_demand_aware_periodic's.
        p = NetworkParams(16, u, 25e9)
        m = generate("chessboard", p)
        cell = throughput_demand_aware(m, p, "da-periodic")
        topo, schedule = build_demand_aware_periodic(m.scaled(cell.theta), p,
                                                     seed=cell.trace.seeds[-1])
        assert np.array_equal(cell.topology.link_count, topo.link_count)
        if u == 3:  # 3 does not divide 16: no schedule
            assert schedule is None
        else:
            own = synthesize_schedule(cell.topology, u, seed=cell.trace.seeds[-1])
            assert [[pm.mapping for pm in slots] for slots in own.switches] == [
                [pm.mapping for pm in slots] for slots in schedule.switches]

    def test_a_periodic_cell_colors_no_schedule(self, monkeypatch):
        calls = []

        def counted(counts):
            calls.append(len(counts))
            return edge_color_regular(counts)

        monkeypatch.setattr(topology, "edge_color_regular", counted)
        p = NetworkParams(16, 4, 25e9)
        cell = throughput_demand_aware(generate("chessboard", p), p, "da-periodic")
        # three steps from the scan's start at 0.86 to the certifying 0.84; a
        # schedule takes no part in theta, so none is coloured
        assert cell.trace.iter_values == (0.86, 0.85, 0.84) and calls == []
        assert cell.trace.seeds[-1] == evaluation._seed_int(0, "iter", 16)

    def test_lp_cell_topology_is_the_solved_one(self):
        m = generate("permutation", SMALL)
        cell = evaluate_cell(m, SMALL, "oblivious", seed=0, label="permutation")
        assert cell.topology.net_class == "oblivious" and cell.trace is None
        assert cell.theta == throughput_static(build_oblivious_equivalent(SMALL), m)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown network class"):
            evaluate_cell(generate("uniform", SMALL), SMALL, "rotor", seed=0, label="uniform")

    @pytest.mark.parametrize("net_class", NETWORK_CLASSES)
    def test_one_hose_check_per_cell(self, monkeypatch, net_class):
        # the n=8 chessboard at u=4 scans 13 da-static and 4 da-periodic steps
        p = NetworkParams(8, 4, 25e9)
        m = generate("chessboard", p)
        real, checked = topology.validate_hose, []

        def validate(matrix, params):
            checked.append((matrix, params))
            return real(matrix, params)

        monkeypatch.setattr(topology, "validate_hose", validate)
        cell = evaluate_cell(m, p, net_class, seed=0, label="chessboard")
        assert checked == [(m, p)]
        assert cell.trace is None or len(cell.trace.iter_values) > 1


class TestBuildSuite:
    def test_twelve_synthetic_labels(self):
        labels = [label for label, _ in build_suite(SMALL)]
        assert labels[:3] == ["chessboard", "uniform", "permutation"]
        assert labels[3:] == [f"U+P {round(0.1 * k, 1)}" for k in range(1, 10)]

    def test_user_csvs_are_appended(self, tmp_path):
        path = tmp_path / "custom.csv"
        save_csv(generate("uniform", SMALL), path)
        suite = build_suite(SMALL, [(path, load_csv(path))])
        assert suite[-1][0] == "custom"
        assert suite[-1][1].n == 4

    @pytest.mark.parametrize("stems", [("uniform",), ("custom", "custom")])
    def test_repeated_label_rejected(self, tmp_path, stems):
        # a sweep reads one matrix per label, so a second one would go unchecked
        paths = []
        for k, stem in enumerate(stems):
            (tmp_path / str(k)).mkdir()
            paths.append(tmp_path / str(k) / f"{stem}.csv")
            save_csv(generate("uniform", SMALL), paths[-1])
        with pytest.raises(ValueError, match=f"{paths[-1]}: the suite already has a matrix "
                                             f"labelled '{stems[-1]}'"):
            build_suite(SMALL, [(path, load_csv(path)) for path in paths])


class TestSweeps:
    def test_full_cross_product_and_determinism(self):
        suite = build_suite(SMALL)[:4]
        a = sweep_matrices(SMALL, suite, seed=3)
        b = sweep_matrices(SMALL, suite, seed=3)
        assert a == b
        assert len(a.rows) == 4 * len(NETWORK_CLASSES)
        assert not a.errors
        for row in a.rows:
            assert 0.0 <= row.theta <= 1.0 + 1e-6

    def test_worst_case_consistent_with_rows(self):
        suite = build_suite(SMALL)[:5]
        result = sweep_matrices(SMALL, suite, seed=0)
        theta, label = result.worst_case("da-periodic", SMALL.u)
        candidates = [r.theta for r in result.rows if r.net_class == "da-periodic"]
        assert theta == min(candidates)
        assert result.theta(label, "da-periodic", SMALL.u) == theta

    def test_degree_sweep_shares_degree_invariant_cells(self):
        p = NetworkParams(4, 2, 1.0)
        result = sweep_degree(p, [2, 4], seed=1)
        assert result.degrees() == (2, 4)
        for label in ("chessboard", "uniform", "permutation"):
            assert result.theta(label, "da-periodic", 2) == result.theta(label, "da-periodic", 4)
            assert result.theta(label, "oblivious", 2) == result.theta(label, "oblivious", 4)

    @pytest.mark.parametrize("n", range(4, 65, 2))  # the chessboard needs an even n
    def test_fig4_degrees_share_every_invariant_key(self, n):
        # no LP: each label's oblivious and da-periodic cells key alike at
        # every degree fig4 sweeps, though the matrices differ in the last
        # bits; at u = n every suite matrix's da-static cell is its da-periodic one
        keys = {}
        for u in fig4_degrees(n):
            p = NetworkParams(n, u, 25e9)
            for label, m in build_suite(p):
                for cls in ("oblivious", "da-periodic") + (("da-static",) if u == n else ()):
                    shared = "da-periodic" if cls == "da-static" else cls
                    keys.setdefault((label, shared), set()).add(
                        evaluation._cell_key(m.entries, cls, p, 0, label))
        assert len(keys) == 24 and all(len(k) == 1 for k in keys.values())

    def test_complete_static_graph_shares_the_oblivious_cell(self, monkeypatch):
        # At u = n the static expander is the complete digraph at capacity c,
        # the oblivious graph with the same demand in link units: one LP. The
        # U+P matrices in link units at u=7 differ from u=4's in the last bits;
        # they are still one oblivious and one da-periodic cell.
        p = NetworkParams(8, 4, 25e9)
        real_evaluate, real_key = evaluation._evaluate_cell, evaluation._cell_key
        tasks = []

        def record(task):
            tasks.append((task[1], task[3]))  # (class, degree)
            return real_evaluate(task)

        def static_apart(entries, net_class, *rest):
            return real_key(entries, net_class, *rest) + (net_class,)

        monkeypatch.setattr(evaluation, "_evaluate_cell", record)
        result = sweep_degree(p, [4, 7, 8], seed=0, jobs=1)
        merged = Counter(tasks)
        assert merged == {(cls, u): 12 for cls, u in (
            ("static", 4), ("oblivious", 4), ("da-static", 4), ("da-periodic", 4),
            ("static", 7), ("da-static", 7))}
        tasks.clear()
        monkeypatch.setattr(evaluation, "_cell_key", static_apart)
        apart = sweep_degree(p, [4, 7, 8], seed=0, jobs=1)
        assert apart == result  # solved on its own, each merged cell gets the same row
        assert Counter(tasks) - merged == {("static", 8): 12, ("da-static", 8): 12}
        assert not merged - Counter(tasks)

        p8 = NetworkParams(8, 8, 25e9)
        for label, m in build_suite(p8):
            for net_class in ("oblivious", "da-periodic"):
                assert len({result.theta(label, net_class, u) for u in (4, 7, 8)}) == 1, label
            oblivious = result.theta(label, "oblivious", 8)
            assert result.theta(label, "static", 8) == oblivious, label
            assert evaluate_cell(m, p8, "static", seed=0, label=label).theta == oblivious, label
            # at u = n-1 the graph is complete too, but its links carry c, not
            # c(n-1)/n: its own LP, whose optimum is n/(n-1) times the oblivious one
            assert result.theta(label, "static", 7) == pytest.approx(oblivious * 8 / 7,
                                                                     rel=1e-9), label

    @pytest.mark.parametrize("n", [4, 8])
    def test_full_degree_da_static_row_is_its_own_cell(self, n):
        # at n=4 fig4 sweeps u=4 alone, so da-static is planned first and its
        # task serves both classes; at n=8 the da-periodic task of u=4 does
        p_n = NetworkParams(n, n, 25e9)
        result = sweep_degree(p_n, fig4_degrees(n), seed=0)
        for label, m in build_suite(p_n):
            row = result.row(label, "da-static", n)
            cell = evaluate_cell(m, p_n, "da-static", seed=0, label=label)
            assert (row.theta, row.trace, row.error) == (cell.theta, cell.trace, None), label
            assert row.trace == result.row(label, "da-periodic", n).trace, label

    def test_full_degree_alone_gives_the_same_rows(self):
        p = NetworkParams(8, 4, 25e9)
        both = sweep_degree(p, [4, 8], seed=0)
        assert sweep_degree(p, [8], seed=0).rows == tuple(r for r in both.rows if r.degree == 8)

    def test_unequal_row_and_column_multisets_keep_their_da_static_cell(self, monkeypatch,
                                                                        tmp_path):
        # a symmetric matrix sends what it receives, node by node; the
        # saturated random one has equal row and column sums but not multisets
        p = NetworkParams(4, 4, 1e9)
        lopsided = generate("random-saturated", p, seed=1)
        entries = lopsided.entries
        assert not np.array_equal(np.sort(entries, axis=1), np.sort(entries.T, axis=1))
        save_csv(lopsided, tmp_path / "lopsided.csv")
        save_csv(DemandMatrix((entries + entries.T) / 2), tmp_path / "mirrored.csv")
        solved = []

        def no_lp(tasks, jobs):
            solved.extend((task[6], task[1]) for task in tasks)
            return [(float("nan"), None, None)] * len(tasks)

        monkeypatch.setattr(evaluation, "_run_cells", no_lp)
        paths = [tmp_path / "lopsided.csv", tmp_path / "mirrored.csv"]
        sweep_degree(p, [4], seed=0, matrices=[(path, load_csv(path)) for path in paths])
        # one oblivious cell (static at u = n shares it) and one demand-aware
        # cell per matrix, but two demand-aware cells for the lopsided one
        per_label = Counter(label for label, _ in solved)
        assert len(per_label) == 14
        assert per_label == {label: 2 for label in per_label} | {"lopsided": 3}
        assert {cls for label, cls in solved if label == "lopsided"} == {
            "static", "da-static", "da-periodic"}

    @pytest.mark.parametrize("n, planned, unique", [(8, 96, 48), (16, 192, 96)])
    def test_fig4_cell_counts(self, monkeypatch, n, planned, unique):
        solved = []

        def no_lp(tasks, jobs):
            solved.extend(tasks)
            return [(float("nan"), None, None)] * len(tasks)

        monkeypatch.setattr(evaluation, "_run_cells", no_lp)
        result = sweep_degree(NetworkParams(n, 4, 25e9), fig4_degrees(n), seed=0)
        assert (len(result.rows), len(solved)) == (planned, unique)

    def test_pool_never_outnumbers_the_cells(self, monkeypatch):
        sizes = []

        class Pool:  # records the size it was asked for; starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Pool)
        suite = build_suite(SMALL)[:1]
        result = sweep_matrices(SMALL, suite, classes=("static", "oblivious"), seed=0, jobs=64)
        assert sizes == [2] and len(result.rows) == 2 and not result.errors

    def test_static_shares_no_cell_across_hose_bounds(self, tmp_path):
        # At n=4 the static cell of u=3 and the oblivious cell of u=4 both run
        # on the complete digraph at c. A matrix between their hose bounds, 3c
        # and 4c, fails the one and is solved in the other.
        hot = DemandMatrix(3.5 * generate("permutation", NetworkParams(4, 1, 1e9)).entries)
        path = tmp_path / "hot.csv"
        save_csv(hot, path)
        result = sweep_degree(NetworkParams(4, 3, 1e9), [3, 4], seed=0,
                              matrices=[(path, load_csv(path))])
        assert result.row("hot", "static", 3).error == (
            "demand matrix violates hose model: row 0 sums to 3.5e+09 > 3e+09")
        oblivious = evaluate_cell(hot, NetworkParams(4, 4, 1e9), "oblivious", seed=0, label="hot")
        assert result.theta("hot", "oblivious", 4) == oblivious.theta > 0
        assert result.theta("hot", "static", 4) == oblivious.theta

    def test_non_dividing_degree_still_sweeps(self):
        # no uniform schedule exists at u=3, but the emulated graph does
        result = sweep_degree(SMALL, [3], seed=0)
        assert len(result.rows) == 12 * len(NETWORK_CLASSES)
        assert not result.errors

    def test_jobs_parallel_matches_serial(self):
        suite = build_suite(SMALL)[:3]
        serial = sweep_matrices(SMALL, suite, seed=2, jobs=1)
        parallel = sweep_matrices(SMALL, suite, seed=2, jobs=2)
        assert serial == parallel


class TestSweepResultSerialization:
    TRACE = HeuristicTrace((1.0,), (1.25,), (1.25,), 1.0, (42,), 1.25)

    def _result(self):
        rows = (
            SweepRow("uniform", "oblivious", 4, 1.0),
            SweepRow("uniform", "da-periodic", 4, 1.0, self.TRACE),
            SweepRow("permutation", "oblivious", 4, 0.5),
            SweepRow("permutation", "da-periodic", 4, 1.0, self.TRACE),
        )
        return SweepResult(rows)

    def test_csv_header_and_rows(self):
        text = self._result().to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "matrix,class,degree,theta"
        assert lines[1] == "uniform,oblivious,4,1"
        assert lines[2] == "uniform,da-periodic,4,1"
        assert len(lines) == 5

    def test_csv_quotes_a_label_with_a_comma(self):
        text = SweepResult((SweepRow("a,b", "da-static", 4, 0.5),)).to_csv_text()
        assert list(csv.reader(io.StringIO(text))) == [
            ["matrix", "class", "degree", "theta"], ["a,b", "da-static", "4", "0.5"]]

    def test_json_rows_carry_demand_aware_traces_only(self):
        rows = self._result().to_json_dict()["rows"]
        assert rows[0] == {"matrix": "uniform", "class": "oblivious", "degree": 4, "theta": 1.0}
        assert rows[1]["trace"] == {"step": 0.01, "iter_values": [1.0], "bounds": [1.25],
                                    "objectives": [1.25], "seeds": [42], "chosen_theta": 1.0,
                                    "demand_bound": 1.25}
        assert [("trace" in r) for r in rows] == [False, True, False, True]

    def test_sweep_json_trace_certifies_theta(self):
        suite = build_suite(SMALL)[:2]
        payload = sweep_matrices(SMALL, suite, seed=0).to_json_dict()
        builds = {"da-static": topology.build_demand_aware_static,
                  "da-periodic": topology.build_demand_aware_emulated}
        for row in payload["rows"]:
            if row["class"] in ("da-static", "da-periodic"):
                trace = row["trace"]
                assert trace["chosen_theta"] == row["theta"] == trace["iter_values"][-1]
                objective = trace["objectives"][-1]
                assert objective is None or objective >= OBJECTIVE_REACHED
                # the last step's seed rebuilds a topology whose full LP reaches 1
                scaled = dict(suite)[row["matrix"]].scaled(row["theta"])
                topo = builds[row["class"]](scaled, SMALL, seed=trace["seeds"][-1])
                assert throughput_static(topo, scaled) >= OBJECTIVE_REACHED
            else:
                assert "trace" not in row
        json.dumps(payload, allow_nan=False)

    def test_json_worst_case(self):
        payload = self._result().to_json_dict()
        wc = {(e["class"], e["degree"]): e for e in payload["worst_case"]}
        assert wc[("oblivious", 4)]["matrix"] == "permutation"
        assert wc[("da-periodic", 4)]["theta"] == 1.0
        json.dumps(payload)

    def test_failed_cell_is_the_worst_case_and_an_error(self):
        rows = self._result().rows + (
            SweepRow("hot", "da-periodic", 4, float("nan"), error="hose violated"),)
        result = SweepResult(rows)
        theta, label = result.worst_case("da-periodic", 4)
        assert np.isnan(theta) and label == "hot"
        assert result.errors == (("hot", "da-periodic", 4, "hose violated"),)
        payload = result.to_json_dict()
        wc = {(e["class"], e["degree"]): e for e in payload["worst_case"]}
        assert wc[("da-periodic", 4)] == {"class": "da-periodic", "degree": 4, "theta": None,
                                          "matrix": "hot"}
        assert payload["rows"][-1]["theta"] is None
        json.dumps(payload, allow_nan=False)
        assert payload["errors"] == [{"matrix": "hot", "class": "da-periodic", "degree": 4,
                                      "error": "hose violated"}]
        assert "errors" not in self._result().to_json_dict()

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            self._result().theta("chessboard", "oblivious", 4)
        with pytest.raises(KeyError):
            self._result().theta("uniform", "oblivious", 8)
        with pytest.raises(KeyError):
            self._result().worst_case("static", 4)
        with pytest.raises(KeyError):
            self._result().worst_case("oblivious", 8)

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rdcn_throughput import (
    DemandMatrix,
    HeuristicTrace,
    NetworkParams,
    SolverError,
    ThroughputResult,
    Topology,
    build_demand_aware_periodic,
    build_oblivious_equivalent,
    build_suite,
    edge_color_regular,
    evaluate_cell,
    generate,
    save_csv,
    solve_max_throughput,
    sweep_degree,
    sweep_matrices,
    throughput_demand_aware,
    throughput_static,
)
from rdcn_throughput import evaluation, topology
from rdcn_throughput.evaluation import (
    NETWORK_CLASSES,
    OBJECTIVE_REACHED,
    SKIP_MARGIN,
    SweepResult,
    SweepRow,
)

SMALL = NetworkParams(4, 2, 1e9)


class TestThroughputFunctions:
    def test_oblivious_uniform_is_full_throughput(self):
        theta = throughput_static(build_oblivious_equivalent(SMALL), generate("uniform", SMALL))
        assert theta == pytest.approx(1.0, abs=1e-9)

    def test_oblivious_permutation_at_small_n(self):
        # direct share 1/n plus (n-2) two-hop relays at half weight: (1 + (n-2)/2)/n
        theta = throughput_static(build_oblivious_equivalent(SMALL), generate("permutation", SMALL))
        assert theta == pytest.approx((1 + (4 - 2) / 2) / 4, abs=1e-8)

    def test_failed_verification_names_the_largest_violation(self, monkeypatch):
        # Arcs 0->1, 1->0, 1->2 (row-major), one source (0) sending 1 to node 2.
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = counts[1, 0] = counts[1, 2] = 1
        t = Topology(counts, 1.0, "test", degree_budget=2)
        entries = np.zeros((3, 3))
        entries[0, 2] = 1.0
        m = DemandMatrix(entries)
        # 0.1 less on 0->1 and -0.1 on 1->0 keep node 1 balanced: one negative
        # flow of 0.1, reported first; theta 1.5 leaves node 2 short by 0.5.
        tampered = ThroughputResult(1.5, np.array([[0.9, -0.1, 1.0]]))
        monkeypatch.setattr(evaluation, "solve_max_throughput", lambda t, m: tampered)
        report = evaluation.verify_solution(t, m, tampered)
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
        theta, trace, _topo, _schedule = throughput_demand_aware(
            generate("permutation", SMALL), SMALL, "da-periodic")
        assert theta == 1.0
        assert trace.iter_values == (1.0,)
        assert trace.objectives[0] >= 1.0 - 1e-9
        assert trace.bounds[0] >= trace.objectives[0] - 1e-9
        assert trace.chosen_theta == 1.0

    def test_trace_records_descending_multiples_of_step(self):
        p = NetworkParams(4, 4, 1.0)
        entries = np.zeros((4, 4))
        entries[0, 1] = 4.0  # hose-tight single pair
        entries[1, 0] = 4.0
        entries[2, 3] = 4.0
        entries[3, 2] = 4.0
        from rdcn_throughput import DemandMatrix
        theta, trace, _topo, _schedule = throughput_demand_aware(DemandMatrix(entries), p,
                                                                 "da-periodic", step=0.25)
        values = np.array(trace.iter_values)
        assert np.allclose(np.diff(values), -0.25)
        assert all(round(v / 0.25, 9) == int(round(v / 0.25)) for v in values)
        assert theta == trace.chosen_theta
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
        with pytest.raises(ValueError, match="step"):
            throughput_demand_aware(m, SMALL, "da-static", step=0.0)

    def test_trace_json(self):
        trace = throughput_demand_aware(generate("uniform", SMALL), SMALL, "da-periodic").trace
        payload = trace.to_json_dict()
        assert set(payload) == {"step", "iter_values", "bounds", "objectives", "seeds",
                                "chosen_theta", "demand_bound"}
        assert len(payload["seeds"]) == len(payload["bounds"]) == len(payload["iter_values"])
        json.dumps(payload)


class TestBoundGuidedScan:
    """A step is skipped only when its topology's bound proves the LP objective
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
            assert trace.objectives[-1] is not None  # the accepted step is solved
            for objective, bound in zip(trace.objectives, trace.bounds):
                if objective is None:
                    skipped += 1
                    assert bound < OBJECTIVE_REACHED - SKIP_MARGIN
                else:
                    assert objective <= bound + 1e-9
        assert skipped > 0

    def test_same_scan_as_solving_every_step(self, monkeypatch):
        suite = build_suite(self.P8)[:6]
        scans = {(label, cls): throughput_demand_aware(m, self.P8, cls, seed=3)
                 for label, m in suite for cls in ("da-static", "da-periodic")}
        monkeypatch.setattr(evaluation, "throughput_upper_bound", lambda t, m: float("inf"))
        for (label, cls), cell in scans.items():
            full = throughput_demand_aware(dict(suite)[label], self.P8, cls, seed=3)
            assert (cell.theta, cell.trace.iter_values, cell.trace.seeds) == (
                full.theta, full.trace.iter_values, full.trace.seeds), (label, cls)
            assert np.array_equal(cell.topology.link_count, full.topology.link_count)
            for objective, solved in zip(cell.trace.objectives, full.trace.objectives):
                assert objective is None or objective == solved

    def test_demand_bound_start_drops_only_rejected_steps(self, monkeypatch):
        # Every step before the start, scanned from scale 1 with its own seed,
        # is rejected on its topology's bound; the scan from the start is the
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
                row = sweep.row(label, net_class)
                assert (cell.theta, cell.trace) == (row.theta, row.trace), (label, net_class)
                assert (cell.trace is None) == (net_class in ("static", "oblivious"))

    def test_demand_aware_cell_carries_its_certificate(self):
        p = NetworkParams(8, 2, 1.0)
        m = generate("chessboard", p)
        cell = evaluate_cell(m, p, "da-periodic", seed=0, label="chessboard")
        assert 0 < cell.theta < 1
        scaled = m.scaled(cell.theta)
        assert solve_max_throughput(cell.topology, scaled).theta >= OBJECTIVE_REACHED
        assert np.array_equal(cell.schedule.union_counts(), cell.topology.link_count)

    @pytest.mark.parametrize("u", [4, 8, 3])
    def test_periodic_cell_is_the_full_build_of_its_last_step(self, u):
        # Steps build only the emulated graph; the one schedule, colored for the
        # last step, is what build_demand_aware_periodic makes from its seed.
        p = NetworkParams(16, u, 25e9)
        m = generate("chessboard", p)
        cell = throughput_demand_aware(m, p, "da-periodic")
        topo, schedule = build_demand_aware_periodic(m.scaled(cell.theta), p,
                                                     seed=cell.trace.seeds[-1])
        assert np.array_equal(cell.topology.link_count, topo.link_count)
        if u == 3:  # 3 does not divide 16: no schedule
            assert cell.schedule is None and schedule is None
        else:
            assert [[pm.mapping for pm in slots] for slots in cell.schedule.switches] == [
                [pm.mapping for pm in slots] for slots in schedule.switches]

    def test_a_periodic_cell_colors_one_schedule(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g.n)
            return edge_color_regular(g)

        monkeypatch.setattr(topology, "edge_color_regular", counted)
        p = NetworkParams(16, 4, 25e9)
        cell = throughput_demand_aware(generate("chessboard", p), p, "da-periodic")
        # three steps from the scan's start at 0.86 to the certifying 0.84, one colouring
        assert cell.trace.iter_values == (0.86, 0.85, 0.84) and calls == [16]
        assert cell.trace.seeds[-1] == evaluation._seed_int(0, "iter", 16)

    def test_lp_cell_topology_is_the_solved_one(self):
        m = generate("permutation", SMALL)
        cell = evaluate_cell(m, SMALL, "oblivious", seed=0, label="permutation")
        assert cell.topology.net_class == "oblivious" and cell.schedule is None
        assert cell.theta == throughput_static(build_oblivious_equivalent(SMALL), m)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown network class"):
            evaluate_cell(generate("uniform", SMALL), SMALL, "rotor", seed=0, label="uniform")


class TestBuildSuite:
    def test_twelve_synthetic_labels(self):
        labels = [label for label, _ in build_suite(SMALL)]
        assert labels[:3] == ["chessboard", "uniform", "permutation"]
        assert labels[3:] == [f"U+P {round(0.1 * k, 1)}" for k in range(1, 10)]

    def test_user_csvs_are_appended(self, tmp_path):
        path = tmp_path / "custom.csv"
        save_csv(generate("uniform", SMALL), path)
        suite = build_suite(SMALL, csv_paths=[path])
        assert suite[-1][0] == "custom"
        assert suite[-1][1].n == 4


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
        theta, label = result.worst_case("da-periodic")
        candidates = [r.theta for r in result.rows if r.net_class == "da-periodic"]
        assert theta == min(candidates)
        assert result.theta(label, "da-periodic") == theta

    def test_degree_sweep_shares_degree_invariant_cells(self):
        p = NetworkParams(4, 2, 1.0)
        result = sweep_degree(p, [2, 4], seed=1)
        assert result.degrees() == (2, 4)
        for label in ("chessboard", "uniform", "permutation"):
            assert result.theta(label, "da-periodic", 2) == result.theta(label, "da-periodic", 4)
            assert result.theta(label, "oblivious", 2) == result.theta(label, "oblivious", 4)

    def test_complete_static_graph_shares_the_oblivious_cell(self, monkeypatch):
        # At u = n the static expander is the complete digraph at capacity c,
        # the oblivious graph with the same demand in link units: one LP.
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
        tasks.clear()
        monkeypatch.setattr(evaluation, "_cell_key", static_apart)
        apart = sweep_degree(p, [4, 7, 8], seed=0, jobs=1)
        assert apart == result  # solved on its own, each static cell gets the same theta
        assert Counter(tasks) - merged == {("static", 8): 12} and not merged - Counter(tasks)

        p8 = NetworkParams(8, 8, 25e9)
        for label, m in build_suite(p8):
            oblivious = result.theta(label, "oblivious", 8)
            assert result.theta(label, "static", 8) == oblivious, label
            assert evaluate_cell(m, p8, "static", seed=0, label=label).theta == oblivious, label
            # at u = n-1 the graph is complete too, but its links carry c, not
            # c(n-1)/n: its own LP, whose optimum is n/(n-1) times the oblivious one
            assert result.theta(label, "static", 7) == pytest.approx(oblivious * 8 / 7,
                                                                     rel=1e-9), label

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

    def test_non_dividing_degree_still_sweeps(self):
        # no uniform schedule exists at u=3, but the emulated graph does
        result = sweep_degree(SMALL, [3], classes=("oblivious", "da-periodic"), seed=0)
        assert len(result.rows) == 12 * 2
        assert not result.errors

    def test_jobs_parallel_matches_serial(self):
        suite = build_suite(SMALL)[:3]
        serial = sweep_matrices(SMALL, suite, seed=2, jobs=1)
        parallel = sweep_matrices(SMALL, suite, seed=2, jobs=2)
        assert serial == parallel


class TestSweepResultSerialization:
    TRACE = HeuristicTrace((1.0,), (1.25,), (1.25,), 1.0, 0.01, (42,), 1.25)

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

    def test_json_rows_carry_demand_aware_traces_only(self):
        rows = self._result().to_json_dict()["rows"]
        assert rows[0] == {"matrix": "uniform", "class": "oblivious", "degree": 4, "theta": 1.0}
        assert rows[1]["trace"] == {"step": 0.01, "iter_values": [1.0], "bounds": [1.25],
                                    "objectives": [1.25], "seeds": [42], "chosen_theta": 1.0,
                                    "demand_bound": 1.25}
        assert [("trace" in r) for r in rows] == [False, True, False, True]

    def test_sweep_json_trace_certifies_theta(self):
        payload = sweep_matrices(SMALL, build_suite(SMALL)[:2], seed=0).to_json_dict()
        for row in payload["rows"]:
            if row["class"] in ("da-static", "da-periodic"):
                trace = row["trace"]
                assert trace["chosen_theta"] == row["theta"] == trace["iter_values"][-1]
                assert trace["objectives"][-1] >= OBJECTIVE_REACHED
            else:
                assert "trace" not in row
        json.dumps(payload)

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
            self._result().theta("chessboard", "oblivious")
        with pytest.raises(KeyError):
            self._result().worst_case("static")

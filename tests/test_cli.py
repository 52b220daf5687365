import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

from rdcn_throughput import (
    NetworkParams,
    SweepResult,
    SweepRow,
    Topology,
    build_suite,
    generate,
    load_csv,
    save_csv,
    solve_max_throughput,
    verify_solution,
)
from rdcn_throughput import evaluation
from rdcn_throughput.cli import fig4_degrees, main
from rdcn_throughput.evaluation import OBJECTIVE_REACHED, check_landscape
from rdcn_throughput.svg import grouped_bar_chart


@pytest.fixture
def runner():
    return CliRunner()


def write_small_permutation(tmp_path, n=4, u=2, c=1e9):
    path = tmp_path / "perm.csv"
    save_csv(generate("permutation", NetworkParams(n, u, c)), path)
    return path


class TestGen:
    def test_chessboard_rows_sum_to_node_capacity(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "chessboard", "--n", "16",
                                      "--c", "25e9", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        m = load_csv(tmp_path / "chessboard.csv")
        np.testing.assert_allclose(m.row_sums(), 16 * 25e9, rtol=1e-12)
        assert "hose check" in result.output and "OK" in result.output

    def test_mix_writes_hose_feasible_matrix(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "mix", "--alpha", "0.5", "--n", "16",
                                      "--u", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        m = load_csv(tmp_path / "mix.csv")
        assert m.row_sums().max() <= 100e9 * (1 + 1e-12)

    def test_odd_chessboard_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "chessboard", "--n", "15",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "even" in result.output

    def test_out_env_var_used(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("RDCN_THROUGHPUT_OUT", str(tmp_path))
        result = runner.invoke(main, ["gen", "--kind", "uniform", "--n", "4"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "uniform.csv").exists()


class TestDecompose:
    def test_chessboard_is_interval_high(self, runner, tmp_path):
        p = NetworkParams(16, 4, 25e9)
        path = tmp_path / "cb.csv"
        save_csv(generate("chessboard", p), path)
        result = runner.invoke(main, ["decompose", str(path), "--c", "25e9",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "interval-high" in result.output
        assert (tmp_path / "cb_int.csv").exists()
        assert (tmp_path / "cb_res.csv").exists()

    def test_integer_matrix_is_interval_low_with_zero_residual(self, runner, tmp_path):
        path = write_small_permutation(tmp_path)  # entries c*u -> integer after /c
        result = runner.invoke(main, ["decompose", str(path), "--c", "1e9",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "interval-low" in result.output
        res = np.loadtxt(tmp_path / "perm_res.csv", delimiter=",")
        assert not res.any()

    def test_mixed_ratios_are_not_uniform(self, runner, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1.5,0\n0.2,0,1.0\n1.0,0.2,0\n")
        result = runner.invoke(main, ["decompose", str(path), "--normalized",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "not-uniform" in result.output

    def test_parts_are_written_with_round_trip_digits(self, runner, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1.5,0\n0.2,0,1.0\n1.0,0.2,0\n")
        result = runner.invoke(main, ["decompose", str(path), "--normalized",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "m_int.csv").read_bytes() == b"0,1,0\n0,0,1\n1,0,0\n"
        assert (tmp_path / "m_res.csv").read_bytes() == (
            b"0,0.5,0\n0.20000000000000001,0,0\n0,0.20000000000000001,0\n")

    def test_parse_error_exits_two(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n1,0\n")
        result = runner.invoke(main, ["decompose", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_entry_exits_two(self, runner, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,{token},1\n1,0,1\n1,1,0\n")
        result = runner.invoke(main, ["decompose", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "non-finite" in result.output and not list(tmp_path.glob("bad_*.csv"))


class TestEval:
    def test_permutation_da_periodic_full_throughput(self, runner, tmp_path):
        path = write_small_permutation(tmp_path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic",
                                      "--u", "2", "--c", "1e9", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "theta(da-periodic" in result.output
        assert "= 1" in result.output

    def test_trace_and_topology_emission(self, runner, tmp_path):
        path = write_small_permutation(tmp_path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic",
                                      "--u", "2", "--c", "1e9", "--trace", "--emit-topo",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        topo = json.loads((tmp_path / "topology.json").read_text())
        assert set(topo) == {"n", "link_capacity", "class", "link_count"}
        assert topo["n"] == 4
        assert len(topo["link_count"]) == 16
        sched = json.loads((tmp_path / "schedule.json").read_text())
        assert set(sched) == {"u", "gamma", "slot_duration_s", "reconfig_duration_s", "switches"}
        assert sched["u"] == 2 and sched["gamma"] == 2
        assert '"iter_values"' in result.output

    def test_emitted_topology_certifies_theta(self, runner, tmp_path):
        # The chessboard at seed 0: the emitted topology is the heuristic's
        # last step, which reaches the reported theta. The scan starts at 0.86,
        # the first step the demand-only bound 46/53 leaves room to reach 1.
        p = NetworkParams(16, 4, 25e9)
        chess = generate("chessboard", p)
        path = tmp_path / "chessboard.csv"
        save_csv(chess, path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic", "--u", "4",
                                      "--c", "25e9", "--trace", "--emit-topo",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        trace = json.loads(result.output[result.output.index("{"):result.output.rindex("}") + 1])
        theta = trace["chosen_theta"]
        assert theta > 0 and len(trace["seeds"]) == len(trace["iter_values"])
        assert trace["iter_values"] == [0.86, 0.85, 0.84]
        assert trace["demand_bound"] == pytest.approx(46 / 53, rel=1e-12)
        # 2 steps rejected on their bounds, the accepted one solved, with the
        # seed of step 16 counted from scale 1
        assert trace["objectives"] == [None] * 2 + [trace["objectives"][-1]]
        assert all(bound < OBJECTIVE_REACHED for bound in trace["bounds"][:-1])
        assert trace["seeds"][-1] == evaluation._seed_int(
            evaluation._seed_int(0, "chessboard"), "iter", 16)
        data = json.loads((tmp_path / "topology.json").read_text())
        n = data["n"]
        topo = Topology(np.array(data["link_count"]).reshape(n, n), data["link_capacity"],
                        data["class"], degree_budget=n)
        scaled = chess.scaled(theta)
        cert = solve_max_throughput(topo, scaled)
        assert cert.theta >= OBJECTIVE_REACHED
        assert verify_solution(topo, scaled, cert).ok

    @pytest.mark.parametrize("label, theta", [("U+P 0.9", "0.9"), ("chessboard", "0.84")])
    def test_agrees_with_reproduce_cell(self, runner, tmp_path, label, theta):
        # `eval X.csv` seeds the heuristic from the stem X, as the sweep cell
        # of label X does: `reproduce fig3 --n 16 --u 4 --seed 0` reports these
        # two cells at 0.9 and 0.84 (with the raw --seed, eval printed 0.87
        # for U+P 0.9).
        suite = dict(build_suite(NetworkParams(16, 4, 25e9)))
        path = tmp_path / f"{label}.csv"
        save_csv(suite[label], path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic", "--u", "4",
                                      "--c", "25e9", "--seed", "0"])
        assert result.exit_code == 0, result.output
        assert result.output == f"theta(da-periodic, {label}.csv) = {theta}\n"

    def test_oblivious_eval(self, runner, tmp_path):
        path = write_small_permutation(tmp_path)
        result = runner.invoke(main, ["eval", str(path), "--class", "oblivious",
                                      "--u", "2", "--c", "1e9"])
        assert result.exit_code == 0, result.output

    def test_non_finite_entry_exits_two(self, runner, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0,nan,1\n1,0,1\n1,1,0\n")
        result = runner.invoke(main, ["eval", str(path), "--class", "oblivious", "--u", "2",
                                      "--c", "1", "--normalized"])
        assert result.exit_code == 2
        assert "non-finite entry 'nan' at row 1, column 1" in result.output

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["eval", str(tmp_path / "nope.csv"),
                                      "--class", "oblivious"])
        assert result.exit_code == 2


class TestReproduce:
    def test_fig3_small_scale_outputs(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "4", "--u", "2",
                                      "--c", "1e9", "--out", str(tmp_path)])
        assert result.exit_code in (0, 4), result.output
        csv_text = (tmp_path / "fig3.csv").read_text()
        assert csv_text.startswith("matrix,class,degree,theta\n")
        assert (tmp_path / "fig3.json").exists()

        svg_text = (tmp_path / "fig3.svg").read_text()
        root = ET.fromstring(svg_text)  # valid XML
        assert root.tag.endswith("svg")
        # every bar's data-theta matches the CSV value exactly
        thetas = {}
        for line in csv_text.strip().split("\n")[1:]:
            matrix, cls, _deg, theta = line.rsplit(",", 3)
            thetas[(matrix, cls)] = float(theta)
        bars = [el for el in root.iter() if el.tag.endswith("rect") and "data-theta" in el.attrib]
        assert bars
        for bar in bars:
            key = (bar.attrib["data-group"], bar.attrib["data-series"])
            assert float(bar.attrib["data-theta"]) == thetas[key]
        # exit code consistent with printed summary
        if "[FAIL]" in result.output:
            assert result.exit_code == 4
        else:
            assert result.exit_code == 0

    def test_svg_escapes_labels_inside_attributes(self):
        text = grouped_bar_chart(['a"b<c'], {"static": [0.5]}, title="t & u")
        [bar] = [el for el in ET.fromstring(text).iter() if "data-theta" in el.attrib]
        assert bar.attrib["data-group"] == 'a"b<c'

    def test_fig4_small_scale(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce", "fig4", "--n", "4",
                                      "--c", "1e9", "--out", str(tmp_path)])
        assert result.exit_code in (0, 4), result.output
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "fig4.svg").exists()
        assert "[PASS]" in result.output or "[FAIL]" in result.output

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_fig4_below_its_lowest_degree_exits_two(self, runner, tmp_path, n):
        result = runner.invoke(main, ["reproduce", "fig4", "--n", n, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == (f"error: fig4 sweeps the degrees 4, 8, 12, 16 up to n, "
                                 f"and n={n} is below all of them\n")
        assert not (tmp_path / "fig4.csv").exists()

    def test_fig4_failed_cells_are_worst_cases(self, runner, tmp_path):
        # a permutation at 6c per row: over the hose bound c*u at u=4, within it at u=8
        hot = tmp_path / "hot.csv"
        save_csv(generate("permutation", NetworkParams(8, 6, 25e9)), hot)
        result = runner.invoke(main, ["reproduce", "fig4", "--n", "8", "--jobs", "2",
                                      "--matrix-csv", str(hot), "--out", str(tmp_path)])
        assert result.exit_code == 4
        hose = "failed: demand matrix violates hose model: row 0 sums to 1.5e+11 > 1e+11"
        assert result.stderr.splitlines() == [
            f"cell (hot, da-static, u=4) {hose}", f"cell (hot, da-periodic, u=4) {hose}"]
        csv_rows = (tmp_path / "fig4.csv").read_text().splitlines()
        assert [row for row in csv_rows if row.endswith(",nan")] == [
            "hot,da-static,4,nan", "hot,da-periodic,4,nan"]
        lines = [line for line in result.stdout.splitlines() if "] criterion" in line]
        assert len(lines) == 3
        for line in lines[:2]:
            assert line.startswith("[FAIL] criterion 6:") and "NaN cells hot da-periodic u=4" in line
        assert lines[2].startswith("[PASS] criterion 7:")  # it reads u=8 only
        assert "[FAIL] 2 sweep cells errored" in result.stdout

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads((tmp_path / "fig4.json").read_text(), parse_constant=reject)
        worst = {(e["class"], e["degree"]): e for e in payload["worst_case"]}
        for cls in ("da-static", "da-periodic"):
            assert worst[cls, 4]["theta"] is None and worst[cls, 4]["matrix"] == "hot"
            assert worst[cls, 8]["theta"] > 0
        failed = [(r["class"], r["degree"]) for r in payload["rows"] if r["theta"] is None]
        assert failed == [("da-static", 4), ("da-periodic", 4)]

    def test_config_file_provides_defaults(self, runner, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 4\nu = 2\nc = 1e9\nseed = 7\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--config", str(config),
                                      "--out", str(tmp_path)])
        assert result.exit_code in (0, 4), result.output
        csv_text = (tmp_path / "fig3.csv").read_text()
        assert ",2," in csv_text  # degree 2 from config, not the default 4

    def test_flag_overrides_config(self, runner, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 8\nu = 2\nc = 1e9\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "4", "--config", str(config),
                                      "--out", str(tmp_path)])
        assert result.exit_code in (0, 4), result.output
        # --n 4 wins over the config's n=8: row sums of the generated uniform
        # matrix appear in a 4-node sweep, i.e. 12 matrices x 4 classes rows
        rows = (tmp_path / "fig3.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 12 * 4
        assert all(",2," in row for row in rows)

    def test_unknown_config_key_exits_two(self, runner, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("bogus = 1\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--config", str(config),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert f"{config}: unknown config key 'bogus'" in result.output
        assert not (tmp_path / "fig3.csv").exists()

    @pytest.mark.parametrize("line, message", [
        ("n = x", "Invalid value for '--n': 'x' is not a valid integer"),
        ("step = 0", "Invalid value for '--step': 0.0 is not in the range 0<x<1"),
        ("jobs = 0", "Invalid value for '--jobs': 0 is not in the range x>=1"),
    ])
    def test_config_values_are_checked_like_flags(self, runner, tmp_path, line, message):
        config = tmp_path / "run.conf"
        config.write_text(f"{line}\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--config", str(config),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert f"{config}: {message}" in result.output
        assert not (tmp_path / "fig3.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two_before_solving(self, runner, tmp_path, jobs):
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "4", "--u", "2",
                                      "--jobs", jobs, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "Invalid value for '--jobs'" in result.output
        assert not (tmp_path / "fig3.csv").exists()

    @pytest.mark.parametrize("step", ["0", "1", "-0.5"])
    def test_step_outside_the_unit_interval_exits_two_before_solving(self, runner, tmp_path,
                                                                     step):
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "4", "--u", "2",
                                      "--step", step, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "Invalid value for '--step'" in result.output
        assert not (tmp_path / "fig3.csv").exists()

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_matrix_csv_of_another_size_exits_two_before_solving(self, runner, tmp_path,
                                                                 figure):
        small = tmp_path / "small.csv"
        save_csv(generate("uniform", NetworkParams(3, 2, 1e9)), small)
        result = runner.invoke(main, ["reproduce", figure, "--n", "4", "--u", "2",
                                      "--matrix-csv", str(small), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == f"error: {small}: 3x3 matrix, but the network has n=4\n"
        assert not (tmp_path / f"{figure}.csv").exists()


class TestFig3Checks:
    """The fig3 entries of the landscape criteria table on hand-built sweeps:
    no LP involved."""

    @staticmethod
    def fig3_checks(chess_theta, uniform_theta=1.0):
        p = NetworkParams(16, 4, 25e9)
        dap = {"chessboard": chess_theta, "uniform": uniform_theta, "permutation": 1.0}
        obl = {"chessboard": 0.5, "uniform": 1.0, "permutation": 0.5}
        rows = []
        for label in dap:
            rows.append(SweepRow(label, "da-periodic", 4, dap[label]))
            rows.append(SweepRow(label, "oblivious", 4, obl[label]))
            rows.append(SweepRow(label, "static", 4, 0.4))
            rows.append(SweepRow(label, "da-static", 4, 0.4))
        suite = [(label, generate(label, p)) for label in dap]
        return check_landscape(SweepResult(tuple(rows)), suite, p, figure="fig3")

    @pytest.mark.parametrize("chess_theta, ok", [(0.84, True), (0.80, False), (0.86, False)])
    def test_chessboard_bound_matches_criterion_2(self, chess_theta, ok):
        checks = self.fig3_checks(chess_theta)
        [(_, passed, detail)] = [check for check in checks if check[0].number == 2]
        assert passed is ok
        assert "expected 0.84 +/- 0.01" in detail
        # every other fig3 entry passes on this sweep, the chessboard's
        # uniform-residual floor included
        assert all(passed for c, passed, _ in checks if c.number != 2)
        assert {c.number for c, _, _ in checks} == {1, 2, 3, 4, 5}

    def test_nan_cell_fails_dominance_and_uniform_residual_floor(self):
        checks = self.fig3_checks(0.84, uniform_theta=float("nan"))
        verdicts = {c.number: (passed, detail) for c, passed, detail in checks}
        assert not verdicts[1][0] and "NaN cells uniform da-periodic" in verdicts[1][1]
        assert not verdicts[5][0] and "('uniform', nan)" in verdicts[5][1]
        assert verdicts[2][0]  # the chessboard cell itself is fine


class TestFig4Checks:
    """The fig4 entries of the landscape criteria table on hand-built sweeps."""

    @staticmethod
    def fig4_checks(failed):
        """A passing n=8 sweep but for the (matrix, class, degree) cell `failed`."""
        worst = {"oblivious": 0.5, "da-static": 0.83, "da-periodic": 0.84}
        rows = []
        for u in (4, 8):
            for cls, theta in worst.items():
                rows.append(SweepRow("chessboard", cls, u, theta))
                rows.append(SweepRow("uniform", cls, u, 1.0))
        rows = [SweepRow(r.matrix, r.net_class, r.degree, float("nan"), error="forced")
                if (r.matrix, r.net_class, r.degree) == failed else r for r in rows]
        p = NetworkParams(8, 4, 25e9)
        return check_landscape(SweepResult(tuple(rows)), (), p, figure="fig4")

    @pytest.mark.parametrize("label", ["chessboard", "uniform"])
    def test_nan_cell_fails_every_entry_and_is_named(self, label):
        checks = self.fig4_checks((label, "da-periodic", 8))
        assert [c.number for c, _, _ in checks] == [6, 6, 7]
        for _, passed, detail in checks:
            assert passed is False
            assert f"NaN cells {label} da-periodic u=8" in detail and "nan" in detail

    def test_nan_cell_below_the_top_degree_leaves_convergence(self):
        checks = self.fig4_checks(("uniform", "da-static", 4))
        assert [passed for _, passed, _ in checks] == [True, True, True]
        checks = self.fig4_checks(("uniform", "oblivious", 4))
        assert [passed for _, passed, _ in checks] == [True, False, True]
        assert "NaN cells uniform oblivious u=4" in checks[1][2]

    @staticmethod
    def convergence(n, static_worst):
        """Criterion 7 on a sweep at n whose da-static worst case at each degree
        is static_worst[degree], against da-periodic at 0.84 throughout."""
        rows = []
        for u, theta in static_worst.items():
            rows += [SweepRow("chessboard", "da-static", u, theta),
                     SweepRow("chessboard", "da-periodic", u, 0.84)]
        p = NetworkParams(n, min(static_worst), 25e9)
        [(_, passed, detail)] = check_landscape(SweepResult(tuple(rows)), (), p, number=7)
        return passed, detail

    def test_convergence_reads_u_equal_n(self):
        # n=32: da-static trails by 0.16 at u=16, the top degree of FIG4_DEGREES,
        # and meets da-periodic at u=32
        passed, detail = self.convergence(32, {4: 0.5, 16: 0.68, 32: 0.84})
        assert passed and detail == "da-static converges at u=32: |gap| = 0.0000 <= 0.02"
        passed, detail = self.convergence(32, {4: 0.5, 16: 0.84, 32: 0.68})
        assert not passed and detail == "da-static converges at u=32: |gap| = 0.1600 <= 0.02"

    def test_convergence_fails_without_u_equal_n(self):
        passed, detail = self.convergence(32, {4: 0.84, 8: 0.84, 12: 0.84, 16: 0.84})
        assert not passed
        assert detail == ("da-static converges at u=32: the sweep has no u=32 "
                          "(degrees 4, 8, 12, 16)")

    @pytest.mark.parametrize("n, degrees", [
        (4, [4]), (8, [4, 8]), (10, [4, 8, 10]), (16, [4, 8, 12, 16]),
        (32, [4, 8, 12, 16, 32]),
    ])
    def test_fig4_sweeps_n_as_its_top_degree(self, n, degrees):
        assert fig4_degrees(n) == degrees

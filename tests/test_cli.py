import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from rdcn_throughput import (
    DemandMatrix,
    NetworkParams,
    SolverError,
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
from rdcn_throughput import cli, evaluation, flowlp
from rdcn_throughput.cli import CONFIG_KEYS, fig4_degrees, main, read_config, reproduce
from rdcn_throughput.evaluation import LANDSCAPE_CRITERIA, OBJECTIVE_REACHED, check_landscape
from rdcn_throughput.svg import grouped_bar_chart


@pytest.fixture
def runner():
    return CliRunner()


def write_small_permutation(tmp_path, n=4, u=2, c=1e9):
    path = tmp_path / "perm.csv"
    save_csv(generate("permutation", NetworkParams(n, u, c)), path)
    return path


_WATCHED = {}  # path -> opens seen since count_opens(path)


def _count_watched_opens(event, args):
    if event == "open" and _WATCHED and isinstance(args[0], (str, bytes, os.PathLike)):
        path = os.path.abspath(os.fsdecode(args[0]))
        if path in _WATCHED:
            _WATCHED[path] += 1


def count_opens(path):
    """A function that returns how often `path` was opened since this call,
    counted at the interpreter's `open` audit event, which every way of
    opening a file raises. An audit hook cannot be removed, so one hook,
    added at the first call, serves every later one."""
    if not _WATCHED:
        sys.addaudithook(_count_watched_opens)
    path = os.path.abspath(path)
    _WATCHED[path] = 0
    return lambda: _WATCHED[path]


class TestCapacity:
    """Every command takes c as a finite positive number; any other exits 2
    naming --c before it reads, writes or solves anything."""

    @pytest.mark.parametrize("c", ["inf", "-inf", "nan", "0"])
    @pytest.mark.parametrize("args", [
        ["gen", "--kind", "uniform", "--n", "4"],
        ["decompose", "{matrix}"],
        ["eval", "{matrix}", "--class", "oblivious", "--u", "2"],
        ["reproduce", "fig3", "--n", "4", "--u", "2"],
    ], ids=["gen", "decompose", "eval", "reproduce"])
    def test_non_finite_or_non_positive_capacity_exits_two(self, runner, tmp_path, args, c):
        matrix = str(write_small_permutation(tmp_path))
        out = tmp_path / "out"
        result = runner.invoke(main, [a.format(matrix=matrix) for a in args]
                               + ["--c", c, "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--c': link capacity must be finite and positive" in result.output
        assert "Warning" not in result.output and not out.exists()

    def test_config_capacity_is_checked_too(self, runner, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 4\nu = 2\nc = inf\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--config", str(config),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == (f"error: {config}: Invalid value for '--c': link capacity "
                                 f"must be finite and positive, got inf\n")


class TestOutDir:
    """An output directory that names an existing file is an input error:
    exit 2 with one `error:` line naming it, whichever command writes there."""

    @pytest.mark.parametrize("args, env", [
        (["gen", "--kind", "uniform", "--n", "4", "--out", "{out}"], False),
        (["decompose", "{matrix}", "--out", "{out}"], False),
        (["eval", "{matrix}", "--class", "oblivious", "--u", "2", "--emit-topo",
          "--out", "{out}"], False),
        (["reproduce", "fig3", "--n", "4", "--u", "2", "--out", "{out}"], False),
        (["gen", "--kind", "uniform", "--n", "4"], True),
    ], ids=["gen", "decompose", "eval-emit-topo", "reproduce", "env-var"])
    def test_existing_file_as_out_exits_two(self, runner, tmp_path, monkeypatch, args, env):
        matrix = str(write_small_permutation(tmp_path))
        out = tmp_path / "afile"
        out.write_text("not a directory\n")
        if env:
            monkeypatch.setenv("RDCN_THROUGHPUT_OUT", str(out))
        result = runner.invoke(main, [a.format(matrix=matrix, out=out) for a in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot make output directory {out}: ")
        assert result.output.count("\n") == 1
        assert "Traceback" not in result.output
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("args, occupied", [
        (["gen", "--kind", "uniform", "--n", "4"], "uniform.csv"),
        (["decompose", "{matrix}"], "perm_int.csv"),
        (["eval", "{matrix}", "--class", "da-periodic", "--u", "2", "--c", "1e9",
          "--emit-topo"], "topology.json"),
        (["eval", "{matrix}", "--class", "da-periodic", "--u", "2", "--c", "1e9",
          "--emit-topo"], "schedule.json"),
        (["reproduce", "fig3", "--n", "4", "--u", "2", "--c", "1e9"], "fig3.csv"),
        (["reproduce", "fig3", "--n", "4", "--u", "2", "--c", "1e9"], "fig3.json"),
        (["reproduce", "fig3", "--n", "4", "--u", "2", "--c", "1e9"], "fig3.svg"),
    ], ids=["gen", "decompose", "eval-topology", "eval-schedule", "reproduce",
            "reproduce-json", "reproduce-svg"])
    def test_directory_at_an_output_file_exits_two(self, runner, tmp_path, monkeypatch, args,
                                                   occupied):
        def sweep_degree(*args, **kwargs):
            raise RuntimeError("reproduce reached the sweep")

        # reproduce checks its figure files before the sweep, so it never gets there
        monkeypatch.setattr(evaluation, "sweep_degree", sweep_degree)
        matrix = str(write_small_permutation(tmp_path))
        out = tmp_path / "out"
        (out / occupied).mkdir(parents=True)
        result = runner.invoke(main, [a.format(matrix=matrix) for a in args]
                               + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert str(out / occupied) in result.stderr

    @pytest.mark.parametrize("occupied", ["topology.json", "schedule.json"])
    def test_eval_checks_its_files_before_any_solve(self, runner, tmp_path, monkeypatch,
                                                    occupied):
        # the n=8 chessboard's da-periodic scan solves an LP; none is reached,
        # and neither file is made
        solves = []
        monkeypatch.setattr(flowlp, "linprog", lambda *a, **k: solves.append(k))
        path = tmp_path / "chessboard.csv"
        save_csv(generate("chessboard", NetworkParams(8, 4, 25e9)), path)
        out = tmp_path / "out"
        (out / occupied).mkdir(parents=True)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic", "--u", "4",
                                      "--emit-topo", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == (f"error: [Errno 21] Is a directory: "
                                 f"'{out / occupied}'\n")
        assert solves == []
        assert sorted(p.name for p in out.iterdir()) == [occupied]

    def test_reproduce_that_never_finishes_leaves_no_file(self, runner, tmp_path,
                                                          monkeypatch):
        # its figure files are checked before the sweep and written after it
        def sweep_degree(*args, **kwargs):
            raise RuntimeError("the sweep failed")

        monkeypatch.setattr(evaluation, "sweep_degree", sweep_degree)
        out = tmp_path / "EMPTY"
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "8", "--out", str(out)])
        assert isinstance(result.exception, RuntimeError), result.output
        assert list(out.iterdir()) == []

    def test_unwritable_file_exits_two_in_a_real_process(self, tmp_path):
        # click's CliRunner catches exceptions itself; the interpreter does not
        (tmp_path / "uniform.csv").mkdir()
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "rdcn_throughput.cli", "gen", "--kind",
                               "uniform", "--n", "4", "--out", str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(tmp_path / "uniform.csv") in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("exc", [BrokenPipeError(), RuntimeError("a programming error")],
                             ids=["os-error-without-file", "runtime-error"])
    def test_other_exceptions_pass_the_boundary(self, runner, tmp_path, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "generate", fail)
        result = runner.invoke(main, ["gen", "--kind", "uniform", "--n", "4",
                                      "--out", str(tmp_path)])
        assert result.exception is exc and "error:" not in result.output


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

    def test_shift_and_name(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "permutation", "--n", "4", "--u", "2",
                                      "--c", "1", "--shift", "3", "--name", "p3.csv",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p3.csv"]
        expected = np.zeros((4, 4))
        expected[np.arange(4), (np.arange(4) + 3) % 4] = 2
        np.testing.assert_array_equal(load_csv(tmp_path / "p3.csv").entries, expected)
        comment = (tmp_path / "p3.csv").read_text().splitlines()[0]
        assert comment == "# kind=permutation n=4 u=2 c=1 seed=0 shift=3"

    def test_mix_comment_records_alpha_and_shift(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "mix", "--alpha", "0.5", "--n", "4",
                                      "--u", "2", "--c", "1", "--shift", "2",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        comment = (tmp_path / "mix.csv").read_text().splitlines()[0]
        assert comment == "# kind=mix n=4 u=2 c=1 seed=0 alpha=0.5 shift=2"

    def test_shift_zero_mod_n_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["gen", "--kind", "permutation", "--n", "4",
                                      "--shift", "4", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == "error: shift=4 is 0 mod n=4: would demand self-traffic\n"
        assert not (tmp_path / "permutation.csv").exists()

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
        result = runner.invoke(main, ["decompose", str(path), "--c", "1",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "not-uniform" in result.output

    def test_parts_are_written_with_round_trip_digits(self, runner, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1.5,0\n0.2,0,1.0\n1.0,0.2,0\n")
        result = runner.invoke(main, ["decompose", str(path), "--c", "1",
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
        assert set(sched) == {"u", "gamma", "switches"}
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
                        data["class"])
        scaled = chess.scaled(theta)
        cert = solve_max_throughput(topo, scaled)
        assert cert.theta >= OBJECTIVE_REACHED
        assert verify_solution(cert).ok

    def test_emitted_schedule_bytes_are_pinned(self, runner, tmp_path):
        # The n=16 chessboard at u=4, seed 0: the peel order of the colouring
        # and the seeded dealing of matchings to switches both show in the
        # bytes of schedule.json, which a check of its union alone would miss.
        path = tmp_path / "chessboard.csv"
        save_csv(generate("chessboard", NetworkParams(16, 4, 25e9)), path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic", "--u", "4",
                                      "--c", "25e9", "--seed", "0", "--emit-topo",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256((tmp_path / "schedule.json").read_bytes()).hexdigest()
        assert digest == "073f307834ed3ec3bb90023ea5a0d07dad0a137468bf39f16f270a2d1858e32c"
        digest = hashlib.sha256((tmp_path / "topology.json").read_bytes()).hexdigest()
        assert digest == "50683b5fbecac1c2120d81a249e6b7bfe0f6dbf115f1d5f746d7ea74cb85dea8"

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
                                      "--c", "1"])
        assert result.exit_code == 2
        assert result.output == f"error: {path}:1: non-finite entry 'nan' in column 2\n"

    @pytest.mark.parametrize("net_class", evaluation.NETWORK_CLASSES)
    def test_link_units_at_c_one_match_bits_per_second(self, runner, tmp_path, net_class):
        # A matrix in links is read at --c 1: the same stem in two directories
        # gives both files the same build seed, and so the same theta line.
        chess = generate("chessboard", NetworkParams(8, 4, 25e9))
        (tmp_path / "bits").mkdir()
        (tmp_path / "links").mkdir()
        save_csv(chess, tmp_path / "bits" / "chessboard.csv")
        save_csv(DemandMatrix(chess.entries / 25e9), tmp_path / "links" / "chessboard.csv")
        lines = [runner.invoke(main, ["eval", str(tmp_path / unit / "chessboard.csv"),
                                      "--class", net_class, "--c", c]).output
                 for unit, c in (("bits", "25e9"), ("links", "1"))]
        assert lines[0] == lines[1] and lines[0].startswith(f"theta({net_class}, chessboard.csv)")

    @pytest.mark.parametrize("net_class", evaluation.NETWORK_CLASSES)
    def test_demand_too_small_for_the_lp_exits_two(self, runner, tmp_path, net_class):
        # 1 bit/s over links of 25e9 or 12.5e9 bits/s: below HiGHS's
        # small_matrix_value, which would drop every demand coefficient
        path = tmp_path / "tiny.csv"
        path.write_text("0,1\n1,0\n")
        result = runner.invoke(main, ["eval", str(path), "--class", net_class, "--u", "1"])
        assert result.exit_code == 2
        assert result.output.startswith("error: demand at (0, 1), ")
        assert "small_matrix_value" in result.output and result.output.count("\n") == 1

    @pytest.mark.parametrize("net_class", evaluation.NETWORK_CLASSES)
    def test_one_entry_too_small_for_the_lp_exits_two(self, runner, tmp_path, net_class):
        # 1e-10 links from 0 to 3 beside a whole link's worth from 0 to 1
        path = tmp_path / "tiny.csv"
        path.write_text("0,1,0,1e-10\n1,0,0,0\n0,0,0,1\n0,0,1,0\n")
        result = runner.invoke(main, ["eval", str(path), "--class", net_class, "--u", "2",
                                      "--c", "1"])
        assert result.exit_code == 2
        assert result.output.startswith("error: demand at (0, 3), ")
        assert "small_matrix_value" in result.output and result.output.count("\n") == 1

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["eval", str(tmp_path / "nope.csv"),
                                      "--class", "oblivious"])
        assert result.exit_code == 2

    def test_emitted_schedule_realizes_the_topology(self, runner, tmp_path):
        # the union of the switches' matchings is the emulated graph's link multiset
        path = tmp_path / "chessboard.csv"
        save_csv(generate("chessboard", NetworkParams(8, 4, 25e9)), path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic", "--u", "4",
                                      "--emit-topo", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        topo = json.loads((tmp_path / "topology.json").read_text())
        sched = json.loads((tmp_path / "schedule.json").read_text())
        n = topo["n"]
        union = np.zeros((n, n), dtype=int)
        for slots in sched["switches"]:
            for mapping in slots:
                union[np.arange(n), mapping] += 1
        assert (sched["u"], sched["gamma"]) == (4, 2)
        assert union.reshape(-1).tolist() == topo["link_count"]

    def test_periodic_degree_not_dividing_n_says_why_there_is_no_schedule(self, runner, tmp_path):
        path = tmp_path / "chessboard.csv"
        save_csv(generate("chessboard", NetworkParams(8, 3, 25e9)), path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-periodic", "--u", "3",
                                      "--emit-topo", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.stderr == ("note: no schedule.json: u=3 does not divide n=8, so the "
                                 "emulated graph has no switch schedule of period n/u\n")
        assert (tmp_path / "topology.json").exists()
        assert not (tmp_path / "schedule.json").exists()

    @pytest.mark.parametrize("net_class", evaluation.NETWORK_CLASSES)
    def test_demand_over_the_hose_bound_exits_two(self, runner, tmp_path, net_class):
        # a permutation at 3 links per node, evaluated at u=2: every class
        # rejects it before it builds or solves anything
        path = tmp_path / "hot.csv"
        save_csv(generate("permutation", NetworkParams(4, 3, 1e9)), path)
        result = runner.invoke(main, ["eval", str(path), "--class", net_class, "--u", "2",
                                      "--c", "1e9", "--emit-topo", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == ("error: demand matrix violates hose model: row 0 "
                                 "sums to 3e+09 > 2e+09\n")
        assert not (tmp_path / "topology.json").exists()

    def test_solver_failure_exits_three(self, runner, tmp_path, monkeypatch):
        def fail(t, m):
            raise SolverError("HiGHS status 4: numerical difficulties")

        monkeypatch.setattr(evaluation, "solve_max_throughput", fail)
        path = write_small_permutation(tmp_path)
        result = runner.invoke(main, ["eval", str(path), "--class", "oblivious", "--u", "2",
                                      "--c", "1e9", "--emit-topo", "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert result.output == "error: HiGHS status 4: numerical difficulties\n"
        assert not (tmp_path / "topology.json").exists()

    def test_undecided_step_exits_three(self, runner, tmp_path, monkeypatch):
        # a dual bound of 2 certifies no reject: the first solved step of the
        # n=8 chessboard da-static scan (scale 0.69, lambda < 1) is undecided
        monkeypatch.setattr(flowlp, "_dual_bound", lambda lp, ub_dual: 2.0)
        path = tmp_path / "chessboard.csv"
        save_csv(generate("chessboard", NetworkParams(8, 4, 25e9)), path)
        result = runner.invoke(main, ["eval", str(path), "--class", "da-static", "--u", "4",
                                      "--c", "25e9", "--out", str(tmp_path)])
        assert result.exit_code == 3
        (line,) = result.output.splitlines()
        assert re.fullmatch(r"error: undecided step: lambda = 0\.97\d+ and lambda_d = 2\.0 "
                            r"against 0\.999999999; its flows at theta = 1 failed "
                            r"verification: capacity: arc .+", line)


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
        classes = evaluation.NETWORK_CLASSES
        assert result.stderr.splitlines() == [f"cell (hot, {cls}, u=4) {hose}" for cls in classes]
        csv_rows = (tmp_path / "fig4.csv").read_text().splitlines()
        assert [row for row in csv_rows if row.endswith(",nan")] == [
            f"hot,{cls},4,nan" for cls in classes]
        lines = [line for line in result.stdout.splitlines() if "] criterion" in line]
        assert len(lines) == 3
        for line in lines[:2]:
            assert line.startswith("[FAIL] criterion 6:") and "NaN cells hot da-periodic u=4" in line
        assert lines[1].endswith("NaN cells hot da-periodic u=4, hot oblivious u=4")
        assert lines[2].startswith("[PASS] criterion 7:")  # it reads u=8 only
        assert result.stdout.endswith("[FAIL] 4 sweep cells errored\n")

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads((tmp_path / "fig4.json").read_text(), parse_constant=reject)
        worst = {(e["class"], e["degree"]): e for e in payload["worst_case"]}
        for cls in classes:
            assert worst[cls, 4]["theta"] is None and worst[cls, 4]["matrix"] == "hot"
            assert worst[cls, 8]["theta"] > 0
        failed = [(r["class"], r["degree"]) for r in payload["rows"] if r["theta"] is None]
        assert failed == [(cls, 4) for cls in classes]

    def test_undecided_step_is_a_failed_cell(self, runner, tmp_path, monkeypatch):
        # with a dual bound of 2 no exact reject is certified: each
        # demand-aware cell that meets one is NaN with the step's message
        monkeypatch.setattr(flowlp, "_dual_bound", lambda lp, ub_dual: 2.0)
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "8", "--u", "4",
                                      "--jobs", "1", "--out", str(tmp_path)])
        assert result.exit_code == 4
        failed = [line.split(" failed: ", 1) for line in result.stderr.splitlines()]
        assert "cell (chessboard, da-static, u=4)" in [cell for cell, _ in failed]
        for cell, message in failed:
            assert re.fullmatch(r"cell \(.+, da-(static|periodic), u=4\)", cell)
            assert re.fullmatch(r"undecided step: lambda = \S+ and lambda_d = 2\.0 against "
                                r"0\.999999999; its flows at theta = 1 .+", message)
        payload = json.loads((tmp_path / "fig3.json").read_text())
        assert [e["error"] for e in payload["errors"]] == [message for _, message in failed]
        nan_rows = [row for row in (tmp_path / "fig3.csv").read_text().splitlines()
                    if row.endswith(",nan")]
        assert len(nan_rows) == len(failed)
        assert result.stdout.endswith(f"[FAIL] {len(failed)} sweep cells errored\n")

    @pytest.mark.parametrize("args, digests", [
        (["fig4", "--n", "8"], (
            "370453f03a9a500e9fe718837db3d7baf4eaf51e38b07a90d947342de2cf00d3",
            "6cc688491543dfdf7638c99a5c719606397f8540495aab7f20c94ad73f22f9dc",
            "7e279ac15639bc3fade91b45268cc3bc957097529c4835a0df51e913484b911a",
            "7ccc2edd543a2fb4489b0f0df2e732bb68b535d8eb42d29cb474f0dfeab84422")),
        (["fig3", "--n", "16", "--u", "4"], (
            "e0372cca1792f495325e649e26bfc2b245e83d11020005af6c4cfaca7cc7166a",
            "ff86842a70158bfe11388acfb18c636eaab113276c708a32f785afcf947d1b70",
            "6ab6db93addb56674d21f3052da70126fc3ff7a75b7de8db601642a92d0f927f",
            "a61e03b414b210bad62b71b3f780d5a95df22efcc58dd77e41db6e5dd721b640")),
    ], ids=["fig4-n8", "fig3-n16-u4"])
    def test_output_bytes_are_pinned(self, runner, tmp_path, args, digests):
        # SHA-256 of the figure's CSV, JSON and SVG and of stdout without its
        # `wrote` line, at seed 0 on two workers. Re-recording them is a stated
        # decision, as re-recording bench/reference.json is.
        result = runner.invoke(main, ["reproduce", *args, "--jobs", "2", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        stdout = "".join(line for line in result.stdout.splitlines(keepends=True)
                         if not line.startswith("wrote "))
        files = [(tmp_path / f"{args[0]}.{ext}").read_bytes() for ext in ("csv", "json", "svg")]
        assert tuple(hashlib.sha256(b).hexdigest() for b in files + [stdout.encode()]) == digests

    def test_fig4_n8_lp_count_is_pinned(self, runner, tmp_path, monkeypatch):
        # every HiGHS call of the landscape sweep at n=8, seed 0, in this
        # process: a change that makes the scan solve skipped steps again
        # shows here before it shows in the timings
        calls = []
        real = flowlp.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs["mode"])
            return real(*args, **kwargs)

        monkeypatch.setattr(flowlp, "linprog", counted)
        result = runner.invoke(main, ["reproduce", "fig4", "--n", "8", "--seed", "0",
                                      "--jobs", "1", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert len(calls) == 75

    def test_each_step_names_the_method_its_highs_calls_show(self, runner, tmp_path,
                                                              monkeypatch):
        # every heuristic step of the serial n=8 landscape sweep and of the
        # n=16 chessboard da-periodic scan at seeds 0-2, its `method` against
        # the HiGHS calls made while it was decided: none for skip and
        # direct, one "interior" call for interior, and for exact one or two
        # exact solves (the second the other solver) after at most one
        # "interior" call
        calls, steps = [], []
        real_linprog, real_solve = flowlp.linprog, evaluation.solve_max_throughput

        def linprog(*args, mode, **kwargs):
            calls.append(mode)
            return real_linprog(*args, mode=mode, **kwargs)

        def solve(t, m, **kwargs):
            calls.clear()
            result = real_solve(t, m, **kwargs)
            if kwargs.get("direct_first"):
                steps.append((result.method, tuple(calls)))
            return result

        monkeypatch.setattr(flowlp, "linprog", linprog)
        monkeypatch.setattr(evaluation, "solve_max_throughput", solve)
        result = runner.invoke(main, ["reproduce", "fig4", "--n", "8", "--seed", "0",
                                      "--jobs", "1", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        p = NetworkParams(16, 4, 25e9)
        for seed in range(3):
            evaluation.evaluate_cell(generate("chessboard", p), p, "da-periodic", seed=seed,
                                     label="chessboard")
        exact = {("simplex",), ("ipm",), ("simplex", "ipm"), ("ipm", "simplex")}
        allowed = {"skip": {()}, "direct": {()}, "interior": {("interior",)},
                   "exact": exact | {("interior", *modes) for modes in exact}}
        for method, modes in steps:
            assert modes in allowed[method], (method, modes)
        assert {method for method, _ in steps} == set(allowed)

    @pytest.mark.parametrize("args, message", [
        (["fig3", "--n", "3", "--u", "1"], "chessboard needs even n"),
        (["fig4", "--n", "8", "--matrix-csv", "{matrix}"],
         "{matrix}: 4x4 matrix, but the network has n=8"),
    ], ids=["odd-n", "wrong-size-csv"])
    def test_input_error_makes_no_out_directory(self, runner, tmp_path, args, message):
        matrix = str(write_small_permutation(tmp_path))
        out = tmp_path / "new"
        result = runner.invoke(main, ["reproduce", *(a.format(matrix=matrix) for a in args),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and message.format(matrix=matrix) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_repeated_matrix_label_exits_two(self, runner, tmp_path, monkeypatch, figure):
        # a CSV stem that repeats a suite label would share its rows, and
        # the sweep would read only the first of them
        (tmp_path / "y").mkdir()
        path = tmp_path / "y" / "uniform.csv"
        save_csv(generate("uniform", NetworkParams(8, 4, 25e9)), path)

        def no_solve(task):
            raise AssertionError("a cell was solved")

        monkeypatch.setattr(evaluation, "_evaluate_cell", no_solve)
        result = runner.invoke(main, ["reproduce", figure, "--n", "8", "--u", "4",
                                      "--matrix-csv", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == (f"error: {path}: the suite already has a matrix "
                                 f"labelled 'uniform'\n")
        assert not (tmp_path / f"{figure}.csv").exists()

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

    def test_step_is_no_config_key(self, runner, tmp_path):
        # the heuristic's step is fixed at evaluation.DEFAULT_STEP
        config = tmp_path / "run.conf"
        config.write_text("n = 4\nstep = 0.01\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--config", str(config),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == f"error: {config}: unknown config key 'step'\n"
        assert evaluation.DEFAULT_STEP == 0.01

    def test_every_config_key_is_a_reproduce_option(self):
        options = {param.name for param in reproduce.params if isinstance(param, click.Option)}
        assert set(CONFIG_KEYS) <= options

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("# a sweep\n\n   \nn = 4  # ToRs\n  # indented comment\nseed=7\n")
        assert read_config(config) == {"n": "4", "seed": "7"}

    def test_config_line_without_equals_exits_two(self, runner, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 4\n# note\n\nu 2\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--config", str(config),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == f"error: {config}:4: expected 'key = value', got 'u 2'\n"
        assert not (tmp_path / "fig3.csv").exists()

    def test_repeated_config_key_exits_two(self, runner, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 8\nu = 2\nn = 6\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["reproduce", "fig3", "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == f"error: {config}:3: repeated key 'n'\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("n = x", "Invalid value for '--n': 'x' is not a valid integer"),
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

    @pytest.mark.parametrize("command", ["reproduce", "eval"])
    def test_step_is_no_option(self, runner, tmp_path, command):
        # the heuristic's step is fixed at evaluation.DEFAULT_STEP
        path = write_small_permutation(tmp_path)
        args = (["reproduce", "fig3", "--n", "4", "--u", "2"] if command == "reproduce"
                else ["eval", str(path), "--class", "da-periodic", "--u", "2", "--c", "1e9"])
        result = runner.invoke(main, args + ["--step", "0.05", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "No such option '--step'" in result.output
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

    def test_bad_matrix_csv_is_named_by_path_and_line(self, runner, tmp_path, monkeypatch):
        def sweep_degree(*args, **kwargs):
            raise RuntimeError("reproduce reached the sweep")

        monkeypatch.setattr(evaluation, "sweep_degree", sweep_degree)
        monkeypatch.chdir(tmp_path)
        save_csv(generate("uniform", NetworkParams(8, 4, 25e9)), "good.csv")
        Path("bad.csv").write_text("0,1,1,1,1,1,1,1\nx,0,1,1,1,1,1,1\n")
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "8", "--u", "4",
                                      "--matrix-csv", "good.csv", "--matrix-csv", "bad.csv",
                                      "--out", "out"])
        assert result.exit_code == 2
        assert result.output == "error: bad.csv:2: non-numeric entry 'x' in column 1\n"
        assert not Path("out").exists()

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_each_matrix_csv_is_read_once(self, runner, tmp_path, monkeypatch, figure):
        # the criteria and every degree of the sweep see the same bytes; no
        # cell is solved, since solving opens no input
        monkeypatch.setattr(evaluation, "_run_cells", lambda tasks, jobs: [
            (float("nan"), None, "not solved")] * len(tasks))
        path = tmp_path / "extra.csv"
        save_csv(generate("uniform", NetworkParams(8, 4, 25e9)), path)
        opens = count_opens(path)
        result = runner.invoke(main, ["reproduce", figure, "--n", "8", "--u", "4",
                                      "--matrix-csv", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert opens() == 1

    def test_criterion_one_fails_where_static_is_the_complete_graph(self, runner, tmp_path):
        # This pins ROADMAP's open known-red: at u = n - 1 static runs on the
        # complete digraph, whose raw LP optimum 4/3 on uniform exceeds the
        # da-periodic theta the heuristic caps at 1. Turning it green is a
        # stated decision, not a moved bound.
        result = runner.invoke(main, ["reproduce", "fig3", "--n", "4", "--u", "3",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 4, result.output
        assert ("[FAIL] criterion 1: da-periodic >= every class on every matrix at u=3 "
                "(tol 1e-6; tightest margin -0.3333 vs static on uniform)\n") in result.stdout


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
        [criterion] = [c for c in LANDSCAPE_CRITERIA if c.number == 7]
        return criterion.check(SweepResult(tuple(rows)), (), p)

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


@pytest.mark.parametrize("command", [reproduce, cli.eval_cmd], ids=["reproduce", "eval"])
def test_readme_flag_lists_match_the_commands(command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(rf"`{command.name}` flags: (.*?)[;.]", readme, re.DOTALL).group(1)
    options = [name for param in command.params if isinstance(param, click.Option)
               for name in param.opts]
    assert re.findall(r"`(--[\w-]+)`", listed) == options

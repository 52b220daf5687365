import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdcn_throughput import (
    DemandMatrix,
    NetworkParams,
    UniformResidualClass,
    classify_uniform_residual,
    decompose_integer_residual,
    generate,
    load_csv,
    save_csv,
    validate_hose,
)
from rdcn_throughput.demand import GENERATOR_KINDS, IntegerResidualDecomposition

from conftest import sinkhorn_doubly_stochastic


class TestNetworkParams:
    def test_accepts_desk_scale(self):
        p = NetworkParams(16, 4, 25e9)
        assert p.node_capacity == 100e9

    @pytest.mark.parametrize("n,u,c", [
        (1, 1, 1.0),        # too few ToRs
        (4, 0, 1.0),        # degree below 1
        (4, 5, 1.0),        # degree above n
        (4, 2, 0.0),        # zero capacity
        (4, 2, np.inf),     # infinite capacity
        (4, 2, np.nan),     # no capacity at all
        (16, 4.5, 1.0),     # fractional degree
        (16.0, 4, 1.0),     # float ToR count
        (4, True, 1.0),     # a bool is an int to isinstance, but not a degree
    ])
    def test_rejects_bad_params(self, n, u, c):
        with pytest.raises(ValueError):
            NetworkParams(n, u, c)

    def test_integer_fields_take_numpy_integers_and_name_a_float(self):
        assert NetworkParams(np.int64(8), np.int64(4), 1.0).node_capacity == 4.0
        with pytest.raises(ValueError, match=r"^u must be an integer, got 4\.5$"):
            NetworkParams(16, 4.5, 1.0)
        with pytest.raises(ValueError, match=r"^u must be an integer, got True$"):
            NetworkParams(4, True, 1.0)
        with pytest.raises(ValueError, match=r"^n must be an integer, got True$"):
            NetworkParams(True, 1, 1.0)

    def test_non_dividing_degree_allowed(self):
        p = NetworkParams(16, 12, 1.0)
        assert p.node_capacity == 12.0


class TestDemandMatrix:
    def test_rejects_negative_and_self_demand(self):
        with pytest.raises(ValueError, match="negative"):
            DemandMatrix([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="self-demand"):
            DemandMatrix([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="square"):
            DemandMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match=r"non-finite demand .* at \(1, 0\)"):
            DemandMatrix([[0.0, 1.0], [value, 0.0]])

    def test_entries_are_immutable(self):
        m = DemandMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            m.entries[0, 1] = 5.0

    def test_negative_scale_rejected(self):
        m = DemandMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="scale factor must be nonnegative, got -1"):
            m.scaled(-1)
        np.testing.assert_array_equal(m.scaled(0).entries, np.zeros((2, 2)))


class TestValidateHose:
    def test_boundary_is_valid(self):
        p = NetworkParams(2, 1, 1.0)
        report = validate_hose(DemandMatrix([[0, 1.0], [1.0, 0]]), p)
        assert report.ok

    def test_row_violation_reported(self):
        p = NetworkParams(2, 1, 1.0)
        report = validate_hose(DemandMatrix([[0, 1.5], [1.0, 0]]), p)
        assert [v.kind for v in report.violations] == ["row", "col"]
        assert {v.detail for v in report.violations} == {"row 0 sums to 1.5 > 1",
                                                        "col 1 sums to 1.5 > 1"}
        assert [v.magnitude for v in report.violations] == [0.5, 0.5]

    def test_chessboard_row_sums_reach_node_capacity(self):
        # direct summation: every row and column of the u=n chessboard sums to n*c
        p = NetworkParams(16, 16, 25e9)
        m = generate("chessboard", p)
        assert validate_hose(m, p).ok
        np.testing.assert_allclose(m.row_sums(), 16 * 25e9, rtol=1e-12)
        np.testing.assert_allclose(m.col_sums(), 16 * 25e9, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            validate_hose(DemandMatrix(np.zeros((3, 3))), NetworkParams(4, 2, 1.0))


class TestNormalize:
    """Demand in links of a unit: `decompose_integer_residual` divides the
    bits/s matrix by the unit it is given, once."""

    def test_divides_by_unit(self):
        dec = decompose_integer_residual(DemandMatrix([[0, 25e9], [25e9, 0]]), 25e9)
        np.testing.assert_array_equal(dec.int_part, [[0, 1], [1, 0]])
        assert not dec.res_part.any()

    def test_unit_one_is_identity(self):
        m = DemandMatrix([[0, 3.5], [1.25, 0]])
        dec = decompose_integer_residual(m, 1.0)
        np.testing.assert_array_equal(dec.int_part + dec.res_part, m.entries)

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            decompose_integer_residual(DemandMatrix(np.zeros((2, 2))), 0.0)

    @pytest.mark.parametrize("unit", [np.inf, np.nan])
    def test_non_finite_unit(self, unit):
        # dividing by inf would turn every demand into 0 without a word
        with pytest.raises(ValueError, match="finite and positive"):
            decompose_integer_residual(DemandMatrix([[0, 1.0], [1.0, 0]]), unit)

    def test_chessboard_alternates_half_and_three_halves(self):
        # The opposite-parity cells sit exactly at 1.5; same-parity cells carry
        # 0.5 plus an equal share of the folded-back diagonal mass.
        p = NetworkParams(16, 16, 25e9)
        dec = decompose_integer_residual(generate("chessboard", p), 25e9)
        links = dec.int_part + dec.res_part
        i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        odd = (i + j) % 2 == 1
        same = ((i + j) % 2 == 0) & (i != j)
        np.testing.assert_allclose(links[odd], 1.5)
        np.testing.assert_allclose(links[same], 0.5 + 0.5 / 7)
        assert np.all(np.diagonal(links) == 0)
        np.testing.assert_allclose(links.sum(axis=1), 16.0, rtol=1e-12)


class TestDecomposeIntegerResidual:
    def test_half_three_half_matrix(self):
        m = DemandMatrix([[0, 0.5, 1.5], [1.5, 0, 0.5], [0.5, 1.5, 0]])
        dec = decompose_integer_residual(m, 1.0)
        np.testing.assert_array_equal(dec.int_part, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_allclose(dec.res_part, 0.5 * (1 - np.eye(3)))
        np.testing.assert_allclose(dec.row_ratios, 0.5)
        np.testing.assert_allclose(dec.col_ratios, 0.5)

    def test_integer_matrix_has_zero_residual(self):
        m = DemandMatrix([[0, 2.0, 1.0], [1.0, 0, 2.0], [2.0, 1.0, 0]])
        dec = decompose_integer_residual(m, 1.0)
        np.testing.assert_array_equal(dec.int_part, [[0, 2, 1], [1, 0, 2], [2, 1, 0]])
        assert not np.any(dec.res_part)
        assert not np.any(dec.row_ratios)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction_and_bounds(self, seed):
        m = sinkhorn_doubly_stochastic(8, seed, target=8.0, zero_diagonal=True)
        dec = decompose_integer_residual(DemandMatrix(m), 1.0)
        np.testing.assert_allclose(dec.int_part + dec.res_part, m, atol=1e-12)
        assert np.all(dec.res_part >= 0) and np.all(dec.res_part < 1)
        # floor sums never exceed the matrix sums
        assert np.all(dec.int_part.sum(axis=1) <= m.sum(axis=1) + 1e-12)
        assert np.all(dec.int_part.sum(axis=0) <= m.sum(axis=0) + 1e-12)

    def test_serialization_noise_snaps_to_integer(self):
        m = DemandMatrix([[0.0, 1.9999999999], [3.0000000001, 0.0]])
        dec = decompose_integer_residual(m, 1.0)
        np.testing.assert_array_equal(dec.int_part, [[0, 2], [3, 0]])
        assert not np.any(dec.res_part)

    # The input check is DemandMatrix's: no decomposition sees an entry it rejects.
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=r"negative demand -0.1 at \(0, 0\)"):
            decompose_integer_residual(DemandMatrix([[-0.1, 0.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected_with_location(self, value):
        with pytest.raises(ValueError, match=r"non-finite demand .* at \(0, 1\)"):
            decompose_integer_residual(DemandMatrix([[0.0, value], [1.0, 0.0]]), 1.0)

    def test_zero_rows_get_zero_ratio(self):
        dec = decompose_integer_residual(DemandMatrix([[0.0, 0.0], [0.5, 0.0]]), 1.0)
        assert dec.row_ratios[0] == 0.0
        assert dec.col_ratios[1] == 0.0


def _fake_decomposition(row_ratios, col_ratios):
    n = len(row_ratios)
    return IntegerResidualDecomposition(
        np.zeros((n, n), dtype=np.int64), np.zeros((n, n)),
        np.array(row_ratios, dtype=float), np.array(col_ratios, dtype=float),
    )


class TestClassifyUniformResidual:
    def test_integer_matrix_is_interval_low(self):
        m = DemandMatrix([[0, 2.0, 1.0], [1.0, 0, 2.0], [2.0, 1.0, 0]])
        dec = decompose_integer_residual(m, 1.0)
        assert classify_uniform_residual(dec) is UniformResidualClass.INTERVAL_LOW

    def test_generated_chessboard_is_interval_high(self):
        # independent ratio computation: residual row sum over total row sum
        p = NetworkParams(16, 16, 25e9)
        chess = generate("chessboard", p)
        m = chess.entries / 25e9
        res = m - np.floor(m)
        ratios = res.sum(axis=1) / m.sum(axis=1)
        np.testing.assert_allclose(ratios, 0.5, atol=1e-12)
        dec = decompose_integer_residual(chess, 25e9)
        assert classify_uniform_residual(dec) is UniformResidualClass.INTERVAL_HIGH

    def test_ratios_spanning_intervals_are_not_uniform(self):
        dec = _fake_decomposition([0.1, 0.3], [0.1, 0.3])
        assert classify_uniform_residual(dec) is UniformResidualClass.NOT_UNIFORM

    @pytest.mark.parametrize("ratio,expected", [
        (0.0, UniformResidualClass.INTERVAL_LOW),
        (0.2499999, UniformResidualClass.INTERVAL_LOW),
        (0.25, UniformResidualClass.INTERVAL_MID),
        (0.4999999, UniformResidualClass.INTERVAL_MID),
        (0.5, UniformResidualClass.INTERVAL_HIGH),
        (1.0, UniformResidualClass.INTERVAL_HIGH),
    ])
    def test_half_open_boundaries(self, ratio, expected):
        dec = _fake_decomposition([ratio, ratio], [ratio, ratio])
        assert classify_uniform_residual(dec) is expected

    def test_invariant_under_simultaneous_permutation(self):
        rng = np.random.default_rng(11)
        m = sinkhorn_doubly_stochastic(6, 5, target=3.0, zero_diagonal=True)
        perm = rng.permutation(6)
        permuted = m[np.ix_(perm, perm)]
        assert classify_uniform_residual(decompose_integer_residual(DemandMatrix(m), 1.0)) is \
            classify_uniform_residual(decompose_integer_residual(DemandMatrix(permuted), 1.0))


class TestGenerate:
    def test_permutation_example(self):
        p = NetworkParams(4, 1, 1.0)
        m = generate("permutation", p, shift=1)
        np.testing.assert_array_equal(
            m.entries, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
        )

    def test_uniform_entries_are_per_pair_fair_share(self):
        p = NetworkParams(16, 4, 25e9)
        m = generate("uniform", p)
        off = ~np.eye(16, dtype=bool)
        np.testing.assert_allclose(m.entries[off], 25e9 * 4 / 16)
        assert validate_hose(m, p).ok

    def test_mix_alpha_zero_equals_uniform(self):
        p = NetworkParams(8, 2, 10.0)
        np.testing.assert_array_equal(
            generate("mix", p, alpha=0.0).entries, generate("uniform", p).entries
        )

    def test_mix_row_sums_are_convex_combination(self):
        p = NetworkParams(16, 4, 25e9)
        m = generate("mix", p, alpha=0.5)
        expected = 0.5 * p.node_capacity + 0.5 * p.node_capacity * 15 / 16
        np.testing.assert_allclose(m.row_sums(), expected, rtol=1e-12)
        assert validate_hose(m, p).ok

    def test_chessboard_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate("chessboard", NetworkParams(15, 15, 1.0))

    def test_self_shift_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            generate("permutation", NetworkParams(4, 2, 1.0), shift=4)

    def test_mix_requires_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            generate("mix", NetworkParams(4, 2, 1.0))

    def test_random_saturated_sums(self):
        p = NetworkParams(8, 2, 5e9)
        m = generate("random-saturated", p, seed=42)
        np.testing.assert_allclose(m.row_sums(), p.node_capacity, rtol=1e-9)
        np.testing.assert_allclose(m.col_sums(), p.node_capacity, rtol=1e-9)

    def test_generators_deterministic(self):
        p = NetworkParams(8, 4, 1.0)
        a = generate("random-saturated", p, seed=9)
        b = generate("random-saturated", p, seed=9)
        other = generate("random-saturated", p, seed=10)
        np.testing.assert_array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, other.entries)

    def test_permutation_classifies_interval_low(self):
        p = NetworkParams(8, 4, 2.5e9)
        dec = decompose_integer_residual(generate("permutation", p), p.c)
        assert classify_uniform_residual(dec) is UniformResidualClass.INTERVAL_LOW

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.sampled_from(GENERATOR_KINDS), st.integers(2, 24), st.data())
    def test_every_kind_is_hose_feasible(self, kind, n, data):
        assume(kind != "chessboard" or n % 2 == 0)
        p = NetworkParams(n, data.draw(st.integers(1, n)), data.draw(st.floats(1e-3, 1e12)))
        m = generate(kind, p, alpha=data.draw(st.floats(0.0, 1.0)),
                     shift=data.draw(st.integers(1, n - 1)),
                     seed=data.draw(st.integers(0, 2**32 - 1)))
        assert validate_hose(m, p).ok
        assert (m.entries >= 0).all() and not np.diagonal(m.entries).any()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            generate("zipf", NetworkParams(4, 2, 1.0))


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = rng.random((16, 16)) * 25e9
        np.fill_diagonal(entries, 0.0)
        m = DemandMatrix(entries)
        path = tmp_path / "m.csv"
        save_csv(m, path, comment="test matrix")
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.entries, m.entries)

    # Every malformed file is a ValueError naming it, and the line at fault where
    # there is one, as `path:line: ...`; columns count from 1.
    def test_non_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3\n1,0,2,3\n2,1,0,3\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: non-square: 3 rows of 4 columns"

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:2: non-square: row has 1 entries, expected 2"

    def test_negative_entry_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n-1.0,0\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:2: negative entry '-1.0' in column 1"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_entry_with_location(self, tmp_path, token):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1,1\n1,0,{token}\n1,1,0\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:2: non-finite entry '{token}' in column 3"

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,x\n1,0\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}:1: non-numeric entry 'x' in column 2"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("# demand\n\n0,2.5\n1.5,0\n")
        np.testing.assert_array_equal(load_csv(path).entries, [[0, 2.5], [1.5, 0]])

    def test_trailing_comment_dropped(self, tmp_path):
        # as in a config file, '#' starts a comment anywhere on a line
        path = tmp_path / "ok.csv"
        path.write_text("0,2.5 # to ToR 1\n1.5,0#\n")
        np.testing.assert_array_equal(load_csv(path).entries, [[0, 2.5], [1.5, 0]])

    def test_byte_order_mark_and_crlf(self, tmp_path):
        # as a spreadsheet exports it: a UTF-8 byte-order mark and CRLF line ends
        path = tmp_path / "sheet.csv"
        path.write_bytes(b"\xef\xbb\xbf0,2.5\r\n1.5,0\r\n")
        np.testing.assert_array_equal(load_csv(path).entries, [[0, 2.5], [1.5, 0]])

    def test_comments_only_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# no rows\n\n  # still none\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: empty matrix file"

    def test_nonzero_diagonal_rejected(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("1,2\n2,1\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: self-demand not allowed: nonzero diagonal at (0, 0)"

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from rdcn_throughput import (
    BvnDecomposition,
    DecompositionError,
    PermutationMatching,
    RegularMultigraph,
    Topology,
    bvn_decompose,
    edge_color_regular,
    perfect_matching,
    random_regular_digraph,
    synthesize_schedule,
)

from rdcn_throughput import decomposition
from conftest import sinkhorn_doubly_stochastic


def recursive_disjoint_matching(allowed, rng):
    """The recursive Kuhn search the iterative `_random_disjoint_matching`
    replaces, kept as its reference: same rng calls, same search order."""
    n = allowed.shape[0]
    prefs = [rng.permutation(np.nonzero(allowed[i])[0]) for i in range(n)]
    col_owner = [-1] * n

    def augment(row, banned):
        for col in prefs[row]:
            col = int(col)
            if col not in banned:
                banned.add(col)
                if col_owner[col] < 0 or augment(col_owner[col], banned):
                    col_owner[col] = row
                    return True
        return False

    for row in rng.permutation(n):
        if not augment(int(row), set()):
            raise DecompositionError("allowed support has no perfect matching")
    mapping = [0] * n
    for col, row in enumerate(col_owner):
        mapping[row] = col
    return PermutationMatching(tuple(mapping))


def peeling_edge_colouring(g):
    """The plain peel loop, the reference `edge_color_regular` must agree with:
    one `perfect_matching` on the support of what is left per matching."""
    work = np.array(g.edge_multiplicity)
    matchings = []
    for _ in range(g.degree):
        pm = perfect_matching(work > 0)
        work[np.arange(g.n), pm.mapping] -= 1
        matchings.append(pm)
    return matchings


def brute_force_matching(support):
    """Exhaustive permutation search; the oracle perfect_matching must agree with."""
    n = support.shape[0]
    for perm in itertools.permutations(range(n)):
        if all(support[i, perm[i]] for i in range(n)):
            return perm
    return None


class TestPermutationMatching:
    def test_validates_bijection(self):
        with pytest.raises(ValueError):
            PermutationMatching((0, 0, 1))
        pm = PermutationMatching((2, 0, 1))
        assert pm.n == 3


class TestPerfectMatching:
    def test_identity_support(self):
        pm = perfect_matching(np.eye(3, dtype=bool))
        assert pm.mapping == (0, 1, 2)

    def test_full_support_yields_some_permutation(self):
        pm = perfect_matching(np.ones((4, 4), dtype=bool))
        assert sorted(pm.mapping) == [0, 1, 2, 3]

    def test_isolated_row_has_no_matching(self):
        support = np.ones((3, 3), dtype=bool)
        support[1, :] = False
        assert perfect_matching(support) is None

    def test_deterministic(self):
        support = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)
        assert perfect_matching(support).mapping == perfect_matching(support).mapping

    def test_agrees_with_brute_force_exhaustively_n3(self):
        for bits in range(2 ** 9):
            support = np.array([(bits >> k) & 1 for k in range(9)], dtype=bool).reshape(3, 3)
            found = perfect_matching(support)
            expect = brute_force_matching(support)
            assert (found is None) == (expect is None)
            if found is not None:
                assert all(support[i, found.mapping[i]] for i in range(3))

    def test_long_bidiagonal_support(self):
        # Row i allows columns i-1 and i: the identity is the only perfect
        # matching, and a search that recurses along the chain exceeds
        # Python's recursion limit at this size.
        n = 1200
        support = np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)
        assert perfect_matching(support).mapping == tuple(range(n))

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.data())
    def test_agrees_with_scipy_on_the_dense_csr(self, data):
        # the support's CSR is the one csr_array builds from the dense array, and
        # the matching is scipy's on it, or None when some row stays unmatched
        n = data.draw(st.integers(1, 12))
        support = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                           dtype=bool).reshape(n, n)
        support[sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=2)))] = False
        with mock.patch.object(decomposition, "maximum_bipartite_matching",
                               wraps=maximum_bipartite_matching) as solver:
            found = perfect_matching(support)
        [(csr,), _] = solver.call_args
        dense = csr_array(support)
        assert csr.shape == dense.shape
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(csr, part), getattr(dense, part))
            assert getattr(csr, part).dtype == getattr(dense, part).dtype
        mapping = maximum_bipartite_matching(dense, perm_type="column")
        if np.any(mapping < 0):
            assert found is None
        else:
            assert found.mapping == tuple(mapping.tolist())

    @pytest.mark.parametrize("n,seed", [(4, s) for s in range(30)] + [(5, s) for s in range(30)])
    def test_agrees_with_brute_force_sampled(self, n, seed):
        rng = np.random.default_rng(seed)
        support = rng.random((n, n)) < 0.4
        found = perfect_matching(support)
        expect = brute_force_matching(support)
        assert (found is None) == (expect is None)
        if found is not None:
            assert all(support[i, found.mapping[i]] for i in range(n))


class TestBvnDecompose:
    def test_two_by_two(self):
        dec = bvn_decompose(np.array([[0.3, 0.7], [0.7, 0.3]]))
        coeffs = sorted(lam for lam, _ in dec.terms)
        assert coeffs == pytest.approx([0.3, 0.7])
        mappings = {pm.mapping for _, pm in dec.terms}
        assert mappings == {(0, 1), (1, 0)}

    def test_identity(self):
        dec = bvn_decompose(np.eye(3))
        assert len(dec.terms) == 1
        lam, pm = dec.terms[0]
        assert lam == pytest.approx(1.0)
        assert pm.mapping == (0, 1, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_six_by_six(self, seed):
        m = sinkhorn_doubly_stochastic(6, seed)
        dec = bvn_decompose(m)
        np.testing.assert_allclose(dec.reconstruct(), m, atol=1e-9)
        assert len(dec.terms) <= 6 * 6 - 2 * 6 + 2
        assert sum(lam for lam, _ in dec.terms) == pytest.approx(1.0, abs=6e-9)
        assert all(lam > 1e-9 for lam, _ in dec.terms)

    def test_scaled_row_sums_supported(self):
        m = sinkhorn_doubly_stochastic(5, 3, target=4.0)
        dec = bvn_decompose(m)
        assert sum(lam for lam, _ in dec.terms) == pytest.approx(4.0, abs=5e-9)
        np.testing.assert_allclose(dec.reconstruct(), m, atol=1e-8)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.tuples(st.floats(0.01, 10.0), st.permutations(range(n))), min_size=1, max_size=12)))
    def test_reconstructs_random_doubly_stochastic(self, weighted):
        # a positive combination of permutations is doubly stochastic, row sums sum(w)
        n = len(weighted[0][1])
        m = np.zeros((n, n))
        for w, perm in weighted:
            m[np.arange(n), perm] += w
        total = sum(w for w, _ in weighted)
        dec = bvn_decompose(m)
        np.testing.assert_allclose(dec.reconstruct(), m, atol=1e-9 * max(total, 1.0))
        assert sum(lam for lam, _ in dec.terms) == pytest.approx(
            total, abs=n * 1e-9 * max(total, 1.0))
        assert len(dec.terms) <= max(1, n * n - 2 * n + 2)
        assert all(lam > 0 for lam, _ in dec.terms)

    def test_rejects_non_doubly_stochastic(self):
        with pytest.raises(ValueError, match="doubly stochastic"):
            bvn_decompose(np.array([[0.9, 0.1], [0.5, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bvn_decompose(np.array([[-0.5, 1.5], [1.5, -0.5]]))

    def test_zero_matrix_gives_empty_decomposition(self):
        assert bvn_decompose(np.zeros((3, 3))).terms == ()

    def test_reconstruct_empty(self):
        assert BvnDecomposition(()).reconstruct().shape == (0, 0)


class TestEdgeColorRegular:
    def test_complete_digraph_with_loops(self):
        g = RegularMultigraph(np.ones((4, 4), dtype=int))
        matchings = edge_color_regular(g)
        assert len(matchings) == 4
        np.testing.assert_array_equal(_union(matchings, 4), np.ones((4, 4)))

    def test_three_copies_of_one_permutation(self, monkeypatch):
        # the support never changes, so one matching search serves all three
        calls = []

        def counted(support):
            calls.append(support)
            return perfect_matching(support)

        monkeypatch.setattr(decomposition, "perfect_matching", counted)
        base = PermutationMatching((1, 2, 0))
        g = RegularMultigraph(3 * _union([base], 3))
        matchings = edge_color_regular(g)
        assert [pm.mapping for pm in matchings] == [base.mapping] * 3
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_union_round_trip_on_random_multigraph(self, seed):
        # union of random permutations (parallel duplicates possible)
        rng = np.random.default_rng(seed)
        counts = np.zeros((8, 8), dtype=int)
        for _ in range(8):
            counts[np.arange(8), rng.permutation(8)] += 1
        g = RegularMultigraph(counts)
        matchings = edge_color_regular(g)
        assert len(matchings) == 8
        union = np.zeros((8, 8), dtype=int)
        for pm in matchings:
            union[np.arange(8), pm.mapping] += 1
        np.testing.assert_array_equal(union, counts)

    def test_irregular_input_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            RegularMultigraph(np.array([[0, 2], [1, 0]]))


def _union(matchings, n):
    union = np.zeros((n, n), dtype=np.int64)
    for pm in matchings:
        union[np.arange(n), pm.mapping] += 1
    return union


@st.composite
def regular_multigraphs(draw, full_degree=False):
    """Counts of a d-regular multigraph (self-loops and parallel links allowed)
    on n <= 12 nodes, as a sum of d permutations; d = n when full_degree."""
    n = draw(st.integers(1, 12))
    d = n if full_degree else draw(st.integers(1, 12))
    perms = draw(st.lists(st.permutations(range(n)), min_size=d, max_size=d))
    return _union([PermutationMatching(perm) for perm in perms], n)


class TestColouringProperties:
    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(regular_multigraphs())
    def test_edge_coloring_splits_into_degree_matchings(self, counts):
        g = RegularMultigraph(counts)
        matchings = edge_color_regular(g)
        assert len(matchings) == g.degree
        assert all(isinstance(pm, PermutationMatching) for pm in matchings)
        np.testing.assert_array_equal(_union(matchings, g.n), counts)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(regular_multigraphs())
    def test_edge_coloring_matches_the_peeling_reference(self, counts):
        # the sampled permutations' fixed points are self-loops
        g = RegularMultigraph(counts)
        assert ([pm.mapping for pm in edge_color_regular(g)]
                == [pm.mapping for pm in peeling_edge_colouring(g)])

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(regular_multigraphs(full_degree=True), st.data())
    def test_schedule_union_reconstructs_topology(self, counts, data):
        n = counts.shape[0]
        u = data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        topo = Topology(counts, 1.0, "test", degree_budget=n)
        schedule = synthesize_schedule(topo, u, seed=seed)
        assert schedule.u == u and schedule.period == n // u
        np.testing.assert_array_equal(
            _union([pm for slots in schedule.switches for pm in slots], n), counts)


class TestRandomRegularDigraph:
    def test_degree_one_is_a_permutation(self):
        g = random_regular_digraph(4, 1, seed=5)
        assert sorted(np.argmax(g.edge_multiplicity, axis=1).tolist()) is not None
        np.testing.assert_array_equal(g.edge_multiplicity.sum(axis=1), 1)
        np.testing.assert_array_equal(g.edge_multiplicity.sum(axis=0), 1)

    @pytest.mark.parametrize("n,d", [(4, 2), (8, 5), (16, 8), (16, 15)])
    def test_regular_and_simple(self, n, d):
        g = random_regular_digraph(n, d, seed=1)
        np.testing.assert_array_equal(g.edge_multiplicity.sum(axis=1), d)
        np.testing.assert_array_equal(g.edge_multiplicity.sum(axis=0), d)
        assert g.edge_multiplicity.max() == 1  # no parallel arcs
        assert not np.any(np.diagonal(g.edge_multiplicity))

    def test_seeds_give_different_graphs(self):
        a = random_regular_digraph(16, 8, seed=1)
        b = random_regular_digraph(16, 8, seed=2)
        assert not np.array_equal(a.edge_multiplicity, b.edge_multiplicity)

    def test_deterministic_per_seed(self):
        a = random_regular_digraph(12, 6, seed=7)
        b = random_regular_digraph(12, 6, seed=7)
        np.testing.assert_array_equal(a.edge_multiplicity, b.edge_multiplicity)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64])
    def test_matches_recursive_reference(self, n, monkeypatch):
        degrees = sorted({1, max(1, n // 2), n - 1})
        samples = {(seed, d): random_regular_digraph(n, d, seed=seed).edge_multiplicity
                   for seed in range(10) for d in degrees}
        monkeypatch.setattr(decomposition, "_random_disjoint_matching",
                            recursive_disjoint_matching)
        for (seed, d), mult in samples.items():
            reference = random_regular_digraph(n, d, seed=seed).edge_multiplicity
            assert mult.tobytes() == reference.tobytes(), (seed, d)

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_full_degree_is_the_complete_digraph(self, n):
        np.testing.assert_array_equal(random_regular_digraph(n, n - 1, seed=4).edge_multiplicity,
                                      1 - np.eye(n, dtype=int))

    def test_large_n_needs_no_recursion(self):
        mult = random_regular_digraph(1200, 3, seed=0).edge_multiplicity
        np.testing.assert_array_equal(mult.sum(axis=1), 3)
        np.testing.assert_array_equal(mult.sum(axis=0), 3)
        assert mult.max() == 1 and not np.any(np.diagonal(mult))

    def test_limits(self):
        with pytest.raises(ValueError):
            random_regular_digraph(1, 1, seed=0)
        with pytest.raises(ValueError):
            random_regular_digraph(4, 4, seed=0)  # needs self-loops
        with pytest.raises(ValueError):
            random_regular_digraph(4, 0, seed=0)

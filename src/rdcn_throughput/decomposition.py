"""Matchings and matrix/graph decompositions.

Perfect matchings on boolean supports, Birkhoff-von-Neumann decomposition of
doubly stochastic matrices, edge coloring of regular multigraphs into
matchings, and seeded random regular digraph generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

BVN_DEFAULT_TOL = 1e-9


class DecompositionError(RuntimeError):
    """No perfect matching on the positive support: input is not doubly stochastic."""


@dataclass(frozen=True)
class PermutationMatching:
    """A bijection input port -> output port, i.e. a permutation matrix.

    A self-mapping (i -> i) stands for a padding slot in a switch schedule;
    padding carries no routable capacity downstream.
    """

    mapping: tuple

    def __post_init__(self):
        mapping = tuple(int(x) for x in self.mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(n)):
            raise ValueError(f"mapping {mapping} is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "mapping", mapping)

    @property
    def n(self) -> int:
        return len(self.mapping)


@dataclass(frozen=True)
class BvnDecomposition:
    """Weighted permutation terms whose sum reconstructs a doubly stochastic matrix."""

    terms: tuple  # of (coefficient, PermutationMatching)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def reconstruct(self) -> np.ndarray:
        if not self.terms:
            return np.zeros((0, 0))
        n = self.terms[0][1].n
        out = np.zeros((n, n))
        for lam, pm in self.terms:
            out[np.arange(n), pm.mapping] += lam
        return out


@dataclass(frozen=True)
class RegularMultigraph:
    """Directed multigraph where every node has in-degree = out-degree = `degree`.

    edge_multiplicity[i, j] counts parallel links i -> j; diagonal entries are
    allowed and represent self-loops.
    """

    edge_multiplicity: np.ndarray

    def __post_init__(self):
        mult = np.array(self.edge_multiplicity, dtype=np.int64)
        if mult.ndim != 2 or mult.shape[0] != mult.shape[1]:
            raise ValueError(f"edge multiplicity must be square, got {mult.shape}")
        if np.any(mult < 0):
            raise ValueError("edge multiplicities must be nonnegative")
        rows = mult.sum(axis=1)
        cols = mult.sum(axis=0)
        if not (np.all(rows == rows[0]) and np.all(cols == rows[0])):
            raise ValueError(
                f"graph is not regular: out-degrees {rows.tolist()}, in-degrees {cols.tolist()}"
            )
        mult.setflags(write=False)
        object.__setattr__(self, "edge_multiplicity", mult)

    @property
    def n(self) -> int:
        return self.edge_multiplicity.shape[0]

    @property
    def degree(self) -> int:
        return int(self.edge_multiplicity[0].sum()) if self.n else 0


def perfect_matching(support) -> PermutationMatching | None:
    """Find a perfect matching using only True cells of a boolean n x n support.

    Hopcroft-Karp (scipy's maximum_bipartite_matching), iterative, so n is not
    capped by the recursion limit; the result is deterministic for a given
    scipy. The support goes to it as the CSR `csr_array(support)` builds, made
    from the support's nonzeros. Returns None when no perfect matching exists.
    """
    support = np.asarray(support, dtype=bool)
    n = support.shape[0]
    cells = np.flatnonzero(support)  # row-major, so each row's columns come sorted
    csr = csr_array((np.ones(cells.size, dtype=bool), (cells % n).astype(np.int32),
                     np.searchsorted(cells, np.arange(n + 1) * n).astype(np.int32)), shape=(n, n))
    mapping = maximum_bipartite_matching(csr, perm_type="column")
    return None if np.any(mapping < 0) else PermutationMatching(tuple(mapping.tolist()))


def bvn_decompose(m) -> BvnDecomposition:
    """Decompose a doubly stochastic matrix into weighted permutation matchings.

    Repeatedly finds a perfect matching on the strictly-positive support, peels
    off the minimum matched entry, and stops once the residual mass drops below
    n*BVN_DEFAULT_TOL. Reconstruction error is bounded by BVN_DEFAULT_TOL and
    the number of terms by n^2 - 2n + 2.

    Raises DecompositionError if the positive support loses its perfect
    matching while significant mass remains (the input was not doubly
    stochastic to within BVN_DEFAULT_TOL).
    """
    work = np.array(m, dtype=float)
    n = work.shape[0]
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {work.shape}")
    if np.any(work < -BVN_DEFAULT_TOL):
        raise ValueError("matrix entries must be nonnegative")
    work = np.maximum(work, 0.0)
    row_sums = work.sum(axis=1)
    col_sums = work.sum(axis=0)
    scale = row_sums.mean()
    allowed = BVN_DEFAULT_TOL * max(scale, 1.0)
    if np.abs(row_sums - scale).max() > allowed or np.abs(col_sums - scale).max() > allowed:
        raise ValueError(
            "matrix is not doubly stochastic: row/column sums differ by more than tolerance"
        )

    terms = []
    while work.sum() >= n * BVN_DEFAULT_TOL:
        pm = perfect_matching(work > BVN_DEFAULT_TOL)
        if pm is None:
            raise DecompositionError(
                "no perfect matching on positive support with residual mass remaining"
            )
        idx = (np.arange(n), np.array(pm.mapping))
        lam = float(work[idx].min())
        terms.append((lam, pm))
        work[idx] -= lam
        np.maximum(work, 0.0, out=work)
    return BvnDecomposition(tuple(terms))


def edge_color_regular(g: RegularMultigraph) -> list:
    """Split a d-regular multigraph into exactly d perfect matchings.

    Peels one matching at a time; regularity is preserved after each peel, so a
    perfect matching always exists. While every matched cell keeps a link the
    support is unchanged and the matching would come back, so it is peeled as
    many times as its thinnest cell allows in one step. The multiset union of
    the returned matchings' edges equals the input's edge multiset exactly.
    """
    work = np.array(g.edge_multiplicity)
    rows = np.arange(g.n)
    matchings = []
    while len(matchings) < g.degree:
        pm = perfect_matching(work > 0)
        if pm is None:  # unreachable for a regular input
            raise DecompositionError("regular multigraph lost its perfect matching")
        cells = (rows, np.array(pm.mapping))
        times = int(work[cells].min())
        work[cells] -= times
        matchings.extend([pm] * times)
    return matchings


def _random_disjoint_matching(allowed: np.ndarray, rng) -> PermutationMatching:
    """Random perfect matching on the allowed cells (Kuhn with rng-shuffled orders),
    searching each augmenting path depth first on an explicit stack, not by recursion.

    Every row of `allowed` holds the same number of cells, as in
    `random_regular_digraph`. Row i's preference order is its allowed columns
    shuffled by one `rng.permuted` call over all rows, the draws a
    rng.permutation of each row in turn would make.
    """
    n = allowed.shape[0]
    cols = np.nonzero(allowed)[1].reshape(n, -1)
    prefs = rng.permuted(cols, axis=1, out=cols).tolist()
    col_owner, row_col = [-1] * n, [-1] * n
    banned_by = [-1] * n  # the root whose search last tried each column

    for root in rng.permutation(n).tolist():
        if prefs[root] and col_owner[prefs[root][0]] < 0:  # first choice free: take it
            col_owner[prefs[root][0]], row_col[root] = root, prefs[root][0]
            continue
        stack = [(root, iter(prefs[root]))]  # (row, its untried columns)
        while stack:
            for col in stack[-1][1]:
                if banned_by[col] != root:
                    break
            else:  # the top row cannot be rematched: back up
                stack.pop()
                continue
            banned_by[col] = root
            if col_owner[col] < 0:  # free: each row on the stack takes the next row's column
                for row, _ in reversed(stack):
                    col_owner[col] = row
                    row_col[row], col = col, row_col[row]
                break
            stack.append((col_owner[col], iter(prefs[col_owner[col]])))
        else:
            raise DecompositionError("allowed support has no perfect matching")
    return PermutationMatching(tuple(row_col))


def random_regular_digraph(n: int, d: int, seed) -> RegularMultigraph:
    """Sample a simple d-regular digraph: the union of d pairwise-disjoint random matchings.

    Every node gets exactly d distinct out-neighbors and d distinct in-neighbors
    (no parallel arcs, no self-loops), which maximizes pair coverage for a given
    degree budget. Deterministic per seed. At d = n - 1 the only such graph is
    the complete one, returned without drawing.
    """
    if n < 2:
        raise ValueError(f"a self-loop-free digraph needs at least 2 nodes, got n={n}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"degree d={d} must satisfy 1 <= d <= {n - 1} for n={n}")
    if d == n - 1:
        return RegularMultigraph(1 - np.eye(n, dtype=np.int64))
    rng = np.random.default_rng(seed)
    allowed = ~np.eye(n, dtype=bool)
    mult = np.zeros((n, n), dtype=np.int64)
    for _ in range(d):
        pm = _random_disjoint_matching(allowed, rng)
        rows = np.arange(n)
        mult[rows, pm.mapping] += 1
        allowed[rows, pm.mapping] = False
    return RegularMultigraph(mult)

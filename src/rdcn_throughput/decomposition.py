"""Matchings and matrix/graph decompositions.

Perfect matchings on boolean supports, Birkhoff-von-Neumann decomposition of
doubly stochastic matrices, edge coloring of regular multigraphs into
matchings, and seeded random regular digraph generation. A multigraph is its
link-count matrix throughout: counts[i, j] parallel links i -> j, self-loops
on the diagonal, as `link_counts` checks it.
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
        mapping = tuple(self.mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(n)):  # 1.0 and numpy ints compare equal; 0.5 does not
            raise ValueError(f"mapping {mapping} is not a permutation of 0..{n - 1}")
        object.__setattr__(self, "mapping", tuple(map(int, mapping)))

    @property
    def n(self) -> int:
        return len(self.mapping)


def link_counts(counts, name: str) -> np.ndarray:
    """`counts` as a read-only square int64 array. ValueError, naming the counts
    by `name`, when it is not square or a cell is negative or not a whole
    number (NaN and inf are not; integral floats such as 2.0 are)."""
    raw = np.asarray(counts)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError(f"{name} must be square, got {raw.shape}")
    fractional = ~np.isfinite(raw) | (raw != np.round(raw))
    if np.any(fractional):
        i, j = np.argwhere(fractional)[0]
        raise ValueError(f"{name} must be whole numbers, got {raw[i, j]} at ({i}, {j})")
    if np.any(raw < 0):
        raise ValueError(f"{name} must be nonnegative")
    out = np.array(raw, dtype=np.int64)
    out.setflags(write=False)
    return out


def _support_csr(cells: np.ndarray, n: int) -> csr_array:
    """The n x n boolean CSR whose True cells are the sorted flat indices
    `cells`: the one `csr_array` builds from a dense support with those
    nonzeros, each row's columns in ascending order."""
    return csr_array((np.ones(cells.size, dtype=bool), (cells % n).astype(np.int32),
                      np.searchsorted(cells, np.arange(n + 1) * n).astype(np.int32)),
                     shape=(n, n))


def _hopcroft_karp(csr: csr_array) -> np.ndarray | None:
    """Column matched to each row of the square support `csr`, or None when no
    perfect matching exists. Hopcroft-Karp (scipy's maximum_bipartite_matching),
    iterative, so n is not capped by the recursion limit; the result is
    deterministic for a given scipy. Explicit zeros in `csr` count as edges."""
    mapping = maximum_bipartite_matching(csr, perm_type="column")
    return None if np.any(mapping < 0) else mapping


def perfect_matching(support) -> PermutationMatching | None:
    """Find a perfect matching using only True cells of a boolean n x n support.

    `_hopcroft_karp` on the CSR built from the support's nonzeros. Returns
    None when no perfect matching exists.
    """
    support = np.asarray(support, dtype=bool)
    mapping = _hopcroft_karp(_support_csr(np.flatnonzero(support), support.shape[0]))
    return None if mapping is None else PermutationMatching(tuple(mapping.tolist()))


def bvn_decompose(m) -> tuple:
    """Decompose a doubly stochastic matrix into weighted permutation matchings:
    a tuple of (coefficient, PermutationMatching) terms whose weighted sum
    reconstructs `m`.

    Repeatedly finds a perfect matching on the strictly-positive support, peels
    off the minimum matched entry, and stops once the residual mass drops below
    n*BVN_DEFAULT_TOL. Reconstruction error is bounded by BVN_DEFAULT_TOL and
    the number of terms by n^2 - 2n + 2.

    Raises DecompositionError if the positive support loses its perfect
    matching while significant mass remains (the input was not doubly
    stochastic to within BVN_DEFAULT_TOL).
    """
    work = np.array(m, dtype=float)
    if work.ndim != 2 or work.shape[0] != work.shape[1] or work.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {work.shape}")
    if not np.all(np.isfinite(work)):
        i, j = np.argwhere(~np.isfinite(work))[0]
        raise ValueError(f"matrix entries must be finite, got {work[i, j]} at ({i}, {j})")
    n = work.shape[0]
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

    # The support's CSR is built once and only shrinks: a term changes only
    # its matched cells, and only downwards, so dropping those that fall to
    # BVN_DEFAULT_TOL leaves the CSR of `work > BVN_DEFAULT_TOL` each time.
    cells = np.flatnonzero(work > BVN_DEFAULT_TOL)  # row-major, the CSR's order
    support = _support_csr(cells, n)
    flat = work.reshape(-1)
    row_starts = np.arange(n) * n
    terms = []
    while work.sum() >= n * BVN_DEFAULT_TOL:
        mapping = _hopcroft_karp(support)
        if mapping is None:
            raise DecompositionError(
                "no perfect matching on positive support with residual mass remaining"
            )
        matched = row_starts + mapping
        left = flat[matched]
        lam = float(left.min())
        terms.append((lam, PermutationMatching(tuple(mapping.tolist()))))
        left = np.maximum(left - lam, 0.0)
        flat[matched] = left
        emptied = matched[left <= BVN_DEFAULT_TOL]
        if emptied.size:
            at = np.searchsorted(cells, emptied)
            support.data[at] = False
            support.eliminate_zeros()  # the matching would count explicit zeros as edges
            cells = np.delete(cells, at)
    return tuple(terms)


def edge_color_regular(counts) -> list:
    """Split the link counts of a d-regular multigraph into exactly d perfect matchings.

    The integer case of `bvn_decompose`: each term's integral coefficient is
    the number of times its matching repeats, since a matched support keeps
    its perfect matching until its thinnest cell runs out. The multiset union
    of the returned matchings' edges equals the input's edge multiset exactly.
    ValueError when `counts` is not square, nonnegative and whole
    (`link_counts`), is empty, or has a row or column sum unlike the others
    (`bvn_decompose`'s doubly stochastic test).
    """
    terms = bvn_decompose(link_counts(counts, "edge multiplicities"))
    return [pm for lam, pm in terms for _ in range(round(lam))]


def _random_disjoint_matching(allowed: np.ndarray, rng) -> list:
    """Random perfect matching on the allowed cells (Kuhn with rng-shuffled orders),
    searching each augmenting path depth first on explicit lists, not by recursion.
    Returns the column matched to each row.

    Every row of `allowed` holds the same number of cells, as in
    `random_regular_digraph`. Row i's preference order is its allowed columns
    shuffled by one `rng.permuted` call over all rows, the draws a
    rng.permutation of each row in turn would make.
    """
    n = allowed.shape[0]
    cols = (np.flatnonzero(allowed) % n).reshape(n, -1)
    prefs = rng.permuted(cols, axis=1, out=cols).tolist()
    col_owner, row_col = [-1] * n, [-1] * n
    banned_by = [-1] * n  # the root whose search last tried each column

    for root in rng.permutation(n).tolist():
        if prefs[root] and col_owner[prefs[root][0]] < 0:  # first choice free: take it
            col_owner[prefs[root][0]], row_col[root] = root, prefs[root][0]
            continue
        path, pending = [root], []  # rows on the path; untried columns of all but the top
        untried = iter(prefs[root])
        while True:
            for col in untried:
                if banned_by[col] != root:
                    break
            else:  # the top row cannot be rematched: back up
                if not pending:
                    raise DecompositionError("allowed support has no perfect matching")
                path.pop()
                untried = pending.pop()
                continue
            banned_by[col] = root
            owner = col_owner[col]
            if owner < 0:  # free: each row on the path takes the next row's column
                for row in reversed(path):
                    col_owner[col] = row
                    row_col[row], col = col, row_col[row]
                break
            path.append(owner)
            pending.append(untried)
            untried = iter(prefs[owner])
    return row_col


def random_regular_digraph(n: int, d: int, seed) -> np.ndarray:
    """Sample a simple d-regular digraph: the union of d pairwise-disjoint random matchings.

    Returns its link counts, a read-only n x n int64 array of 0s and 1s.
    Every node gets exactly d distinct out-neighbors and d distinct in-neighbors
    (no parallel arcs, no self-loops), which maximizes pair coverage for a given
    degree budget; that holds by construction and is not re-checked.
    Deterministic per seed. At d = n - 1 the only such graph is the complete
    one, returned without drawing.
    """
    if n < 2:
        raise ValueError(f"a self-loop-free digraph needs at least 2 nodes, got n={n}")
    if not 1 <= d <= n - 1:
        raise ValueError(f"degree d={d} must satisfy 1 <= d <= {n - 1} for n={n}")
    if d == n - 1:
        mult = 1 - np.eye(n, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        allowed = ~np.eye(n, dtype=bool)
        mult = np.zeros((n, n), dtype=np.int64)
        rows = np.arange(n)
        for _ in range(d):
            mapping = _random_disjoint_matching(allowed, rng)
            mult[rows, mapping] += 1
            allowed[rows, mapping] = False
    mult.setflags(write=False)
    return mult

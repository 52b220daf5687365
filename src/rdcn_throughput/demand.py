"""Demand matrices: validation, generation and integer-residual decomposition.

Every `DemandMatrix` holds bits/s. A function that needs demand in links, as
`decompose_integer_residual` does, divides by the unit it is given.

`Report`, a tuple of `Violation`s, is what every check of the package returns:
`validate_hose` here and `flowlp.verify_solution`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

# Entries whose distance to the nearest integer is below this are treated as
# that integer before flooring, so serialization noise cannot create residuals.
INT_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class NetworkParams:
    """Physical fabric parameters: n ToRs, u links per ToR, per-link capacity c (bits/s).

    Degrees that do not divide n are legal (throughput is evaluated on the
    emulated graph at capacity c*u/n either way); only explicit schedule
    synthesis needs the integral period n/u.
    """

    n: int
    u: int
    c: float

    def __post_init__(self):
        for name in ("n", "u"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value}")
        if self.n < 2:
            raise ValueError(f"need at least 2 ToRs, got n={self.n}")
        if not 1 <= self.u <= self.n:
            raise ValueError(f"degree u={self.u} must satisfy 1 <= u <= n={self.n}")
        if not 0 < self.c < np.inf:
            raise ValueError(f"link capacity must be finite and positive, got c={self.c}")

    @property
    def node_capacity(self) -> float:
        return self.c * self.u


@dataclass(frozen=True)
class DemandMatrix:
    """Square nonnegative rate matrix, row = source ToR, column = destination ToR.

    The diagonal is identically zero: ToR-internal traffic never crosses the fabric.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"demand matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            i, j = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite demand {arr[i, j]} at ({i}, {j})")
        if np.any(arr < 0):
            i, j = np.argwhere(arr < 0)[0]
            raise ValueError(f"negative demand {arr[i, j]} at ({i}, {j})")
        if np.any(np.diagonal(arr) != 0):
            i = int(np.nonzero(np.diagonal(arr))[0][0])
            raise ValueError(f"self-demand not allowed: nonzero diagonal at ({i}, {i})")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def scaled(self, factor: float) -> "DemandMatrix":
        if factor < 0:
            raise ValueError(f"scale factor must be nonnegative, got {factor}")
        return DemandMatrix(self.entries * factor)


@dataclass(frozen=True)
class Violation:
    """One constraint a check found broken, by `magnitude` (>= 0) past its bound.

    kind is, for `validate_hose`: row | col (a sum over c*u, in bits/s); for
    `flowlp.verify_solution`, in link units: capacity | demand (balance row
    with m[s, v] > 0) | conservation (m[s, v] = 0) | negative-flow | layout
    (flows is not the LP's sources x arcs block) | non-finite (theta or some
    flow is nan or inf).
    """

    kind: str
    detail: str
    magnitude: float


@dataclass(frozen=True)
class Report:
    """What a check found: no violations means it passed."""

    violations: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


class UniformResidualClass(enum.Enum):
    INTERVAL_LOW = "interval-low"    # all residual ratios in [0, 1/4)
    INTERVAL_MID = "interval-mid"    # all residual ratios in [1/4, 1/2)
    INTERVAL_HIGH = "interval-high"  # all residual ratios in [1/2, 1]
    NOT_UNIFORM = "not-uniform"


@dataclass(frozen=True)
class IntegerResidualDecomposition:
    """Split of a matrix, in links of some unit, into an integer floor part and
    a fractional residual; both parts are in links.

    ``row_ratios[i]`` is the share of row i's total demand carried by the residual
    (0 for all-zero rows); ``col_ratios`` analogously.
    """

    int_part: np.ndarray
    res_part: np.ndarray
    row_ratios: np.ndarray
    col_ratios: np.ndarray

    def __post_init__(self):
        for name in ("int_part", "res_part", "row_ratios", "col_ratios"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def validate_hose(m: DemandMatrix, p: NetworkParams) -> Report:
    """Check every row and column sum against the per-ToR capacity c*u.

    Returns a report with one row or col violation per offending sum, rows
    first, its magnitude the excess in bits/s; an empty report means valid.
    """
    if m.n != p.n:
        raise ValueError(f"dimension mismatch: matrix is {m.n}x{m.n}, params say n={p.n}")
    limit = p.node_capacity
    eps = 1e-9 * limit
    violations = []
    for axis, sums in (("row", m.row_sums()), ("col", m.col_sums())):
        for i, total in enumerate(sums.tolist()):
            if total > limit + eps:
                violations.append(Violation(
                    axis, f"{axis} {i} sums to {total:.6g} > {limit:.6g}", total - limit))
    return Report(tuple(violations))


def decompose_integer_residual(m: DemandMatrix, unit: float) -> IntegerResidualDecomposition:
    """Floor m (bits/s), in links of `unit` (e.g. link capacity), into integer +
    residual parts with per-row/col ratios. The unit must be finite and positive.

    Entries within 1e-9 of an integer are snapped to it before flooring.
    """
    if not 0 < unit < np.inf:
        raise ValueError(f"link unit must be finite and positive, got {unit}")
    links = m.entries / unit
    nearest = np.rint(links)
    snapped = np.where(np.abs(links - nearest) <= INT_SNAP_TOL, nearest, links)
    int_part = np.floor(snapped).astype(np.int64)
    res_part = np.maximum(snapped - int_part, 0.0)
    row_tot, col_tot = links.sum(axis=1), links.sum(axis=0)
    row_ratios = np.divide(res_part.sum(axis=1), row_tot, out=np.zeros(m.n), where=row_tot > 0)
    col_ratios = np.divide(res_part.sum(axis=0), col_tot, out=np.zeros(m.n), where=col_tot > 0)
    return IntegerResidualDecomposition(int_part, res_part, row_ratios, col_ratios)


def classify_uniform_residual(d: IntegerResidualDecomposition) -> UniformResidualClass:
    """Assign the interval [0,1/4), [1/4,1/2) or [1/2,1] containing ALL ratios, else not-uniform.

    Boundary values belong to the upper interval per the half-open definition.
    A ratio within 1e-9 of a boundary is treated as sitting exactly on it, so
    summation noise cannot flip a knife-edge classification.
    """
    ratios = np.concatenate([d.row_ratios, d.col_ratios])

    def bucket(r):
        for boundary in (0.25, 0.5):
            if abs(r - boundary) <= 1e-9:
                r = boundary
        if r < 0.25:
            return UniformResidualClass.INTERVAL_LOW
        if r < 0.5:
            return UniformResidualClass.INTERVAL_MID
        return UniformResidualClass.INTERVAL_HIGH

    classes = {bucket(float(r)) for r in ratios}
    if len(classes) == 1:
        return classes.pop()
    return UniformResidualClass.NOT_UNIFORM


_SINKHORN_ROUNDS = 2000


def _sinkhorn(entries: np.ndarray, target: float) -> np.ndarray:
    """Alternately rescale rows and columns to `target`, for at most
    _SINKHORN_ROUNDS rounds; zero diagonal is preserved."""
    out = entries.copy()
    for _ in range(_SINKHORN_ROUNDS):
        rows = out.sum(axis=1, keepdims=True)
        out *= target / np.where(rows > 0, rows, 1.0)
        cols = out.sum(axis=0, keepdims=True)
        out *= target / np.where(cols > 0, cols, 1.0)
        err = max(
            np.abs(out.sum(axis=1) - target).max(),
            np.abs(out.sum(axis=0) - target).max(),
        )
        if err <= 1e-13 * target:
            break
    return out


GENERATOR_KINDS = ("uniform", "permutation", "chessboard", "mix", "random-saturated")


def generate(kind: str, p: NetworkParams, *, alpha: float | None = None,
             shift: int = 1, seed: int = 0) -> DemandMatrix:
    """Build one of the synthetic demand matrices used in the evaluation suite.

    uniform:          c*u/n between every ordered pair, the rate at which a
                      round-robin fabric serves each pair exactly.
    permutation:      full node capacity c*u from i to (i+shift) mod n.
    chessboard:       0.5/1.5 (times capacity) alternating along rows and columns,
                      scaled by u/n, diagonal zeroed with its mass folded back into
                      the same-parity cells so rows and columns still sum to c*u.
    mix:              alpha*permutation + (1-alpha)*uniform.
    random-saturated: seeded positive matrix rescaled until rows and columns all
                      sum to c*u.

    All outputs are hose-feasible and deterministic given (kind, params, seed).
    """
    n, u, c = p.n, p.u, p.c
    if kind == "uniform":
        entries = np.full((n, n), c * u / n)
        np.fill_diagonal(entries, 0.0)
        return DemandMatrix(entries)

    if kind == "permutation":
        if shift % n == 0:
            raise ValueError(f"shift={shift} is 0 mod n={n}: would demand self-traffic")
        entries = np.zeros((n, n))
        for i in range(n):
            entries[i, (i + shift) % n] = c * u
        return DemandMatrix(entries)

    if kind == "chessboard":
        if n % 2 != 0:
            raise ValueError(f"chessboard needs even n, got {n}")
        parity = (np.add.outer(np.arange(n), np.arange(n)) % 2).astype(float)
        base = np.where(parity == 0, 0.5, 1.5)
        np.fill_diagonal(base, 0.0)
        # Fold the zeroed diagonal 0.5 back into the row's off-diagonal
        # same-parity cells; each column regains exactly 0.5 by symmetry.
        if n >= 4:
            bump = 0.5 / (n // 2 - 1)
            same = (parity == 0) & ~np.eye(n, dtype=bool)
            base[same] += bump
        else:
            base += 0.5 * (parity == 1)
        return DemandMatrix(base * (u / n) * c)

    if kind == "mix":
        if alpha is None or not 0 <= alpha <= 1:
            raise ValueError(f"mix requires alpha in [0, 1], got {alpha}")
        perm = generate("permutation", p, shift=shift)
        unif = generate("uniform", p)
        return DemandMatrix(alpha * perm.entries + (1 - alpha) * unif.entries)

    if kind == "random-saturated":
        rng = np.random.default_rng(seed)
        entries = rng.random((n, n))
        np.fill_diagonal(entries, 0.0)
        return DemandMatrix(_sinkhorn(entries, c * u))

    raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")


def load_csv(path) -> DemandMatrix:
    """Read a matrix in bits/s from comma-separated text: one row per line, '#'
    starts a comment. A leading byte-order mark, as spreadsheets write, is
    skipped. A malformed file is a ValueError naming `path`, and `path:line`
    where one line is at fault."""
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            where, values = f"{path}:{lineno}", []
            for col, tok in enumerate((tok.strip() for tok in text.split(",")), start=1):
                try:
                    val = float(tok)
                except ValueError:
                    raise ValueError(f"{where}: non-numeric entry {tok!r} in column {col}") from None
                if not np.isfinite(val):
                    raise ValueError(f"{where}: non-finite entry {tok!r} in column {col}")
                if val < 0:
                    raise ValueError(f"{where}: negative entry {tok!r} in column {col}")
                values.append(val)
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{where}: non-square: row has {len(values)} entries, "
                                 f"expected {len(rows[0])}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    if len(rows) != len(rows[0]):
        raise ValueError(f"{path}: non-square: {len(rows)} rows of {len(rows[0])} columns")
    try:
        return DemandMatrix(np.array(rows))
    except ValueError as exc:  # the diagonal: every entry is already checked
        raise ValueError(f"{path}: {exc}") from None


def save_csv(m: DemandMatrix, path, comment: str | None = None) -> None:
    """Write a matrix as CSV with enough digits to round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for row in m.entries:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

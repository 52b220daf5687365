"""Construction of the evaluated network classes and periodic switch schedules.

A Topology is the ToR-to-ToR multigraph the flow LP runs on: link_count[i, j]
parallel links of uniform capacity. Diagonal entries are schedule padding and
never carry routable traffic. Periodic networks are represented by the static
graph they emulate over one period (per-link capacity c/Gamma) plus the
explicit per-switch matching schedule that realizes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import (
    RegularMultigraph,
    edge_color_regular,
    random_regular_digraph,
)
from .demand import DemandMatrix, NetworkParams, decompose_integer_residual, normalize, validate_hose

# The slot and reconfiguration times every schedule.json states; no schedule
# carries its own.
DEFAULT_SLOT_DURATION_S = 1e-6
# RotorNet-style reconfiguration dead time: a tenth of a slot.
DEFAULT_RECONFIG_DURATION_S = 0.1 * DEFAULT_SLOT_DURATION_S

_RESIDUAL_SALT = 0
_SHUFFLE_SALT = 1


@dataclass(frozen=True)
class Topology:
    """Directed capacitated multigraph over ToRs.

    link_count[i, j] is the number of parallel links i -> j, each of
    link_capacity bits/s. Row/column sums never exceed degree_budget.
    """

    link_count: np.ndarray
    link_capacity: float
    net_class: str
    degree_budget: int

    def __post_init__(self):
        counts = np.array(self.link_count, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"link_count must be square, got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("link counts must be nonnegative")
        if not self.link_capacity > 0:
            raise ValueError(f"link capacity must be positive, got {self.link_capacity}")
        out_deg = counts.sum(axis=1)
        in_deg = counts.sum(axis=0)
        if out_deg.max(initial=0) > self.degree_budget or in_deg.max(initial=0) > self.degree_budget:
            raise ValueError(
                f"degree budget {self.degree_budget} exceeded: "
                f"max out {int(out_deg.max())}, max in {int(in_deg.max())}"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "link_count", counts)

    @property
    def n(self) -> int:
        return self.link_count.shape[0]

    def routable_counts(self) -> np.ndarray:
        """Link counts with padding self-loops removed."""
        counts = np.array(self.link_count)
        np.fill_diagonal(counts, 0)
        return counts

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "link_capacity": self.link_capacity,
            "class": self.net_class,
            "link_count": [int(x) for x in self.link_count.reshape(-1)],
        }


@dataclass(frozen=True)
class PeriodicSchedule:
    """Per-switch ordered matchings executed cyclically, Gamma slots per period."""

    switches: tuple  # u tuples of Gamma PermutationMatchings each
    period: int

    def __post_init__(self):
        switches = tuple(tuple(slots) for slots in self.switches)
        for k, slots in enumerate(switches):
            if len(slots) != self.period:
                raise ValueError(
                    f"switch {k} holds {len(slots)} matchings, expected period {self.period}"
                )
        object.__setattr__(self, "switches", switches)

    @property
    def u(self) -> int:
        return len(self.switches)

    def union_counts(self) -> np.ndarray:
        """Multiset of all scheduled edges: the link_count of the emulated graph."""
        n = self.switches[0][0].n
        counts = np.zeros((n, n), dtype=np.int64)
        rows = np.arange(n)
        for slots in self.switches:
            for pm in slots:
                counts[rows, pm.mapping] += 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "gamma": self.period,
            "slot_duration_s": DEFAULT_SLOT_DURATION_S,
            "reconfig_duration_s": DEFAULT_RECONFIG_DURATION_S,
            "switches": [[list(pm.mapping) for pm in slots] for slots in self.switches],
        }


def _subseed(seed, salt):
    return np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFF, salt])


def _require_hose(m: DemandMatrix, p: NetworkParams):
    report = validate_hose(m, p)
    if not report.ok:
        worst = report.violations[0]
        raise ValueError(
            f"demand matrix violates hose model: {worst.axis} {worst.index} "
            f"sums to {worst.total:.6g} > {worst.limit:.6g}"
        )


def build_static_expander(p: NetworkParams, seed=0) -> Topology:
    """Random u-regular digraph with full-capacity links; demand-oblivious and fixed."""
    degree = min(p.u, p.n - 1)  # simple digraph: at most n-1 distinct partners
    g = random_regular_digraph(p.n, degree, _subseed(seed, _RESIDUAL_SALT))
    return Topology(g.edge_multiplicity, p.c, "static", p.u)


def build_oblivious_equivalent(p: NetworkParams) -> Topology:
    """Static equivalent of a rotor-style periodic network: complete graph at capacity c/Gamma.

    One padding self-loop per node brings the row sums to n, matching the union
    of the n matchings a full rotation executes.
    """
    counts = np.ones((p.n, p.n), dtype=np.int64)
    return Topology(counts, p.c * p.u / p.n, "oblivious", p.n)


def _demand_aware_counts(m: DemandMatrix, p: NetworkParams, unit: float,
                         budget: int, seed) -> np.ndarray:
    """Floor links for the bulk demand plus a random regular graph on the leftover degree.

    The residual graph is simple but drawn independently of the floor, so its
    arcs may land on floor pairs and add parallel links there. On the n=16
    chessboard a node's throughput follows from how many of its 8 residual
    arcs do: each such arc carries heavy demand beyond its floor link, each
    other one gives a light pair a direct link. All 8 on floor pairs gives
    4/5; the 64/15 a random draw places there on average gives about 0.84.
    """
    dec = decompose_integer_residual(normalize(m, unit))
    ints = dec.int_part
    used = np.maximum(ints.sum(axis=1), ints.sum(axis=0))
    if used.max(initial=0) > budget:
        raise AssertionError("floor matrix exceeds degree budget despite hose feasibility")
    d = budget - int(used.max(initial=0))
    d = min(d, p.n - 1)
    counts = np.array(ints)
    if d >= 1:
        residual = random_regular_digraph(p.n, d, _subseed(seed, _RESIDUAL_SALT))
        counts += residual.edge_multiplicity
    return counts


def build_demand_aware_static(m: DemandMatrix, p: NetworkParams, seed=0) -> Topology:
    """One-shot demand-optimized topology: direct links per floor entry, random regular rest."""
    _require_hose(m, p)
    counts = _demand_aware_counts(m, p, p.c, p.u, seed)
    return Topology(counts, p.c, "da-static", p.u)


def _pad_to_regular(counts: np.ndarray, degree: int) -> np.ndarray:
    """Complete row/column degrees up to `degree` exactly.

    Matched row/column deficits become self-loops (pure padding). Asymmetric
    leftovers, which arise when the floor matrix is irregular, are paired off
    across distinct nodes as real links so that the result is decomposable
    into `degree` matchings.
    """
    out = np.array(counts)
    row_def = degree - out.sum(axis=1)
    col_def = degree - out.sum(axis=0)
    if np.any(row_def < 0) or np.any(col_def < 0):
        raise ValueError(f"degrees already exceed {degree}")
    loops = np.minimum(row_def, col_def)
    out[np.diag_indices_from(out)] += loops
    row_def -= loops
    col_def -= loops
    while row_def.sum() > 0:
        i = int(np.argmax(row_def))
        j = int(np.argmax(col_def))
        take = min(row_def[i], col_def[j])
        if i == j or take <= 0:  # unreachable: supports are disjoint after loop padding
            raise AssertionError("padding completion stalled")
        out[i, j] += take
        row_def[i] -= take
        col_def[j] -= take
    return out


def build_demand_aware_emulated(m: DemandMatrix, p: NetworkParams, seed=0) -> Topology:
    """Emulated degree-n static graph of the demand-aware periodic network.

    Floor links for the bulk demand plus a random regular graph on the
    leftover degree, padded to exactly n-regular, at capacity c*u/n = c/Gamma
    per link: the throughput of the periodic network is this graph's. The
    switch schedule that realizes it is `synthesize_schedule(topo, p.u, seed)`.
    """
    _require_hose(m, p)
    unit = p.c * p.u / p.n
    counts = _demand_aware_counts(m, p, unit, p.n, seed)
    return Topology(_pad_to_regular(counts, p.n), unit, "da-periodic", p.n)


def build_demand_aware_periodic(m: DemandMatrix, p: NetworkParams, seed=0):
    """Demand-aware periodic network: emulated degree-n static graph plus its schedule.

    Returns (Topology, PeriodicSchedule): `build_demand_aware_emulated` and
    the schedule synthesized from it with the same seed. When u does not
    divide n the uniform n/u-slot schedule cannot be laid out and the schedule
    slot is None; the emulated topology is still valid for throughput
    evaluation.
    """
    topo = build_demand_aware_emulated(m, p, seed=seed)
    if p.n % p.u != 0:
        return topo, None
    return topo, synthesize_schedule(topo, p.u, seed=seed)


def synthesize_schedule(t: Topology, u: int, seed=0) -> PeriodicSchedule:
    """Color an n-regular topology into n matchings and deal them out to u switches.

    Each switch receives Gamma = n/u consecutive matchings of a seeded shuffle;
    their union is checked to reconstruct the topology's link multiset exactly.
    """
    n = t.n
    if n % u != 0:
        raise ValueError(f"n={n} must be divisible by u={u}")
    try:
        g = RegularMultigraph(t.link_count)
    except ValueError as exc:
        raise ValueError(f"schedule needs an n-regular topology: {exc}") from None
    if g.degree != n:
        raise ValueError(f"schedule needs degree n={n}, topology has degree {g.degree}")
    matchings = edge_color_regular(g)
    rng = np.random.default_rng(_subseed(seed, _SHUFFLE_SALT))
    order = rng.permutation(n)
    gamma = n // u
    switches = tuple(
        tuple(matchings[int(order[k * gamma + s])] for s in range(gamma))
        for k in range(u)
    )
    schedule = PeriodicSchedule(switches, period=gamma)
    if not np.array_equal(schedule.union_counts(), t.link_count):
        raise AssertionError("schedule union does not reconstruct the topology")
    return schedule


def build_one_shot_integer(m: DemandMatrix, p: NetworkParams) -> Topology:
    """Topology with exactly floor(m/c) links per pair, for integer-valued normalized demand.

    Every demand is routable in one hop at full throughput. Raises ValueError
    when the normalized matrix has fractional entries.
    """
    _require_hose(m, p)
    dec = decompose_integer_residual(normalize(m, p.c))
    if np.any(dec.res_part > 0):
        i, j = np.argwhere(dec.res_part > 0)[0]
        raise ValueError(
            f"normalized demand is not integral at ({i}, {j}); build a demand-aware topology instead"
        )
    return Topology(dec.int_part, p.c, "one-shot", p.u)

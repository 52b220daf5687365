"""Construction of the evaluated network classes and periodic switch schedules.

A Topology is the ToR-to-ToR multigraph the flow LP runs on: link_count[i, j]
parallel links of uniform capacity. Diagonal entries are schedule padding and
never carry routable traffic. Periodic networks are represented by the static
graph they emulate over one period (per-link capacity c/Gamma) plus the
explicit per-switch matching schedule that realizes it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .decomposition import edge_color_regular, link_counts, random_regular_digraph
from .demand import DemandMatrix, NetworkParams, decompose_integer_residual, validate_hose

_RESIDUAL_SALT = 0
_SHUFFLE_SALT = 1


@dataclass(frozen=True)
class Topology:
    """Directed capacitated multigraph over ToRs.

    link_count[i, j] is the number of parallel links i -> j, each of
    link_capacity bits/s: the three fields topology.json holds.
    """

    link_count: np.ndarray
    link_capacity: float
    net_class: str

    def __post_init__(self):
        counts = link_counts(self.link_count, "link counts")
        if not 0 < self.link_capacity < np.inf:
            raise ValueError(f"link capacity must be finite and positive, got {self.link_capacity}")
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
        mappings = np.array([pm.mapping for slots in self.switches for pm in slots],
                            dtype=np.int64)
        cells = (np.arange(n) * n + mappings).reshape(-1)
        return np.bincount(cells, minlength=n * n).reshape(n, n)

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "gamma": self.period,
            "switches": [[list(pm.mapping) for pm in slots] for slots in self.switches],
        }


def seed_sequence(*parts) -> np.random.SeedSequence:
    """SeedSequence of mixed int/str parts: ints masked to 48 bits, strings by crc32."""
    return np.random.SeedSequence([zlib.crc32(part.encode()) if isinstance(part, str)
                                   else int(part) & 0xFFFFFFFFFFFF for part in parts])


def require_hose(m: DemandMatrix, p: NetworkParams):
    """Raise ValueError naming m's first row or column over the hose bound c*u."""
    report = validate_hose(m, p)
    if not report.ok:
        raise ValueError(f"demand matrix violates hose model: {report.violations[0].detail}")


def _floor(m: DemandMatrix, p: NetworkParams, unit: float, budget: int):
    """Integer-residual decomposition of the p.n x p.n matrix m in links of
    `unit`, and the largest floor degree of a node. A node whose floor links
    exceed `budget` is a ValueError naming it."""
    if m.n != p.n:
        raise ValueError(f"dimension mismatch: matrix is {m.n}x{m.n}, params say n={p.n}")
    dec = decompose_integer_residual(m, unit)
    used = np.maximum(dec.int_part.sum(axis=1), dec.int_part.sum(axis=0))
    i = int(np.argmax(used))
    if used[i] > budget:
        raise ValueError(f"node {i} needs {used[i]} floor links, over the degree budget {budget}")
    return dec, int(used[i])


def link_budget(net_class: str, p: NetworkParams):
    """(link capacity, degree budget) of the class's topology: the emulated
    degree-n graph at c*u/n = c/Gamma for oblivious and da-periodic, degree u
    at c for the rest."""
    if net_class in ("oblivious", "da-periodic"):
        return p.c * p.u / p.n, p.n
    return p.c, p.u


def build_static_expander(p: NetworkParams, seed=0) -> Topology:
    """Random u-regular digraph with full-capacity links; demand-oblivious and fixed."""
    degree = min(p.u, p.n - 1)  # simple digraph: at most n-1 distinct partners
    counts = random_regular_digraph(p.n, degree, seed_sequence(seed, _RESIDUAL_SALT))
    return Topology(counts, p.c, "static")


def build_oblivious_equivalent(p: NetworkParams) -> Topology:
    """Static equivalent of a rotor-style periodic network: complete graph at capacity c/Gamma.

    One padding self-loop per node brings the row sums to n, matching the union
    of the n matchings a full rotation executes.
    """
    unit = link_budget("oblivious", p)[0]
    return Topology(np.ones((p.n, p.n), dtype=np.int64), unit, "oblivious")


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
    dec, used = _floor(m, p, unit, budget)
    d = min(budget - used, p.n - 1)
    if d < 1:
        return np.array(dec.int_part)
    return dec.int_part + random_regular_digraph(p.n, d, seed_sequence(seed, _RESIDUAL_SALT))


def build_demand_aware_static(m: DemandMatrix, p: NetworkParams, seed=0) -> Topology:
    """Static demand-optimized topology: direct links per floor entry, random regular rest.
    A node whose floor links exceed the budget u is a ValueError naming it."""
    counts = _demand_aware_counts(m, p, p.c, p.u, seed)
    return Topology(counts, p.c, "da-static")


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
    A node whose floor links exceed the budget n is a ValueError naming it.
    """
    unit, budget = link_budget("da-periodic", p)
    counts = _demand_aware_counts(m, p, unit, budget, seed)
    return Topology(_pad_to_regular(counts, budget), unit, "da-periodic")


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
    if not 1 <= u <= n:
        raise ValueError(f"u={u} must satisfy 1 <= u <= n={n}")
    if n % u != 0:
        raise ValueError(f"n={n} must be divisible by u={u}")
    out_deg, in_deg = t.link_count.sum(axis=1), t.link_count.sum(axis=0)
    if np.any(out_deg != n) or np.any(in_deg != n):
        raise ValueError(f"schedule needs an n-regular topology of degree n={n}: "
                         f"out-degrees {out_deg.tolist()}, in-degrees {in_deg.tolist()}")
    matchings = edge_color_regular(t.link_count)
    rng = np.random.default_rng(seed_sequence(seed, _SHUFFLE_SALT))
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
    """Topology with exactly floor(m/c) links per pair, for demand that is whole links of c.

    Every demand is routable in one hop at full throughput. Raises ValueError
    when a node needs over u links or m/c has fractional entries.
    """
    dec, _ = _floor(m, p, p.c, p.u)
    if np.any(dec.res_part > 0):
        i, j = np.argwhere(dec.res_part > 0)[0]
        raise ValueError(f"normalized demand is not integral at ({i}, {j}); "
                         "build a demand-aware topology instead")
    return Topology(dec.int_part, p.c, "one-shot")

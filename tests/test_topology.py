import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcn_throughput import (
    DemandMatrix,
    NetworkParams,
    PeriodicSchedule,
    PermutationMatching,
    Topology,
    build_demand_aware_emulated,
    build_demand_aware_periodic,
    build_demand_aware_static,
    build_oblivious_equivalent,
    build_one_shot_integer,
    build_static_expander,
    generate,
    synthesize_schedule,
)
from rdcn_throughput.topology import _pad_to_regular, link_budget


class TestTopologyType:
    def test_integral_float_counts_accepted(self):
        t = Topology([[0.0, 2.0], [2.0, 0.0]], 1.0, "x")
        assert t.link_count.dtype == np.int64 and t.link_count[0, 1] == 2
        assert not t.link_count.flags.writeable

    @pytest.mark.parametrize("counts, match", [
        ([[0, 1.5], [1.5, 0]], r"whole numbers, got 1.5 at \(0, 1\)"),
        (np.ones((2, 3), dtype=int), "square"),
        (np.array([[0, -1], [1, 0]]), "nonnegative"),
        (np.array([[0, np.nan], [1, 0]]), r"whole numbers, got nan at \(0, 1\)"),
    ])
    def test_bad_link_counts_rejected(self, counts, match):
        with pytest.raises(ValueError, match=match):
            Topology(counts, 1.0, "x")

    @pytest.mark.parametrize("capacity", [0.0, np.inf, np.nan])
    def test_link_capacity_must_be_finite_and_positive(self, capacity):
        with pytest.raises(ValueError, match="finite and positive"):
            Topology(np.eye(2, dtype=int), capacity, "x")

    def test_routable_counts_drop_diagonal(self):
        t = Topology(np.ones((3, 3), dtype=int), 1.0, "x")
        assert t.routable_counts()[1, 1] == 0
        assert t.link_count[1, 1] == 1

    def test_json_keys(self):
        t = Topology(np.eye(2, dtype=int), 2.5, "one-shot")
        payload = t.to_json_dict()
        assert set(payload) == {"n", "link_capacity", "class", "link_count"}
        assert payload["link_count"] == [1, 0, 0, 1]


class TestStaticExpander:
    def test_single_link_case_is_permutation(self):
        t = build_static_expander(NetworkParams(4, 1, 1.0), seed=3)
        np.testing.assert_array_equal(t.link_count.sum(axis=1), 1)
        assert not np.any(np.diagonal(t.link_count))
        assert t.link_capacity == 1.0
        assert t.net_class == "static"

    def test_regularity_at_desk_scale(self, desk_params):
        t = build_static_expander(desk_params, seed=0)
        np.testing.assert_array_equal(t.link_count.sum(axis=1), 4)
        np.testing.assert_array_equal(t.link_count.sum(axis=0), 4)

    def test_deterministic(self, desk_params):
        a = build_static_expander(desk_params, seed=11)
        b = build_static_expander(desk_params, seed=11)
        np.testing.assert_array_equal(a.link_count, b.link_count)


class TestObliviousEquivalent:
    def test_desk_scale_capacity(self):
        t = build_oblivious_equivalent(NetworkParams(16, 4, 25e9))
        assert t.link_capacity == pytest.approx(6.25e9)
        off = ~np.eye(16, dtype=bool)
        assert np.all(t.link_count[off] == 1)
        assert np.all(np.diagonal(t.link_count) == 1)  # padding loop per node
        # routable egress per node: (n-1) links at c*u/n
        assert (t.routable_counts().sum(axis=1) * t.link_capacity)[0] == pytest.approx(15 * 6.25e9)

    def test_degenerate_period(self):
        t = build_oblivious_equivalent(NetworkParams(4, 4, 9.0))
        assert t.link_capacity == pytest.approx(9.0)


class TestDemandAwareStatic:
    def test_full_capacity_permutation_consumes_budget(self):
        p = NetworkParams(4, 1, 1.0)
        m = generate("permutation", p)
        t = build_demand_aware_static(m, p, seed=0)
        np.testing.assert_array_equal(t.link_count, (m.entries > 0).astype(int))

    def test_sub_capacity_demand_gives_pure_random_regular(self):
        p = NetworkParams(8, 2, 1.0)
        entries = np.full((8, 8), 0.2)
        np.fill_diagonal(entries, 0.0)
        t = build_demand_aware_static(DemandMatrix(entries), p, seed=1)
        np.testing.assert_array_equal(t.link_count.sum(axis=1), 2)
        assert t.link_count.max() == 1

    def test_chessboard_floor_leaves_half_budget(self):
        # floor row sums are n/2, so the residual degree is n/2 >= n/4
        p = NetworkParams(16, 16, 25e9)
        t = build_demand_aware_static(generate("chessboard", p), p, seed=0)
        out = t.link_count.sum(axis=1)
        assert np.all(out == 16)

    def test_budget_respected_on_random_demand(self):
        p = NetworkParams(8, 4, 1e9)
        m = generate("random-saturated", p, seed=5)
        t = build_demand_aware_static(m, p, seed=5)
        assert t.link_count.sum(axis=1).max() <= 4
        assert t.link_count.sum(axis=0).max() <= 4

    def test_hose_violation_rejected(self):
        # the hose bound is the cell's check; the build rejects what it cannot
        # lay out: floor links over the degree budget, named by node
        p = NetworkParams(4, 1, 1.0)
        entries = np.zeros((4, 4))
        entries[0, 1] = 2.0
        with pytest.raises(ValueError, match=r"^node 0 needs 2 floor links, over the "
                                             r"degree budget 1$"):
            build_demand_aware_static(DemandMatrix(entries), p, seed=0)

    @pytest.mark.parametrize("build", [build_demand_aware_static, build_demand_aware_periodic,
                                       build_one_shot_integer])
    def test_wrong_size_rejected(self, build):
        with pytest.raises(ValueError, match="dimension mismatch: matrix is 3x3, params say n=4"):
            build(DemandMatrix(np.zeros((3, 3))), NetworkParams(4, 2, 1.0))

    def test_demand_over_the_hose_bound_builds_while_its_floor_fits(self):
        # row 0 sums to 1.8 > c*u = 1, but floors to no link: the rest is random
        p = NetworkParams(4, 1, 1.0)
        entries = np.zeros((4, 4))
        entries[0, 1] = entries[0, 2] = 0.9
        t = build_demand_aware_static(DemandMatrix(entries), p, seed=0)
        np.testing.assert_array_equal(t.link_count.sum(axis=1), 1)


class TestDemandAwarePeriodic:
    def test_saturated_permutation_places_n_parallel_links(self):
        # entries c*u = n*(c*u/n): the floor claims the full degree-n budget
        p = NetworkParams(16, 4, 25e9)
        m = generate("permutation", p)
        topo, schedule = build_demand_aware_periodic(m, p, seed=0)
        for i in range(16):
            assert topo.link_count[i, (i + 1) % 16] == 16
        assert topo.link_capacity == pytest.approx(6.25e9)
        assert schedule.period == 4

    def test_uniform_demand_emulates_complete_graph(self):
        p = NetworkParams(16, 4, 25e9)
        topo, _ = build_demand_aware_periodic(generate("uniform", p), p, seed=0)
        off = ~np.eye(16, dtype=bool)
        assert np.all(topo.routable_counts()[off] >= 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_schedule_union_reconstructs_topology(self, seed):
        p = NetworkParams(8, 2, 1.0)
        m = generate("random-saturated", p, seed=seed)
        topo, schedule = build_demand_aware_periodic(m, p, seed=seed)
        np.testing.assert_array_equal(schedule.union_counts(), topo.link_count)
        assert schedule.u == 2
        assert schedule.period == 4

    def test_asymmetric_floor_is_padded_to_regularity(self):
        p = NetworkParams(6, 3, 1.0)
        entries = np.zeros((6, 6))
        entries[0, 1] = 2.6   # floor 2 out of node 0, into node 1
        entries[2, 3] = 1.2
        m = DemandMatrix(entries)
        topo, schedule = build_demand_aware_periodic(m, p, seed=2)
        np.testing.assert_array_equal(topo.link_count.sum(axis=1), 6)
        np.testing.assert_array_equal(topo.link_count.sum(axis=0), 6)
        np.testing.assert_array_equal(schedule.union_counts(), topo.link_count)

    @pytest.mark.parametrize("kind, alpha, digest", [
        ("chessboard", None, "caa8228e1f4f063427d29afb7e1d5c27b1e962053e702c61934507780581bcd7"),
        ("mix", 0.5, "df4f7929998bd6ded758f0525fae82a85c2b5286ee1359866f6cd5ad8b0a3e4c"),
    ])
    def test_n64_build_bytes_are_pinned(self, kind, alpha, digest):
        # At n=64 the residual draw's Kuhn chains are long and a colouring
        # term empties many support cells at once; the digest covers the
        # link counts and every slot's mapping, in switch and slot order.
        p = NetworkParams(64, 8, 25e9)
        topo, schedule = build_demand_aware_periodic(generate(kind, p, alpha=alpha).scaled(0.9),
                                                     p, seed=7)
        h = hashlib.sha256(topo.link_count.tobytes())
        for slots in schedule.switches:
            for pm in slots:
                h.update(np.array(pm.mapping, dtype=np.int64).tobytes())
        assert h.hexdigest() == digest

    def test_floor_over_the_budget_names_the_node(self):
        # 2 links of c*u/n = 0.5 from each other node into node 2: 6 > n = 4
        p = NetworkParams(4, 2, 1.0)
        entries = np.zeros((4, 4))
        entries[[0, 1, 3], 2] = 1.0
        with pytest.raises(ValueError, match=r"^node 2 needs 6 floor links, over the "
                                             r"degree budget 4$"):
            build_demand_aware_periodic(DemandMatrix(entries), p, seed=0)


class TestSynthesizeSchedule:
    def test_two_switches_two_slots(self):
        t = Topology(np.ones((4, 4), dtype=int), 1.0, "da-periodic")
        schedule = synthesize_schedule(t, 2, seed=0)
        assert schedule.u == 2
        assert schedule.period == 2
        np.testing.assert_array_equal(schedule.union_counts(), t.link_count)

    def test_one_matching_per_switch_when_u_equals_n(self):
        t = Topology(np.ones((4, 4), dtype=int), 1.0, "da-periodic")
        schedule = synthesize_schedule(t, 4, seed=0)
        assert schedule.period == 1
        assert all(len(slots) == 1 for slots in schedule.switches)

    def test_irregular_topology_rejected(self):
        counts = np.ones((4, 4), dtype=int)
        counts[0, 1] = 0
        t = Topology(counts, 1.0, "x")
        with pytest.raises(ValueError, match="regular"):
            synthesize_schedule(t, 2, seed=0)

    def test_wrong_degree_rejected(self):
        t = Topology(np.eye(4, dtype=int), 1.0, "x")
        with pytest.raises(ValueError, match="degree"):
            synthesize_schedule(t, 2, seed=0)

    def test_indivisible_u_rejected(self):
        t = Topology(np.ones((4, 4), dtype=int), 1.0, "x")
        with pytest.raises(ValueError, match="divisible"):
            synthesize_schedule(t, 3, seed=0)

    @pytest.mark.parametrize("u", [0, -1, 5])
    def test_u_out_of_range_rejected(self, u):
        t = Topology(np.ones((4, 4), dtype=int), 1.0, "x")
        with pytest.raises(ValueError, match=rf"u={u} must satisfy 1 <= u <= n=4"):
            synthesize_schedule(t, u, seed=0)

    def test_schedule_json_keys(self):
        t = Topology(np.ones((4, 4), dtype=int), 1.0, "da-periodic")
        payload = synthesize_schedule(t, 2, seed=0).to_json_dict()
        assert set(payload) == {"u", "gamma", "switches"}
        assert payload["gamma"] == 2
        assert len(payload["switches"]) == 2
        assert all(len(slot) == 4 for slots in payload["switches"] for slot in slots)


class TestOneShotInteger:
    def test_permutation(self):
        p = NetworkParams(4, 1, 2.0)
        m = generate("permutation", p)
        t = build_one_shot_integer(m, p)
        np.testing.assert_array_equal(t.link_count, (m.entries > 0).astype(int) * 1)
        assert t.link_capacity == 2.0

    def test_doubled_permutation(self):
        p = NetworkParams(4, 2, 1.0)
        m = generate("permutation", p)  # entries c*u = 2
        t = build_one_shot_integer(m, p)
        assert t.link_count[0, 1] == 2

    def test_fractional_entries_rejected(self):
        p = NetworkParams(4, 2, 1.0)
        entries = np.zeros((4, 4))
        entries[0, 1] = 1.5
        with pytest.raises(ValueError, match="not integral"):
            build_one_shot_integer(DemandMatrix(entries), p)

    def test_floor_links_over_the_budget_rejected(self):
        p = NetworkParams(4, 1, 1.0)
        m = generate("permutation", NetworkParams(4, 2, 1.0))  # 2 links per row
        with pytest.raises(ValueError, match=r"^node 0 needs 2 floor links, over the "
                                             r"degree budget 1$"):
            build_one_shot_integer(m, p)


@st.composite
def hose_cells(draw):
    """(m, p, seed): a suite or random-saturated matrix at n in 2..16, u in
    1..n, scaled by s in (0, 1], so within the hose bound c*u."""
    n = draw(st.integers(2, 16))
    p = NetworkParams(n, draw(st.integers(1, n)), draw(st.sampled_from([1.0, 25e9])))
    kind = draw(st.sampled_from(["random-saturated", "uniform", "permutation", "mix"]
                                + ["chessboard"] * (n % 2 == 0)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    m = generate(kind, p, alpha=draw(st.floats(0, 1)), seed=seed)
    return m.scaled(draw(st.floats(0, 1, exclude_min=True))), p, seed


class TestBuildDegrees:
    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(hose_cells())
    def test_builds_stay_within_their_link_budget(self, cell):
        m, p, seed = cell
        one_shot = DemandMatrix(np.floor(m.entries / p.c) * p.c)  # integral in links of c
        for net_class, t in [("static", build_static_expander(p, seed=seed)),
                             ("da-static", build_demand_aware_static(m, p, seed=seed)),
                             ("one-shot", build_one_shot_integer(one_shot, p))]:
            budget = link_budget(net_class, p)[1]
            assert t.link_count.sum(axis=1).max() <= budget, net_class
            assert t.link_count.sum(axis=0).max() <= budget, net_class
        for t in (build_oblivious_equivalent(p), build_demand_aware_emulated(m, p, seed=seed)):
            np.testing.assert_array_equal(t.link_count.sum(axis=1), p.n)
            np.testing.assert_array_equal(t.link_count.sum(axis=0), p.n)


class TestPadToRegular:
    def test_symmetric_deficits_become_self_loops(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = 1
        counts[1, 0] = 1
        out = _pad_to_regular(counts, 2)
        assert out[0, 0] == 1 and out[1, 1] == 1 and out[2, 2] == 2
        np.testing.assert_array_equal(out.sum(axis=1), 2)

    def test_asymmetric_deficits_pair_off_diagonally(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[0, 1] = 2  # node 0 out-heavy, node 1 in-heavy
        out = _pad_to_regular(counts, 2)
        np.testing.assert_array_equal(out.sum(axis=1), 2)
        np.testing.assert_array_equal(out.sum(axis=0), 2)
        assert not np.any(np.diagonal(out) < 0)

    def test_over_budget_rejected(self):
        with pytest.raises(ValueError):
            _pad_to_regular(np.full((2, 2), 2, dtype=int), 1)


def looped_union_counts(schedule):
    """The plain loop `PeriodicSchedule.union_counts` must agree with: one
    count per scheduled edge, added matching by matching."""
    n = schedule.switches[0][0].n
    counts = np.zeros((n, n), dtype=np.int64)
    for slots in schedule.switches:
        for pm in slots:
            for i, j in enumerate(pm.mapping):
                counts[i, j] += 1
    return counts


class TestPeriodicScheduleType:
    @pytest.mark.parametrize("seed", range(6))
    def test_union_counts_match_the_plain_loop(self, seed):
        # few distinct permutations over many slots, so pairs get parallel links
        rng = np.random.default_rng(seed)
        n, u, period = 6, 3, 4
        perms = [PermutationMatching(rng.permutation(n)) for _ in range(3)]
        switches = [[perms[k] for k in rng.integers(0, len(perms), period)] for _ in range(u)]
        schedule = PeriodicSchedule(switches, period)
        union = schedule.union_counts()
        reference = looped_union_counts(schedule)
        assert reference.max() > 1
        assert union.dtype == reference.dtype
        np.testing.assert_array_equal(union, reference)

    def test_wrong_slot_count_rejected(self):
        pm = PermutationMatching((1, 0))
        with pytest.raises(ValueError, match="period"):
            PeriodicSchedule(((pm,),), period=2)

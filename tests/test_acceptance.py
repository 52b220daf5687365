"""Acceptance suite at desk scale: n = 16, u in {4, 8, 12, 16}, c = 25 Gb/s.

One test per criterion; each prints its own [PASS]/[FAIL] line with the
measured values. Criteria 1-7 read their landscape bounds from the criteria
table that `reproduce` prints too. The degree sweep backing them runs once per
session and takes the bulk of the time (about 40 s at two workers on a 2-core
host).
"""

import os

import numpy as np
import pytest

from rdcn_throughput import (
    DemandMatrix,
    NetworkParams,
    SweepResult,
    SweepRow,
    Topology,
    build_demand_aware_periodic,
    build_one_shot_integer,
    build_oblivious_equivalent,
    build_suite,
    bvn_decompose,
    generate,
    normalize,
    random_regular_digraph,
    solve_max_throughput,
    sweep_degree,
    verify_solution,
)
from rdcn_throughput.evaluation import DEFAULT_STEP, OBJECTIVE_REACHED, check_landscape
from rdcn_throughput.flowlp import VERIFY_EPS

from conftest import sinkhorn_doubly_stochastic
from lp_oracle import path_lp_throughput

N = 16
CAPACITY = 25e9
DEGREES = (4, 8, 12, 16)
SEED = 0
JOBS = int(os.environ.get("RDCN_ACCEPT_JOBS", "2"))

CLASSES = ("static", "oblivious", "da-static", "da-periodic")


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def report_table(number, landscape):
    """Check and report the criteria table's entries for one criterion at u=4."""
    p = NetworkParams(N, 4, CAPACITY)
    checks = check_landscape(landscape, build_suite(p), p, number=number)
    assert checks, f"no table entry for criterion {number}"
    report(number, all(ok for _, ok, _ in checks), "; ".join(detail for _, _, detail in checks))


def certifying_build(landscape, label, p):
    """The da-periodic build that certifies a landscape cell at degree p.u:
    the heuristic's last step, rebuilt from the row's trace. Returns
    (trace, scaled matrix, topology, schedule)."""
    trace = landscape.row(label, "da-periodic", p.u).trace
    scaled = dict(build_suite(p))[label].scaled(trace.iter_values[-1])
    topo, schedule = build_demand_aware_periodic(scaled, p, seed=trace.seeds[-1])
    return trace, scaled, topo, schedule


@pytest.fixture(scope="session")
def landscape():
    p = NetworkParams(N, DEGREES[0], CAPACITY)
    result = sweep_degree(p, DEGREES, seed=SEED, jobs=JOBS)
    assert not result.errors, result.errors
    return result


def test_criterion_01_dominance(landscape):
    report_table(1, landscape)


def _all_heavy_topology(p):
    """Emulated graph with 2 links on every heavy (opposite-parity) chessboard
    pair and none elsewhere, at the periodic link capacity c*u/n."""
    heavy = np.add.outer(np.arange(p.n), np.arange(p.n)) % 2
    return Topology(2 * heavy, p.c * p.u / p.n, "all-heavy", degree_budget=p.n)


def _two_hop_theta(topo, demand):
    """Largest theta at which theta*demand fits the graph's link units when each
    unit takes one link unit while its pair's direct links last and two after:
    theta*sum(D) + sum(max(0, theta*D - L)) <= sum(L), self-loops excluded.
    An upper bound on the LP's theta for any topology."""
    links = np.array(topo.link_count, dtype=float)
    np.fill_diagonal(links, 0.0)
    d = demand.entries
    lo, hi = 0.0, links.sum() / d.sum()
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid * d.sum() + np.maximum(mid * d - links, 0.0).sum() <= links.sum():
            lo = mid
        else:
            hi = mid
    return lo


def test_criterion_02_chessboard_upper_bound(landscape):
    p = NetworkParams(N, 4, CAPACITY)
    chess = generate("chessboard", p)
    demand = normalize(chess, p.c * p.u / p.n)  # 1.5 on heavy pairs, 4/7 on light

    # The 4/5: with 2 links on each of a node's 8 heavy partners, the heavy
    # demand takes 12*theta of the node's 16 link units in one hop and the light
    # demand 2*4*theta over two hops, so 12*theta + 2*4*theta = 16.
    all_heavy = _all_heavy_topology(p)
    heavy_lp = solve_max_throughput(all_heavy, chess).theta

    # The documented construction gives every heavy pair one floor link and
    # each node 8 residual arcs, a = 8*8/15 of them on heavy pairs on average.
    # The same count, 16*theta + (8 - a)*(1.5*theta - 1) + (a - 1)*(4/7)*theta
    # = 16, predicts 0.841; the heuristic reports it on its step grid, and the
    # table's bound must hold there.
    a = 8 * 8 / 15
    predicted = (24 - a) / (16 + 1.5 * (8 - a) + 4 / 7 * (a - 1))
    expected = float(np.floor(predicted / DEFAULT_STEP)) * DEFAULT_STEP
    at_prediction = SweepResult((SweepRow("chessboard", "da-periodic", 4, expected),))
    [(_, prediction_ok, _)] = check_landscape(at_prediction, (), p, number=2)
    [(_, cell_ok, cell_detail)] = check_landscape(landscape, (), p, number=2)

    # The landscape cell, certified by the topology the heuristic built at its
    # last step with that step's seed.
    trace, scaled_chess, topo, _ = certifying_build(landscape, "chessboard", p)
    cert = solve_max_throughput(topo, scaled_chess)
    certified = (cert.theta >= OBJECTIVE_REACHED
                 and verify_solution(topo, scaled_chess, cert).ok)

    # Every residual draw lands where its own two-hop count puts it.
    per_seed = []
    for seed in range(10):
        topo, _ = build_demand_aware_periodic(chess.scaled(expected), p, seed=seed)
        lp = solve_max_throughput(topo, chess).theta
        per_seed.append((lp, _two_hop_theta(topo, demand)))
    lps = [lp for lp, _ in per_seed]
    hop_gap = max(abs(lp - hop) for lp, hop in per_seed)

    ok = (abs(heavy_lp - 0.80) <= 1e-6
          and abs(_two_hop_theta(all_heavy, demand) - 0.80) <= 1e-9
          and prediction_ok
          and cell_ok
          and certified
          and all(0.83 <= lp <= 0.85 for lp in lps)
          and hop_gap <= 1e-6)
    report(2, ok,
           f"theta(all-heavy graph, chessboard) = {heavy_lp:.9f} (want 0.80 +/- 1e-6); "
           f"{cell_detail} (two-hop prediction {predicted:.4f} on the step grid: "
           f"{expected:.2f}, {'inside' if prediction_ok else 'outside'} the bound), "
           f"certified by step {len(trace.seeds) - 1} at objective "
           f"{cert.theta:.4f} (want >= {OBJECTIVE_REACHED}, verified); residual seeds 0-9 "
           f"give theta in [{min(lps):.4f}, {max(lps):.4f}] (want within [0.83, 0.85]), "
           f"at most {hop_gap:.1e} from their two-hop counts (want <= 1e-6)")


def test_criterion_03_permutation_extremes(landscape):
    report_table(3, landscape)


def test_criterion_04_uniform_best_case(landscape):
    report_table(4, landscape)


def test_criterion_05_lower_bound_uniform_residual(landscape):
    report_table(5, landscape)


def test_criterion_06_degree_independence_and_separation(landscape):
    report_table(6, landscape)


def test_criterion_07_static_convergence(landscape):
    report_table(7, landscape)


def test_criterion_08_integer_one_shot():
    rng = np.random.default_rng(123)
    worst = 1.0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        d1 = int(rng.integers(1, n - 1))
        d2 = int(rng.integers(0, n - d1))
        counts = random_regular_digraph(n, d1, seed=1000 + trial).edge_multiplicity.copy()
        if d2:
            counts += random_regular_digraph(n, d2, seed=2000 + trial).edge_multiplicity
        p = NetworkParams(n, n, CAPACITY)
        m = DemandMatrix(counts * CAPACITY)
        topo = build_one_shot_integer(m, p)
        result = solve_max_throughput(topo, m)
        assert verify_solution(topo, m, result).ok
        worst = min(worst, result.theta)
        assert abs(result.theta - 1.0) <= 1e-6, (trial, n, result.theta)
    report(8, True,
           f"50 random integer-normalized matrices (n in 4..8) all reach theta = 1 "
           f"(worst {worst:.9f})")


def test_criterion_09_bvn_properties():
    count = 0
    worst_err = 0.0
    worst_terms_margin = None
    for n in range(2, 9):
        for seed in range(15):
            if count >= 100:
                break
            m = sinkhorn_doubly_stochastic(n, 7000 + 31 * n + seed)
            dec = bvn_decompose(m)
            err = np.abs(dec.reconstruct() - m).max()
            bound = n * n - 2 * n + 2
            assert err <= 1e-9, (n, seed, err)
            assert len(dec.terms) <= bound, (n, seed, len(dec.terms))
            worst_err = max(worst_err, err)
            margin = bound - len(dec.terms)
            if worst_terms_margin is None or margin < worst_terms_margin:
                worst_terms_margin = margin
            count += 1
    assert count == 100
    report(9, True,
           f"100 doubly stochastic matrices: max reconstruction error {worst_err:.2e} <= 1e-9, "
           f"term count within bound (min margin {worst_terms_margin})")


def test_criterion_10_emulation_property(landscape):
    checked = 0
    for u in DEGREES:
        if N % u != 0:
            continue  # no uniform-period schedule exists (degree 12)
        p = NetworkParams(N, u, CAPACITY)
        for label, _ in build_suite(p):
            _, _, topo, schedule = certifying_build(landscape, label, p)
            assert np.array_equal(schedule.union_counts(), topo.link_count), (label, u)
            assert schedule.period == N // u
            checked += 1
    report(10, True,
           f"{checked} synthesized schedules of certifying builds (u = 4, 8, 16): matching "
           f"multiset union equals the emulated topology exactly")


def test_worst_case_matrices(landscape):
    # not a numbered criterion: the expected arg-min matrices of the landscape
    obl_theta, obl_label = landscape.worst_case("oblivious", 4)
    dap_theta, dap_label = landscape.worst_case("da-periodic", 4)
    assert obl_label == "permutation", (obl_label, obl_theta)
    assert dap_label in ("chessboard", "U+P 0.5"), (dap_label, dap_theta)
    print(f"[PASS] worst cases at u=4: oblivious -> {obl_label} ({obl_theta:.2f}), "
          f"da-periodic -> {dap_label} ({dap_theta:.2f})")


def _small_topologies(n):
    complete = np.ones((n, n), dtype=int)
    np.fill_diagonal(complete, 0)
    yield Topology(complete, 1.0, "complete", degree_budget=n - 1)
    ring = np.zeros((n, n), dtype=int)
    for i in range(n):
        ring[i, (i + 1) % n] = 1
    yield Topology(ring, 1.0, "ring", degree_budget=1)
    if n >= 3:
        # enumerate sparse 0/1 patterns for n=3; sample multigraphs beyond
        if n == 3:
            cells = [(i, j) for i in range(3) for j in range(3) if i != j]
            for bits in range(1, 2 ** 6):
                counts = np.zeros((3, 3), dtype=int)
                for k, (i, j) in enumerate(cells):
                    counts[i, j] = (bits >> k) & 1
                yield Topology(counts, 1.0, f"enum{bits}", degree_budget=3)
        else:
            rng = np.random.default_rng(n)
            for seed in range(40):
                counts = rng.integers(0, 3, size=(n, n))
                np.fill_diagonal(counts, 0)
                if not counts.any():
                    continue
                yield Topology(counts, 1.0, f"rand{seed}",
                               degree_budget=int(max(counts.sum(axis=1).max(),
                                                     counts.sum(axis=0).max())))


def test_criterion_11_lp_oracle_equivalence():
    checked = 0
    worst = 0.0
    for n in (2, 3, 4):
        demand_entries = np.ones((n, n))
        np.fill_diagonal(demand_entries, 0.0)
        demand = DemandMatrix(demand_entries)
        for topo in _small_topologies(n):
            edge_opt = solve_max_throughput(topo, demand).theta
            path_opt = path_lp_throughput(topo.routable_counts(), demand.entries)
            worst = max(worst, abs(edge_opt - path_opt))
            assert abs(edge_opt - path_opt) <= 1e-6, (n, topo.net_class, edge_opt, path_opt)
            checked += 1
    report(11, True,
           f"edge formulation equals path oracle on {checked} small instances "
           f"(max gap {worst:.2e})")


def test_criterion_12_solution_verification(landscape):
    # Every sweep/heuristic result behind criteria 1-7 is verified at solve
    # time (throughput_* raise on any violation), as are the criterion-8
    # solves above. Re-check a representative spread explicitly here.
    cases = []
    p4 = NetworkParams(N, 4, CAPACITY)
    oblivious = build_oblivious_equivalent(p4)
    for kind in ("uniform", "permutation", "chessboard"):
        cases.append((oblivious, generate(kind, p4)))
    # The chessboard's certifying da-periodic build, taken from its trace.
    _, scaled_chess, topo, _ = certifying_build(landscape, "chessboard", p4)
    cases.append((topo, scaled_chess))
    objectives = []
    for topo, demand in cases:
        result = solve_max_throughput(topo, demand)
        rep = verify_solution(topo, demand, result)
        assert rep.ok, rep.violations[:3]
        objectives.append(result.theta)
    chess_objective = objectives[-1]
    report(12, chess_objective >= OBJECTIVE_REACHED,
           f"verify_solution reports zero violations (eps {VERIFY_EPS:g}) on "
           f"{len(objectives)} fresh optima; the chessboard's certifying build reaches objective "
           f"{chess_objective:.4f} at its reported theta (want >= {OBJECTIVE_REACHED}); "
           f"all sweep results were verified at solve time")

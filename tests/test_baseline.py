import hashlib
import math
import random
import statistics
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chaingraph.baseline import (
    _ENUMERATE_LIMIT,
    UNDEFINED,
    GnmParams,
    gnm_random_graph,
    small_world_report,
    small_world_sigma,
    trial_seed,
)
from chaingraph.metrics import (
    ExactnessPolicy,
    average_local_clustering,
    connected_components,
    distance_summary,
    largest_component,
)

from oracles import edge_list, set_from_edges


def complete_graph(n):
    return set_from_edges(n, list(combinations(range(n), 2)))


def star_graph(leaves):
    return set_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def ring_lattice_rewired(n, k, rewire_every, seed):
    """Watts-Strogatz-style fixture: ring lattice with every
    `rewire_every`-th edge re-pointed at a pseudo-random node."""
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(1, k // 2 + 1):
            edges.append((i, (i + j) % n))
    rewired = []
    for idx, (u, v) in enumerate(edges):
        if idx % rewire_every == 0:
            w = rng.randrange(n)
            if w not in (u, v):
                rewired.append((u, w))
                continue
        rewired.append((u, v))
    return set_from_edges(n, rewired)


class TestGnm:
    def test_max_edges_gives_complete_graph(self):
        g = gnm_random_graph(GnmParams(5, 10, seed=1))
        assert g.m == 10
        assert all(len(g.adj[v]) == 4 for v in range(5))

    def test_zero_edges(self):
        g = gnm_random_graph(GnmParams(7, 0, seed=1))
        assert g.m == 0
        assert g.n == 7

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GnmParams(4, 7, seed=1)

    def test_same_seed_same_graph(self):
        a = gnm_random_graph(GnmParams(50, 200, seed=42))
        b = gnm_random_graph(GnmParams(50, 200, seed=42))
        assert a.adj == b.adj

    def test_different_seed_usually_differs(self):
        a = gnm_random_graph(GnmParams(50, 200, seed=1))
        b = gnm_random_graph(GnmParams(50, 200, seed=2))
        assert a.adj != b.adj

    # G(1000, m) has 499,500 possible pairs, just within the limit;
    # G(1001, m) has 500,500, just above it. (100, 4000) takes the branch of
    # random.sample that copies the whole population.
    @pytest.mark.parametrize("n,m,seed", [
        (2, 1, 0), (3, 2, 5), (5, 10, 1), (17, 0, 1), (17, 136, 2), (100, 250, 3),
        (100, 4000, 4), (999, 1600, 5), (1000, 1600, 6), (1000, 30_000, 7),
    ])
    def test_same_draw_as_sampling_enumerated_pairs(self, n, m, seed):
        assert n * (n - 1) // 2 <= _ENUMERATE_LIMIT
        pairs = random.Random(seed).sample(list(combinations(range(n), 2)), m)
        assert gnm_random_graph(GnmParams(n, m, seed)) == set_from_edges(n, pairs)

    # 1024 and 2047 are the ends of one bit length, where the most and the
    # fewest draws of getrandbits are redrawn; 1093 is the size of the
    # benchmark's smallworld subject, with its first trial's seed.
    @pytest.mark.parametrize("n,m,seed", [
        (1001, 1600, 6), (1500, 3000, 8), (1024, 2000, 9), (2047, 3000, 10),
        (1093, 1711, trial_seed(42, 0)),
    ])
    def test_rejection_draw_above_limit(self, n, m, seed):
        assert n * (n - 1) // 2 > _ENUMERATE_LIMIT
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                chosen.add((min(u, v), max(u, v)))
        assert gnm_random_graph(GnmParams(n, m, seed)) == set_from_edges(n, chosen)

    # sha256 of repr(adj), recorded on the per-node neighbour-set builder:
    # one enumerated draw and one rejection draw.
    @pytest.mark.parametrize("n,m,seed,digest", [
        (1000, 30_000, 7, "9c136f63f59321ef4e4f5b577dd8fed2fab38beeac88d0148870c8e1410b1cf1"),
        (1500, 3000, 8, "0dd032dee09518969566c08e695a1aef491e6bec9b56e3a208aea2e4d10e48c8"),
    ])
    def test_pinned_graphs(self, n, m, seed, digest):
        g = gnm_random_graph(GnmParams(n, m, seed))
        assert g.m == m
        assert hashlib.sha256(repr(g.adj).encode()).hexdigest() == digest

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10**6), frac=st.floats(0, 1))
    def test_contract_exact_m_no_loops_no_duplicates(self, n, seed, frac):
        max_edges = n * (n - 1) // 2
        m = int(frac * max_edges)
        g = gnm_random_graph(GnmParams(n, m, seed=seed))
        edges = edge_list(g)
        assert len(edges) == m == g.m
        assert len(set(edges)) == m
        assert all(u != v for u, v in edges)

    def test_monte_carlo_degree_and_clustering(self):
        # 20 seeds of G(2000, 10000): average degree is 2m/n per instance
        # by the handshake lemma; mean clustering sits near p = 2m/(n(n-1)).
        n, m = 2000, 10_000
        p = 2 * m / (n * (n - 1))
        ccs = []
        for seed in range(20):
            g = gnm_random_graph(GnmParams(n, m, seed=seed))
            assert sum(len(a) for a in g.adj) / n == 2 * m / n
            ccs.append(average_local_clustering(g))
        mean = statistics.mean(ccs)
        se = statistics.stdev(ccs) / math.sqrt(len(ccs))
        assert abs(mean - p) <= 3 * se

    def test_log_distance_scaling(self):
        # random graphs keep pair distances near ln(n)/ln(avg degree)
        n, m = 10_000, 50_000
        g = gnm_random_graph(GnmParams(n, m, seed=0))
        policy = ExactnessPolicy(exact_threshold=1000, sample_sources=200, seed=0)
        measured = distance_summary(g, connected_components(g), policy).average_distance
        expected = math.log(n) / math.log(2 * m / n)
        assert abs(measured - expected) / expected < 0.15


class TestSigma:
    def test_direct_substitution(self):
        assert small_world_sigma(0.01, 5.0, 0.001, 10.0) == 20.0

    def test_zero_cc_gives_zero(self):
        assert small_world_sigma(0.0, 5.0, 0.05, 2.94) == 0.0

    def test_zero_baseline_cc_undefined(self):
        assert small_world_sigma(0.01, 5.0, 0.0, 10.0) is UNDEFINED

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            small_world_sigma(0.01, 0.0, 0.001, 10.0)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_invariant_under_common_cc_scaling(self, scale):
        base = small_world_sigma(0.01, 5.0, 0.001, 10.0)
        scaled = small_world_sigma(0.01 * scale, 5.0, 0.001 * scale, 10.0)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestSmallWorldReport:
    def test_star_subject_matches_published_row(self):
        report = small_world_report(star_graph(18), trials=200, seed=1)
        assert report.cc == 0.0
        assert report.sigma == 0.0
        assert report.avg_distance == pytest.approx(324 / 171, abs=5e-3)
        # published baseline row: cc_RG 0.05, L_RG 2.94
        assert report.cc_rg == pytest.approx(0.05, abs=0.03)
        assert 2.5 <= report.l_rg <= 3.4

    def test_k4_subject_sigma_one(self):
        report = small_world_report(complete_graph(4), trials=3, seed=0)
        assert report.cc == 1.0
        assert report.avg_distance == 1.0
        assert report.sigma == 1.0

    def test_small_world_fixture_classified_above_one(self):
        subject = largest_component(ring_lattice_rewired(500, 4, rewire_every=10, seed=8))
        report = small_world_report(subject, trials=5, seed=3)
        assert isinstance(report.sigma, float)
        assert report.sigma > 1.0

    def test_deterministic(self):
        subject = largest_component(gnm_random_graph(GnmParams(120, 200, seed=4)))
        a = small_world_report(subject, trials=4, seed=9)
        b = small_world_report(subject, trials=4, seed=9)
        assert a == b

    def test_disconnected_subject_rejected(self):
        g = set_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            small_world_report(g, trials=1, seed=0)

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

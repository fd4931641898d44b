import dataclasses
import math
import os
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from chaingraph import metrics
from chaingraph.baseline import GnmParams, gnm_random_graph, small_world_report, trial_seed
from chaingraph.graph import build_graph, project_simple
from chaingraph.metrics import (
    EXACT,
    LOWER_BOUND,
    SAMPLED,
    DistanceSummary,
    ExactnessPolicy,
    average_local_clustering,
    bfs_distances,
    connected_components,
    degree_distribution,
    distance_summary,
    general_metrics,
    largest_component,
    transitivity,
)

from conftest import addr, forest_blocks, make_block, star_blocks, summary_of
from oracles import (
    all_pairs_average_and_diameter,
    brute_average_local_clustering,
    brute_neighbour_links,
    brute_transitivity,
    degree_sum,
    double_sweep_lower_bound,
    edge_list,
    flood_fill_components,
    frontier_distances,
    oracle_fixtures,
    set_from_edges,
)


def simple(n, edges):
    return set_from_edges(n, edges)


def path_graph(n):
    return simple(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves):
    return simple(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n):
    return simple(n, list(combinations(range(n), 2)))


def caterpillar(legs):
    """A path of len(legs) spine nodes; spine node i carries legs[i] leaves."""
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    n = len(legs)
    for spine, count in enumerate(legs):
        for _ in range(count):
            edges.append((spine, n))
            n += 1
    return simple(n, edges)


def hub_clique_graph():
    """Hub 0 on the clique 0-4, five leaves on the hub, two on node 2, and
    a three-edge pendant path from node 3 (nodes 12-14)."""
    edges = list(combinations(range(5), 2))
    edges += [(0, leaf) for leaf in range(5, 10)] + [(2, 10), (2, 11)]
    edges += [(3, 12), (12, 13), (13, 14)]
    return simple(15, edges)


def hub_clique_with_neighbours():
    """hub_clique_graph plus smaller components whose nodes stay in the
    core: a second hub with three leaves (15-18), a triangle (19-21), and
    two isolated edges (22-25)."""
    edges = edge_list(hub_clique_graph())
    edges += [(15, 16), (15, 17), (15, 18), (19, 20), (20, 21), (19, 21), (22, 23), (24, 25)]
    return simple(26, edges)


@st.composite
def trees_with_chords(draw, max_nodes=40, min_nodes=2):
    """A random tree on min_nodes..max_nodes nodes (each node hangs off an
    earlier one, so many are leaves) plus up to five extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=5))
    return simple(n, edges)


@st.composite
def disconnected_leaf_heavy(draw):
    """A tree with chords, sometimes a second one of the same size (a tie
    for the largest component), isolated edges and vertices, all on
    shuffled node indices so the components interleave."""
    parts = [draw(trees_with_chords(max_nodes=20))]
    if draw(st.booleans()):
        size = parts[0].n
        parts.append(draw(trees_with_chords(max_nodes=size, min_nodes=size)))
    edges = []
    n = 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in edge_list(part)]
        n += part.n
    for _ in range(draw(st.integers(0, 3))):
        edges.append((n, n + 1))
        n += 2
    n += draw(st.integers(0, 3))
    order = draw(st.permutations(range(n)))
    return simple(n, [(order[u], order[v]) for u, v in edges])


def sum_and_max_from_sources(g, sources, n=None):
    """As distance_summary combines them: one _sum_and_max_from_sources
    call per batch of at most _MSBFS_BATCH sources."""
    fold = metrics._fold_leaves(g)
    size = metrics._MSBFS_BATCH
    pieces = [metrics._sum_and_max_from_sources(g, sources[i:i + size], n or g.n, fold)
              for i in range(0, len(sources), size)]
    return sum(t for t, _ in pieces), max(d for _, d in pieces)


def per_source_sum_and_max(g, sources):
    dists = [frontier_distances(g, s) for s in sources]
    return sum(map(sum, dists)), max(map(max, dists))


def graph_from_pairs(pairs):
    return build_graph([make_block(1, pairs)])


class TestDegreeDistribution:
    def test_single_edge(self):
        g = graph_from_pairs([(addr(1), addr(2))])
        assert degree_distribution(g) == ({1: 2}, {1: 2})

    def test_star_18_leaves(self):
        center = addr(0)
        g = graph_from_pairs([(center, addr(i + 1)) for i in range(18)])
        assert degree_distribution(g) == ({18: 1, 1: 18}, {18: 1, 1: 18})

    def test_weighted_sums_edge_weights(self):
        a, b, c = addr(1), addr(2), addr(3)
        g = graph_from_pairs([(a, b), (a, b), (a, c)])
        assert degree_distribution(g) == ({2: 1, 1: 2}, {3: 1, 2: 1, 1: 1})

    def test_loop_adds_one_unweighted_and_count_weighted(self):
        a, b = addr(1), addr(2)
        g = graph_from_pairs([(a, b), (a, a), (a, a)])
        assert degree_distribution(g) == ({2: 1, 1: 1}, {3: 1, 1: 1})

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=50))
    def test_handshake_identities(self, raw_pairs):
        pairs = [(addr(u), addr(v)) for u, v in raw_pairs]
        g = graph_from_pairs(pairs)
        unweighted, weighted = degree_distribution(g)
        assert degree_sum(unweighted) == 2 * g.m + len(g.loops)
        total_weight = sum(g.edges.values())
        assert degree_sum(weighted) == 2 * total_weight + sum(g.loops.values())
        assert sum(unweighted.values()) == g.n == sum(weighted.values())


class TestComponents:
    def test_two_disjoint_edges(self):
        comps = connected_components(simple(4, [(0, 1), (2, 3)]))
        assert comps.num_components == 2
        assert comps.sizes == [(2, 1), (2, 1)]

    def test_empty_graph(self):
        comps = connected_components(simple(0, []))
        assert comps.num_components == 0

    def test_matches_flood_fill_on_random_fixture(self):
        g = gnm_random_graph(GnmParams(200, 180, seed=11))
        comps = connected_components(g)
        oracle = flood_fill_components(g)
        # same partition: pairwise same-component relation agrees
        for u in range(0, g.n, 7):
            for v in range(g.n):
                assert (comps.assignment[u] == comps.assignment[v]) == (
                    oracle[u] == oracle[v]
                )

    def test_size_bookkeeping_sums_to_graph_totals(self):
        g = gnm_random_graph(GnmParams(120, 150, seed=5))
        comps = connected_components(g)
        assert sum(nodes for nodes, _ in comps.sizes) == g.n
        assert sum(edges for _, edges in comps.sizes) == g.m

    def test_largest_tie_breaks_by_smallest_id(self):
        comps = connected_components(simple(4, [(0, 1), (2, 3)]))
        assert comps.largest_id == 0

    def test_largest_component_subgraph(self):
        g = simple(5, [(0, 1), (1, 2), (3, 4)])
        main = largest_component(g)
        assert main.n == 3 and main.m == 2

    @settings(max_examples=80)
    @given(st.data())
    def test_subgraph_matches_from_edges(self, data):
        # Any order of distinct nodes, closed under adjacency or not.
        n = data.draw(st.integers(0, 14))
        node = st.integers(0, max(n - 1, 0))
        edges = data.draw(st.lists(st.tuples(node, node), max_size=40)) if n else []
        g = set_from_edges(n, edges)
        nodes = data.draw(st.lists(node, unique=True, max_size=n)) if n else []
        remap = {old: new for new, old in enumerate(nodes)}
        expected = set_from_edges(
            len(nodes),
            [(remap[u], remap[v]) for u, v in edge_list(g) if u in remap and v in remap])
        assert g.subgraph(nodes) == expected


class TestClustering:
    def test_triangle_transitivity_one(self):
        assert transitivity(simple(3, [(0, 1), (1, 2), (0, 2)])) == 1.0

    def test_path_transitivity_zero(self):
        assert transitivity(path_graph(3)) == 0.0

    def test_k4_avg_local_one(self):
        assert average_local_clustering(complete_graph(4)) == 1.0

    def test_star_avg_local_zero(self):
        assert average_local_clustering(star_graph(9)) == 0.0

    def test_no_triplets_returns_zero(self):
        assert transitivity(simple(2, [(0, 1)])) == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_brute_force_on_gnm_fixture(self, seed):
        g = gnm_random_graph(GnmParams(30, 60, seed=seed))
        assert transitivity(g) == pytest.approx(brute_transitivity(g), abs=1e-12)
        assert average_local_clustering(g) == pytest.approx(
            brute_average_local_clustering(g), abs=1e-12
        )

    def test_complete_graph_both_one(self):
        g = complete_graph(6)
        assert transitivity(g) == 1.0
        assert average_local_clustering(g) == 1.0

    @settings(max_examples=60)
    @given(st.data())
    def test_leaf_heavy_matches_brute_force(self, data):
        # A small random core with star leaves and pendant paths hung on it:
        # most nodes are leaves, which the triangle kernel skips.
        core = data.draw(st.integers(3, 10))
        node = st.integers(0, core - 1)
        edges = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=30))
        n = core
        for anchor, leaves, path in data.draw(st.lists(
                st.tuples(node, st.integers(0, 6), st.integers(0, 3)), max_size=5)):
            for _ in range(leaves):
                edges.append((anchor, n))
                n += 1
            tail = anchor
            for _ in range(path):
                edges.append((tail, n))
                tail, n = n, n + 1
        g = simple(n, edges)
        assert metrics._neighbour_links(g) == brute_neighbour_links(g)
        assert transitivity(g) == pytest.approx(brute_transitivity(g), abs=1e-12)
        assert average_local_clustering(g) == pytest.approx(
            brute_average_local_clustering(g), abs=1e-12)

    @settings(max_examples=60)
    @given(st.data())
    def test_tied_hubs_sharing_neighbours_match_brute_force(self, data):
        # Hubs of one degree, each on a subset of one small pool, so they
        # share neighbours; edges within the pool and between hubs close
        # triangles, and leaves hang on hubs and pool nodes. The triangle
        # kernel ranks nodes by degree and then index, so equal degrees
        # are where a wrong tie-break would count a triangle twice or not
        # at all; the node indices are shuffled so ties fall either way.
        hubs = data.draw(st.integers(2, 5))
        pool = data.draw(st.integers(2, 8))
        degree = data.draw(st.integers(2, pool))
        members = st.lists(st.integers(0, pool - 1), min_size=degree, max_size=degree,
                           unique=True)
        edges = [(h, hubs + p) for h in range(hubs) for p in data.draw(members)]
        if data.draw(st.booleans()):
            edges += list(combinations(range(hubs), 2))
        pool_node = st.integers(hubs, hubs + pool - 1)
        edges += data.draw(st.lists(st.tuples(pool_node, pool_node), max_size=12))
        n = hubs + pool
        # Every hub gets the same number of leaves, so hub degrees stay tied.
        for _ in range(data.draw(st.integers(0, 3))):
            edges += [(h, n + h) for h in range(hubs)]
            n += hubs
        for anchor in data.draw(st.lists(pool_node, max_size=6)):
            edges.append((anchor, n))
            n += 1
        order = data.draw(st.permutations(range(n)))
        g = simple(n, [(order[u], order[v]) for u, v in edges])
        assert len({len(g.adj[order[h]]) for h in range(hubs)}) == 1
        assert metrics._neighbour_links(g) == brute_neighbour_links(g)


class TestDistance:
    def test_single_edge(self):
        summary = summary_of(simple(2, [(0, 1)]))
        assert summary.average_distance == 1.0
        assert summary.diameter == 1
        assert summary.l_method == EXACT

    @pytest.mark.parametrize("g", [simple(0, []), simple(1, []), simple(3, [])],
                             ids=["empty", "one-node", "isolated-nodes"])
    def test_no_pair_reads_zero(self, g):
        assert summary_of(g) == DistanceSummary(0.0, 0, EXACT, EXACT)

    def test_path_three_nodes(self):
        summary = summary_of(path_graph(3))
        assert summary.average_distance == pytest.approx(4 / 3)
        assert summary.diameter == 2

    def test_star_19_nodes_closed_form(self):
        # 18 pairs at distance 1, C(18,2)=153 at distance 2
        summary = summary_of(star_graph(18))
        assert summary.average_distance == pytest.approx(324 / 171)
        assert summary.diameter == 2

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_sample_sources_rejected(self, k):
        with pytest.raises(ValueError, match="sample_sources must be >= 1"):
            ExactnessPolicy(sample_sources=k)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExactnessPolicy(seed=-1)

    def test_sampled_mode_and_labels(self):
        g = gnm_random_graph(GnmParams(300, 600, seed=2))
        main = largest_component(g)
        policy = ExactnessPolicy(exact_threshold=10, sample_sources=40, seed=7)
        summary = summary_of(main, policy)
        assert summary.l_method == SAMPLED
        assert summary.diameter_method == LOWER_BOUND
        assert summary.sample_sources == 40
        assert summary.seed == 7
        exact = summary_of(main)
        assert summary.diameter <= exact.diameter
        assert summary.average_distance == pytest.approx(exact.average_distance, rel=0.25)

    def test_sampled_with_all_sources_equals_exact(self):
        g = largest_component(gnm_random_graph(GnmParams(60, 90, seed=3)))
        exact = summary_of(g, ExactnessPolicy(exact_threshold=10**6))
        sampled = summary_of(g, ExactnessPolicy(exact_threshold=1, sample_sources=g.n))
        assert sampled.average_distance == exact.average_distance

    def test_diameter_at_least_ceil_average(self):
        for seed in range(5):
            g = largest_component(gnm_random_graph(GnmParams(80, 120, seed=seed)))
            summary = summary_of(g)
            assert summary.diameter >= math.ceil(summary.average_distance)

    def test_removing_edge_never_decreases_average(self):
        g = simple(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        base = summary_of(g).average_distance
        without = simple(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert summary_of(without).average_distance >= base

    def test_single_node(self):
        summary = summary_of(simple(1, []))
        assert summary.average_distance == 0.0
        assert summary.diameter == 0


def largest_members(g):
    comps = connected_components(g)
    return comps.members(comps.largest_id)


class TestKernelIntegers:
    """The multi-source BFS on graphs of the `smallworld` benchmark's shape:
    G(n,m) at n=1093, m=1711, the trial seeds of --seed 42, distances of
    the largest component in place."""

    @pytest.mark.parametrize("trial,expected", [
        (0, (6275184, 13)),
        (1, (6705156, 13)),
        (2, (6665174, 14)),
        (3, (6517388, 13)),
        (4, (6487486, 14)),
    ])
    def test_pinned_gnm_instances(self, trial, expected):
        g = gnm_random_graph(GnmParams(1093, 1711, trial_seed(42, trial)))
        members = largest_members(g)
        assert metrics._sum_and_max_from_sources(
            g, members, len(members), metrics._fold_leaves(g)) == expected

    def test_gnm_matches_oracle(self):
        g = gnm_random_graph(GnmParams(200, 313, seed=5))
        members = largest_members(g)
        n = len(members)
        total, longest = metrics._sum_and_max_from_sources(g, members, n, metrics._fold_leaves(g))
        assert n > 150
        assert (total / (n * (n - 1)), longest) == \
            all_pairs_average_and_diameter(largest_component(g))


# A star with an isolated edge or vertex, two paths with two leaves each,
# and two paths of 6 and 3 nodes.
DISCONNECTED = [
    simple(6, [(0, 1), (0, 2), (0, 3), (4, 5)]),
    simple(6, [(0, 1), (0, 2), (0, 3)]),
    simple(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
    simple(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8)]),
]
DISCONNECTED_IDS = ["isolated-edge", "isolated-vertex", "two-paths", "path6-path3"]


class TestMultiSourceBatches:
    """Sources split into batches of 3 bits, so every graph spans many
    batches and most batches end part-full."""

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(metrics, "_MSBFS_BATCH", 3)

    def test_exact_matches_oracle(self):
        params = oracle_fixtures() + [GnmParams(300, 450, seed=s) for s in range(3)]
        for p in params:
            main = largest_component(gnm_random_graph(p))
            if main.n < 2:
                continue
            summary = summary_of(main)
            assert (summary.average_distance, summary.diameter) == \
                all_pairs_average_and_diameter(main)

    def test_sampled_matches_per_source_sum(self):
        main = largest_component(gnm_random_graph(GnmParams(300, 600, seed=2)))
        k = 40
        summary = summary_of(
            main, ExactnessPolicy(exact_threshold=10, sample_sources=k, seed=7))
        sources = sorted(random.Random(7).sample(range(main.n), k))
        total = sum(sum(frontier_distances(main, s)) for s in sources)
        assert summary.l_method == SAMPLED
        assert summary.average_distance == total / (k * (main.n - 1))

    # Leaf folding: the BFS counts degree-1 nodes at their neighbour
    # instead of visiting them, so leaf-heavy graphs get their own cases.

    def test_fold_structure(self):
        hub, leaves, core_adj = metrics._fold_leaves(hub_clique_graph())
        assert hub == [-1] * 5 + [0] * 5 + [2, 2] + [-1, -1, 13]
        assert leaves == [5, 0, 2, 0, 0] + [0] * 8 + [1, 0]
        assert core_adj[0] == [1, 2, 3, 4] and core_adj[2] == [0, 1, 3, 4]
        assert core_adj[3] == [0, 1, 2, 4, 12] and core_adj[13] == [12]
        # Both ends of an isolated edge stay in the core.
        assert metrics._fold_leaves(simple(5, [(0, 1), (2, 3), (3, 4)]))[0] == \
            [-1, -1, 3, -1, 3]

    @pytest.mark.parametrize("g", [
        path_graph(2), path_graph(3), complete_graph(3),
        star_graph(3), star_graph(4), star_graph(18),
        caterpillar([2, 0, 3]), caterpillar([1, 1, 1, 1]), caterpillar([0, 4, 0, 2, 5]),
        hub_clique_graph(),
    ], ids=["n2", "n3-path", "n3-triangle", "star3", "star4", "star18",
            "caterpillar-203", "caterpillar-1111", "caterpillar-04025", "hub-clique"])
    def test_leaf_heavy_exact_matches_oracle(self, g):
        summary = summary_of(g)
        assert summary.l_method == EXACT
        assert (summary.average_distance, summary.diameter) == \
            all_pairs_average_and_diameter(g)

    @settings(max_examples=150, deadline=None)
    @given(trees_with_chords())
    def test_exact_matches_oracle_on_trees_with_chords(self, g):
        summary = summary_of(g)
        assert (summary.average_distance, summary.diameter) == \
            all_pairs_average_and_diameter(g)

    @pytest.mark.parametrize("sources", [
        [5, 6],             # two leaves of the hub
        [5, 0],             # a leaf and its hub
        [5, 6, 0, 10, 2],   # both, on two hubs, across two batches
        [10, 11, 2, 14],    # node 2's leaves and hub; the path's end
        list(range(5, 12)),
    ])
    def test_chosen_sources_match_per_source_sums(self, sources):
        g = hub_clique_graph()
        assert sum_and_max_from_sources(g, sources) == \
            per_source_sum_and_max(g, sources)

    # One batch holds a hub and two or more of its leaves, plus a leaf of
    # another hub on the clique: leaves of one hub reach each other at
    # level 2, where the leaf-source correction applies.
    @pytest.mark.parametrize("g,sources", [
        (hub_clique_graph(), [0, 5, 6, 10]),
        (star_graph(6), [0, 1, 2, 3]),
    ], ids=["hub-clique", "star6"])
    @pytest.mark.parametrize("batch", [4096, 1])
    def test_leaf_sources_in_one_batch(self, monkeypatch, g, sources, batch):
        monkeypatch.setattr(metrics, "_MSBFS_BATCH", batch)
        assert sum_and_max_from_sources(g, sources) == \
            per_source_sum_and_max(g, sources)

    # The per-node level state lives on from level to level and batch to
    # batch, and the scan for touched nodes covers the core of every
    # component, not only the one the sources are in.
    @pytest.mark.parametrize("sources", [
        list(range(15)),
        [0, 3, 5, 6, 10, 11, 14],
    ], ids=["exact", "sampled"])
    @pytest.mark.parametrize("batch", [1, 3, 4096])
    def test_no_state_leaks_between_levels_or_batches(self, monkeypatch, sources, batch):
        monkeypatch.setattr(metrics, "_MSBFS_BATCH", batch)
        g = hub_clique_with_neighbours()
        assert largest_members(g) == list(range(15))
        dists = [frontier_distances(g, s) for s in sources]
        # Nodes outside the component read -1.
        expected = sum(d for dist in dists for d in dist if d > 0), max(map(max, dists))
        assert sum_and_max_from_sources(g, sources, 15) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_sources_match_per_source_sums(self, data):
        g = data.draw(trees_with_chords())
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
        assert sum_and_max_from_sources(g, sources) == \
            per_source_sum_and_max(g, sources)

    def test_sampled_with_leaf_sources_matches_per_source_sum(self):
        g = caterpillar([3, 0, 2, 4, 1])
        k = 8
        policy = ExactnessPolicy(exact_threshold=1, sample_sources=k, seed=4)
        sources = sorted(random.Random(policy.seed).sample(range(g.n), k))
        # The seed draws two leaves of one spine node, and a leaf together
        # with its spine node.
        hubs = [g.adj[s][0] for s in sources if len(g.adj[s]) == 1]
        assert len(hubs) > len(set(hubs))
        assert set(hubs) & set(sources)
        summary = summary_of(g, policy)
        total, _ = per_source_sum_and_max(g, sources)
        assert summary.l_method == SAMPLED
        assert summary.average_distance == total / (k * (g.n - 1))

    @pytest.mark.parametrize("g", DISCONNECTED, ids=DISCONNECTED_IDS)
    @pytest.mark.parametrize("policy", [
        ExactnessPolicy(),
        ExactnessPolicy(exact_threshold=1, sample_sources=3, seed=0),
    ], ids=["exact", "sampled"])
    def test_disconnected_gives_largest_component(self, g, policy):
        summary = distance_summary(g, connected_components(g), policy)
        assert summary == summary_of(largest_component(g), policy)

    @settings(max_examples=100, deadline=None)
    @given(disconnected_leaf_heavy())
    def test_exact_in_place_matches_oracle_on_the_copy(self, g):
        summary = distance_summary(g, connected_components(g))
        avg, diameter = all_pairs_average_and_diameter(largest_component(g))
        assert summary.l_method == EXACT
        assert (summary.average_distance.hex(), summary.diameter) == (avg.hex(), diameter)

    @settings(max_examples=100, deadline=None)
    @given(disconnected_leaf_heavy(), st.data())
    def test_sampled_in_place_matches_per_source_sums(self, g, data):
        comps = connected_components(g)
        members = comps.members(comps.largest_id)
        n = len(members)
        k = data.draw(st.integers(1, n))
        policy = ExactnessPolicy(exact_threshold=1, sample_sources=k,
                                 seed=data.draw(st.integers(0, 99)))
        summary = distance_summary(g, comps, policy)
        sources = [members[i] for i in sorted(random.Random(policy.seed).sample(range(n), k))]
        # Nodes outside the component read -1; a source's own 0 adds nothing.
        total = sum(d for s in sources for d in frontier_distances(g, s) if d > 0)
        assert summary.l_method == SAMPLED
        assert summary.average_distance == total / (k * (n - 1))
        assert summary.diameter == double_sweep_lower_bound(largest_component(g))

    @pytest.mark.parametrize("g", DISCONNECTED, ids=DISCONNECTED_IDS)
    def test_components_of_another_graph_rejected(self, g):
        # The graph with the component labels of the path on its nodes.
        foreign = connected_components(path_graph(g.n))
        for policy in (ExactnessPolicy(),
                       ExactnessPolicy(exact_threshold=1, sample_sources=3, seed=0)):
            with pytest.raises(ValueError, match="connected"):
                distance_summary(g, foreign, policy)
        for s in range(g.n):
            with pytest.raises(ValueError, match="connected"):
                sum_and_max_from_sources(g, [s])


class TestSmallWorldInPlace:
    """small_world_report on a graph and its component labels is the report
    on a copy of its largest component, bit for bit: n, m, cc and L are
    read in place, and the baselines follow from n and m."""

    @staticmethod
    def report_fields(report):
        values = (getattr(report, f.name) for f in dataclasses.fields(report))
        return [v.hex() if isinstance(v, float) else v for v in values]

    @pytest.mark.parametrize("policy", [
        ExactnessPolicy(),
        ExactnessPolicy(exact_threshold=1, sample_sources=3, seed=5),
    ], ids=["exact", "sampled"])
    @settings(max_examples=60, deadline=None)
    @given(g=disconnected_leaf_heavy())
    @example(g=hub_clique_with_neighbours())
    def test_in_place_matches_the_copy(self, g, policy):
        in_place = small_world_report(g, connected_components(g), 2, 7, policy)
        main = largest_component(g)
        on_copy = small_world_report(main, connected_components(main), 2, 7, policy)
        assert self.report_fields(in_place) == self.report_fields(on_copy)


LEAF_HEAVY = [
    path_graph(2), path_graph(3), path_graph(6), complete_graph(3),
    star_graph(1), star_graph(3), star_graph(18),
    caterpillar([2, 0, 3]), caterpillar([0, 0, 4]), caterpillar([3, 0, 2, 4, 1]),
    simple(6, [(5, 0), (0, 1), (1, 2), (2, 3), (3, 4)]),
    hub_clique_graph(),
]
LEAF_HEAVY_IDS = ["n2", "n3-path", "path6", "n3-triangle", "star1", "star3", "star18",
                  "caterpillar-203", "caterpillar-004", "caterpillar-30241",
                  "leaf-0-on-path", "hub-clique"]


class TestDoubleSweep:
    """The sampled-mode diameter: the sweep over core nodes gives the bound
    of two plain BFS over every node."""

    # On a disconnected graph the sweep stays in node 0's component, and a
    # node the source does not reach is at -1, leaves included.
    @pytest.mark.parametrize("g", LEAF_HEAVY + DISCONNECTED,
                             ids=LEAF_HEAVY_IDS + DISCONNECTED_IDS)
    def test_matches_two_bfs_oracle(self, g):
        fold = metrics._fold_leaves(g)
        assert metrics._double_sweep_lower_bound(fold, 0) == double_sweep_lower_bound(g)
        for s in range(g.n):
            assert metrics._folded_distances(fold, s) == bfs_distances(g, s)

    def test_far_node_is_a_leaf(self):
        g = caterpillar([0, 0, 4])
        fold = metrics._fold_leaves(g)
        hub = fold[0]
        dist = bfs_distances(g, 0)
        # Node 0 is a leaf too, and the sweep turns round at another leaf.
        assert hub[0] >= 0 and hub[dist.index(max(dist))] >= 0
        assert metrics._double_sweep_lower_bound(fold, 0) == 3

    @settings(max_examples=200, deadline=None)
    @given(trees_with_chords())
    def test_matches_two_bfs_oracle_on_trees_with_chords(self, g):
        fold = metrics._fold_leaves(g)
        assert metrics._double_sweep_lower_bound(fold, 0) == double_sweep_lower_bound(g)
        for s in (0, g.n - 1, g.n // 2):
            assert metrics._folded_distances(fold, s) == bfs_distances(g, s)

    def test_sampled_diameter_uses_the_sweep(self):
        g = caterpillar([3, 0, 2, 4, 1])
        summary = summary_of(g, ExactnessPolicy(exact_threshold=1, sample_sources=3))
        assert summary.diameter_method == LOWER_BOUND
        assert summary.diameter == double_sweep_lower_bound(g) == 6


def general_metrics_of(g):
    projected = project_simple(g.n, g.edges)
    return general_metrics(projected, connected_components(projected))


class TestGeneralMetrics:
    def test_empty_graph_all_zero(self):
        report = general_metrics_of(build_graph([]))
        assert (report.n, report.m, report.num_components) == (0, 0, 0)
        assert report.avg_clustering == 0.0
        assert report.largest_component_nodes == 0

    def test_forest_fixture_reproduces_published_row(self):
        report = general_metrics_of(build_graph(forest_blocks()))
        assert report.n == 55
        assert report.m == 40
        assert report.avg_clustering == 0.0
        assert report.num_components == 15
        assert report.largest_component_nodes == 19
        assert report.largest_component_edges == 18

    def test_node_count_consistent_with_histogram(self):
        g = build_graph(star_blocks())
        assert general_metrics_of(g).n == sum(degree_distribution(g)[0].values())


class TestCsvWriters:
    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 6), st.one_of(st.none(), st.integers(0, 6))),
                    max_size=30))
    def test_loglog_skips_zero_degree(self, raw_pairs):
        # degree_loglog.csv takes log10 of every degree.csv row with no
        # zero-bin guard: every node, a loop-only sender or a creation's
        # node included, is an endpoint of some transaction, so no bin has
        # degree 0 or count 0.
        pairs = [(addr(u), None if v is None else addr(v)) for u, v in raw_pairs]
        for hist in degree_distribution(graph_from_pairs(pairs)):
            assert all(degree > 0 and count > 0 for degree, count in hist.items()), hist


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestForkMap:
    """_fork_map gives [task(i) for i in range(count)] with any number of
    processes, and forks only from a caller that is in no map."""

    @pytest.fixture
    def workers(self, monkeypatch):
        def use(count):
            monkeypatch.setattr(metrics, "_usable_cpus", lambda: count)
        return use

    @staticmethod
    def task(i):
        return metrics._INTS.pack(i * i, -i)

    @pytest.mark.parametrize("count", [1, 2, 3, 64, 65, 200, 1000])
    def test_queue_names_each_task_once_in_pipe_buf(self, count):
        queue = metrics._queue(count)
        assert 0 < len(queue) <= metrics._PIPE_BUF
        ranges = list(metrics._RANGE.iter_unpack(queue))
        assert [i for start, stop in ranges for i in range(start, stop)] == list(range(count))
        if count <= metrics._PIPE_BUF // metrics._RANGE.size:
            assert all(stop == start + 1 for start, stop in ranges)

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 65, 300])
    def test_results_in_task_order(self, workers, processes, count):
        workers(processes)
        assert metrics._fork_map(self.task, count) == [self.task(i) for i in range(count)]
        assert not metrics._in_map
        assert no_child_left()

    @pytest.fixture
    def fork_fails(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", no_fork)

    def test_single_task_forks_nothing(self, workers, fork_fails):
        workers(3)
        assert metrics._fork_map(self.task, 1) == [self.task(0)]

    def test_worker_never_forks_again(self, workers, monkeypatch, tmp_path):
        # Every task runs a map of its own, in a worker or in the caller
        # while its workers run: each of those runs in its own process.
        log = tmp_path / "forks"
        fork = os.fork
        caller = os.getpid()

        def logged_fork():
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return fork()

        def nested(i):
            inner = metrics._fork_map(self.task, 3)
            assert inner == [self.task(j) for j in range(3)]
            return metrics._INTS.pack(os.getpid(), metrics._workers(3))

        workers(3)
        monkeypatch.setattr(os, "fork", logged_fork)
        results = [metrics._INTS.unpack(r) for r in metrics._fork_map(nested, 6)]
        assert {workers for _, workers in results} == {1}
        assert log.read_text().split() == [str(caller)] * 2
        assert no_child_left()

    @pytest.mark.parametrize("policy", [
        ExactnessPolicy(),
        ExactnessPolicy(exact_threshold=10, sample_sources=17, seed=4),
    ], ids=["exact", "sampled"])
    @pytest.mark.parametrize("batch", [3, 7, 4096])
    def test_distance_pieces_with_any_worker_count(self, workers, monkeypatch, policy, batch):
        # Batches of even sizes, at most `batch` sources, and the double
        # sweep give the same summary and clustering on 1-3 processes.
        g = hub_clique_with_neighbours()
        comps = connected_components(g)
        monkeypatch.setattr(metrics, "_MSBFS_BATCH", batch)
        seen = []
        for processes in (1, 2, 3):
            workers(processes)
            seen.append(distance_summary(g, comps, policy, with_clustering=True))
        assert seen[0] == seen[1] == seen[2]
        report = general_metrics(g, comps)
        assert seen[0] == dataclasses.replace(summary_of(g, policy),
                                              avg_clustering=report.avg_clustering,
                                              transitivity=report.transitivity)
        assert no_child_left()

import io
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chaingraph import metrics
from chaingraph.baseline import GnmParams, gnm_random_graph
from chaingraph.graph import SimpleGraph, build_graph, project_simple
from chaingraph.metrics import (
    EXACT,
    LOWER_BOUND,
    SAMPLED,
    ExactnessPolicy,
    average_local_clustering,
    bfs_distances,
    connected_components,
    degree_distribution,
    distance_summary,
    general_metrics,
    largest_component,
    transitivity,
    write_degree_csv,
    write_degree_loglog_csv,
)

from conftest import addr, forest_blocks, make_block, star_blocks
from oracles import (
    all_pairs_average_and_diameter,
    brute_average_local_clustering,
    brute_transitivity,
    degree_sum,
    double_sweep_lower_bound,
    edge_list,
    flood_fill_components,
    frontier_distances,
    oracle_fixtures,
)


def simple(n, edges):
    return SimpleGraph.from_edges(n, edges)


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


@st.composite
def trees_with_chords(draw, max_nodes=40):
    """A random tree on 2..max_nodes nodes (each node hangs off an earlier
    one, so many are leaves) plus up to five extra edges."""
    n = draw(st.integers(2, max_nodes))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=5))
    return simple(n, edges)


def sum_and_max_from_sources(g, sources):
    return metrics._sum_and_max_from_sources(g, sources, metrics._fold_leaves(g))


def per_source_sum_and_max(g, sources):
    dists = [frontier_distances(g, s) for s in sources]
    return sum(map(sum, dists)), max(map(max, dists))


def graph_from_pairs(pairs):
    return build_graph([make_block(1, pairs)])


class TestDegreeDistribution:
    def test_single_edge(self):
        g = graph_from_pairs([(addr(1), addr(2))])
        assert degree_distribution(g) == {1: 2}

    def test_star_18_leaves(self):
        center = addr(0)
        g = graph_from_pairs([(center, addr(i + 1)) for i in range(18)])
        assert degree_distribution(g) == {18: 1, 1: 18}

    def test_weighted_sums_edge_weights(self):
        a, b, c = addr(1), addr(2), addr(3)
        g = graph_from_pairs([(a, b), (a, b), (a, c)])
        assert degree_distribution(g, weighted=True) == {3: 1, 2: 1, 1: 1}

    def test_loop_adds_one_unweighted_and_count_weighted(self):
        a, b = addr(1), addr(2)
        g = graph_from_pairs([(a, b), (a, a), (a, a)])
        assert degree_distribution(g) == {2: 1, 1: 1}
        assert degree_distribution(g, weighted=True) == {3: 1, 1: 1}

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=50))
    def test_handshake_identities(self, raw_pairs):
        pairs = [(addr(u), addr(v)) for u, v in raw_pairs]
        g = graph_from_pairs(pairs)
        unweighted = degree_distribution(g)
        assert degree_sum(unweighted) == 2 * g.m + len(g.loops)
        weighted = degree_distribution(g, weighted=True)
        total_weight = sum(g.edges.values())
        assert degree_sum(weighted) == 2 * total_weight + sum(g.loops.values())
        assert sum(unweighted.values()) == g.n == sum(weighted.values())


class TestComponents:
    def test_two_disjoint_edges(self):
        comps = connected_components(simple(4, [(0, 1), (2, 3)]))
        assert comps.num_components == 2
        assert comps.sizes == {0: (2, 1), 1: (2, 1)}

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
        assert sum(nodes for nodes, _ in comps.sizes.values()) == g.n
        assert sum(edges for _, edges in comps.sizes.values()) == g.m

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
        g = SimpleGraph.from_edges(n, edges, labels=[f"v{i}" for i in range(n)])
        nodes = data.draw(st.lists(node, unique=True, max_size=n)) if n else []
        remap = {old: new for new, old in enumerate(nodes)}
        expected = SimpleGraph.from_edges(
            len(nodes),
            [(remap[u], remap[v]) for u, v in edge_list(g) if u in remap and v in remap],
            labels=[g.labels[i] for i in nodes])
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
        adj_sets = [set(neigh) for neigh in g.adj]
        assert metrics._neighbour_links(g) == [
            sum(1 for a, b in combinations(g.adj[v], 2) if b in adj_sets[a])
            for v in range(g.n)]
        assert transitivity(g) == pytest.approx(brute_transitivity(g), abs=1e-12)
        assert average_local_clustering(g) == pytest.approx(
            brute_average_local_clustering(g), abs=1e-12)


class TestDistance:
    def test_single_edge(self):
        summary = distance_summary(simple(2, [(0, 1)]))
        assert summary.average_distance == 1.0
        assert summary.diameter == 1
        assert summary.l_method == EXACT

    def test_path_three_nodes(self):
        summary = distance_summary(path_graph(3))
        assert summary.average_distance == pytest.approx(4 / 3)
        assert summary.diameter == 2

    def test_star_19_nodes_closed_form(self):
        # 18 pairs at distance 1, C(18,2)=153 at distance 2
        summary = distance_summary(star_graph(18))
        assert summary.average_distance == pytest.approx(324 / 171)
        assert summary.diameter == 2

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            distance_summary(simple(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("k", [0, -1])
    def test_no_sample_sources_rejected(self, k):
        with pytest.raises(ValueError, match="sample_sources must be >= 1"):
            ExactnessPolicy(sample_sources=k)

    def test_sampled_mode_and_labels(self):
        g = gnm_random_graph(GnmParams(300, 600, seed=2))
        main = largest_component(g)
        policy = ExactnessPolicy(exact_threshold=10, sample_sources=40, seed=7)
        summary = distance_summary(main, policy)
        assert summary.l_method == SAMPLED
        assert summary.diameter_method == LOWER_BOUND
        assert summary.sample_sources == 40
        assert summary.seed == 7
        exact = distance_summary(main)
        assert summary.diameter <= exact.diameter
        assert summary.average_distance == pytest.approx(exact.average_distance, rel=0.25)

    def test_sampled_with_all_sources_equals_exact(self):
        g = largest_component(gnm_random_graph(GnmParams(60, 90, seed=3)))
        exact = distance_summary(g, ExactnessPolicy(exact_threshold=10**6))
        sampled = distance_summary(g, ExactnessPolicy(exact_threshold=1, sample_sources=g.n))
        assert sampled.average_distance == exact.average_distance

    def test_diameter_at_least_ceil_average(self):
        for seed in range(5):
            g = largest_component(gnm_random_graph(GnmParams(80, 120, seed=seed)))
            summary = distance_summary(g)
            assert summary.diameter >= math.ceil(summary.average_distance)

    def test_removing_edge_never_decreases_average(self):
        g = simple(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        base = distance_summary(g).average_distance
        without = simple(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert distance_summary(without).average_distance >= base

    def test_single_node(self):
        summary = distance_summary(simple(1, []))
        assert summary.average_distance == 0.0
        assert summary.diameter == 0


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
            summary = distance_summary(main)
            assert (summary.average_distance, summary.diameter) == \
                all_pairs_average_and_diameter(main)

    def test_sampled_matches_per_source_sum(self):
        main = largest_component(gnm_random_graph(GnmParams(300, 600, seed=2)))
        k = 40
        summary = distance_summary(
            main, ExactnessPolicy(exact_threshold=10, sample_sources=k, seed=7))
        sources = sorted(random.Random(7).sample(range(main.n), k))
        total = sum(sum(frontier_distances(main, s)) for s in sources)
        assert summary.l_method == SAMPLED
        assert summary.average_distance == total / (k * (main.n - 1))

    @pytest.mark.parametrize("policy", [
        ExactnessPolicy(),
        ExactnessPolicy(exact_threshold=1, sample_sources=5, seed=1),
    ])
    def test_disconnected_rejected(self, policy):
        g = simple(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8)])
        with pytest.raises(ValueError, match="connected"):
            distance_summary(g, policy)

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
        summary = distance_summary(g)
        assert summary.l_method == EXACT
        assert (summary.average_distance, summary.diameter) == \
            all_pairs_average_and_diameter(g)

    @settings(max_examples=150, deadline=None)
    @given(trees_with_chords())
    def test_exact_matches_oracle_on_trees_with_chords(self, g):
        summary = distance_summary(g)
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
        summary = distance_summary(g, policy)
        total, _ = per_source_sum_and_max(g, sources)
        assert summary.l_method == SAMPLED
        assert summary.average_distance == total / (k * (g.n - 1))

    @pytest.mark.parametrize("edges", [
        [(0, 1), (0, 2), (0, 3), (4, 5)],           # a star and an isolated edge
        [(0, 1), (0, 2), (0, 3)],                   # a star and an isolated vertex
        [(0, 1), (1, 2), (3, 4), (4, 5)],           # two paths, each with two leaves
    ], ids=["isolated-edge", "isolated-vertex", "two-paths"])
    def test_disconnected_leaf_heavy_rejected(self, edges):
        g = simple(6, edges)
        for policy in (ExactnessPolicy(),
                       ExactnessPolicy(exact_threshold=1, sample_sources=3, seed=0)):
            with pytest.raises(ValueError, match="connected"):
                distance_summary(g, policy)
        for s in range(g.n):
            with pytest.raises(ValueError, match="connected"):
                sum_and_max_from_sources(g, [s])


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

    @pytest.mark.parametrize("g", LEAF_HEAVY, ids=LEAF_HEAVY_IDS)
    def test_matches_two_bfs_oracle(self, g):
        fold = metrics._fold_leaves(g)
        assert metrics._double_sweep_lower_bound(fold) == double_sweep_lower_bound(g)
        for s in range(g.n):
            assert metrics._folded_distances(fold, s) == bfs_distances(g, s)

    def test_far_node_is_a_leaf(self):
        g = caterpillar([0, 0, 4])
        fold = metrics._fold_leaves(g)
        hub = fold[0]
        dist = bfs_distances(g, 0)
        # Node 0 is a leaf too, and the sweep turns round at another leaf.
        assert hub[0] >= 0 and hub[dist.index(max(dist))] >= 0
        assert metrics._double_sweep_lower_bound(fold) == 3

    @settings(max_examples=200, deadline=None)
    @given(trees_with_chords())
    def test_matches_two_bfs_oracle_on_trees_with_chords(self, g):
        fold = metrics._fold_leaves(g)
        assert metrics._double_sweep_lower_bound(fold) == double_sweep_lower_bound(g)
        for s in (0, g.n - 1, g.n // 2):
            assert metrics._folded_distances(fold, s) == bfs_distances(g, s)

    def test_sampled_diameter_uses_the_sweep(self):
        g = caterpillar([3, 0, 2, 4, 1])
        summary = distance_summary(g, ExactnessPolicy(exact_threshold=1, sample_sources=3))
        assert summary.diameter_method == LOWER_BOUND
        assert summary.diameter == double_sweep_lower_bound(g) == 6


def general_metrics_of(g):
    projected = project_simple(g)
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
        assert general_metrics_of(g).n == sum(degree_distribution(g).values())


class TestCsvWriters:
    def test_degree_csv_sorted(self):
        g = graph_from_pairs([(addr(0), addr(i + 1)) for i in range(3)])
        sink = io.StringIO()
        write_degree_csv(degree_distribution(g), sink)
        assert sink.getvalue() == "degree,count\n1,3\n3,1\n"

    def test_loglog_skips_zero_degree(self):
        sink = io.StringIO()
        hist = degree_distribution(graph_from_pairs([(addr(1), addr(2))]))
        hist[0] = 2  # degenerate bin must be dropped, log10(0) undefined
        write_degree_loglog_csv(hist, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "log10_degree,log10_count"
        assert len(lines) == 2
        assert lines[1].startswith("0.0,")

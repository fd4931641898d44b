"""Scale oracle: components, clustering, L and diameter against networkx on
leaf-heavy graphs of about 2k nodes, where the brute oracles are too slow.
Skipped when networkx is not installed (it is in the dev extra)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaingraph.metrics import (
    EXACT,
    _neighbour_links,
    average_local_clustering,
    connected_components,
    distance_summary,
    largest_component,
    transitivity,
)

from oracles import edge_list, set_from_edges

nx = pytest.importorskip("networkx")


@st.composite
def leaf_heavy_graphs(draw):
    """An account-network shape: a random core (a tree plus chords) and
    many accounts hanging off it, most of them leaves on a few hubs, some
    on pendant paths; dropped edges split off small components."""
    n = draw(st.integers(1800, 2200))
    core = draw(st.integers(10, 300))
    chords = draw(st.integers(0, 3 * core))
    path_share = draw(st.floats(0.0, 0.3))
    drop = draw(st.sampled_from([0.0, 0.0, 0.002, 0.01]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(v, rng.randrange(v)) for v in range(1, core)]
    edges += [(rng.randrange(core), rng.randrange(core)) for _ in range(chords)]
    for v in range(core, n):
        if rng.random() < path_share:
            anchor = rng.randrange(v)
        else:
            # The smaller of two draws favours low indices: a few hubs.
            anchor = min(rng.randrange(core), rng.randrange(core))
        edges.append((v, anchor))
    edges = [e for e in edges if rng.random() >= drop]
    return set_from_edges(n, edges)


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(edge_list(g))
    return G


# About 2 s per example, nearly all of it networkx's all-pairs BFS.
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(leaf_heavy_graphs())
def test_matches_networkx(g):
    G = to_networkx(g)

    comps = connected_components(g)
    expected = {frozenset(c) for c in nx.connected_components(G)}
    got: dict[int, set[int]] = {}
    for v, cid in enumerate(comps.assignment):
        got.setdefault(cid, set()).add(v)
    assert {frozenset(c) for c in got.values()} == expected
    # Largest component: ties go to the one holding the smallest node.
    biggest = max(map(len, expected))
    main_nodes = min((c for c in expected if len(c) == biggest), key=min)
    assert comps.members(comps.largest_id) == sorted(main_nodes)
    main = largest_component(g, comps)

    triangles = nx.triangles(G)
    assert _neighbour_links(g) == [triangles[v] for v in range(g.n)]
    assert transitivity(g) == pytest.approx(nx.transitivity(G), abs=1e-12)
    assert average_local_clustering(g) == pytest.approx(nx.average_clustering(G), abs=1e-12)

    # A copy: networkx's shortest paths run several times slower on a view.
    H = G.subgraph(main_nodes).copy()
    assert (main.n, main.m) == (H.number_of_nodes(), H.number_of_edges())
    summary = distance_summary(g, comps)
    assert summary.l_method == EXACT
    assert summary.average_distance == pytest.approx(
        nx.average_shortest_path_length(H), rel=1e-12)
    assert summary.diameter == nx.diameter(H, usebounds=True)

"""Network metrics: degrees, components, clustering, distances, diameter.

Everything runs on the undirected projection, except the degree
histograms: they are read from the TransactionGraph, whose edge weights
and loop counts give the weighted degrees. Traversals break ties
by ascending node index so repeated runs produce identical output.
Distances come from a bit-parallel multi-source BFS over batches of
sources. The BFS folds leaves: a degree-1 node lies on no shortest path
between two other nodes, so it is never visited. A leaf is counted one
level after its neighbour is reached, and a leaf source starts at its
neighbour one level in. Account networks are mostly such leaves. The
fold is computed once per distance_summary and serves both the
multi-source BFS and the double sweep behind the sampled diameter.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional, TextIO

from chaingraph.graph import SimpleGraph, TransactionGraph

EXACT = "exact"
SAMPLED = "sampled"
LOWER_BOUND = "lower_bound"

# Sources per multi-source BFS batch. Each node that is not a leaf holds up
# to three bitsets of this many bits (seen, frontier, next level), so a
# batch needs about 3 * n_core * _MSBFS_BATCH / 8 bytes.
_MSBFS_BATCH = 4096


@dataclass(frozen=True)
class ExactnessPolicy:
    """When to fall back from all-pairs BFS to seeded source sampling."""

    exact_threshold: int = 50_000
    sample_sources: int = 1_000
    seed: int = 0

    def __post_init__(self):
        if self.sample_sources < 1:
            raise ValueError(f"sample_sources must be >= 1, got {self.sample_sources}")


@dataclass
class ComponentSet:
    assignment: list[int]
    sizes: dict[int, tuple[int, int]]
    largest_id: int

    @property
    def num_components(self) -> int:
        return len(self.sizes)

    def members(self, component_id: int) -> list[int]:
        return [i for i, c in enumerate(self.assignment) if c == component_id]


@dataclass
class MetricsReport:
    n: int
    m: int
    avg_clustering: float
    transitivity: float
    num_components: int
    largest_component_nodes: int
    largest_component_edges: int


@dataclass
class DistanceSummary:
    average_distance: float
    diameter: int
    l_method: str
    diameter_method: str
    sample_sources: Optional[int] = None
    seed: Optional[int] = None


def degree_distribution(g: TransactionGraph, weighted: bool = False) -> dict[int, int]:
    """Histogram of degrees, degree -> node count. Unweighted: distinct
    neighbors, +1 if the node has any loop. Weighted: sum of incident edge
    weights plus the node's loop count."""
    degrees = [0] * g.n  # by node index
    for (i, j), weight in g.edges.items():
        inc = weight if weighted else 1
        degrees[i] += inc
        degrees[j] += inc
    for i, count in g.loops.items():
        degrees[i] += count if weighted else 1
    return Counter(degrees)


def connected_components(g: SimpleGraph) -> ComponentSet:
    """BFS component labeling; component ids follow ascending node index,
    the largest component breaks ties by smallest id."""
    assignment = [-1] * g.n
    sizes: dict[int, tuple[int, int]] = {}
    next_id = 0
    for start in range(g.n):
        if assignment[start] != -1:
            continue
        assignment[start] = next_id
        queue = deque([start])
        node_count = 0
        degree_sum = 0
        while queue:
            v = queue.popleft()
            node_count += 1
            degree_sum += len(g.adj[v])
            for u in g.adj[v]:
                if assignment[u] == -1:
                    assignment[u] = next_id
                    queue.append(u)
        sizes[next_id] = (node_count, degree_sum // 2)
        next_id += 1
    largest_id = 0
    best = -1
    for cid in sorted(sizes):
        if sizes[cid][0] > best:
            best = sizes[cid][0]
            largest_id = cid
    return ComponentSet(assignment=assignment, sizes=sizes, largest_id=largest_id)


def largest_component(g: SimpleGraph,
                      components: Optional[ComponentSet] = None) -> SimpleGraph:
    """Induced subgraph on the largest component (nodes in ascending
    original index order). Empty graph maps to itself."""
    if g.n == 0:
        return g
    if components is None:
        components = connected_components(g)
    members = components.members(components.largest_id)
    return g.subgraph(members)


def _neighbour_links(g: SimpleGraph) -> list[int]:
    """Edges among each node's neighbours, i.e. triangles through it.

    Edge iterator (Schank and Wagner, WEA 2005): each edge u < v adds its
    common-neighbour count to both endpoints, which counts every edge
    among a node's neighbours twice. A leaf closes no triangle, so leaves
    get no set and edges with a leaf endpoint are skipped.
    """
    adj = g.adj
    adj_sets = [set(neigh) if len(neigh) >= 2 else None for neigh in adj]
    counts = [0] * g.n
    for u, set_u in enumerate(adj_sets):
        if set_u is None:
            continue
        for v in adj[u]:
            if u < v:
                set_v = adj_sets[v]
                if set_v is not None:
                    common = len(set_u & set_v)
                    counts[u] += common
                    counts[v] += common
    return [c // 2 for c in counts]


def _transitivity(g: SimpleGraph, links: list[int]) -> float:
    triplets = sum(len(neigh) * (len(neigh) - 1) // 2 for neigh in g.adj)
    if triplets == 0:
        return 0.0
    # Each triangle is counted once at each of its three corners.
    triangles = sum(links) // 3
    return 3.0 * triangles / triplets


# Called only by tests, and by name by bench/tracing.py, which traces it.
def transitivity(g: SimpleGraph) -> float:
    """Global clustering: 3 * triangles / connected triplets; 0 when the
    graph has no connected triplet."""
    return _transitivity(g, _neighbour_links(g))


def _average_local_clustering(g: SimpleGraph, links: list[int]) -> float:
    if g.n == 0:
        return 0.0
    values = [count / (d * (d - 1) / 2) if d >= 2 else 0.0
              for count, d in zip(links, map(len, g.adj))]
    return sum(values) / g.n


def average_local_clustering(g: SimpleGraph) -> float:
    """Mean over all nodes of the fraction of neighbor pairs that are
    linked; a node of degree < 2 counts as zero."""
    return _average_local_clustering(g, _neighbour_links(g))


# Called only by tests, and by name by bench/tracing.py, which counts its calls.
def bfs_distances(g: SimpleGraph, source: int) -> list[int]:
    """Hop distances from source; -1 for unreachable nodes."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u in g.adj[v]:
            if dist[u] == -1:
                dist[u] = dv + 1
                queue.append(u)
    return dist


_Fold = tuple[list[int], list[int], list[list[int]]]


def _fold_leaves(g: SimpleGraph) -> _Fold:
    """(hub, leaves, core_adj) for leaf-folded BFS.

    A leaf is a degree-1 node whose neighbour, its hub, has degree >= 2;
    both ends of an isolated edge stay in the core. hub[v] is -1 for a
    core node, leaves[p] counts p's leaves, and core_adj[p] is p's
    neighbour list without its leaves (adj[p] itself when p has none).
    """
    adj = g.adj
    hub = [-1] * g.n
    leaves = [0] * g.n
    for v, neigh in enumerate(adj):
        if len(neigh) == 1:
            p = neigh[0]
            if len(adj[p]) >= 2:
                hub[v] = p
                leaves[p] += 1
    core_adj = [[u for u in neigh if hub[u] < 0] if count else neigh
                for neigh, count in zip(adj, leaves)]
    return hub, leaves, core_adj


def _sum_and_max_from_sources(g: SimpleGraph, sources: list[int],
                              fold: _Fold) -> tuple[int, int]:
    """Total distance and eccentricity max over BFS runs from `sources`.

    Bit-parallel multi-source BFS (Then et al., PVLDB 2014): bit i of
    seen[v] means batch source i has reached v, and one level ORs each
    frontier node's bits into its neighbours. The BFS runs over core
    nodes only (``fold`` is _fold_leaves(g)): a core node that gains
    bits `new` at level l puts its leaves at level l + 1 for each of
    those sources, and a leaf source starts at its hub at level 1. Each
    node is still counted once per source that reaches it, so the reach
    count is an exact connectivity check: raises ValueError unless every
    source reaches every node.
    """
    hub, leaves, core_adj = fold
    total = 0
    longest = 0
    reached = 0
    for start in range(0, len(sources), _MSBFS_BATCH):
        seen = [0] * g.n
        frontier: dict[int, int] = {}
        # Level-1 bits of leaf sources, keyed by hub.
        seeds: dict[int, int] = {}
        leaf_sources = 0
        for i, s in enumerate(sources[start:start + _MSBFS_BATCH]):
            p = hub[s]
            if p < 0:
                seen[s] |= 1 << i
                frontier[s] = seen[s]
            else:
                seeds[p] = seeds.get(p, 0) | 1 << i
                leaf_sources += 1
        # Leaves reached at the next level.
        next_leaves = sum(leaves[v] * bits.bit_count() for v, bits in frontier.items())
        level = 0
        while frontier or seeds or next_leaves:
            level += 1
            touched, seeds = seeds, {}
            for v, bits in frontier.items():
                for u in core_adj[v]:
                    touched[u] = touched.get(u, 0) | bits
            frontier = {}
            added = next_leaves
            # At level 2 each leaf source is among its hub's leaves, but a
            # source does not reach itself.
            next_leaves = -leaf_sources if level == 1 else 0
            for u, bits in touched.items():
                new = bits & ~seen[u]
                if new:
                    seen[u] |= new
                    frontier[u] = new
                    count = new.bit_count()
                    added += count
                    next_leaves += leaves[u] * count
            if added:
                total += level * added
                reached += added
                longest = max(longest, level)
    if reached != len(sources) * (g.n - 1):
        raise ValueError("distance_summary requires a connected graph")
    return total, longest


def _folded_distances(fold: _Fold, source: int) -> list[int]:
    """bfs_distances(g, source) on a connected graph, from a BFS over
    core nodes only: a leaf is one hop past its hub, and a leaf source
    starts at its hub at distance 1."""
    hub, _, core_adj = fold
    dist = [-1] * len(hub)
    start = source if hub[source] < 0 else hub[source]
    dist[start] = 0 if start == source else 1
    queue = deque([start])
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        for u in core_adj[v]:
            if dist[u] == -1:
                dist[u] = dv
                queue.append(u)
    dist = [d if p < 0 else dist[p] + 1 for p, d in zip(hub, dist)]
    dist[source] = 0
    return dist


def _double_sweep_lower_bound(fold: _Fold) -> int:
    # BFS from node 0 to its farthest node (the smallest index among the
    # farthest), then BFS again from there; the second eccentricity
    # lower-bounds the diameter.
    dist = _folded_distances(fold, 0)
    return max(_folded_distances(fold, dist.index(max(dist))))


def distance_summary(g: SimpleGraph,
                     policy: ExactnessPolicy = ExactnessPolicy()) -> DistanceSummary:
    """Average shortest-path length and diameter of a connected graph.

    Below policy.exact_threshold both come from all-pairs BFS. Above it,
    L is averaged over policy.sample_sources seeded sources and the
    diameter is a double-sweep lower bound; both are labeled as such.
    """
    if g.n == 0:
        raise ValueError("distance_summary needs a non-empty graph")
    if g.n == 1:
        return DistanceSummary(0.0, 0, EXACT, EXACT)

    fold = _fold_leaves(g)
    if g.n <= policy.exact_threshold:
        total, longest = _sum_and_max_from_sources(g, list(range(g.n)), fold)
        return DistanceSummary(total / (g.n * (g.n - 1)), longest, EXACT, EXACT)

    rng = random.Random(policy.seed)
    k = min(policy.sample_sources, g.n)
    sources = sorted(rng.sample(range(g.n), k))
    total, _ = _sum_and_max_from_sources(g, sources, fold)
    avg = total / (k * (g.n - 1))
    return DistanceSummary(avg, _double_sweep_lower_bound(fold), SAMPLED, LOWER_BOUND,
                           sample_sources=k, seed=policy.seed)


def general_metrics(simple: SimpleGraph, components: ComponentSet) -> MetricsReport:
    """The one-row summary: counts, both clustering variants, components.
    `components` is connected_components(simple); the projection has the
    n and m of the TransactionGraph it came from."""
    if components.num_components == 0:
        largest_nodes, largest_edges = 0, 0
    else:
        largest_nodes, largest_edges = components.sizes[components.largest_id]
    links = _neighbour_links(simple)
    return MetricsReport(
        n=simple.n,
        m=simple.m,
        avg_clustering=_average_local_clustering(simple, links),
        transitivity=_transitivity(simple, links),
        num_components=components.num_components,
        largest_component_nodes=largest_nodes,
        largest_component_edges=largest_edges,
    )


def write_degree_csv(hist: dict[int, int], sink: TextIO) -> None:
    sink.write("degree,count\n")
    for deg in sorted(hist):
        sink.write(f"{deg},{hist[deg]}\n")


def write_degree_loglog_csv(hist: dict[int, int], sink: TextIO) -> None:
    """Plot-ready log-log points; zero-degree and zero-count bins have no
    logarithm and are skipped."""
    sink.write("log10_degree,log10_count\n")
    for deg in sorted(hist):
        count = hist[deg]
        if deg <= 0 or count <= 0:
            continue
        sink.write(f"{math.log10(deg)!r},{math.log10(count)!r}\n")

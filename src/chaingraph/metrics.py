"""Network metrics: degrees, components, clustering, distances, diameter.

Everything runs on the undirected projection, except the degree
histograms: they are read from the TransactionGraph, whose edge weights
and loop counts give the weighted degrees. Traversals break ties by
ascending node index so repeated runs produce identical output.
Distances are those of the largest component, in place: a component is
closed under adjacency, so a BFS from its nodes needs no copy of it.
They come from a bit-parallel multi-source BFS over batches of sources.
The BFS folds leaves: a degree-1 node lies on no shortest path between
two other nodes, so it is never visited. A leaf is counted one level
after its neighbour is reached, and a leaf source starts at its
neighbour one level in. Account networks are mostly such leaves. The
fold is computed once per process that runs a multi-source BFS batch,
and serves those batches alone: the double sweep behind the sampled
diameter is two plain BFS, bfs_distances, and needs no fold.

The independent pieces of a stage (MS-BFS batches, the double sweep, the
clustering pass, G(n,m) trials) run side by side through _fork_map, in
processes forked from the caller, and are combined in task order from
exact ints and doubles, so the results do not depend on the split. A
command's weighted outputs run beside its metrics through _beside. Both
fork through _forked, whose child never forks again and exits at once.
"""

from __future__ import annotations

import os
import random
import struct
import threading
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, Optional, Sequence

from chaingraph.graph import SimpleGraph, TransactionGraph

EXACT = "exact"
SAMPLED = "sampled"
LOWER_BOUND = "lower_bound"

# Sources per multi-source BFS batch, at most. A batch holds three lists of
# g.n entries (seen, new, gains); in them each node that is not a leaf holds
# up to three bitsets of this many bits, about 3 * n_core * _MSBFS_BATCH / 8
# bytes.
_MSBFS_BATCH = 4096

# A task's result as _fork_map passes it on: the task's index, then 16 bytes
# that the task packed, two exact ints (_INTS) or two doubles (_DOUBLES).
# A record is far below PIPE_BUF, so each write reaches the pipe whole, and
# a read of one record's size returns one whole record.
_INTS = struct.Struct("=qq")
_DOUBLES = struct.Struct("=dd")
_RESULT = struct.Struct("=q16s")

# A queue record names the tasks start..stop-1. The whole queue is written
# into an empty pipe at once, in at most POSIX's least PIPE_BUF bytes, so
# the write is whole and never blocks.
_RANGE = struct.Struct("=II")
_PIPE_BUF = 512

# POSIX's SIGKILL; importing the signal module would add about 1.5 ms to
# every command's start-up.
_SIGKILL = 9

# True in a child of _forked, and in a map's caller while its workers run:
# a map or a _beside block started there runs in process, so a child never
# forks and no map forks inside another.
_in_map = False


@dataclass(frozen=True)
class ExactnessPolicy:
    """When to fall back from all-pairs BFS to seeded source sampling."""

    exact_threshold: int = 50_000
    sample_sources: int = 1_000
    seed: int = 0

    def __post_init__(self):
        # A negative threshold would sample as 0 does, under another config hash.
        if self.exact_threshold < 0:
            raise ValueError(f"exact_threshold must be >= 0, got {self.exact_threshold}")
        if self.sample_sources < 1:
            raise ValueError(f"sample_sources must be >= 1, got {self.sample_sources}")
        # random.Random(-s) is Random(s): a negative seed would repeat a positive one.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ComponentSet:
    assignment: list[int]
    sizes: list[tuple[int, int]]  # (nodes, edges) by component id
    largest_id: int

    @property
    def num_components(self) -> int:
        return len(self.sizes)

    @property
    def largest_size(self) -> tuple[int, int]:
        """(nodes, edges) of the largest component; (0, 0) when there is none."""
        return self.sizes[self.largest_id] if self.sizes else (0, 0)

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
    # Set only with_clustering: general_metrics's two clustering values.
    avg_clustering: Optional[float] = None
    transitivity: Optional[float] = None


def degree_distribution(g: TransactionGraph) -> tuple[dict[int, int], dict[int, int]]:
    """Degree and weighted-degree histograms, degree -> node count, from
    one pass over the edges. Degree: distinct neighbors, +1 if the node
    has any loop. Weighted: sum of incident edge weights plus the node's
    loop count."""
    degrees = [0] * g.n  # by node index
    weighted = [0] * g.n
    for (i, j), weight in g.edges.items():
        degrees[i] += 1
        degrees[j] += 1
        weighted[i] += weight
        weighted[j] += weight
    for i, count in g.loops.items():
        degrees[i] += 1
        weighted[i] += count
    return Counter(degrees), Counter(weighted)


def connected_components(g: SimpleGraph) -> ComponentSet:
    """BFS component labeling; component ids follow ascending node index,
    the largest component breaks ties by smallest id."""
    assignment = [-1] * g.n
    sizes: list[tuple[int, int]] = []
    for start in range(g.n):
        if assignment[start] != -1:
            continue
        cid = len(sizes)
        assignment[start] = cid
        queue = deque([start])
        node_count = 0
        degree_sum = 0
        while queue:
            v = queue.popleft()
            node_count += 1
            degree_sum += len(g.adj[v])
            for u in g.adj[v]:
                if assignment[u] == -1:
                    assignment[u] = cid
                    queue.append(u)
        sizes.append((node_count, degree_sum // 2))
    # max keeps the first of equal sizes: the smallest id.
    largest_id = max(range(len(sizes)), key=lambda c: sizes[c][0], default=0)
    return ComponentSet(assignment=assignment, sizes=sizes, largest_id=largest_id)


# Called only by tests, and by name by bench/tracing.py, which traces it.
def largest_component(g: SimpleGraph) -> SimpleGraph:
    """Induced subgraph on the largest component (nodes in ascending
    original index order). An empty graph gives an empty graph."""
    components = connected_components(g)
    return g.subgraph(components.members(components.largest_id))


def _neighbour_links(g: SimpleGraph) -> list[int]:
    """Edges among each node's neighbours, i.e. triangles through it.

    Forward listing (Schank and Wagner, WEA 2005): a leaf closes no
    triangle, so only nodes of degree >= 2 are ranked, by (degree,
    index), and each gets the set of its higher-ranked neighbours, its
    out-set. A triangle u, v, w in rank order is found once, at u, as w
    in out(u) & out(v); it adds 1 to each corner. Orienting edges from
    low to high degree keeps a hub's out-set small, so hubs that share
    many neighbours never intersect their long neighbour lists, which
    suits heavy-tailed graphs (Latapy, TCS 2008). Each edge between
    non-leaves is held in one set.
    """
    adj = g.adj
    rank = [-1] * g.n
    # sorted is stable, so equal degrees keep ascending index order.
    core = sorted((v for v, neigh in enumerate(adj) if len(neigh) >= 2),
                  key=lambda v: len(adj[v]))
    for r, v in enumerate(core):
        rank[v] = r
    out: list[Optional[set[int]]] = [None] * g.n
    for u in core:
        ru = rank[u]
        out[u] = {v for v in adj[u] if rank[v] > ru}
    counts = [0] * g.n
    for u in core:
        out_u = out[u]
        for v in out_u:
            out_v = out[v]
            if out_u.isdisjoint(out_v):
                continue
            common = out_u & out_v
            counts[u] += len(common)
            counts[v] += len(common)
            for w in common:
                counts[w] += 1
    return counts


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


def _average_local_clustering(g: SimpleGraph, links: list[int], nodes: Sequence[int]) -> float:
    if not nodes:
        return 0.0
    adj = g.adj
    # Only nodes on a triangle are summed, in the order of `nodes`: any
    # other node would add 0.0, which leaves a float sum as it is.
    values = [links[v] / (len(adj[v]) * (len(adj[v]) - 1) / 2)
              for v in compress(nodes, map(links.__getitem__, nodes))]
    return sum(values) / len(nodes)


def average_local_clustering(g: SimpleGraph) -> float:
    """Mean over all nodes of the fraction of neighbor pairs that are
    linked; a node of degree < 2 counts as zero."""
    return _average_local_clustering(g, _neighbour_links(g), range(g.n))


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(tasks: int) -> int:
    """How many processes may share `tasks` independent tasks: min(tasks,
    usable CPUs), but 1 where os.fork is missing, while another thread is
    alive (a fork copies only the calling thread), and where _in_map is set."""
    if tasks < 2 or _in_map or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(tasks, _usable_cpus())


def _queue(count: int) -> bytes:
    """Every task index of a map, as at most _PIPE_BUF bytes of ranges:
    one task per range up to _PIPE_BUF // _RANGE.size tasks."""
    step = -(-count // (_PIPE_BUF // _RANGE.size))
    return b"".join(_RANGE.pack(i, min(i + step, count)) for i in range(0, count, step))


def _forked(body: Callable[[], None]) -> int:
    """The pid of a child forked to set _in_map and run body(), which then
    exits at once, 0 if body returned and 1 if it raised: it never returns
    into the caller's stack, nor runs atexit handlers or flushes stdio.
    Raises OSError if no process can be made."""
    global _in_map
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _in_map = True
            body()
            code = 0
        finally:
            os._exit(code)
    return pid


def _fork_map(task: Callable[[int], bytes], count: int) -> list[bytes]:
    """[task(i) for i in range(count)], each result 16 packed bytes, spread
    over W = _workers(count) processes: this one and W - 1 workers forked
    from it. Before the first fork every task index goes into one queue
    pipe; this process and the workers then pull ranges of indices from it
    until it is empty, so whoever is free takes the next task, and a worker
    that gets no CPU holds one range at most. A worker writes a _RESULT per
    task to one shared result pipe. This process, its queue empty, reads that
    pipe to its end, which comes when every worker has exited or died, and
    then computes, in task order, each task that no worker reported. So a
    live worker is waited for, never raced, and no task is computed twice;
    a worker that dies or fails, or a pipe or fork that fails, costs time
    only, and a task's exception is raised here. Every worker is killed and
    reaped before this returns or raises."""
    global _in_map
    results: list = [None] * count
    workers = _workers(count)
    fds: list[int] = []
    pids: list[int] = []
    try:
        if workers > 1:
            # With no pipe to spare, every task stays here.
            try:
                queue, tail = os.pipe()
                fds += (queue, tail)
                done, sink = os.pipe()
                fds += (done, sink)
                os.write(tail, _queue(count))
            except OSError:
                workers = 1
        if workers > 1:
            # Closed before the first fork, so the queue ends once drained;
            # the result pipe ends when the last worker does.
            os.close(fds.pop(1))
            _in_map = True

            def work() -> None:
                while chunk := os.read(queue, _RANGE.size):
                    for i in range(*_RANGE.unpack(chunk)):
                        os.write(sink, _RESULT.pack(i, task(i)))

            for _ in range(1, workers):
                try:
                    pids.append(_forked(work))
                except OSError:
                    break
            os.close(fds.pop())
            while chunk := os.read(queue, _RANGE.size):
                for i in range(*_RANGE.unpack(chunk)):
                    results[i] = task(i)
            while record := os.read(done, _RESULT.size):
                i, result = _RESULT.unpack(record)
                results[i] = result
        for i in range(count):
            if results[i] is None:
                results[i] = task(i)
    finally:
        if workers > 1:
            _in_map = False
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    return results


@contextmanager
def _beside(run: Optional[Callable[[], None]]) -> Iterator[None]:
    """A with block beside which run() runs in a child of _forked, where
    _workers(2) gives two processes and a pipe and a process can be made;
    else run() runs here, on entry. run=None forks nothing. On exit the
    child's pipe is read to its end and the child is reaped. If the block
    raised nothing, a failed child then raises an OSError: its exception's
    text, or else its exit status or the signal that killed it. If the
    block raised, that is raised, not the child's failure: on Ctrl-C the
    child gets the SIGINT too. The block holds run, so a caller clears
    what its closure holds, as with `del g`."""
    pid = -1
    if run is not None and _workers(2) > 1:
        try:
            read_fd, write_fd = os.pipe()
        except OSError:
            pass
        else:
            def report() -> None:
                try:
                    run()
                except Exception as exc:
                    os.write(write_fd, str(exc).encode("utf-8", "replace"))
                    raise

            try:
                pid = _forked(report)
            except OSError:
                os.close(read_fd)
            os.close(write_fd)
    if pid < 0:
        if run is not None:
            run()
        yield
        return
    try:
        yield
    finally:
        try:
            with open(read_fd, "rb") as pipe:
                why = pipe.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code > 0:
        raise OSError(why.decode("utf-8", "replace")
                      or f"graph outputs: the writer exited with status {code}")
    if code < 0:
        raise OSError(f"graph outputs: the writer was killed by signal {-code}")


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


def _sum_and_max_from_sources(g: SimpleGraph, sources: list[int], n: int,
                              fold: _Fold) -> tuple[int, int]:
    """Total distance and eccentricity max over BFS runs from `sources`,
    one batch of at most _MSBFS_BATCH.

    Bit-parallel multi-source BFS (Then et al., PVLDB 2014): bit i of
    seen[v] means source i has reached v, and one level ORs the
    bits each frontier node v gained, new[v], into gains[u] of its
    neighbours. The BFS runs over core nodes only (``fold`` is
    _fold_leaves(g)): a core node that gains bits at level l puts its
    leaves at level l + 1 for each of those sources, and a leaf source
    starts in gains at its hub, reached at level 1. Each node is still
    counted once per source that reaches it, so the reach count checks
    the component: raises ValueError unless every source reaches exactly
    n - 1 other nodes, n being its component's size.
    """
    hub, leaves, core_adj = fold
    core = [v for v, p in enumerate(hub) if p < 0]
    # new[v] is cleared as v is pushed, and gains[u] as u is settled, so no
    # spent bitset stays alive.
    seen, new, gains = [0] * g.n, [0] * g.n, [0] * g.n
    total = longest = reached = 0
    frontier = []
    leaf_sources = 0
    for i, s in enumerate(sources):
        p = hub[s]
        if p < 0:
            seen[s] = new[s] = 1 << i
            frontier.append(s)
        else:
            gains[p] |= 1 << i
            leaf_sources += 1
    # Leaves reached at the next level.
    next_leaves = sum(leaves[v] * new[v].bit_count() for v in frontier if leaves[v])
    level = 0
    while frontier or leaf_sources or next_leaves:
        level += 1
        for v in frontier:
            bits = new[v]
            new[v] = 0
            for u in core_adj[v]:
                gains[u] |= bits
        frontier = []
        for u in compress(core, map(gains.__getitem__, core)):
            # gains | old, unlike gains & ~old, builds no negative int.
            old = seen[u]
            grown = gains[u] | old
            gains[u] = 0
            if grown != old:
                seen[u] = grown
                new[u] = grown ^ old
                frontier.append(u)
        added = next_leaves + sum(map(int.bit_count, map(new.__getitem__, frontier)))
        # At level 2 each leaf source is among its hub's leaves, but a
        # source does not reach itself.
        next_leaves = sum(leaves[u] * new[u].bit_count() for u in frontier
                          if leaves[u]) - leaf_sources
        leaf_sources = 0
        if added:
            total += level * added
            reached += added
            longest = max(longest, level)
    if reached != len(sources) * (n - 1):
        raise ValueError("distance_summary: components are not connected_components(g)")
    return total, longest


def _double_sweep_lower_bound(g: SimpleGraph, start: int) -> int:
    # BFS from start to its farthest node (the smallest index among the
    # farthest), then BFS again from there; the second eccentricity
    # lower-bounds the diameter of start's component.
    dist = bfs_distances(g, start)
    return max(bfs_distances(g, dist.index(max(dist))))


def _clustering(g: SimpleGraph) -> tuple[float, float]:
    """Mean local clustering over all nodes, and transitivity, from one
    triangle count."""
    links = _neighbour_links(g)
    return _average_local_clustering(g, links, range(g.n)), _transitivity(g, links)


def distance_summary(g: SimpleGraph, components: ComponentSet,
                     policy: ExactnessPolicy = ExactnessPolicy(),
                     with_clustering: bool = False) -> DistanceSummary:
    """Average shortest-path length and diameter of the largest component
    of g, in place; `components` is connected_components(g). Its nodes keep
    their ascending order, so the result is that on largest_component(g).
    A component of one node, or an empty graph's, has no pair: both are 0.

    Below policy.exact_threshold nodes, both come from all-pairs BFS.
    Above it, L is averaged over policy.sample_sources seeded sources and
    the diameter is a double-sweep lower bound; both are labeled as such.

    The sources are cut into the fewest batches of at most _MSBFS_BATCH,
    of even sizes; each batch, and the double sweep, is one task of a
    _fork_map; only a batch folds the leaves. with_clustering, the mean
    local clustering and the transitivity of g, as general_metrics gives
    them, are one more task of the same map, its first, and fill the
    summary's fields of those names; the process that runs it holds no
    leaf fold while it does.
    """
    sources = components.members(components.largest_id)
    n = len(sources)
    start = sources[0] if sources else -1
    sampled = n > max(1, policy.exact_threshold)
    if sampled:
        k = min(policy.sample_sources, n)
        rng = random.Random(policy.seed)
        sources = [sources[i] for i in sorted(rng.sample(range(n), k))]
    elif n <= 1:
        sources = []
    batches = -(-len(sources) // _MSBFS_BATCH)
    first = int(with_clustering)
    folds: list[_Fold] = []

    def task(i: int) -> bytes:
        if i < first:
            return _DOUBLES.pack(*_clustering(g))
        b = i - first
        if b == batches:
            return _INTS.pack(0, _double_sweep_lower_bound(g, start))
        # Each process folds the graph once, at its first batch: after the
        # clustering pass, which it then no longer holds.
        if not folds:
            folds.append(_fold_leaves(g))
        batch = sources[len(sources) * b // batches:len(sources) * (b + 1) // batches]
        return _INTS.pack(*_sum_and_max_from_sources(g, batch, n, folds[0]))

    parts = _fork_map(task, first + batches + sampled)
    pieces = [_INTS.unpack(part) for part in parts[first:]]
    total = sum(t for t, _ in pieces[:batches])
    if n <= 1:
        summary = DistanceSummary(0.0, 0, EXACT, EXACT)
    elif not sampled:
        summary = DistanceSummary(total / (n * (n - 1)), max(d for _, d in pieces),
                                  EXACT, EXACT)
    else:
        summary = DistanceSummary(total / (k * (n - 1)), pieces[-1][1], SAMPLED, LOWER_BOUND,
                                  sample_sources=k, seed=policy.seed)
    if with_clustering:
        summary.avg_clustering, summary.transitivity = _DOUBLES.unpack(parts[0])
    return summary


def general_metrics(simple: SimpleGraph, components: ComponentSet) -> MetricsReport:
    """The one-row summary: counts, both clustering variants, components.
    `components` is connected_components(simple); the projection has the
    n and m of the TransactionGraph it came from."""
    largest_nodes, largest_edges = components.largest_size
    avg_clustering, transitivity = _clustering(simple)
    return MetricsReport(
        n=simple.n,
        m=simple.m,
        avg_clustering=avg_clustering,
        transitivity=transitivity,
        num_components=components.num_components,
        largest_component_nodes=largest_nodes,
        largest_component_edges=largest_edges,
    )


"""Brute-force reference implementations used only to check the fast paths,
the Pajek reader that checks export_pajek, and small graph and RPC helpers
that only the tests need.

The references deliberately avoid the library's algorithms: components
via flood-fill over an edge set, clustering via exhaustive triple/pair
scans, distances via a level-by-level frontier walk.
"""

import random
import re
import struct
from itertools import combinations

from chaingraph.baseline import GnmParams
from chaingraph.graph import TransactionGraph
from chaingraph.ingest import parse_quantity


def chain_head(endpoint):
    """Current chain head height via eth_blockNumber."""
    return parse_quantity(endpoint.call("eth_blockNumber", []), "eth_blockNumber")


def encode_v2(block):
    """A format-2 cache entry body, one f-string per transaction: the
    writer of the v2 entries that the migration tests load."""
    lines = [f"{block.number} {block.hash} {block.timestamp} {block.miner}"]
    lines += [
        f"{tx.tx_hash} {tx.sender} {'-' if tx.recipient is None else tx.recipient} {tx.value:x}"
        for tx in block.transactions
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def record_encode(block):
    """A format-3 cache entry body built one field at a time from the
    format's description: the byte-identity reference for ingest._encode."""
    txs = block.transactions
    out = struct.pack(">QQI", block.number, block.timestamp, len(txs))
    out += bytes.fromhex(block.hash[2:]) + bytes.fromhex(block.miner[2:])
    for tx in txs:
        out += bytes.fromhex(tx.tx_hash[2:])
    for tx in txs:
        out += bytes.fromhex(tx.sender[2:])
    for tx in txs:
        out += bytes(20) if tx.recipient is None else bytes.fromhex(tx.recipient[2:])
    creations = [i for i, tx in enumerate(txs) if tx.recipient is None]
    out += struct.pack(">I", len(creations))
    for i in creations:
        out += struct.pack(">I", i)
    return out + " ".join(format(tx.value, "x") for tx in txs).encode("ascii")


def add_node(g, label):
    """A TransactionGraph node's index, appending the label if it is new."""
    if label not in g.labels:
        g.labels.append(label)
    return g.labels.index(label)


def add_interaction(g, sender, recipient, count=1):
    """Record ``count`` transactions from sender to recipient in a
    TransactionGraph, as build_graph would: the builder of hand-made test
    graphs."""
    i, j = add_node(g, sender), add_node(g, recipient)
    if i == j:
        g.loops[i] = g.loops.get(i, 0) + count
        return
    key = (i, j) if sender < recipient else (j, i)
    g.edges[key] = g.edges.get(key, 0) + count


def recipient_node(tx):
    """A TxRecord's recipient node, from the row: the recipient, or
    `created!` and the first 16 hex digits of the hash for a creation."""
    return "created!" + tx.tx_hash[2:18] if tx.recipient is None else tx.recipient


class PajekError(ValueError):
    """Malformed Pajek input."""


_VERTEX_RE = re.compile(r'^(\d+)\s+"([^"]*)"\s*$')


def import_pajek(source):
    """Read the dialect written by export_pajek into a TransactionGraph;
    *Arcs* sections are accepted and treated as weighted edges. Inverse of
    export_pajek up to node reindexing."""
    lines = [ln.rstrip("\n") for ln in source]
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("%")]
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise PajekError("missing *Vertices header")
    parts = lines[0].split()
    if len(parts) != 2 or not parts[1].isdigit():
        raise PajekError(f"bad *Vertices header: {lines[0]!r}")
    n = int(parts[1])

    g = TransactionGraph()
    by_index = {}
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("*"):
        match = _VERTEX_RE.match(lines[pos].strip())
        if match:
            idx, label = int(match.group(1)), match.group(2)
        else:
            fields = lines[pos].split(None, 1)
            if len(fields) != 2 or not fields[0].isdigit():
                raise PajekError(f"bad vertex line: {lines[pos]!r}")
            idx, label = int(fields[0]), fields[1].strip()
        if not 1 <= idx <= n:
            raise PajekError(f"vertex index {idx} out of range 1..{n}")
        by_index[idx] = label
        pos += 1
    # Vertex lines may be omitted for unlabeled nodes.
    for idx in range(1, n + 1):
        add_node(g, by_index.get(idx, str(idx)))

    def resolve(token):
        if not token.isdigit():
            raise PajekError(f"bad vertex reference: {token!r}")
        idx = int(token)
        if not 1 <= idx <= n:
            raise PajekError(f"edge endpoint {idx} out of range 1..{n}")
        return g.labels[idx - 1]

    while pos < len(lines):
        header = lines[pos].strip().lower()
        if header not in ("*edges", "*arcs"):
            raise PajekError(f"unexpected section: {lines[pos]!r}")
        pos += 1
        while pos < len(lines) and not lines[pos].startswith("*"):
            fields = lines[pos].split()
            if len(fields) not in (2, 3):
                raise PajekError(f"bad edge line: {lines[pos]!r}")
            u, v = resolve(fields[0]), resolve(fields[1])
            weight = int(fields[2]) if len(fields) == 3 else 1
            if weight <= 0:
                raise PajekError(f"non-positive weight on line: {lines[pos]!r}")
            add_interaction(g, u, v, count=weight)
            pos += 1
    return g


def labelled_edges(g):
    """A TransactionGraph's edges keyed by label pair, in insertion order."""
    labels = g.labels
    return {(labels[i], labels[j]): w for (i, j), w in g.edges.items()}


def labelled_loops(g):
    """A TransactionGraph's loops keyed by label, in insertion order."""
    return {g.labels[i]: count for i, count in g.loops.items()}


def canonical_form(g):
    """(sorted node labels, sorted weighted edges, sorted loops) of a
    TransactionGraph, by label: equality up to node reindexing."""
    return (
        tuple(sorted(g.labels)),
        tuple(sorted((u, v, w) for (u, v), w in labelled_edges(g).items())),
        tuple(sorted(labelled_loops(g).items())),
    )


class LabelKeyedGraph:
    """Reference TransactionGraph that keys edges by the sorted label pair
    and loops by label, with the degree histogram and the Pajek and
    edge-CSV writers that read it."""

    def __init__(self):
        self.labels = []
        self._index = {}
        self.edges = {}
        self.loops = {}

    def add_interaction(self, sender, recipient, count=1):
        for label in (sender, recipient):
            if label not in self._index:
                self._index[label] = len(self.labels)
                self.labels.append(label)
        if sender == recipient:
            self.loops[sender] = self.loops.get(sender, 0) + count
            return
        key = (sender, recipient) if sender < recipient else (recipient, sender)
        self.edges[key] = self.edges.get(key, 0) + count

    def degree_entries(self, weighted):
        degrees = {label: 0 for label in self.labels}
        for (u, v), weight in self.edges.items():
            degrees[u] += weight if weighted else 1
            degrees[v] += weight if weighted else 1
        for label, count in self.loops.items():
            degrees[label] += count if weighted else 1
        entries = {}
        for deg in degrees.values():
            entries[deg] = entries.get(deg, 0) + 1
        return entries

    def pajek(self):
        index = self._index
        lines = [f"*Vertices {len(self.labels)}"]
        lines += [f'{i} "{label}"' for i, label in enumerate(self.labels, start=1)]
        lines.append("*Edges")
        lines += [f"{index[u] + 1} {index[v] + 1} {w}" for (u, v), w in self.edges.items()]
        lines += [f"{index[a] + 1} {index[a] + 1} {c}" for a, c in self.loops.items()]
        return "".join(line + "\n" for line in lines)

    def edge_csv(self):
        lines = ["src,dst,weight"]
        lines += [f"{u},{v},{w}" for (u, v), w in self.edges.items()]
        lines += [f"{a},{a},{c}" for a, c in self.loops.items()]
        return "".join(line + "\n" for line in lines)


def degree_sum(hist):
    """Sum of the degrees in a degree -> node count histogram."""
    return sum(deg * count for deg, count in hist.items())


def total_transactions(g):
    """Transactions recorded in a TransactionGraph: edge weights plus loops."""
    return sum(g.edges.values()) + sum(g.loops.values())


def total_blocks(hist):
    """Blocks counted in a MinerHistogram: the sum over its miners."""
    return sum(hist.per_miner.values())


def index_of(g, label):
    """A TransactionGraph node's index, by its position in g.labels."""
    return g.labels.index(label)


def oracle_fixtures():
    """Seeded G(n,m) parameters for the fast-path vs oracle comparisons:
    48 random sizes up to 120 nodes, then two 200-node graphs."""
    rng = random.Random(123)
    fixtures = []
    for i in range(48):
        n = rng.randrange(5, 121)
        m = rng.randrange(0, min(3 * n, n * (n - 1) // 2) + 1)
        fixtures.append(GnmParams(n, m, seed=1000 + i))
    fixtures.append(GnmParams(200, 400, seed=2000))
    fixtures.append(GnmParams(200, 150, seed=2001))
    return fixtures


def edge_list(g):
    """Edges (u, v), u < v, of a SimpleGraph in ascending order."""
    return [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]


def edge_set(g):
    return set(edge_list(g))


def flood_fill_components(g):
    """node -> component id, by repeated flood fill over the edge set."""
    edges = edge_set(g)
    assignment = {}
    next_id = 0
    for start in range(g.n):
        if start in assignment:
            continue
        frontier = {start}
        while frontier:
            node = frontier.pop()
            assignment[node] = next_id
            for u, v in edges:
                if u == node and v not in assignment:
                    frontier.add(v)
                elif v == node and u not in assignment:
                    frontier.add(u)
        next_id += 1
    return assignment


def brute_transitivity(g):
    """3 * triangles / triplets by scanning every node triple."""
    edges = edge_set(g)

    def linked(a, b):
        return (min(a, b), max(a, b)) in edges

    triangles = 0
    triplets = 0
    for a, b, c in combinations(range(g.n), 3):
        present = linked(a, b) + linked(a, c) + linked(b, c)
        if present == 3:
            triangles += 1
            triplets += 3
        elif present == 2:
            triplets += 1
    return 0.0 if triplets == 0 else 3.0 * triangles / triplets


def brute_local_clustering(g):
    """Per node, the fraction of its neighbor pairs that are linked, by
    scanning every pair; None for a node of degree < 2."""
    edges = edge_set(g)
    values = []
    for v in range(g.n):
        neigh = g.adj[v]
        if len(neigh) < 2:
            values.append(None)
            continue
        linked = sum(
            1 for a, b in combinations(neigh, 2) if (min(a, b), max(a, b)) in edges
        )
        values.append(linked / (len(neigh) * (len(neigh) - 1) / 2))
    return values


def brute_average_local_clustering(g):
    """Mean local clustering over all nodes; degree-<2 nodes contribute zero."""
    return sum(v or 0.0 for v in brute_local_clustering(g)) / g.n if g.n else 0.0


def brute_closure_probability(g):
    """Mean local clustering over the nodes of degree >= 2 only (0.0 if
    there are none). Nodes of degree < 2 carry no closure information, so
    on G(n,m) this estimates the edge probability without their bias."""
    kept = [v for v in brute_local_clustering(g) if v is not None]
    return sum(kept) / len(kept) if kept else 0.0


def frontier_distances(g, source):
    """Hop distances by expanding whole frontiers; -1 if unreachable."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for u in g.adj[v]:
                if dist[u] == -1:
                    dist[u] = level
                    nxt.append(u)
        frontier = nxt
    return dist


def double_sweep_lower_bound(g):
    """Diameter lower bound of a connected graph from two full BFS: from
    node 0 to its farthest node (ties to the smallest index), then the
    eccentricity of that node."""
    dist = frontier_distances(g, 0)
    far = max(range(g.n), key=lambda i: (dist[i], -i))
    return max(frontier_distances(g, far))


def all_pairs_average_and_diameter(g):
    """Exact mean pair distance and diameter of a connected graph."""
    total = 0
    longest = 0
    for s in range(g.n):
        dist = frontier_distances(g, s)
        total += sum(dist)
        longest = max(longest, max(dist))
    avg = total / (g.n * (g.n - 1)) if g.n > 1 else 0.0
    return avg, longest

"""Weighted account-interaction graph and its Pajek / edge-list forms.

Accounts are nodes; every transaction between a pair of accounts adds one
to the weight of their link, whichever way it went; all metrics run on
the undirected projection. Self-transfers are tracked as loops,
separately from pair edges.

Edges and loops are keyed by node index, not by address: a key holds
two ints that the node index already owns, not copies of the
transaction's address strings, and projection, degrees and the Pajek
writer use the indices without a label lookup. An edge's endpoints are in
label order (the smaller address first), so each Pajek and edge-CSV line
names them in the same order whichever account sent first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, TextIO

from chaingraph.ingest import BlockRecord, TxRecord

SYNTHETIC_PREFIX = "created!"


class PajekError(ValueError):
    """Malformed Pajek input."""


class TransactionGraph:
    """Undirected weighted multigraph collapsed to weighted edges + loops.

    Nodes carry dense integer indices in insertion order. ``edges`` maps
    an index pair (i, j) with ``labels[i] < labels[j]`` to its pooled
    transaction count; ``loops`` maps a node index to its self-transfers.
    """

    def __init__(self):
        self.labels: list[str] = []
        self._index: dict[str, int] = {}
        self.edges: dict[tuple[int, int], int] = {}
        self.loops: dict[int, int] = {}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def add_node(self, label: str) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self.labels)
            self._index[label] = idx
            self.labels.append(label)
        return idx

    def add_interaction(self, sender: str, recipient: str, count: int = 1) -> None:
        """Record `count` transactions from sender to recipient."""
        # Interns both endpoints as add_node does, without the two calls:
        # build_graph runs this once per transaction.
        index = self._index
        labels = self.labels
        i = index.get(sender)
        if i is None:
            i = index[sender] = len(labels)
            labels.append(sender)
        j = index.get(recipient)
        if j is None:
            j = index[recipient] = len(labels)
            labels.append(recipient)
        if i == j:
            self.loops[i] = self.loops.get(i, 0) + count
            return
        key = (i, j) if sender < recipient else (j, i)
        self.edges[key] = self.edges.get(key, 0) + count


@dataclass
class SimpleGraph:
    """Undirected, loop-free, unweighted projection.

    adj[i] is the sorted neighbor list of node i, so traversals visit
    neighbors in ascending index order and results are reproducible.
    """

    labels: list[str]
    adj: list[list[int]]
    m: int

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Optional[list[str]] = None) -> "SimpleGraph":
        if labels is None:
            labels = [str(i) for i in range(n)]
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                continue
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        return cls(labels=labels, adj=[sorted(s) for s in adj], m=m)

    def subgraph(self, node_indices: list[int]) -> "SimpleGraph":
        """Induced subgraph on distinct nodes, reindexed in the given order."""
        remap = [-1] * self.n  # old index -> new index, -1 outside the subgraph
        for new, old in enumerate(node_indices):
            remap[old] = new
        adj = []
        for u in node_indices:
            neigh = [remap[v] for v in self.adj[u] if remap[v] >= 0]
            neigh.sort()
            adj.append(neigh)
        return SimpleGraph(labels=[self.labels[i] for i in node_indices], adj=adj,
                           m=sum(map(len, adj)) // 2)


def node_for_recipient(tx: TxRecord) -> str:
    """Recipient account id; contract creations get a synthetic node
    derived from the transaction hash (`created!<16 hex chars>`)."""
    if tx.recipient is not None:
        return tx.recipient
    return SYNTHETIC_PREFIX + tx.tx_hash[2:18]


def build_graph(blocks: Iterable[BlockRecord]) -> TransactionGraph:
    """One node per account seen as sender or resolved recipient; every
    transaction adds 1 to its pair's weight (or to the loop count)."""
    g = TransactionGraph()
    add = g.add_interaction
    for block in blocks:
        for tx in block.transactions:
            add(tx.sender, node_for_recipient(tx))
    return g


def project_simple(g: TransactionGraph) -> SimpleGraph:
    """Drop weights and loops; same node set."""
    # Edge keys are distinct index pairs without loops, so the adjacency
    # lists need no de-duplication, and m is the number of keys.
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    for neigh in adj:
        neigh.sort()
    return SimpleGraph(labels=list(g.labels), adj=adj, m=len(g.edges))


def export_pajek(g: TransactionGraph, sink: TextIO) -> None:
    """Write the Pajek .net form: 1-based vertex indices in insertion
    order, weighted *Edges* lines, loops as `u u count`."""
    sink.write(f"*Vertices {g.n}\n")
    # Generators, not lists: the lines are streamed to the sink, never all
    # held at once next to the graph.
    sink.writelines(f'{i} "{label}"\n' for i, label in enumerate(g.labels, start=1))
    sink.write("*Edges\n")
    sink.writelines(f"{i + 1} {j + 1} {weight}\n" for (i, j), weight in g.edges.items())
    sink.writelines(f"{i + 1} {i + 1} {count}\n" for i, count in g.loops.items())


_VERTEX_RE = re.compile(r'^(\d+)\s+"([^"]*)"\s*$')


def import_pajek(source: TextIO) -> TransactionGraph:
    """Read the dialect written by export_pajek; *Arcs* sections are
    accepted and treated as weighted edges. Inverse of export_pajek up to
    node reindexing."""
    lines = [ln.rstrip("\n") for ln in source]
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("%")]
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise PajekError("missing *Vertices header")
    parts = lines[0].split()
    if len(parts) != 2 or not parts[1].isdigit():
        raise PajekError(f"bad *Vertices header: {lines[0]!r}")
    n = int(parts[1])

    g = TransactionGraph()
    by_index: dict[int, str] = {}
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
        g.add_node(by_index.get(idx, str(idx)))

    def resolve(token: str) -> str:
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
            g.add_interaction(u, v, count=weight)
            pos += 1
    return g


def export_edge_csv(g: TransactionGraph, sink: TextIO) -> None:
    """Edge-list CSV `src,dst,weight`; loops appear with src == dst."""
    labels = g.labels
    sink.write("src,dst,weight\n")
    for (i, j), weight in g.edges.items():
        sink.write(f"{labels[i]},{labels[j]},{weight}\n")
    for i, count in g.loops.items():
        label = labels[i]
        sink.write(f"{label},{label},{count}\n")

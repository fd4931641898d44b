"""Weighted account-interaction graph and its Pajek / edge-list forms.

Accounts are nodes; every transaction between a pair of accounts adds one
to the weight of their link, whichever way it went; all metrics run on
the undirected projection. Self-transfers are tracked as loops,
separately from pair edges. A contract creation has no recipient account:
its recipient node is a synthetic one named after the transaction hash
(see ``recipient_nodes``).

``build_graph`` reads a block's sender and recipient columns, and the
first 8 bytes of each creation's hash, and nothing else of it: no
per-transaction record is built. Edges and loops are keyed by node index,
not by address: a key holds two ints that the node index already owns,
not copies of the transaction's address strings, and projection, degrees
and the Pajek writer use the indices without a label lookup. An edge's
endpoints are in label order (the smaller address first), so each Pajek
and edge-CSV line names them in the same order whichever account sent
first.

Account names live only on the TransactionGraph: its ``labels[i]`` names
node i. The projection and every metric work on node indices alone, and
only the Pajek and edge-CSV writers read names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence, TextIO

from chaingraph.ingest import BlockRecord, _creations

SYNTHETIC_PREFIX = "created!"


@dataclass
class TransactionGraph:
    """Undirected weighted multigraph collapsed to weighted edges + loops.

    Nodes carry dense integer indices in insertion order: ``labels[i]`` is
    node i's account. ``edges`` maps an index pair (i, j) with
    ``labels[i] < labels[j]`` to its pooled transaction count; ``loops``
    maps a node index to its self-transfers.
    """

    labels: list[str] = field(default_factory=list)
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    loops: dict[int, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass
class SimpleGraph:
    """Undirected, loop-free, unweighted projection on node indices.

    adj[i] is the sorted neighbor list of node i, so traversals visit
    neighbors in ascending index order and results are reproducible.
    """

    adj: list[list[int]]
    m: int

    @property
    def n(self) -> int:
        return len(self.adj)

    # Called only by tests, and by name by bench/tracing.py, which traces it.
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
        return SimpleGraph(adj, sum(map(len, adj)) // 2)


def _sorted_adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Sorted neighbor lists of nodes 0..n-1 from distinct, loop-free
    index pairs, each given once in either direction."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    for neigh in adj:
        neigh.sort()
    return adj


def recipient_nodes(block: BlockRecord) -> Sequence[str]:
    """Each transaction's recipient node: the recipient's address, or for
    a contract creation (a None recipient) `created!<16 hex chars>`, the
    first 8 bytes of the transaction hash: the k-th creation's hash is the
    k-th 32 bytes of ``creation_hashes``. A payment to the zero address
    links to the zero-address node."""
    recipients = block.recipients
    # One C-level scan; a block without a creation returns its column.
    if None not in recipients:
        return recipients
    nodes = list(recipients)
    hashes = block.creation_hashes
    for k, i in enumerate(_creations(recipients)):
        nodes[i] = SYNTHETIC_PREFIX + hashes[32 * k:32 * k + 8].hex()
    return nodes


def build_graph(blocks: Iterable[BlockRecord]) -> TransactionGraph:
    """One node per account seen as sender or resolved recipient; every
    transaction adds 1 to its pair's weight (or to the loop count)."""
    # One loop over the address columns with no Python-level call per
    # transaction. setdefault interns a label: a new one takes the next
    # index, so the keys of ``index`` are the labels in index order.
    index: dict[str, int] = {}
    intern = index.setdefault
    edges: dict[tuple[int, int], int] = {}
    loops: dict[int, int] = {}
    for block in blocks:
        for sender, recipient in zip(block.senders, recipient_nodes(block)):
            i = intern(sender, len(index))
            j = intern(recipient, len(index))
            if i == j:
                loops[i] = loops.get(i, 0) + 1
            else:
                key = (i, j) if sender < recipient else (j, i)
                edges[key] = edges.get(key, 0) + 1
    return TransactionGraph(list(index), edges, loops)


def project_simple(n: int, edges: Collection[tuple[int, int]]) -> SimpleGraph:
    """The projection of a TransactionGraph ``g`` with ``g.n`` nodes and
    edge keys ``g.edges``: weights and loops dropped, same node indices.
    It reads no label, so a caller may drop ``g`` and keep only these two."""
    # Edge keys are distinct index pairs without loops, so the adjacency
    # lists need no de-duplication, and m is the number of keys.
    return SimpleGraph(_sorted_adjacency(n, edges), len(edges))


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


def export_edge_csv(g: TransactionGraph, sink: TextIO) -> None:
    """Edge-list CSV `src,dst,weight`; loops appear with src == dst."""
    labels = g.labels
    sink.write("src,dst,weight\n")
    for (i, j), weight in g.edges.items():
        sink.write(f"{labels[i]},{labels[j]},{weight}\n")
    for i, count in g.loops.items():
        label = labels[i]
        sink.write(f"{label},{label},{count}\n")

"""Independent answers for the generated blocks, and checks of the CSVs
the CLI writes against them.

The reference is computed once per seed, outside any timed step,
straight from the generated JSON: components and exact all-pairs
distances with scipy, clustering by forward triangle counting. It shares
no code with chaingraph. CSV columns are read by name, so added columns
do not break a check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

REL_TOL = 1e-9
_APSP_CHUNK = 256


@dataclass
class Reference:
    blocks: int
    n: int
    m: int
    components: int
    main_n: int
    main_m: int
    avg_clustering: float
    transitivity: float
    main_avg_clustering: float
    main_l: float | None = None  # exact, only where it is cheap enough


def _recipient(tx: dict) -> str:
    # The documented node for a contract creation: created!<16 hex of hash>.
    if tx["to"] is None:
        return "created!" + tx["hash"][2:18].lower()
    return tx["to"].lower()


def _exact_average_distance(adj: csr_matrix) -> float:
    n = adj.shape[0]
    total = 0
    for lo in range(0, n, _APSP_CHUNK):
        dist = shortest_path(adj, directed=False, unweighted=True,
                             indices=np.arange(lo, min(lo + _APSP_CHUNK, n)))
        total += int(dist.sum())
    return total / (n * (n - 1))


def _triangles(neighbours: list[set[int]]) -> list[int]:
    """Triangles through each node, by the forward algorithm (Schank and
    Wagner 2005): orient each edge towards the higher (degree, index)
    rank, so out-sets stay small even at hubs, and intersect out-sets."""
    rank = sorted(range(len(neighbours)), key=lambda v: (len(neighbours[v]), v))
    position = [0] * len(neighbours)
    for pos, v in enumerate(rank):
        position[v] = pos
    out = [{w for w in neighbours[v] if position[w] > position[v]} for v in range(len(neighbours))]
    count = [0] * len(neighbours)
    for u, out_u in enumerate(out):
        for v in out_u:
            for w in out_u & out[v]:
                count[u] += 1
                count[v] += 1
                count[w] += 1
    return count


def _average_clustering(nodes, neighbours: list[set[int]], triangles: list[int]) -> float:
    total = 0.0
    for v in nodes:
        d = len(neighbours[v])
        if d >= 2:
            total += 2 * triangles[v] / (d * (d - 1))
    return total / len(nodes)


def reference(blocks: list[tuple[int, str]], exact_distances: bool) -> Reference:
    index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    for _, text in blocks:
        for tx in json.loads(text)["transactions"]:
            u = index.setdefault(tx["from"].lower(), len(index))
            v = index.setdefault(_recipient(tx), len(index))
            if u != v:
                edges.add((u, v) if u < v else (v, u))
    n = len(index)
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)).tocsr()

    count, labels = connected_components(adj, directed=False)
    main = np.flatnonzero(labels == np.bincount(labels).argmax())
    main_m = sum(len(neighbours[v]) for v in main) // 2

    triangles = _triangles(neighbours)
    triplets = sum(len(s) * (len(s) - 1) // 2 for s in neighbours)
    ref = Reference(
        blocks=len(blocks),
        n=n,
        m=len(edges),
        components=int(count),
        main_n=len(main),
        main_m=main_m,
        avg_clustering=_average_clustering(range(n), neighbours, triangles),
        transitivity=sum(triangles) / triplets if triplets else 0.0,
        main_avg_clustering=_average_clustering(main, neighbours, triangles),
    )
    if exact_distances:
        ref.main_l = _exact_average_distance(adj[main][:, main])
    return ref


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _close(text: str, expected: float) -> bool:
    return math.isclose(float(text), expected, rel_tol=REL_TOL)


def _in_range(text: str, lo: float, hi: float) -> bool:
    return lo <= float(text) <= hi


def _table(path: Path, checks: dict) -> list[bool]:
    """Evaluate {column: predicate} on the single data row of a CSV; a
    missing file or column fails that check."""
    try:
        row = read_csv(path)[0]
    except (OSError, IndexError):
        return [False] * len(checks)
    results = []
    for column, ok in checks.items():
        try:
            results.append(bool(ok(row[column])))
        except (KeyError, ValueError):
            results.append(False)
    return results


def check_analyze(out_dir: Path, ref: Reference, sample_sources: int, seed: int) -> list[bool]:
    """metrics.csv, distances.csv and degree.csv of one analyze run whose
    distances are sampled."""
    results = _table(out_dir / "metrics.csv", {
        "blocks": lambda v: int(v) == ref.blocks,
        "nodes": lambda v: int(v) == ref.n,
        "edges": lambda v: int(v) == ref.m,
        "components": lambda v: int(v) == ref.components,
        "nodes_largest_comp": lambda v: int(v) == ref.main_n,
        "edges_largest_comp": lambda v: int(v) == ref.main_m,
        "avg_clus_coeff": lambda v: _close(v, ref.avg_clustering),
        "transitivity": lambda v: _close(v, ref.transitivity),
    })
    results += _table(out_dir / "distances.csv", {
        "nodes_main_comp": lambda v: int(v) == ref.main_n,
        "avg_distance": lambda v: _in_range(v, 1.0, ref.main_n - 1),
        "diameter": lambda v: _in_range(v, 1, ref.main_n - 1),
        "l_method": lambda v: v == "sampled",
        "diameter_method": lambda v: v == "lower_bound",
        "sample_sources": lambda v: int(v) == sample_sources,
        "seed": lambda v: int(v) == seed,
    })
    try:
        degree_rows = read_csv(out_dir / "degree.csv")
        results.append(sum(int(r["count"]) for r in degree_rows) == ref.n)
    except (OSError, KeyError, ValueError):
        results.append(False)
    return results


def check_smallworld(out_dir: Path, ref: Reference, trials: int, seed: int) -> list[bool]:
    """smallworld.csv: subject values exact; baseline values by label,
    range, and sigma = (cc/cc_RG)/(L/L_RG)."""
    path = out_dir / "smallworld.csv"
    results = _table(path, {
        "blocks": lambda v: int(v) == ref.blocks,
        "nodes": lambda v: int(v) == ref.main_n,
        "edges": lambda v: int(v) == ref.main_m,
        "cc": lambda v: _close(v, ref.main_avg_clustering),
        "L": lambda v: _close(v, ref.main_l),
        "cc_RG": lambda v: _in_range(v, 0.0, 1.0),
        "L_RG": lambda v: _in_range(v, 1.0, ref.main_n - 1),
        "trials": lambda v: int(v) == trials,
        "seed": lambda v: int(v) == seed,
    })
    try:
        row = read_csv(path)[0]
        cc, l_subject, cc_rg, l_rg = (float(row[k]) for k in ("cc", "L", "cc_RG", "L_RG"))
        results.append(_close(row["sigma"], (cc / cc_rg) / (l_subject / l_rg)))
    except (OSError, IndexError, KeyError, ValueError, ZeroDivisionError):
        results.append(False)
    return results

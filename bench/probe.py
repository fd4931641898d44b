"""A fixed reference kernel that measures how fast the machine runs right now.

    python3 bench/probe.py      # prints the kernel times of one probe, in seconds

A shared virtual machine changes speed by 20% or more for seconds to
minutes at a time, and process CPU time slows with it. ``run.py`` runs
the probe in a fresh interpreter between consecutive operations and
divides each operation's wall time by the median kernel time of the two
probes around it, which cancels the slow swings that a median over a run
cannot. The kernel does the kinds of work chaingraph does (JSON decoding,
dict and set building, list-indexed BFS, set intersections) on fixed
inputs and shares no code with chaingraph, so a change to chaingraph
never moves it.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque

NODES = 8000
EDGES = 24000
BFS_SOURCES = 20
RECORDS = 5000
REPEATS = 3  # kernel runs per probe


def _records() -> str:
    rng = random.Random(7)
    return json.dumps([{"from": "0x" + rng.randbytes(20).hex(),
                        "to": "0x" + rng.randbytes(20).hex(),
                        "input": "0x" + rng.randbytes(68).hex(),
                        "value": hex(rng.getrandbits(60))} for _ in range(RECORDS)])


_TEXT = _records()


def kernel() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    index: dict[str, int] = {}
    for rec in json.loads(_TEXT):
        index.setdefault(rec["from"], len(index))
        index.setdefault(rec["to"], len(index))

    rng = random.Random(11)
    neighbours: list[set[int]] = [set() for _ in range(NODES)]
    for _ in range(EDGES):
        u, v = rng.randrange(NODES), rng.randrange(NODES)
        if u != v:
            neighbours[u].add(v)
            neighbours[v].add(u)
    adj = [sorted(s) for s in neighbours]

    total = len(index)
    for source in range(0, NODES, NODES // BFS_SOURCES):
        dist = [-1] * NODES
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for u in adj[v]:
                if dist[u] == -1:
                    dist[u] = dv + 1
                    queue.append(u)
        total += sum(dist)
    for v, out in enumerate(neighbours):
        for w in out:
            if w > v:
                total += len(out & neighbours[w])
    return total


def probe() -> list[float]:
    """Seconds each of ``REPEATS`` kernel runs takes now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    print(" ".join(f"{t:.4f}" for t in probe()))

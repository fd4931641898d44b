"""Erdos-Renyi G(n,m) baselines and the small-world coefficient.

The comparison graph takes the subject's exact node and edge counts with
edges placed uniformly at random; sigma = (cc/cc_RG)/(L/L_RG) classifies a
small world when it is well above 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Union

from chaingraph.graph import SimpleGraph, _sorted_adjacency
from chaingraph.metrics import (
    ExactnessPolicy,
    average_local_clustering,
    connected_components,
    distance_summary,
)

# Up to this many possible pairs, edges are drawn as indices into the
# lexicographic list of pairs; above it, by rejection sampling. Both draw
# uniformly without replacement, as distinct pairs u < v, so the adjacency
# needs no de-duplication, and neither builds the pair list; the limit
# fixes which draw, and so which graph, each (n, m, seed) gives.
_ENUMERATE_LIMIT = 500_000

_TRIAL_SEED_STRIDE = 1_000_003


class _Undefined:
    """Marker for sigma when cc > 0 but the random baseline has cc_RG = 0."""

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = _Undefined()

Sigma = Union[float, _Undefined]


@dataclass(frozen=True)
class GnmParams:
    n: int
    m: int
    seed: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        max_edges = self.n * (self.n - 1) // 2
        if not 0 <= self.m <= max_edges:
            raise ValueError(f"m={self.m} outside 0..{max_edges} for n={self.n}")


@dataclass
class SmallWorldReport:
    n: int
    m: int
    cc: float
    avg_distance: float
    cc_rg: float
    l_rg: float
    sigma: Sigma
    trials: int
    seed: int
    l_method: str


def _pair_at(k: int, n: int) -> tuple[int, int]:
    """The k-th pair (u, v), u < v, of itertools.combinations(range(n), 2)."""
    # Counted from the end, the row of u = n - 2 - t holds t + 1 pairs and
    # the rows before it t * (t + 1) / 2.
    r = n * (n - 1) // 2 - 1 - k
    t = (math.isqrt(8 * r + 1) - 1) // 2
    return n - 2 - t, n - 1 - (r - t * (t + 1) // 2)


def gnm_random_graph(params: GnmParams) -> SimpleGraph:
    """Uniform G(n,m): exactly m distinct loop-free edges; same seed,
    same graph. Above _ENUMERATE_LIMIT pairs the draw is defined by
    getrandbits alone: each endpoint is getrandbits(n.bit_length()),
    redrawn while >= n, the calls that randrange(n) makes."""
    rng = random.Random(params.seed)
    n, m = params.n, params.m
    max_edges = n * (n - 1) // 2
    if max_edges <= _ENUMERATE_LIMIT:
        # random.sample draws from the population's length alone, so these
        # are the pairs that sampling the enumerated pair list would give.
        edges = [_pair_at(k, n) for k in rng.sample(range(max_edges), m)]
        return SimpleGraph(_sorted_adjacency(n, edges), m)
    getrandbits = rng.getrandbits
    k = n.bit_length()
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = getrandbits(k)
        while u >= n:
            u = getrandbits(k)
        v = getrandbits(k)
        while v >= n:
            v = getrandbits(k)
        if u == v:
            continue
        chosen.add((u, v) if u < v else (v, u))
    return SimpleGraph(_sorted_adjacency(n, chosen), m)


def small_world_sigma(cc: float, avg_distance: float,
                      cc_rg: float, l_rg: float) -> Sigma:
    """(cc/cc_RG) / (L/L_RG). cc = 0 gives 0; cc > 0 with cc_RG = 0 has no
    finite value and returns the UNDEFINED marker."""
    if avg_distance <= 0 or l_rg <= 0:
        raise ValueError("average distances must be positive")
    if cc == 0:
        return 0.0
    if cc_rg == 0:
        return UNDEFINED
    return (cc / cc_rg) / (avg_distance / l_rg)


def trial_seed(seed: int, trial: int) -> int:
    return seed * _TRIAL_SEED_STRIDE + trial


def small_world_report(subject: SimpleGraph, trials: int, seed: int,
                       policy: ExactnessPolicy = ExactnessPolicy()) -> SmallWorldReport:
    """Compare a connected subject graph against `trials` G(n,m) instances.

    cc_RG averages local clustering over the instances; L_RG averages the
    instance largest-component distance (G(n,m) at these densities may be
    disconnected), found in place. Per-trial seeds derive from (seed,
    trial index), so trials can run in any order without changing output.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    components = connected_components(subject)
    if components.num_components != 1:
        raise ValueError("subject graph must be non-empty and connected")

    summary = distance_summary(subject, components, policy)
    cc = average_local_clustering(subject)

    cc_total = 0.0
    l_total = 0.0
    for i in range(trials):
        instance = gnm_random_graph(GnmParams(subject.n, subject.m, trial_seed(seed, i)))
        cc_total += average_local_clustering(instance)
        l_total += distance_summary(instance, connected_components(instance),
                                    policy).average_distance
    cc_rg = cc_total / trials
    l_rg = l_total / trials

    return SmallWorldReport(
        n=subject.n,
        m=subject.m,
        cc=cc,
        avg_distance=summary.average_distance,
        cc_rg=cc_rg,
        l_rg=l_rg,
        sigma=small_world_sigma(cc, summary.average_distance, cc_rg, l_rg),
        trials=trials,
        seed=seed,
        l_method=summary.l_method,
    )

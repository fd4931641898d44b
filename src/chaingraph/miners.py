"""Blocks-mined-per-miner distribution over a block range."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from chaingraph.ingest import BlockRecord


@dataclass
class MinerHistogram:
    per_miner: dict[str, int]
    distribution: dict[int, int]


def miner_distribution(blocks: Iterable[BlockRecord]) -> MinerHistogram:
    """Count blocks per beneficiary address and invert into
    blocks-mined -> number-of-miners."""
    per_miner: dict[str, int] = {}
    for block in blocks:
        per_miner[block.miner] = per_miner.get(block.miner, 0) + 1
    distribution: dict[int, int] = {}
    for count in per_miner.values():
        distribution[count] = distribution.get(count, 0) + 1
    return MinerHistogram(per_miner=per_miner, distribution=distribution)


"""Blocks-mined-per-miner distribution over a block range."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from chaingraph.ingest import BlockRecord


def miner_distribution(blocks: Iterable[BlockRecord]) -> tuple[dict[str, int], dict[int, int]]:
    """Blocks per beneficiary address, and that inverted into
    blocks-mined -> number-of-miners: two histograms, as
    ``degree_distribution`` returns."""
    per_miner = Counter(block.miner for block in blocks)
    return per_miner, Counter(per_miner.values())

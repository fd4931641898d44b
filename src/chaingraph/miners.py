"""Blocks-mined-per-miner distribution over a block range."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, TextIO

from chaingraph.ingest import BlockRecord, SnapshotSpec


@dataclass
class MinerHistogram:
    per_miner: dict[str, int]
    distribution: dict[int, int]
    range: Optional[SnapshotSpec]


def miner_distribution(blocks: Iterable[BlockRecord]) -> MinerHistogram:
    """Count blocks per beneficiary address and invert into
    blocks-mined -> number-of-miners. The range is set only when the
    blocks are exactly one contiguous run, each number once."""
    per_miner: dict[str, int] = {}
    numbers: list[int] = []
    for block in blocks:
        per_miner[block.miner] = per_miner.get(block.miner, 0) + 1
        numbers.append(block.number)
    distribution: dict[int, int] = {}
    for count in per_miner.values():
        distribution[count] = distribution.get(count, 0) + 1
    covered = None
    if numbers:
        lo = min(numbers)
        if sorted(numbers) == list(range(lo, lo + len(numbers))):
            covered = SnapshotSpec(lo, len(numbers))
    return MinerHistogram(per_miner=per_miner, distribution=distribution, range=covered)


def write_miner_csv(hist: MinerHistogram, sink: TextIO) -> None:
    sink.write("miner,blocks\n")
    for miner in sorted(hist.per_miner):
        sink.write(f"{miner},{hist.per_miner[miner]}\n")


def write_distribution_csv(hist: MinerHistogram, sink: TextIO) -> None:
    sink.write("blocks_mined,num_miners\n")
    for mined in sorted(hist.distribution):
        sink.write(f"{mined},{hist.distribution[mined]}\n")

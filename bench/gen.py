"""Seeded synthetic Ethereum blocks in the JSON-RPC result shape.

Recipients follow the mix the paper's networks show: about 35% of
transactions go to a few exchange-like hubs (Zipf-weighted), about 2% are
contract creations (``to: null``) and about 1% are self-transfers; the
rest go to ordinary accounts, half of them drawn from the same Zipf-active
population that sends, half of them fresh one-off addresses. Every
transaction carries the full RPC field set (gas, gasPrice, input, nonce,
r, s, v, ...), so a cached block is about as large as a real one
(~120 KiB at 150 transactions), and a store-format change shows.

The seed draws every address, hash and field value. Which account sends
to which (the ranks of senders and recipients, and each transaction's
kind) comes from ``TOPOLOGY_SEED``, so all seeds give the same
transaction graph up to relabelling: graph sizes, and so the work of one
operation, do not change with the seed. The same arguments always give
byte-identical blocks.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

HUB_SHARE = 0.35
CREATE_SHARE = 0.02
SELF_SHARE = 0.01
KNOWN_SHARE = 0.5  # of the remaining recipients: drawn from the population
TOPOLOGY_SEED = 20190829

ERC20_TRANSFER = "0xa9059cbb"
LOGS_BLOOM_HEX = 512


@dataclass(frozen=True)
class Shape:
    """Size parameters of one synthetic chain segment."""

    num_blocks: int
    txs_per_block: int
    population: int  # Zipf-active accounts that send (and sometimes receive)
    hubs: int
    start_block: int = 5_000_000


def _zipf_cum_weights(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / rank for rank in range(1, n + 1)))


def _address(rng: random.Random) -> str:
    return "0x" + rng.randbytes(20).hex()


def _word(rng: random.Random) -> str:
    return rng.randbytes(32).hex()


def _input(rng: random.Random, tx_no: int, creation: bool) -> str:
    # Input kinds and lengths follow the transaction's position, not the
    # seed, so the cache size barely changes from seed to seed.
    if creation:
        return "0x" + rng.randbytes(2000).hex()
    kind = tx_no % 20
    if kind < 10:
        return "0x"
    if kind < 17:
        return ERC20_TRANSFER + "0" * 24 + rng.randbytes(20).hex() + _word(rng)
    return "0x" + rng.randbytes(4).hex() + rng.randbytes(32 * (2 + tx_no % 17)).hex()


def generate(shape: Shape, seed: int) -> list[tuple[int, str]]:
    """(block number, JSON text of its ``eth_getBlockByNumber(n, true)``
    result) for ``shape.num_blocks`` consecutive blocks."""
    rng = random.Random(seed)
    topology = random.Random(TOPOLOGY_SEED)
    population = [_address(rng) for _ in range(shape.population)]
    hubs = [_address(rng) for _ in range(shape.hubs)]
    miners = [_address(rng) for _ in range(8)]
    pop_weights = _zipf_cum_weights(shape.population)
    hub_weights = _zipf_cum_weights(shape.hubs)

    total = shape.num_blocks * shape.txs_per_block
    n_hub = round(total * HUB_SHARE)
    n_create = round(total * CREATE_SHARE)
    n_self = round(total * SELF_SHARE)
    n_known = round((total - n_hub - n_create - n_self) * KNOWN_SHARE)
    n_fresh = total - n_hub - n_create - n_self - n_known
    kinds = ["hub"] * n_hub + [None] * n_create + ["self"] * n_self + ["known"] * n_known \
        + ["fresh"] * n_fresh
    topology.shuffle(kinds)
    senders = topology.choices(population, cum_weights=pop_weights, k=total)
    hub_draws = iter(topology.choices(hubs, cum_weights=hub_weights, k=n_hub))
    known_draws = iter(topology.choices(population, cum_weights=pop_weights, k=n_known))
    nonces: dict[str, int] = {}

    out = []
    parent = "0x" + _word(rng)
    timestamp = 1_520_000_000
    for offset in range(shape.num_blocks):
        number = shape.start_block + offset
        block_hash = "0x" + _word(rng)
        txs = []
        for index in range(shape.txs_per_block):
            tx_no = offset * shape.txs_per_block + index
            sender, kind = senders[tx_no], kinds[tx_no]
            if kind == "hub":
                recipient = next(hub_draws)
            elif kind == "self":
                recipient = sender
            elif kind == "known":
                recipient = next(known_draws)
            elif kind == "fresh":
                recipient = _address(rng)
            else:
                recipient = None  # contract creation
            nonce = nonces.get(sender, 0)
            nonces[sender] = nonce + 1
            txs.append({
                "blockHash": block_hash,
                "blockNumber": hex(number),
                "chainId": "0x1",
                "from": sender,
                "gas": hex(rng.randrange(21_000, 400_000)),
                "gasPrice": hex(rng.randrange(1_000_000_000, 90_000_000_000)),
                "hash": "0x" + _word(rng),
                "input": _input(rng, tx_no, kind is None),
                "nonce": hex(nonce),
                "r": "0x" + _word(rng),
                "s": "0x" + _word(rng),
                "to": recipient,
                "transactionIndex": hex(index),
                "type": "0x0",
                "v": hex(rng.choice((37, 38))),
                "value": hex(rng.getrandbits(rng.randrange(1, 72))),
            })
        timestamp += rng.randrange(5, 25)
        block = {
            "baseFeePerGas": hex(rng.randrange(10**9, 10**11)),
            "difficulty": hex(rng.getrandbits(52)),
            "extraData": "0x" + rng.randbytes(16).hex(),
            "gasLimit": hex(8_000_000),
            "gasUsed": hex(rng.randrange(1_000_000, 8_000_000)),
            "hash": block_hash,
            "logsBloom": "0x" + rng.randbytes(LOGS_BLOOM_HEX // 2).hex(),
            "miner": rng.choice(miners),
            "mixHash": "0x" + _word(rng),
            "nonce": "0x" + rng.randbytes(8).hex(),
            "number": hex(number),
            "parentHash": parent,
            "receiptsRoot": "0x" + _word(rng),
            "sha3Uncles": "0x" + _word(rng),
            "size": hex(rng.randrange(20_000, 40_000)),
            "stateRoot": "0x" + _word(rng),
            "timestamp": hex(timestamp),
            "totalDifficulty": hex(rng.getrandbits(80)),
            "transactions": txs,
            "transactionsRoot": "0x" + _word(rng),
            "uncles": [],
        }
        parent = block_hash
        out.append((number, json.dumps(block, separators=(",", ":"))))
    return out

import json
from pathlib import Path

import pytest
from hypothesis import strategies as st

from chaingraph.ingest import (
    BlockRecord,
    JsonRpcEndpoint,
    RpcError,
    TransportError,
    parse_block_json,
)
from chaingraph.metrics import ExactnessPolicy, connected_components, distance_summary

FIXTURES = Path(__file__).parent / "fixtures"


def addr(i: int) -> str:
    return "0x" + format(i, "040x")


def tx_hash(i: int) -> str:
    return "0x" + format(i, "064x")


def raw_tx(i: int, sender: str, recipient, value: int = 0) -> dict:
    return {
        "hash": tx_hash(i),
        "from": sender,
        "to": recipient,
        "value": hex(value),
    }


def raw_block(number: int, txs: list[dict], miner: str = addr(0xFEED),
              timestamp: int = 1_500_000_000) -> dict:
    return {
        "number": hex(number),
        "hash": tx_hash(0xB000 + number),
        "timestamp": hex(timestamp),
        "miner": miner,
        "transactions": txs,
    }


def block_from_rows(number: int, block_hash: str, timestamp: int, miner: str,
                    rows) -> BlockRecord:
    """The BlockRecord of a block with these (hash, sender, recipient)
    transaction rows, given in lowercase 0x hex with None as a creation's
    recipient: each column built from the rows, one field at a time. Only
    the creations' hashes are kept, so a payment's hash may be None."""
    rows = list(rows)
    return BlockRecord(number, block_hash, timestamp, miner,
                       tuple(sender for _, sender, _ in rows),
                       tuple(recipient for _, _, recipient in rows),
                       b"".join(bytes.fromhex(h[2:]) for h, _, r in rows if r is None))


def creation_rows(rows) -> tuple:
    """(hash, sender, recipient) rows as a record keeps them: the hash of
    a creation only, None for a payment's."""
    return tuple((h if recipient is None else None, sender, recipient)
                 for h, sender, recipient in rows)


def tx_rows(block: BlockRecord) -> tuple:
    """A record's transactions as (hash, sender, recipient) rows, a
    creation's hash in 0x hex and a payment's None: its columns zipped,
    the inverse of block_from_rows."""
    hashes = iter(["0x" + block.creation_hashes[i:i + 32].hex()
                   for i in range(0, len(block.creation_hashes), 32)])
    return tuple((next(hashes) if recipient is None else None, sender, recipient)
                 for sender, recipient in zip(block.senders, block.recipients))


def make_block(number: int, pairs: list[tuple[str, str]], miner: str = addr(0xFEED),
               tx_base: int = 0) -> BlockRecord:
    """BlockRecord whose transactions connect the given (sender, recipient)
    address pairs."""
    rows = [(tx_hash(tx_base + i), s, r) for i, (s, r) in enumerate(pairs)]
    return block_from_rows(number, tx_hash(0xB000 + number), 1_500_000_000, miner, rows)


class MockEndpoint:
    """In-memory RPC endpoint; records every call and can fail on demand."""

    def __init__(self, blocks: dict[int, dict], transport_failures: int = 0,
                 rpc_error: tuple[int, str] | None = None):
        self.blocks = blocks
        self.calls: list[tuple[str, list]] = []
        self.transport_failures = transport_failures
        self.rpc_error = rpc_error

    def call(self, method: str, params: list):
        self.calls.append((method, params))
        if self.transport_failures > 0:
            self.transport_failures -= 1
            raise TransportError("simulated transport failure")
        if self.rpc_error is not None:
            raise RpcError(*self.rpc_error)
        if method == "eth_blockNumber":
            return hex(max(self.blocks)) if self.blocks else "0x0"
        if method == "eth_getBlockByNumber":
            number = int(params[0], 16)
            return self.blocks.get(number)
        raise RpcError(-32601, f"method {method} not found")

    def block_calls(self) -> list[int]:
        return [int(p[0], 16) for m, p in self.calls if m == "eth_getBlockByNumber"]


class StubSession:
    """Stands in for ``requests.Session``: every POST replies with ``body``."""

    def __init__(self, body):
        self.body = body
        self.posts = []

    def post(self, url, json, timeout):
        self.posts.append(json)
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return self.body


def stub_endpoint(body) -> JsonRpcEndpoint:
    endpoint = JsonRpcEndpoint("http://localhost:1")
    endpoint._session = StubSession(body)
    return endpoint


def star_pairs(leaves: int = 18) -> list[tuple[str, str]]:
    """(sender, recipient) pairs forming a star: one center paying each
    leaf once. 18 leaves gives the 19-node / 18-edge component."""
    center = addr(0xC0FFEE)
    return [(center, addr(0x1000 + i)) for i in range(leaves)]


def star_blocks(leaves: int = 18) -> list[BlockRecord]:
    return [make_block(7, star_pairs(leaves))]


def forest_pairs() -> list[tuple[str, str]]:
    """Fixture forest: 55 nodes, 40 edges, 15 components, largest 19/18.

    One 19-node star, ten connected pairs, four 4-node paths; all trees,
    so every clustering coefficient is zero.
    """
    pairs = star_pairs(18)
    for k in range(10):
        pairs.append((addr(0x2000 + 2 * k), addr(0x2000 + 2 * k + 1)))
    for k in range(4):
        base = 0x3000 + 10 * k
        pairs += [(addr(base), addr(base + 1)),
                  (addr(base + 1), addr(base + 2)),
                  (addr(base + 2), addr(base + 3))]
    return pairs


def forest_blocks() -> list[BlockRecord]:
    pairs = forest_pairs()
    third = len(pairs) // 3
    return [
        make_block(1, pairs[:third], tx_base=0),
        make_block(2, pairs[third:2 * third], tx_base=1000),
        make_block(3, pairs[2 * third:], tx_base=2000),
    ]


def pairs_to_raw_blocks(pairs, start: int = 1, num_blocks: int = 3) -> dict[int, dict]:
    """Split (sender, recipient) pairs into raw RPC block dicts, keyed by
    block number, for seeding a BlockCache."""
    per_block = [pairs[i::num_blocks] for i in range(num_blocks)]
    blocks = {}
    for offset, chunk in enumerate(per_block):
        number = start + offset
        txs = [raw_tx(1000 * offset + i, s, r) for i, (s, r) in enumerate(chunk)]
        blocks[number] = raw_block(number, txs)
    return blocks


def seed_cache(cache_dir, raw_blocks: dict[int, dict]) -> None:
    from chaingraph.ingest import BlockCache

    cache = BlockCache(cache_dir)
    for number, raw in raw_blocks.items():
        cache.store(number, raw)


def summary_of(g, policy=ExactnessPolicy()):
    """distance_summary of a connected graph, whose one component is its
    largest."""
    return distance_summary(g, connected_components(g), policy)


@pytest.fixture
def fixture_a_record():
    return parse_block_json(json.loads(FIXTURES.joinpath("block_fixture_a.json").read_text()))


# JSON-RPC transaction objects for property tests of parse_block_json.

_HEX_DIGITS = "0123456789abcdefABCDEF"


def _hex(digits: int) -> st.SearchStrategy[str]:
    return st.text(_HEX_DIGITS, min_size=digits, max_size=digits).map("0x".__add__)


_quantities = st.builds(
    lambda value, zeros, upper: "0x" + "0" * zeros + (format(value, "X") if upper
                                                      else format(value, "x")),
    st.one_of(st.integers(0, 2**72), st.integers(0, 2**256 - 1)),
    st.integers(0, 3), st.booleans())


class TxDict(dict):
    """A dict subclass, as a hand-built payload may hold."""


def _odd_value(valid: str) -> st.SearchStrategy:
    """Forms of a field that parse_block_json must refuse, or must not
    take for the valid text they extend."""
    return st.one_of(
        st.sampled_from(["\n", " ", "\t", " -", "\r\n"]).map(valid.__add__),
        st.sampled_from([" 0x1", " 0x" + "0" * 40, " 0x" + "ab" * 32]).map(valid.__add__),
        st.just(valid.upper()),                       # "0X..." prefix
        st.just(valid[:-1] + "\u0663"),               # ARABIC-INDIC DIGIT THREE
        st.just(valid[:-1]),
        st.sampled_from(["", "-", " ", "0x", "0x" + "f" * 65, "0x1" + "0" * 64]),
        st.sampled_from([None, True, False, 0, 7, -1, 2**256, 2**256 - 1, ["0x1"], {}]),
    )


@st.composite
def rpc_transactions(draw, max_size: int = 6, faults: bool = True) -> list:
    """A block's "transactions" list: valid objects (mixed-case hex,
    contract creations, payments to the zero address, leading zeros in
    values). With ``faults``, some
    may be changed in one of the ways RPC payloads go wrong: an odd field,
    a missing key, a non-object entry or a dict subclass."""
    txs = draw(st.lists(st.fixed_dictionaries({
        "hash": _hex(64),
        "from": _hex(40),
        "to": st.one_of(st.none(), st.just("0x" + "0" * 40), _hex(40)),
        "value": _quantities,
    }), max_size=max_size))
    for _ in range(draw(st.integers(0, 3)) if txs and faults else 0):
        i = draw(st.integers(0, len(txs) - 1))
        kind = draw(st.sampled_from(["field", "field", "field", "missing", "entry", "subclass"]))
        if kind == "entry":
            txs[i] = draw(st.sampled_from([None, "tx", 5, [], ["0x1"]]))
        elif not isinstance(txs[i], dict):
            continue
        elif kind == "subclass":
            txs[i] = TxDict(txs[i])
        else:
            key = draw(st.sampled_from(["hash", "from", "to", "value"]))
            if kind == "missing":
                txs[i].pop(key, None)
            else:
                valid = txs[i].get(key) if isinstance(txs[i].get(key), str) else "0x1"
                txs[i][key] = draw(_odd_value(valid))
    return txs

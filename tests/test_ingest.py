import errno
import hashlib
import json
import os
import re
import struct
import sys
import tempfile
import threading
import time

import pytest
import requests
from hypothesis import given, settings, strategies as st

from chaingraph.ingest import (
    CACHE_FORMAT,
    BlockCache,
    BlockRecord,
    BlockNotFoundError,
    BlockParseError,
    CacheCorruptError,
    OfflineMissError,
    RpcError,
    SnapshotSpec,
    TransportError,
    _block_body,
    _parse_tx,
    _parse_txs_by_column,
    fetch_range,
    parse_block_json,
    parse_quantity,
    canonical_address,
)

from conftest import (FIXTURES, MockEndpoint, StubSession, TxDict, addr, block_from_rows,
                      creation_rows, raw_block, raw_tx, rpc_transactions, stub_endpoint, tx_hash,
                      tx_rows)
from oracles import chain_head, format4_body, record_encode, write_entry

FORMAT_4 = b"chaingraph-block/4"


def per_transaction(txs):
    """parse_block_json's transactions by the per-transaction parser alone:
    the (hash, sender, recipient) rows, with a hash for creations only, or
    the field named by the BlockParseError it raises."""
    try:
        return creation_rows(_parse_tx(t, i) for i, t in enumerate(txs))
    except BlockParseError as exc:
        return exc.field


def parsed_transactions(raw):
    """parse_block_json's transactions as rows, or the field its
    BlockParseError names."""
    try:
        block = parse_block_json(raw)
    except BlockParseError as exc:
        return exc.field
    return tx_rows(block)


class TestParseBlockJson:
    def test_empty_transactions(self):
        rec = parse_block_json(raw_block(5, []))
        assert rec.number == 5
        assert tx_rows(rec) == ()
        assert rec.recipients == () and rec.creation_hashes == b""

    def test_fixture_a(self, fixture_a_record):
        rec = fixture_a_record
        # hand-checked against the fixture JSON fields
        assert rec.number == 68943
        assert rec.timestamp == 1439799105
        assert rec.miner == "0xbb7b8287f3f0a933474a79eae42cbca977791171"
        assert len(rec.senders) == len(rec.recipients) == 3
        assert [i for i, r in enumerate(rec.recipients) if r is None] == [1]
        raw = json.loads(FIXTURES.joinpath("block_fixture_a.json").read_text())
        assert rec.creation_hashes == bytes.fromhex(raw["transactions"][1]["hash"][2:])
        assert rec.senders[0] == "0x32be343b94f860124dc4fee278fdcbd38c102d88"

    def test_records_immutable_and_hashable(self, fixture_a_record):
        rec = fixture_a_record
        for field in ("number", "senders", "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(rec, field, 1)
        copy = block_from_rows(rec.number, rec.hash, rec.timestamp, rec.miner, tx_rows(rec))
        assert copy == rec and hash(copy) == hash(rec)
        assert len({rec, copy}) == 1

    def test_hex_quantity(self):
        assert parse_quantity("0x10", "number") == 16

    def test_contract_creation_to_null(self):
        rec = parse_block_json(raw_block(1, [raw_tx(1, addr(1), None)]))
        assert rec.recipients == (None,)

    def test_mixed_case_address_canonicalized(self):
        mixed = "0xAbC" + "0" * 37
        rec = parse_block_json(raw_block(1, [raw_tx(1, mixed, addr(2))]))
        assert rec.senders == (mixed.lower(),)

    def test_missing_field_named(self):
        bad = raw_block(1, [])
        del bad["miner"]
        with pytest.raises(BlockParseError, match="miner"):
            parse_block_json(bad)

    def test_non_hex_quantity(self):
        bad = raw_block(1, [])
        bad["number"] = "xyz"
        with pytest.raises(BlockParseError, match="number"):
            parse_block_json(bad)

    def test_wrong_length_address(self):
        with pytest.raises(BlockParseError, match="from"):
            parse_block_json(raw_block(1, [raw_tx(1, "0x1234", addr(2))]))

    def test_value_over_256_bits(self):
        bad = raw_block(1, [raw_tx(1, addr(1), addr(2), value=2**256)])
        with pytest.raises(BlockParseError, match="value"):
            parse_block_json(bad)

    # An int in [0, 2**260) with its number of significant hex digits, 0 to
    # 65, drawn first: a plain integers(0, 2**260 - 1) favours small values
    # and rarely crosses 2**256, the 65-digit ones.
    @given(value=st.integers(0, 65).flatmap(lambda d: st.integers(16**d // 16, 16**d - 1)),
           zeros=st.integers(0, 3), upper=st.booleans())
    def test_value_accepted_iff_below_2_256(self, value, zeros, upper):
        # The column check and the per-transaction parser draw the bound
        # in the same place, whatever the leading zeros.
        txs = [raw_tx(i, addr(i), addr(i + 1)) for i in range(3)]
        txs[1]["value"] = "0x" + "0" * zeros + format(value, "X" if upper else "x")
        by_column = _parse_txs_by_column(txs)
        by_row = per_transaction(txs)
        if value < 2**256:
            assert by_column is not None and isinstance(by_row, tuple)
        else:
            assert by_column is None and by_row == "transactions[1].value"

    @pytest.mark.parametrize("last", ["0x" + "f" * 65, "0xg"])
    def test_bad_value_after_leading_zeros_refused_quickly(self, last):
        # Could a field of the value column match in more than one way, a
        # column that fails would retry every split of every earlier field:
        # here 2**30 * 3**30 of them.
        txs = [raw_tx(i, addr(i), addr(i + 1)) for i in range(61)]
        for i, tx in enumerate(txs[:60]):
            tx["value"] = ("0x01", "0x001")[i % 2]
        txs[60]["value"] = last
        start = time.perf_counter()
        with pytest.raises(BlockParseError) as exc:
            parse_block_json(raw_block(1, txs))
        assert exc.value.field == "transactions[60].value"
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("field", ["number", "timestamp"])
    def test_over_64_bits_refused(self, tmp_path, field):
        # The cache holds both as u64: such a block is refused before any
        # write, not half-written by struct.
        raw = raw_block(12, [raw_tx(1, addr(1), addr(2))])
        raw[field] = hex(2**64)
        with pytest.raises(BlockParseError, match="64-bit") as exc:
            parse_block_json(raw)
        assert exc.value.field == field
        with pytest.raises(BlockParseError):
            BlockCache(tmp_path).store(int(raw["number"], 16), raw)
        assert list(tmp_path.iterdir()) == []
        raw[field] = hex(2**64 - 1)
        assert getattr(parse_block_json(raw), field) == 2**64 - 1

    @pytest.mark.parametrize("value", [-1, True])
    def test_negative_or_bool_quantity_rejected(self, value):
        bad = raw_block(1, [raw_tx(1, addr(1), addr(2))])
        bad["transactions"][0]["value"] = value
        with pytest.raises(BlockParseError, match="value"):
            parse_block_json(bad)

    @given(st.integers(min_value=0, max_value=2**256 - 1))
    def test_quantity_round_trip(self, value):
        assert parse_quantity(hex(value), "x") == value

    def test_canonical_address_idempotent(self):
        a = canonical_address("0xAbCdEf" + "1" * 34, "x")
        assert canonical_address(a, "x") == a

    @pytest.mark.parametrize("field", [
        "transactions[1].hash", "transactions[1].from", "transactions[1].to",
        "transactions[1].value", "number", "hash", "timestamp", "miner"])
    def test_trailing_newline_refused(self, tmp_path, field):
        raw = raw_block(12, [raw_tx(i, addr(i), addr(i + 1), value=i) for i in range(3)])
        obj = raw["transactions"][1] if field.startswith("transactions") else raw
        key = field.rpartition(".")[2]
        obj[key] += "\n"
        with pytest.raises(BlockParseError) as exc:
            parse_block_json(raw)
        assert exc.value.field == field
        with pytest.raises(BlockParseError):
            BlockCache(tmp_path).store(12, raw)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,extra", [
        ("hash", " " + tx_hash(99)), ("from", " " + addr(99)), ("to", " " + addr(99)),
        ("to", " -"), ("value", " 0x2")])
    def test_field_holding_the_column_separator_refused(self, key, extra):
        # Joined with spaces, such a field still matches its column as two
        # fields; the records after it must not shift by one.
        txs = [raw_tx(i, addr(i), addr(i + 1), value=i) for i in range(3)]
        txs[1][key] += extra
        with pytest.raises(BlockParseError) as exc:
            parse_block_json(raw_block(1, txs))
        assert exc.value.field == f"transactions[1].{key}"

    def test_dash_recipient_refused(self):
        # As an RPC "to", "-" is no address, also next to a creation.
        txs = [raw_tx(1, addr(1), None), raw_tx(2, addr(2), "-")]
        with pytest.raises(BlockParseError) as exc:
            parse_block_json(raw_block(1, txs))
        assert exc.value.field == "transactions[1].to"

    @pytest.mark.parametrize("change,common", [
        (lambda tx: {**tx, "value": 255}, lambda tx: {**tx, "value": "0xff"}),
        (lambda tx: {k: v for k, v in tx.items() if k != "to"}, lambda tx: {**tx, "to": None}),
        (lambda tx: {k: v for k, v in tx.items() if k != "value"},
         lambda tx: {**tx, "value": "0x0"}),
        (TxDict, dict),
    ], ids=["int-value", "no-to", "no-value", "dict-subclass"])
    def test_rare_shapes_accepted(self, tmp_path, change, common):
        # The per-transaction parser stores a rare shape byte for byte as
        # the column parser stores the same transactions in the common one.
        txs = [raw_tx(i, addr(i), addr(i + 1), value=i) for i in range(3)]
        rare, plain = list(txs), list(txs)
        rare[1], plain[1] = change(txs[1]), common(txs[1])
        assert _parse_txs_by_column(rare) is None and _parse_txs_by_column(plain) is not None
        assert tx_rows(parse_block_json(raw_block(1, rare))) == per_transaction(rare)
        entries = []
        for name, shape in (("rare", rare), ("common", plain)):
            cache = BlockCache(tmp_path / name)
            cache.store(1, raw_block(1, shape))
            entries.append(cache.path(1).read_bytes())
        assert entries[0] == entries[1]

    @settings(max_examples=300)
    @given(txs=rpc_transactions())
    def test_matches_per_transaction_parser(self, txs):
        # The same records, or a BlockParseError naming the same field.
        assert parsed_transactions(raw_block(1, txs)) == per_transaction(txs)

    @given(txs=rpc_transactions(max_size=20, faults=False))
    def test_common_shape_parsed_by_column(self, txs):
        # The body holds the per-transaction parser's rows, as the format's
        # reference encodes them (a hash for creations only), and loads as
        # them.
        rows = per_transaction(txs)
        assert _parse_txs_by_column(txs) is not None
        raw = raw_block(1, txs)
        block = block_from_rows(1, raw["hash"], 1_500_000_000, raw["miner"], rows)
        assert _block_body(raw) == record_encode(block)
        assert parse_block_json(raw) == block


class TestSnapshotSpec:
    def test_numbers(self):
        assert list(SnapshotSpec(100, 3).numbers()) == [100, 101, 102]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            SnapshotSpec(100, 0)

    def test_parse(self):
        assert SnapshotSpec.parse("100:3") == SnapshotSpec(100, 3)
        with pytest.raises(ValueError):
            SnapshotSpec.parse("nope")


def fetch_one(endpoint, number, cache_dir):
    """Block ``number`` through fetch_range, the one path that fetches."""
    (block,) = fetch_range(endpoint, SnapshotSpec(number, 1), BlockCache(cache_dir))
    return block


@pytest.fixture
def sleeps(monkeypatch):
    """The retry backoffs, recorded instead of slept."""
    slept = []
    monkeypatch.setattr("chaingraph.ingest.time.sleep", slept.append)
    return slept


class TestFetchBlock:
    def test_fetch_and_parse(self, tmp_path):
        ep = MockEndpoint({7: raw_block(7, [raw_tx(1, addr(1), addr(2))])})
        rec = fetch_one(ep, 7, tmp_path)
        assert rec.number == 7
        assert rec.senders == (addr(1),) and rec.recipients == (addr(2),)

    def test_beyond_head(self, tmp_path):
        ep = MockEndpoint({7: raw_block(7, [])})
        with pytest.raises(BlockNotFoundError):
            fetch_one(ep, 99, tmp_path)

    def test_rpc_error_not_retried(self, tmp_path):
        ep = MockEndpoint({}, rpc_error=(-32000, "boom"))
        with pytest.raises(RpcError) as exc:
            fetch_one(ep, 1, tmp_path)
        assert exc.value.code == -32000
        assert len(ep.calls) == 1

    def test_transport_error_retried(self, tmp_path, sleeps):
        ep = MockEndpoint({7: raw_block(7, [])}, transport_failures=2)
        rec = fetch_one(ep, 7, tmp_path)
        assert rec.number == 7
        assert len(ep.calls) == 3
        assert sleeps == [0.5, 1.0]
        assert BlockCache(tmp_path).get(7) == rec

    def test_transport_error_exhausts_retries(self, tmp_path, sleeps):
        ep = MockEndpoint({7: raw_block(7, [])}, transport_failures=10)
        with pytest.raises(TransportError):
            fetch_one(ep, 7, tmp_path)
        assert len(ep.calls) == 3
        assert sleeps == [0.5, 1.0]
        assert BlockCache(tmp_path).get(7) is None
        assert list(tmp_path.iterdir()) == []  # no entry and no temp file

    def test_chain_head(self):
        assert chain_head(MockEndpoint({41: raw_block(41, [])})) == 41


class TestJsonRpcEndpoint:
    @pytest.mark.parametrize("body", [
        [1, 2], None, "an error page", 7,
        {"error": "text"}, {"error": ["x"]},
        {"jsonrpc": "2.0", "id": 1},
    ])
    def test_malformed_reply_is_transport_error(self, body):
        with pytest.raises(TransportError, match="eth_getBlockByNumber"):
            stub_endpoint(body).call("eth_getBlockByNumber", ["0x1", True])

    def test_null_result_is_none(self):
        assert stub_endpoint({"jsonrpc": "2.0", "id": 1, "result": None}).call(
            "eth_getBlockByNumber", ["0x1", True]) is None

    def test_result_returned(self):
        endpoint = stub_endpoint({"jsonrpc": "2.0", "id": 1, "result": "0x29"})
        assert endpoint.call("eth_blockNumber", []) == "0x29"
        assert endpoint._session.posts[0]["method"] == "eth_blockNumber"

    def test_error_object_is_rpc_error(self):
        body = {"error": {"code": -32000, "message": "boom"}, "result": None}
        with pytest.raises(RpcError) as exc:
            stub_endpoint(body).call("eth_blockNumber", [])
        assert (exc.value.code, exc.value.message) == (-32000, "boom")

    def test_non_object_reply_retried_then_raised(self, tmp_path, sleeps):
        endpoint = stub_endpoint(["not", "a", "response"])
        with pytest.raises(TransportError):
            fetch_one(endpoint, 1, tmp_path)
        assert len(endpoint._session.posts) == 3

    @pytest.mark.parametrize("error", [
        requests.ConnectionError("connection refused"),
        requests.Timeout("read timed out"),
    ], ids=["connection", "timeout"])
    def test_http_failure_retried_then_raised(self, error, tmp_path, sleeps):
        endpoint = stub_endpoint(None)
        endpoint._session = FailingSession(error)
        with pytest.raises(TransportError, match="eth_getBlockByNumber failed") as exc:
            fetch_one(endpoint, 1, tmp_path)
        assert exc.value.__cause__ is error
        assert len(endpoint._session.posts) == 3

    def test_body_not_json_retried_then_raised(self, tmp_path, sleeps):
        endpoint = stub_endpoint(None)
        endpoint._session = NotJsonSession(None)
        with pytest.raises(TransportError, match="Expecting value"):
            fetch_one(endpoint, 1, tmp_path)
        assert len(endpoint._session.posts) == 3


class FailingSession(StubSession):
    """Every POST raises ``error``, as requests does on a network fault."""

    def __init__(self, error):
        super().__init__(None)
        self.error = error

    def post(self, url, json, timeout):
        self.posts.append(json)
        raise self.error


class NotJsonSession(StubSession):
    """Every POST succeeds, but the body does not parse as JSON."""

    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


def rpc_result(block: BlockRecord) -> dict:
    """A JSON-RPC block result that parses to ``block``: its payments,
    whose hashes the record does not keep, get made-up ones."""
    return {
        "number": hex(block.number), "hash": block.hash,
        "timestamp": hex(block.timestamp), "miner": block.miner,
        "transactions": [{"hash": h or tx_hash(i), "from": sender, "to": recipient,
                          "value": "0x0"}
                         for i, (h, sender, recipient) in enumerate(tx_rows(block))],
    }


def _hex_bytes(size: int) -> st.SearchStrategy[str]:
    # All-zero fields are drawn often: the zero address is a real
    # recipient, not a contract creation.
    return st.one_of(st.just(bytes(size)), st.binary(min_size=size, max_size=size)).map(
        lambda b: "0x" + b.hex())


_uint64 = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
_creations = st.tuples(_hex_bytes(32), _hex_bytes(20), st.none())
_transfers = st.tuples(_hex_bytes(32), _hex_bytes(20), _hex_bytes(20))


def block_records() -> st.SearchStrategy[BlockRecord]:
    """Valid blocks: none, some or all of their transactions creations."""
    txs = st.one_of(st.lists(st.one_of(_transfers, _creations), max_size=8),
                    st.lists(_creations, min_size=1, max_size=4))
    return st.builds(block_from_rows, _uint64, _hex_bytes(32), _uint64, _hex_bytes(20), txs)


def cache_body(fmt=5, number=12, n=3, recipients=(b"\x21", b"\x00", b"\x00"),
               creations=(1,)) -> bytes:
    """A body of three transactions in cache format ``fmt``, 5 or 4, built
    part by part so that any one part can be made wrong. As given, the
    second transaction is a creation and the third pays the zero address.
    Format 4 holds every tx hash in a column after the header; format 5
    holds the hashes of the listed creations after their indices."""
    hashes = [bytes([i]) * 32 for i in (1, 4, 7)]
    head = struct.pack(">QQI32s20s", number, 1_500_000_000, n, b"\xab" * 32, b"\xcd" * 20)
    columns = (b"".join(bytes([i]) * 20 for i in (2, 5, 8))
               + b"".join(r * 20 for r in recipients)
               + struct.pack(f">I{len(creations)}I", len(creations), *creations))
    if fmt == 4:
        return head + b"".join(hashes) + columns
    return head + columns + b"".join(hashes[i] if i < 3 else bytes(32) for i in creations)


def malformed_bodies():
    """Format-5 bodies that a read must refuse for block 12, by what is
    wrong with them."""
    return {
        "extended-space": cache_body() + b" ",
        "extended-digit": cache_body() + b"0",
        "extended-newline": cache_body() + b"\n",
        "extended-u32": cache_body() + bytes(4),
        "values-as-format-3": cache_body() + b"ff 0 1",
        "tx-count-0": cache_body(n=0),
        "tx-count-2": cache_body(n=2),
        "tx-count-4": cache_body(n=4),
        "byte-without-tx": cache_body(n=0)[:72] + bytes(4) + b"0",
        "unsorted": cache_body(recipients=(b"\x00",) * 3, creations=(1, 0)),
        "duplicated": cache_body(creations=(1, 1)),
        "out-of-range": cache_body(creations=(3,)),
        "out-of-range-u32-max": cache_body(creations=(1, 2**32 - 1)),
        "non-zero-slot": cache_body(creations=(0,)),
        "another-block": cache_body(number=13),
        "other-format": cache_body(4),
    }


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = BlockCache(tmp_path)
        result = raw_block(12, [raw_tx(1, addr(1), addr(2), value=3)])
        cache.store(12, result)
        block = cache.get(12)
        assert block == parse_block_json(result)
        # Equal tuples are not enough: loads build BlockRecord named tuples.
        assert type(block) is BlockRecord
        assert (block.senders, block.recipients) == ((addr(1),), (addr(2),))
        assert hash(block) == hash(parse_block_json(result))
        with pytest.raises(AttributeError):
            block.senders = (addr(4),)

    @given(txs=st.lists(st.tuples(
        st.integers(min_value=0, max_value=2**160 - 1),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**160 - 1)),
        st.integers(min_value=0, max_value=2**256 - 1),
        st.booleans()), max_size=6),
        number=st.integers(min_value=0, max_value=10**9),
        timestamp=st.integers(min_value=0, max_value=2**40))
    def test_store_load_round_trip(self, txs, number, timestamp):
        raw_txs = []
        for i, (sender, recipient, value, upper) in enumerate(txs):
            case = str.upper if upper else str.lower
            raw_txs.append(raw_tx(i, "0x" + case(format(sender, "040x")),
                                  None if recipient is None
                                  else "0x" + case(format(recipient, "040x")),
                                  value=value))
        raw = raw_block(number, raw_txs, timestamp=timestamp)
        with tempfile.TemporaryDirectory() as tmp:
            cache = BlockCache(tmp)
            stored = cache.store(number, raw)
            assert stored == parse_block_json(raw)
            loaded = cache.get(number)
            assert loaded == stored
            assert type(loaded) is BlockRecord

    @settings(max_examples=200)
    @given(txs=rpc_transactions(),
           header=st.fixed_dictionaries({}, optional={
               "hash": st.sampled_from(["\n", " ", "0"]),
               "miner": st.sampled_from(["\n", " ", "0"]),
               "timestamp": st.sampled_from(["\n", " ", "0"])}))
    def test_every_stored_block_loads_unchanged(self, txs, header):
        raw = raw_block(12, txs)
        for key, suffix in header.items():
            raw[key] += suffix
        with tempfile.TemporaryDirectory() as tmp:
            cache = BlockCache(tmp)
            try:
                stored = cache.store(12, raw)
            except BlockParseError:
                assert os.listdir(tmp) == []
                return
            loaded = cache.get(12)
            assert loaded == stored == parse_block_json(raw)
            assert tx_rows(loaded) == per_transaction(txs)

    def test_fixture_entry_pinned(self, tmp_path):
        # The bytes on disk: a change of layout fails here, not only in a
        # reader of caches written before it.
        raw = json.loads(FIXTURES.joinpath("block_fixture_a.json").read_text())
        cache = BlockCache(tmp_path)
        block = cache.store(68943, raw)
        entry = cache.path(68943).read_bytes()
        assert entry.partition(b"\n")[2] == record_encode(block)
        assert hashlib.sha256(entry).hexdigest() == (
            "61532cb5ca96c7bd4493310c27c3558bd66ec9dc3680ea70ce6c670f77278b9f")
        # The format-4 reference gives the entry that format 4 stored, as
        # pinned when it was the format written; a read refuses it.
        write_entry(cache.path(68943), format4_body(raw), FORMAT_4)
        assert hashlib.sha256(cache.path(68943).read_bytes()).hexdigest() == (
            "cf81998c88afaa13cdfc31d46ee8c03ad2e163c74b60b8120ac00bfb22a5eed3")
        with pytest.raises(CacheCorruptError, match="unknown format 'chaingraph-block/4'"):
            cache.get(68943)

    @given(block=block_records())
    def test_stored_record_loads_unchanged(self, block):
        with tempfile.TemporaryDirectory() as tmp:
            cache = BlockCache(tmp)
            assert cache.store(block.number, rpc_result(block)) == block
            assert cache.get(block.number) == block
            header, _, body = cache.path(block.number).read_bytes().partition(b"\n")
            assert header.startswith(CACHE_FORMAT + b" sha256:")
            assert body == record_encode(block)

    @given(block=block_records())
    def test_stored_body_size(self, block):
        # 72 header bytes, 40 per transaction and 4 + 36 per creation: of
        # the tx hashes, only the creations' are stored.
        n, created = len(block.senders), block.recipients.count(None)
        with tempfile.TemporaryDirectory() as tmp:
            cache = BlockCache(tmp)
            cache.store(block.number, rpc_result(block))
            body = cache.path(block.number).read_bytes().partition(b"\n")[2]
            assert len(body) == 72 + 40 * n + 4 + 36 * created

    @settings(max_examples=200, print_blob=True)
    @given(block=block_records(), data=st.data())
    def test_accepted_body_reencodes_to_itself(self, block, data):
        # A body changed in any way, with its checksum made to match,
        # loads only if it is exactly what store writes for what loads.
        body = record_encode(block)
        start = data.draw(st.integers(0, len(body)))
        end = data.draw(st.integers(start, min(len(body), start + 8)))
        insert = data.draw(st.one_of(st.binary(max_size=8),
                                     st.text("0123456789abcdef x", max_size=8).map(str.encode)))
        changed = body[:start] + insert + body[end:]
        with tempfile.TemporaryDirectory() as tmp:
            cache = BlockCache(tmp)
            write_entry(cache.path(block.number), changed, CACHE_FORMAT)
            try:
                loaded = cache.get(block.number)
            except CacheCorruptError as exc:
                assert str(cache.path(block.number)) in str(exc)
                return
            assert _block_body(rpc_result(loaded)) == changed

    def test_corruption_detected(self, tmp_path):
        cache = BlockCache(tmp_path)
        cache.store(12, raw_block(12, []))
        path = cache.path(12)
        data = bytearray(path.read_bytes())
        data[data.index(b"\n") + 5] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CacheCorruptError):
            cache.get(12)
        with pytest.raises(CacheCorruptError, match=str(path)):
            cache.get(12)

    def test_unknown_format_rejected(self, tmp_path):
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), cache_body(), b"chaingraph-block/9")
        with pytest.raises(CacheCorruptError,
                           match=f"{cache.path(12)}: unknown format 'chaingraph-block/9'"):
            cache.get(12)

    _DIGEST = hashlib.sha256(cache_body()).hexdigest().encode()

    @pytest.mark.parametrize("header,message", [
        (CACHE_FORMAT, "checksum mismatch"),
        (CACHE_FORMAT + b" " + _DIGEST, "checksum mismatch"),
        (CACHE_FORMAT + b" sha1:" + _DIGEST, "checksum mismatch"),
        (CACHE_FORMAT + b" sha256:" + _DIGEST.upper(), "checksum mismatch"),
        (CACHE_FORMAT + b" sha256:" + _DIGEST[:-1], "checksum mismatch"),
        (CACHE_FORMAT + b"  sha256:" + _DIGEST, "checksum mismatch"),
        (CACHE_FORMAT + b" sha256:" + _DIGEST + b" ", "checksum mismatch"),
        (CACHE_FORMAT + b" sha256:" + _DIGEST + b"\r", "checksum mismatch"),
        (CACHE_FORMAT + b" sha256:" + hashlib.sha256(cache_body(number=13)).hexdigest().encode(),
         "checksum mismatch"),
        (FORMAT_4 + b" sha256:" + _DIGEST, "unknown format 'chaingraph-block/4'"),
        (b"", "unknown format ''"),
        (b"Chaingraph-block/5 sha256:" + _DIGEST, "unknown format 'Chaingraph-block/5'"),
        (b"chaingraph-block/50 sha256:" + _DIGEST, "unknown format 'chaingraph-block/50'"),
        (b"chaingraph-block/5\tsha256:" + _DIGEST,
         "unknown format " + repr("chaingraph-block/5\tsha256:" + _DIGEST[:14].decode())),
        (b"chaingraph-block/5" + b"x" * 30, "unknown format 'chaingraph-block/5" + "x" * 22 + "'"),
        (b"chaingraph-block/\xff sha256:" + _DIGEST, "unknown format 'chaingraph-block/�'"),
    ], ids=["no-checksum", "bare-digest", "sha1", "uppercase-digest", "short-digest",
            "two-spaces", "trailing-space", "crlf", "digest-of-another-body",
            "format-5-body-as-format-4", "no-header",
            "uppercase-name", "longer-name", "tab-separated", "name-cut-at-40", "non-ascii-name"])
    def test_malformed_header_refused(self, tmp_path, header, message):
        # Only the exact header that store writes is read: any other is
        # refused with what is wrong, at most 40 characters of the name,
        # and the entry is left as it is.
        cache = BlockCache(tmp_path)
        cache.path(12).write_bytes(header + b"\n" + cache_body())
        before = cache.path(12).read_bytes()
        exact = f"^{re.escape(f'{cache.path(12)}: {message}')}$"
        with pytest.raises(CacheCorruptError, match=exact):
            cache.get(12)
        assert cache.path(12).read_bytes() == before

    def test_every_cut_refused(self, tmp_path):
        cache = BlockCache(tmp_path)
        body = cache_body()
        for size in range(len(body)):
            write_entry(cache.path(12), body[:size], CACHE_FORMAT)
            with pytest.raises(CacheCorruptError, match=str(cache.path(12))):
                cache.get(12)

    @pytest.mark.parametrize("body", [
        pytest.param(body, id=f"format-5-{case}") for case, body in malformed_bodies().items()])
    def test_malformed_body_with_valid_checksum(self, tmp_path, body):
        # Refused, and left as it is.
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), body, CACHE_FORMAT)
        before = cache.path(12).read_bytes()
        with pytest.raises(CacheCorruptError, match=str(cache.path(12))):
            cache.get(12)
        assert cache.path(12).read_bytes() == before

    def test_entry_of_another_block_refused(self, tmp_path):
        cache = BlockCache(tmp_path)
        cache.store(12, raw_block(12, [raw_tx(1, addr(1), addr(2))]))
        cache.path(13).write_bytes(cache.path(12).read_bytes())
        with pytest.raises(CacheCorruptError, match="holds block 12, not 13"):
            cache.get(13)

    def test_reads_never_write(self, tmp_path, monkeypatch):
        # A read opens no file for writing and renames none, whatever it
        # finds: a miss, a valid entry, a corrupt one or one of an old
        # format (3 or 4), which is refused, not migrated. A miss does not
        # make a mistyped directory either.
        cache = BlockCache(tmp_path / "cache")
        cache.directory.mkdir()
        write_entry(cache.path(12), cache_body(), CACHE_FORMAT)
        write_entry(cache.path(13), cache_body(number=13), CACHE_FORMAT)
        cache.path(13).write_bytes(cache.path(13).read_bytes()[:-1] + b"\x02")
        write_entry(cache.path(14), cache_body(4, number=14) + b"ff 0 1", b"chaingraph-block/3")
        write_entry(cache.path(15), cache_body(4, number=15), FORMAT_4)
        before = {p.name: p.read_bytes() for p in cache.directory.iterdir()}
        calls = []

        def spy(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("open", "replace"):
            monkeypatch.setattr(f"chaingraph.ingest.os.{name}", spy(name, getattr(os, name)))
        mistyped = BlockCache(tmp_path / "mistyped")
        assert mistyped.get(12) is None
        assert cache.get(11) is None
        # The second transaction is a creation; the third pays the zero address.
        assert cache.get(12).recipients == ("0x" + "21" * 20, None, "0x" + "00" * 20)
        with pytest.raises(CacheCorruptError, match="checksum mismatch"):
            cache.get(13)
        with pytest.raises(CacheCorruptError, match="unknown format 'chaingraph-block/3'"):
            cache.get(14)
        with pytest.raises(CacheCorruptError, match="unknown format 'chaingraph-block/4'"):
            cache.get(15)
        assert calls == []
        assert not mistyped.directory.exists()
        assert {p.name: p.read_bytes() for p in cache.directory.iterdir()} == before

    def test_refused_store_makes_no_directory(self, tmp_path):
        # The directory is made by the first write, not by a store that
        # writes nothing.
        cache = BlockCache(tmp_path / "cache")
        raw = raw_block(12, [raw_tx(1, addr(1), addr(2))])
        with pytest.raises(BlockParseError):
            cache.store(13, raw)
        with pytest.raises(BlockParseError):
            cache.store(12, {**raw, "hash": "0x12"})
        assert not cache.directory.exists()
        assert cache.store(12, raw) == cache.get(12)
        assert [p.name for p in cache.directory.iterdir()] == [cache.path(12).name]

    def test_store_leaves_other_writers_temp_file(self, tmp_path):
        cache = BlockCache(tmp_path)
        other = cache.path(12).with_suffix(".tmp")
        other.write_bytes(b"half-written by another writer")
        raw = raw_block(12, [raw_tx(1, addr(1), addr(2))])
        cache.store(12, raw)
        assert other.read_bytes() == b"half-written by another writer"
        assert cache.get(12) == parse_block_json(raw)

    def test_concurrent_stores_of_one_block(self, tmp_path):
        # The writers also race to make the missing directory.
        cache = BlockCache(tmp_path / "cache")
        raw = raw_block(12, [raw_tx(i, addr(i), addr(i + 1)) for i in range(50)])
        errors = []

        def writer():
            try:
                for _ in range(20):
                    cache.store(12, raw)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [p.name for p in cache.directory.iterdir()] == [cache.path(12).name]
        assert cache.get(12) == parse_block_json(raw)

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = BlockCache(tmp_path)

        def refuse(source, target):
            raise PermissionError("rename refused")

        monkeypatch.setattr("chaingraph.ingest.os.replace", refuse)
        with pytest.raises(PermissionError):
            cache.store(12, raw_block(12, []))
        assert list(tmp_path.iterdir()) == []

    def test_failed_temp_file_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = BlockCache(tmp_path)
        temp_files = []

        def disk_full(fd, data):
            temp_files.extend(p.name for p in tmp_path.iterdir())
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("chaingraph.ingest.os.write", disk_full)
        with pytest.raises(OSError, match="No space left"):
            cache.store(12, raw_block(12, [raw_tx(1, addr(1), addr(2))]))
        assert len(temp_files) == 1 and temp_files[0].endswith(".tmp")
        assert list(tmp_path.iterdir()) == []

    def test_store_refuses_another_block(self, tmp_path):
        cache = BlockCache(tmp_path)
        with pytest.raises(BlockParseError, match="number"):
            cache.store(13, raw_block(12, []))
        assert not cache.path(13).exists()


class TestFetchRange:
    def make(self, numbers):
        return {n: raw_block(n, [raw_tx(n, addr(n), addr(n + 1))]) for n in numbers}

    def test_cold_then_warm(self, tmp_path):
        ep = MockEndpoint(self.make(range(100, 103)))
        cache = BlockCache(tmp_path)
        spec = SnapshotSpec(100, 3)
        first = list(fetch_range(ep, spec, cache))
        assert [b.number for b in first] == [100, 101, 102]
        assert sorted(ep.block_calls()) == [100, 101, 102]

        warm = list(fetch_range(MockEndpoint({}), spec, cache))
        assert warm == first

    def test_warm_single_block_zero_calls(self, tmp_path):
        cache = BlockCache(tmp_path)
        cache.store(100, raw_block(100, []))
        ep = MockEndpoint({})
        assert len(list(fetch_range(ep, SnapshotSpec(100, 1), cache))) == 1
        assert ep.calls == []

    def test_gap_resume_fetches_only_missing(self, tmp_path):
        cache = BlockCache(tmp_path)
        cache.store(101, raw_block(101, []))
        ep = MockEndpoint(self.make([100, 102]))
        blocks = list(fetch_range(ep, SnapshotSpec(100, 3), cache))
        assert [b.number for b in blocks] == [100, 101, 102]
        assert sorted(ep.block_calls()) == [100, 102]

    def test_corrupt_entry_refetched_alone(self, tmp_path):
        cache = BlockCache(tmp_path)
        for n in (100, 101, 102):
            cache.store(n, raw_block(n, []))
        path = cache.path(101)
        path.write_text("sha256:deadbeef\n{}\n")
        ep = MockEndpoint(self.make([101]))
        blocks = list(fetch_range(ep, SnapshotSpec(100, 3), cache))
        assert [b.number for b in blocks] == [100, 101, 102]
        assert ep.block_calls() == [101]
        assert cache.get(101) == blocks[1]

    def test_corrupt_entry_offline_reported(self, tmp_path):
        cache = BlockCache(tmp_path)
        for n in (100, 101, 102):
            cache.store(n, raw_block(n, []))
        path = cache.path(101)
        path.write_bytes(path.read_bytes().replace(struct.pack(">Q", 1_500_000_000),
                                                   struct.pack(">Q", 1_500_000_001)))
        with pytest.raises(CacheCorruptError, match=str(path)):
            list(fetch_range(None, SnapshotSpec(100, 3), cache))

    @pytest.mark.parametrize("old", ["format-4", "format-3", "format-2", "legacy-json"])
    def test_entry_of_an_old_format_refetched(self, tmp_path, old):
        # Such an entry is corrupt: named offline and left as it is,
        # refetched online and stored as a fresh fetch stores the block.
        raw = raw_block(12, [raw_tx(1, addr(1), addr(2), value=255), raw_tx(4, addr(5), None)])
        (tmp_path / "cache").mkdir()
        cache = BlockCache(tmp_path / "cache")
        path = cache.path(12)
        if old == "format-4":
            write_entry(path, format4_body(raw), FORMAT_4)
            found = "chaingraph-block/4"
        elif old == "format-3":
            write_entry(path, format4_body(raw) + b"ff 0", b"chaingraph-block/3")
            found = "chaingraph-block/3"
        elif old == "format-2":
            body = (f"12 {raw['hash']} 1500000000 {raw['miner']}\n"
                    f"{tx_hash(1)} {addr(1)} {addr(2)} ff\n{tx_hash(4)} {addr(5)} - 0\n")
            write_entry(path, body.encode(), b"chaingraph-block/2")
            found = "chaingraph-block/2"
        else:
            text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
            path.write_text(f"sha256:{hashlib.sha256(text.encode()).hexdigest()}\n{text}\n")
            found = "sha256:"
        before = path.read_bytes()
        with pytest.raises(CacheCorruptError, match=f"{path}: unknown format '{found}"):
            cache.get(12)
        with pytest.raises(CacheCorruptError, match=str(path)):
            list(fetch_range(None, SnapshotSpec(12, 1), cache))
        assert path.read_bytes() == before
        ep = MockEndpoint({12: raw})
        assert list(fetch_range(ep, SnapshotSpec(12, 1), cache)) == [parse_block_json(raw)]
        assert ep.block_calls() == [12]
        fresh = BlockCache(tmp_path / "fresh")
        fresh.store(12, raw)
        assert path.read_bytes() == fresh.path(12).read_bytes()

    def test_malformed_block_not_cached(self, tmp_path):
        raw = raw_block(100, [])
        del raw["miner"]
        cache = BlockCache(tmp_path)
        with pytest.raises(BlockParseError, match="miner"):
            list(fetch_range(MockEndpoint({100: raw}), SnapshotSpec(100, 1), cache))
        assert not cache.path(100).exists()

    def test_offline_miss_raises(self, tmp_path):
        cache = BlockCache(tmp_path)
        with pytest.raises(OfflineMissError, match="block 5 not in cache and no RPC endpoint"):
            list(fetch_range(None, SnapshotSpec(5, 1), cache))

    @pytest.fixture
    def pools(self, monkeypatch):
        """Every fetch pool that fetch_range starts, in order."""
        import concurrent.futures

        started = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        return started

    def test_warm_range_starts_no_pool(self, tmp_path, pools):
        cache = BlockCache(tmp_path)
        for n in (100, 101):
            cache.store(n, raw_block(n, []))
        assert len(list(fetch_range(MockEndpoint({}), SnapshotSpec(100, 2), cache))) == 2
        assert pools == []

    def test_closed_early_shuts_pool_down(self, tmp_path, pools):
        ep = MockEndpoint(self.make(range(100, 110)))
        stream = fetch_range(ep, SnapshotSpec(100, 10), BlockCache(tmp_path))
        assert next(stream).number == 100
        assert len(pools) == 1
        pools[0].submit(int).result()  # still running
        stream.close()
        with pytest.raises(RuntimeError, match="shutdown"):
            pools[0].submit(int)

    def test_empty_range_invalid(self):
        with pytest.raises(ValueError):
            SnapshotSpec(100, 0)

    @given(start=st.integers(min_value=0, max_value=500),
           count=st.integers(min_value=1, max_value=12))
    def test_yields_exactly_count_ascending(self, start, count):
        with tempfile.TemporaryDirectory() as tmp:
            ep = MockEndpoint(self.make(range(start, start + count)))
            blocks = list(fetch_range(ep, SnapshotSpec(start, count), BlockCache(tmp)))
            assert [b.number for b in blocks] == list(range(start, start + count))

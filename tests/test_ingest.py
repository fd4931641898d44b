import errno
import hashlib
import json
import os
import struct
import sys
import tempfile
import threading

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
    TxRecord,
    _encode,
    _parse_tx,
    _parse_txs_by_column,
    fetch_range,
    parse_block_json,
    parse_quantity,
    canonical_address,
)

from conftest import (MockEndpoint, StubSession, TxDict, addr, raw_block, raw_tx,
                      rpc_transactions, stub_endpoint, tx_hash)
from oracles import chain_head, encode_v2, record_encode


def per_transaction(txs):
    """parse_block_json's transactions by the per-transaction parser alone:
    the records, or the field named by the BlockParseError it raises."""
    try:
        return tuple(_parse_tx(t, i) for i, t in enumerate(txs))
    except BlockParseError as exc:
        return exc.field


def parsed_transactions(raw):
    """parse_block_json's transactions, or the field its BlockParseError names."""
    try:
        block = parse_block_json(raw)
    except BlockParseError as exc:
        return exc.field
    assert all(type(tx) is TxRecord for tx in block.transactions)
    return block.transactions


class TestParseBlockJson:
    def test_empty_transactions(self):
        rec = parse_block_json(raw_block(5, []))
        assert rec.number == 5
        assert rec.transactions == ()

    def test_fixture_a(self, fixture_a_record):
        rec = fixture_a_record
        # hand-checked against the fixture JSON fields
        assert rec.number == 68943
        assert rec.timestamp == 1439799105
        assert rec.miner == "0xbb7b8287f3f0a933474a79eae42cbca977791171"
        assert len(rec.transactions) == 3
        assert rec.transactions[0].value == 437194980000000000
        assert rec.transactions[1].recipient is None
        assert rec.transactions[2].value == 10**18
        assert rec.transactions[0].sender == "0x32be343b94f860124dc4fee278fdcbd38c102d88"

    def test_records_immutable_and_hashable(self, fixture_a_record):
        rec = fixture_a_record
        tx = rec.transactions[0]
        for obj, field in ((rec, "number"), (tx, "value"), (tx, "not_a_field")):
            with pytest.raises(AttributeError):
                setattr(obj, field, 1)
        copy = BlockRecord.from_transactions(
            number=rec.number, hash=rec.hash, timestamp=rec.timestamp, miner=rec.miner,
            transactions=[TxRecord(tx_hash=t.tx_hash, sender=t.sender,
                                   recipient=t.recipient, value=t.value)
                          for t in rec.transactions])
        assert copy == rec and hash(copy) == hash(rec)
        assert len({rec, copy, tx}) == 2

    def test_hex_quantity(self):
        assert parse_quantity("0x10", "number") == 16

    def test_contract_creation_to_null(self):
        rec = parse_block_json(raw_block(1, [raw_tx(1, addr(1), None)]))
        assert rec.transactions[0].recipient is None

    def test_mixed_case_address_canonicalized(self):
        mixed = "0xAbC" + "0" * 37
        rec = parse_block_json(raw_block(1, [raw_tx(1, mixed, addr(2))]))
        assert rec.transactions[0].sender == mixed.lower()

    def test_accepts_raw_bytes(self):
        raw = json.dumps(raw_block(2, [])).encode()
        assert parse_block_json(raw).number == 2

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
        # The cache writes "-" for a creation; as an RPC "to" it is no address.
        txs = [raw_tx(1, addr(1), None), raw_tx(2, addr(2), "-")]
        with pytest.raises(BlockParseError) as exc:
            parse_block_json(raw_block(1, txs))
        assert exc.value.field == "transactions[1].to"

    @pytest.mark.parametrize("change", [
        lambda tx: {**tx, "value": 255},
        lambda tx: {k: v for k, v in tx.items() if k != "to"},
        lambda tx: {k: v for k, v in tx.items() if k != "value"},
        lambda tx: TxDict(tx),
    ], ids=["int-value", "no-to", "no-value", "dict-subclass"])
    def test_rare_shapes_accepted(self, change):
        txs = [raw_tx(i, addr(i), addr(i + 1), value=i) for i in range(3)]
        txs[1] = change(txs[1])
        assert parse_block_json(raw_block(1, txs)).transactions == per_transaction(txs)

    @settings(max_examples=300)
    @given(txs=rpc_transactions())
    def test_matches_per_transaction_parser(self, txs):
        # The same records, or a BlockParseError naming the same field.
        assert parsed_transactions(raw_block(1, txs)) == per_transaction(txs)

    @given(txs=rpc_transactions(max_size=20, faults=False))
    def test_common_shape_parsed_by_column(self, txs):
        # The columns, and the rows they view, are those of the
        # per-transaction parser's rows transposed.
        rows = per_transaction(txs)
        block = BlockRecord(1, tx_hash(1), 0, addr(1), *_parse_txs_by_column(txs))
        assert block == BlockRecord.from_transactions(1, tx_hash(1), 0, addr(1), rows)
        assert block.transactions == rows
        assert all(type(tx) is TxRecord for tx in block.transactions)


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
        assert len(rec.transactions) == 1

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


FORMAT_2 = b"chaingraph-block/2"


def write_entry(path, body: bytes, header: bytes = CACHE_FORMAT) -> None:
    """Write a cache entry whose checksum matches ``body``."""
    digest = hashlib.sha256(body).hexdigest().encode()
    path.write_bytes(header + b" sha256:" + digest + b"\n" + body)


def write_legacy_entry(path, result: dict) -> None:
    """Write an entry in the oldest format: checksum line, then RPC JSON."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()
    path.write_text(f"sha256:{digest}\n{text}\n")


def rpc_result(block: BlockRecord) -> dict:
    """The JSON-RPC block result that parses to ``block``."""
    return {
        "number": hex(block.number), "hash": block.hash,
        "timestamp": hex(block.timestamp), "miner": block.miner,
        "transactions": [{"hash": tx.tx_hash, "from": tx.sender, "to": tx.recipient,
                          "value": hex(tx.value)} for tx in block.transactions],
    }


def _hex_bytes(size: int) -> st.SearchStrategy[str]:
    # All-zero fields are drawn often: the zero address is a real
    # recipient, not a contract creation.
    return st.one_of(st.just(bytes(size)), st.binary(min_size=size, max_size=size)).map(
        lambda b: "0x" + b.hex())


_uint64 = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
_values = st.one_of(st.sampled_from([0, 1, 2**256 - 1]), st.integers(0, 2**256 - 1))
_creations = st.builds(TxRecord, _hex_bytes(32), _hex_bytes(20), st.none(), _values)
_transfers = st.builds(TxRecord, _hex_bytes(32), _hex_bytes(20), _hex_bytes(20), _values)


def block_records() -> st.SearchStrategy[BlockRecord]:
    """Valid blocks: none, some or all of their transactions creations."""
    txs = st.one_of(st.lists(st.one_of(_transfers, _creations), max_size=8),
                    st.lists(_creations, min_size=1, max_size=4))
    return st.builds(BlockRecord.from_transactions, _uint64, _hex_bytes(32), _uint64,
                     _hex_bytes(20), txs)


V2_BODY = ("12 0x" + "ab" * 32 + " 1500000000 0x" + "cd" * 20 + "\n"
           "0x" + "01" * 32 + " 0x" + "02" * 20 + " 0x" + "03" * 20 + " ff\n"
           "0x" + "04" * 32 + " 0x" + "05" * 20 + " - 0\n")


def v3_body(number=12, n=3, recipients=(b"\x21", b"\x00", b"\x00"), creations=(1,),
            values=b"ff 0 1") -> bytes:
    """A format-3 body of three transactions, built part by part so that
    any one part can be made wrong. As given, the second transaction is a
    creation, the third pays the zero address, and the last value has one
    digit: no cut of the body is the body of another block."""
    return (struct.pack(">QQI32s20s", number, 1_500_000_000, n, b"\xab" * 32, b"\xcd" * 20)
            + b"".join(bytes([i]) * 32 for i in (1, 4, 7))
            + b"".join(bytes([i]) * 20 for i in (2, 5, 8))
            + b"".join(r * 20 for r in recipients)
            + struct.pack(f">I{len(creations)}I", len(creations), *creations)
            + values)


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = BlockCache(tmp_path)
        result = raw_block(12, [raw_tx(1, addr(1), addr(2), value=3)])
        cache.store(12, result)
        block = cache.load(12)
        assert block == parse_block_json(result)
        # Equal tuples are not enough: loads build TxRecord named tuples.
        tx = block.transactions[0]
        assert type(tx) is TxRecord and type(block) is BlockRecord
        assert (tx.sender, tx.recipient, tx.value) == (addr(1), addr(2), 3)
        assert hash(block) == hash(parse_block_json(result))
        with pytest.raises(AttributeError):
            tx.value = 4

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
            loaded = cache.load(number)
            assert loaded == stored
            assert all(type(tx) is TxRecord for tx in loaded.transactions)

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
            loaded = cache.load(12)
            assert loaded == stored == parse_block_json(raw)
            assert loaded.transactions == per_transaction(txs)

    @given(block=block_records())
    def test_encode_matches_record_reference(self, block):
        assert _encode(block) == record_encode(block)

    @given(block=block_records())
    def test_stored_record_loads_unchanged(self, block):
        with tempfile.TemporaryDirectory() as tmp:
            cache = BlockCache(tmp)
            assert cache.store(block.number, rpc_result(block)) == block
            assert cache.load(block.number) == block
            header, _, body = cache.path(block.number).read_bytes().partition(b"\n")
            assert header.startswith(CACHE_FORMAT + b" sha256:")
            assert body == _encode(block)

    @settings(max_examples=200)
    @given(block=block_records(), data=st.data())
    def test_accepted_body_reencodes_to_itself(self, block, data):
        # A body changed in any way, with its checksum made to match,
        # loads only if it is exactly what _encode writes for what loads.
        body = _encode(block)
        start = data.draw(st.integers(0, len(body)))
        end = data.draw(st.integers(start, min(len(body), start + 8)))
        insert = data.draw(st.one_of(st.binary(max_size=8),
                                     st.text("0123456789abcdef x", max_size=8).map(str.encode)))
        changed = body[:start] + insert + body[end:]
        with tempfile.TemporaryDirectory() as tmp:
            cache = BlockCache(tmp)
            write_entry(cache.path(block.number), changed)
            try:
                loaded = cache.load(block.number)
            except CacheCorruptError as exc:
                assert str(cache.path(block.number)) in str(exc)
                return
            assert _encode(loaded) == changed

    def test_corruption_detected(self, tmp_path):
        cache = BlockCache(tmp_path)
        cache.store(12, raw_block(12, []))
        path = cache.path(12)
        data = bytearray(path.read_bytes())
        data[data.index(b"\n") + 5] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CacheCorruptError):
            cache.load(12)
        with pytest.raises(CacheCorruptError, match=str(path)):
            cache.get(12)

    def test_valid_body_accepted(self, tmp_path):
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), V2_BODY.encode(), header=FORMAT_2)
        block = cache.load(12)
        assert block.transactions[0].value == 255
        assert block.transactions[1].recipient is None

    @pytest.mark.parametrize("old,new", [
        (" 0x" + "02" * 20, " 0x" + "02" * 19 + "0"),       # 39-digit address
        (" ff\n", " 1" + "0" * 64 + "\n"),                 # 65-digit value
        (" ff\n", " 0ff\n"),                               # leading zero
        (" ff\n", " FF\n"),                                # uppercase hex
        (" 0x" + "03" * 20, " 0x" + "03" * 19 + "0"),       # short recipient
        ("0x" + "ab" * 32, "0x" + "ab" * 31),               # short block hash
        (" 1500000000 ", " 01500000000 "),                  # padded decimal
        (" - 0\n", " - 0"),                                 # missing newline
        (" - 0\n", " - 0 extra\n"),                        # extra field
    ])
    def test_malformed_field_with_valid_checksum(self, tmp_path, old, new):
        assert V2_BODY.count(old) == 1
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), V2_BODY.replace(old, new).encode(), header=FORMAT_2)
        with pytest.raises(CacheCorruptError, match="malformed"):
            cache.load(12)

    def test_unknown_format_rejected(self, tmp_path):
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), V2_BODY.encode(), header=b"chaingraph-block/9")
        with pytest.raises(CacheCorruptError):
            cache.load(12)

    def test_v3_reference_body_loads(self, tmp_path):
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), v3_body())
        block = cache.load(12)
        assert [tx.recipient for tx in block.transactions] == [
            "0x" + "21" * 20, None, "0x" + "00" * 20]
        assert [tx.value for tx in block.transactions] == [255, 0, 1]
        assert _encode(block) == v3_body()
        # A zero slot outside the creation list is the zero address.
        write_entry(cache.path(12), v3_body(creations=()))
        assert cache.load(12).transactions[1].recipient == "0x" + "00" * 20

    def test_every_cut_refused(self, tmp_path):
        cache = BlockCache(tmp_path)
        body = v3_body()
        for size in range(len(body)):
            write_entry(cache.path(12), body[:size])
            with pytest.raises(CacheCorruptError, match=str(cache.path(12))):
                cache.load(12)

    @pytest.mark.parametrize("body", [
        v3_body() + b" ",                                   # extended
        v3_body() + b"\n",
        v3_body() + b" 0",
        v3_body().replace(b"ff 0 1", bytes(4) + b"ff 0 1"),  # longer creation list
        v3_body(n=0), v3_body(n=2), v3_body(n=4),           # wrong tx count
        v3_body(n=0)[:72] + bytes(4) + b"0",                # a value without a tx
        v3_body(recipients=(b"\x00",) * 3, creations=(1, 0)),  # unsorted
        v3_body(creations=(1, 1)),                          # duplicated
        v3_body(creations=(3,)),                            # out of range
        v3_body(creations=(1, 2**32 - 1)),
        v3_body(creations=(0,)),                            # non-zero slot
        v3_body(values=b"ff 00 1"),                         # leading zero
        v3_body(values=b"0ff 0 1"),
        v3_body(values=b"ff 0 1" + b"0" * 64),              # 65 digits
        v3_body(values=b"fg 0 1"),                          # non-hex
        v3_body(values=b"FF 0 1"),
        v3_body(values=b"ff  0 1"),
        v3_body(values=b"ff 0"),                            # too few values
        v3_body(number=13),                                 # another block
    ])
    def test_malformed_v3_body_with_valid_checksum(self, tmp_path, body):
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), body)
        with pytest.raises(CacheCorruptError, match=str(cache.path(12))):
            cache.load(12)

    def test_entry_of_another_block_refused(self, tmp_path):
        cache = BlockCache(tmp_path)
        cache.store(12, raw_block(12, [raw_tx(1, addr(1), addr(2))]))
        cache.path(13).write_bytes(cache.path(12).read_bytes())
        with pytest.raises(CacheCorruptError, match="holds block 12, not 13"):
            cache.load(13)

    def test_store_leaves_other_writers_temp_file(self, tmp_path):
        cache = BlockCache(tmp_path)
        other = cache.path(12).with_suffix(".tmp")
        other.write_bytes(b"half-written by another writer")
        raw = raw_block(12, [raw_tx(1, addr(1), addr(2))])
        cache.store(12, raw)
        assert other.read_bytes() == b"half-written by another writer"
        assert cache.load(12) == parse_block_json(raw)

    def test_concurrent_stores_of_one_block(self, tmp_path):
        cache = BlockCache(tmp_path)
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
        assert [p.name for p in tmp_path.iterdir()] == [cache.path(12).name]
        assert cache.load(12) == parse_block_json(raw)

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

    def test_legacy_entry_migrated(self, tmp_path):
        cache = BlockCache(tmp_path)
        raw = raw_block(12, [raw_tx(1, "0xAbC" + "0" * 37, None, value=2**256 - 1)])
        write_legacy_entry(cache.path(12), raw)
        assert cache.load(12) == parse_block_json(raw)
        assert cache.path(12).read_bytes().startswith(b"chaingraph-block/3 sha256:")
        assert cache.load(12) == parse_block_json(raw)

    @given(block=block_records(), legacy=st.booleans())
    def test_old_entry_rewritten_as_stored(self, block, legacy):
        # Format 2 and legacy JSON entries load as the same records and are
        # rewritten byte-identical to what store writes for the block.
        with tempfile.TemporaryDirectory() as old, tempfile.TemporaryDirectory() as new:
            cache = BlockCache(old)
            path = cache.path(block.number)
            if legacy:
                write_legacy_entry(path, rpc_result(block))
            else:
                write_entry(path, encode_v2(block), header=FORMAT_2)
            assert cache.load(block.number) == block
            stored = BlockCache(new)
            stored.store(block.number, rpc_result(block))
            assert path.read_bytes() == stored.path(block.number).read_bytes()
            assert cache.load(block.number) == block

    def test_v2_entry_served_when_cache_read_only(self, tmp_path, monkeypatch):
        cache = BlockCache(tmp_path)
        write_entry(cache.path(12), V2_BODY.encode(), header=FORMAT_2)
        before = cache.path(12).read_bytes()

        def refuse(block):
            raise PermissionError("read-only")

        monkeypatch.setattr(cache, "_write", refuse)
        assert cache.load(12).transactions[0].value == 255
        assert cache.path(12).read_bytes() == before

    def test_v2_entry_over_64_bits_refused(self, tmp_path):
        # Format 3 cannot hold it, so it is corrupt, not migrated.
        cache = BlockCache(tmp_path)
        body = V2_BODY.replace(" 1500000000 ", f" {2**64} ")
        write_entry(cache.path(12), body.encode(), header=FORMAT_2)
        with pytest.raises(CacheCorruptError, match="64-bit"):
            cache.load(12)
        assert cache.path(12).read_bytes().startswith(FORMAT_2 + b" ")

    def test_legacy_entry_served_when_cache_read_only(self, tmp_path, monkeypatch):
        cache = BlockCache(tmp_path)
        raw = raw_block(12, [raw_tx(1, addr(1), addr(2))])
        write_legacy_entry(cache.path(12), raw)
        before = cache.path(12).read_bytes()

        def refuse(block):
            raise PermissionError("read-only")

        monkeypatch.setattr(cache, "_write", refuse)
        assert cache.load(12) == parse_block_json(raw)
        assert cache.path(12).read_bytes() == before

    def test_corrupt_legacy_entry_rejected(self, tmp_path):
        cache = BlockCache(tmp_path)
        raw = raw_block(12, [])
        raw["miner"] = "0x1234"
        write_legacy_entry(cache.path(12), raw)
        with pytest.raises(CacheCorruptError, match="miner"):
            cache.load(12)


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
        assert cache.load(101) == blocks[1]

    def test_corrupt_entry_offline_reported(self, tmp_path):
        cache = BlockCache(tmp_path)
        for n in (100, 101, 102):
            cache.store(n, raw_block(n, []))
        path = cache.path(101)
        path.write_bytes(path.read_bytes().replace(struct.pack(">Q", 1_500_000_000),
                                                   struct.pack(">Q", 1_500_000_001)))
        with pytest.raises(CacheCorruptError, match=str(path)):
            list(fetch_range(None, SnapshotSpec(100, 3), cache))

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

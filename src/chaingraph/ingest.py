"""Block ingestion: JSON-RPC fetching, parsing, and an on-disk block cache.

Blocks are fetched with ``eth_getBlockByNumber(<hex>, true)`` so the full
transaction objects come back in one call; receipts are never requested.
``fetch_range`` is the one entry point: it serves cached blocks and
fetches the rest, retrying transport errors. Every fetched block is
validated and persisted to the cache before being handed to the caller,
so re-runs and interrupted runs are served offline.
The cache keeps only the fields of ``BlockRecord``, in a binary
fixed-width format (see ``CACHE_FORMAT``): hashes and addresses are held
as raw bytes, so a load checks lengths and the value text, not every hex
character. Entries in the two older formats are read, and rewritten in the
current one, on first load.

A ``BlockRecord`` holds its transactions column-wise, in the cache's own
layout: the sender and recipient columns as 0x strings, which the graph
reads, and the tx-hash column and the value text as the raw bytes format 3
stores, which a warm load slices out without decoding. No per-transaction
object is built on the way from the cache to the graph; the
``transactions`` property builds ``TxRecord`` rows for readers that want
them.

A block's transactions are validated column by column: each of the hash,
from, to and value columns is joined with spaces, checked by one
fullmatch and converted once, so no Python function runs per
transaction. Any transaction outside the common shape sends the whole
list to the per-transaction parser ``_parse_tx``, which alone defines what
is accepted: it names the first faulty field or accepts a rarer shape, and
its rows are transposed into columns once. Every field must match in
full, so trailing whitespace (a final newline included) is refused. A
cache entry is written by concatenating the record's columns.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import threading
import time
from binascii import unhexlify
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import is_, itemgetter, lt
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from concurrent.futures import Future

# Field patterns, always used with fullmatch: "$" would also match before
# a trailing newline, which would then be kept as part of the field.
_ADDRESS_FIELD = "0x[0-9a-fA-F]{40}"
_HASH32_FIELD = "0x[0-9a-fA-F]{64}"
_QUANTITY_FIELD = "0x[0-9a-fA-F]+"
ADDRESS_RE = re.compile(_ADDRESS_FIELD)
HASH32_RE = re.compile(_HASH32_FIELD)
QUANTITY_RE = re.compile(_QUANTITY_FIELD)


def _column_re(field: str) -> re.Pattern:
    """Fields joined by single spaces. A field that itself holds a space can
    still match, as two fields: callers check the count after splitting."""
    return re.compile(f"{field}(?: {field})*")


_HASH32_COLUMN_RE = _column_re(_HASH32_FIELD)
_ADDRESS_COLUMN_RE = _column_re(_ADDRESS_FIELD)
_RECIPIENT_COLUMN_RE = _column_re(f"(?:{_ADDRESS_FIELD}|-)")
_QUANTITY_COLUMN_RE = _column_re(_QUANTITY_FIELD)

MAX_UINT256 = 2**256 - 1
MAX_UINT64 = 2**64 - 1

# Cache entry format 3: a text header line naming the format and the sha256
# of the body, then the body, in six parts:
#   _HEAD (">QQI32s20s"): number, timestamp, transaction count n, block
#       hash, miner;
#   the tx-hash column, 32 bytes per transaction;
#   the sender column, 20 bytes per transaction;
#   the recipient column, 20 bytes per transaction, 20 zero bytes for a
#       contract creation;
#   the creation list: a u32 count, then strictly increasing u32
#       transaction indices;
#   the values, the only text: lowercase hex without prefix or leading
#       zeros, separated by single spaces (empty when n = 0).
# Integers are big-endian. Any 32 or 20 bytes are a valid hash or address,
# so _unpack checks no character of them: it checks that the length is
# what n and the creation count imply, the creation list, and that the
# value text matches _VALUES_RE and splits into exactly n fields. It
# accepts exactly the bodies that _encode writes. A cut inside the last
# value, like a changed byte of a hash, leaves the body of another block,
# which only the checksum tells apart.
CACHE_FORMAT = b"chaingraph-block/3"
_HEAD = struct.Struct(">QQI32s20s")
_U32 = struct.Struct(">I")
_VALUE = rb"(?:0|[1-9a-f][0-9a-f]{0,63})"
_VALUES_RE = re.compile(_VALUE + rb"(?: " + _VALUE + rb")*")
_NO_RECIPIENT = "0x" + "00" * 20
_NO_RECIPIENT_FOR = {None: _NO_RECIPIENT}

# Cache entry format 2, read only to migrate it: the header line, then
# "number hash timestamp miner", then one "tx_hash from to|- value" line
# per transaction. Integers are decimal, the value is hex without prefix;
# all hex is lowercase. BODY_RE accepts exactly the bodies that format 2
# wrote for a valid block: 32-byte hashes, 20-byte addresses, "-" for a
# creation, and a value below 2**256.
_FORMAT_2 = b"chaingraph-block/2"
_DECIMAL = rb"(?:0|[1-9][0-9]*)"
_HASH = rb"0x[0-9a-f]{64}"
_ADDRESS = rb"0x[0-9a-f]{40}"
BODY_RE = re.compile(
    _DECIMAL + b" " + _HASH + b" " + _DECIMAL + b" " + _ADDRESS + b"\n"
    + b"(?:" + _HASH + b" " + _ADDRESS + b" (?:" + _ADDRESS + b"|-)"
    + rb" " + _VALUE + b"\n)*"
)

DEFAULT_MAX_INFLIGHT = 4
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5


class IngestError(Exception):
    """Base class for ingestion failures."""


class TransportError(IngestError):
    """Network-level failure; retryable."""


class RpcError(IngestError):
    """Error object returned by the RPC server; not retryable."""

    def __init__(self, code: int, message: str):
        super().__init__(f"RPC error {code}: {message}")
        self.code = code
        self.message = message


class BlockNotFoundError(IngestError):
    """Requested block number is beyond the chain head."""


class BlockParseError(IngestError):
    """Malformed block payload; names the offending field."""

    def __init__(self, field: str, detail: str):
        super().__init__(f"field {field!r}: {detail}")
        self.field = field


class CacheCorruptError(IngestError):
    """Cache file fails its checksum or format check; names the file."""


class OfflineMissError(IngestError):
    """Cache miss with no endpoint to fetch the block from."""


class TxRecord(NamedTuple):
    """One transaction as a row: the view ``BlockRecord.transactions`` builds.

    ``recipient`` is None for contract creations. ``value`` is in wei and
    may need the full 256-bit range (Python ints are arbitrary precision).
    """

    tx_hash: str
    sender: str
    recipient: Optional[str]
    value: int


class BlockRecord(NamedTuple):
    """A validated block, its transactions held column-wise.

    ``senders`` and ``recipients`` hold one lowercase 0x address per
    transaction, with None as the recipient of a contract creation;
    ``creations`` lists those transactions' indices in increasing order.
    ``tx_hashes`` is the transactions' 32-byte hashes back to back, and
    ``value_text`` their values in wei as lowercase hex without prefix or
    leading zeros, separated by single spaces: the raw bytes format 3
    stores, kept as they are, since the graph reads only 8 bytes of a
    creation's hash and no command reads a value. Records are immutable,
    hashable and compare by value.
    """

    number: int
    hash: str
    timestamp: int
    miner: str
    senders: tuple[str, ...]
    recipients: tuple[Optional[str], ...]
    creations: tuple[int, ...]
    tx_hashes: bytes
    value_text: bytes

    @property
    def transactions(self) -> tuple[TxRecord, ...]:
        """The transactions as ``TxRecord`` rows, decoded on each access."""
        if not self.senders:
            return ()
        rows = zip(_hex_column(self.tx_hashes, 32), self.senders, self.recipients,
                   map(int, self.value_text.split(b" "), repeat(16)))
        return tuple(map(tuple.__new__, repeat(TxRecord), rows))

    @classmethod
    def from_transactions(cls, number: int, hash: str, timestamp: int, miner: str,
                          transactions: Iterable[TxRecord]) -> "BlockRecord":
        """The record of a block with these rows, given as ``_parse_tx``
        builds them (lowercase hex): the inverse of ``transactions``."""
        hashes, senders, recipients, values = tuple(zip(*transactions)) or ((),) * 4
        return cls(number, hash, timestamp, miner, senders, recipients, _creations(recipients),
                   unhexlify("".join(hashes).replace("0x", "")),
                   ("%x " * len(values))[:-1].encode("ascii") % values)


def _creations(recipients) -> tuple[int, ...]:
    """Indices of the contract creations in a recipient column."""
    return tuple(compress(count(), map(is_, recipients, repeat(None))))


@dataclass(frozen=True)
class SnapshotSpec:
    """Half-open block range [start_block, start_block + count)."""

    start_block: int
    count: int

    def __post_init__(self):
        if self.start_block < 0:
            raise ValueError(f"start_block must be >= 0, got {self.start_block}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def numbers(self) -> range:
        return range(self.start_block, self.start_block + self.count)

    def label(self) -> str:
        return f"{self.start_block}:{self.count}"

    @classmethod
    def parse(cls, text: str) -> "SnapshotSpec":
        """Parse a 'start:count' spec string."""
        try:
            start_s, count_s = text.split(":")
            return cls(int(start_s), int(count_s))
        except ValueError as exc:
            raise ValueError(f"bad snapshot spec {text!r}, expected start:count") from exc


def parse_quantity(value, field: str) -> int:
    """Decode a JSON-RPC hex quantity ('0x10' -> 16)."""
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise BlockParseError(field, f"negative quantity: {value!r}")
        return value
    if not isinstance(value, str) or not QUANTITY_RE.fullmatch(value):
        raise BlockParseError(field, f"not a hex quantity: {value!r}")
    return int(value, 16)


def canonical_address(value, field: str) -> str:
    """Lowercase a 20-byte hex address; reject anything else."""
    if not isinstance(value, str) or not ADDRESS_RE.fullmatch(value):
        raise BlockParseError(field, f"not a 20-byte hex address: {value!r}")
    return value.lower()


def _canonical_hash(value, field: str) -> str:
    if not isinstance(value, str) or not HASH32_RE.fullmatch(value):
        raise BlockParseError(field, f"not a 32-byte hex hash: {value!r}")
    return value.lower()


def _parse_u64(value, field: str) -> int:
    # The cache holds a block's number and timestamp as u64.
    quantity = parse_quantity(value, field)
    if quantity > MAX_UINT64:
        raise BlockParseError(field, "exceeds 64-bit range")
    return quantity


def _parse_tx(obj, index: int) -> TxRecord:
    where = f"transactions[{index}]"
    if not isinstance(obj, dict):
        raise BlockParseError(where, "transaction is not an object")
    for key in ("hash", "from"):
        if key not in obj:
            raise BlockParseError(f"{where}.{key}", "missing")
    recipient = obj.get("to")
    value = parse_quantity(obj.get("value", "0x0"), f"{where}.value")
    if value > MAX_UINT256:
        raise BlockParseError(f"{where}.value", "exceeds 256-bit range")
    return TxRecord(
        tx_hash=_canonical_hash(obj["hash"], f"{where}.hash"),
        sender=canonical_address(obj["from"], f"{where}.from"),
        recipient=None if recipient is None else canonical_address(recipient, f"{where}.to"),
        value=value,
    )


_TX_FIELDS = tuple(map(itemgetter, ("hash", "from", "to", "value")))
_RECIPIENT_TYPES = {str, type(None)}
_DASH = {None: "-"}
_CREATION = {"-": None}
_NO_COLUMNS = ((), (), (), b"", b"")


def _parse_txs_by_column(txs: list) -> Optional[tuple]:
    """The transaction columns of a ``BlockRecord`` (senders, recipients,
    creations, tx_hashes, value_text) that _parse_tx's rows give, or None.

    Each field is checked and converted a column at a time, by builtins,
    with no Python-level call per transaction: one fullmatch over the
    column's space-joined text, then one lower() and split(), or one
    bytes.fromhex for the hashes. None means some transaction is outside
    the common shape (a plain dict with all four fields, strings or a None
    recipient, a value below 2**256), and nothing was accepted: the caller
    then parses one transaction at a time, which names the fault or
    accepts a rarer shape (an int value, a missing "to" or "value", a dict
    subclass).
    """
    n = len(txs)
    if n == 0:
        return _NO_COLUMNS
    if set(map(type, txs)) != {dict}:
        return None
    try:
        hashes, senders, recipients, values = [list(map(get, txs)) for get in _TX_FIELDS]
    except KeyError:
        return None
    # "-" stands for None in the recipient column, so a real "-" (which
    # _parse_tx refuses) must not reach it.
    if (set(map(type, hashes + senders + values)) != {str}
            or not set(map(type, recipients)) <= _RECIPIENT_TYPES or "-" in recipients):
        return None
    text = " ".join(hashes)
    if _HASH32_COLUMN_RE.fullmatch(text) is None:
        return None
    tx_hashes = bytes.fromhex(text.replace("0x", ""))
    # A field holding a space still matches as two fields, and would
    # shift every later transaction by one: the counts guard against that.
    if len(tx_hashes) != 32 * n:
        return None
    columns = ((senders, _ADDRESS_COLUMN_RE),
               (map(_DASH.get, recipients, recipients), _RECIPIENT_COLUMN_RE),
               (values, _QUANTITY_COLUMN_RE))
    split = []
    for column, pattern in columns:
        text = " ".join(column)
        if pattern.fullmatch(text) is None:
            return None
        pieces = text.lower().split(" ")
        if len(pieces) != n:
            return None
        split.append(pieces)
    senders, recipients, values = split
    values = tuple(map(int, values, repeat(16)))
    if max(values) > MAX_UINT256:
        return None
    recipients = tuple(map(_CREATION.get, recipients, recipients))
    return (tuple(senders), recipients, _creations(recipients), tx_hashes,
            ("%x " * n)[:-1].encode("ascii") % values)


def parse_block_json(raw) -> BlockRecord:
    """Parse a JSON-RPC block result (with full transaction objects).

    Accepts raw bytes/str JSON or an already-decoded dict. All hex
    quantities are decoded, addresses are canonicalized to lowercase, and
    transaction order is preserved.
    """
    if isinstance(raw, (bytes, bytearray)):
        raw = raw.decode("utf-8")
    if isinstance(raw, str):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BlockParseError("<root>", f"invalid JSON: {exc}") from exc
    else:
        obj = raw
    if not isinstance(obj, dict):
        raise BlockParseError("<root>", "block result is not an object")
    for key in ("number", "hash", "timestamp", "miner", "transactions"):
        if key not in obj:
            raise BlockParseError(key, "missing")
    txs_raw = obj["transactions"]
    if not isinstance(txs_raw, list):
        raise BlockParseError("transactions", "not a list")
    number = _parse_u64(obj["number"], "number")
    block_hash = _canonical_hash(obj["hash"], "hash")
    timestamp = _parse_u64(obj["timestamp"], "timestamp")
    miner = canonical_address(obj["miner"], "miner")
    columns = _parse_txs_by_column(txs_raw)
    if columns is None:
        return BlockRecord.from_transactions(
            number, block_hash, timestamp, miner,
            [_parse_tx(t, i) for i, t in enumerate(txs_raw)])
    return BlockRecord(number, block_hash, timestamp, miner, *columns)


class JsonRpcEndpoint:
    """Thin JSON-RPC 2.0 client over HTTP POST.

    ``requests`` is imported, and the session opened, on the first call:
    only fetching needs an HTTP stack, and a run whose blocks are all
    cached never makes a call.
    """

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url
        self.timeout = timeout
        self._session = None
        # fetch_range calls from pool threads: the first call opens the
        # session, and each call takes its own id.
        self._session_lock = threading.Lock()
        self._id = 0

    def call(self, method: str, params: list):
        import requests

        with self._session_lock:
            if self._session is None:
                self._session = requests.Session()
            self._id += 1
            request_id = self._id
        payload = {"jsonrpc": "2.0", "id": request_id, "method": method, "params": params}
        try:
            resp = self._session.post(self.url, json=payload, timeout=self.timeout)
            resp.raise_for_status()
            body = resp.json()
        except (requests.RequestException, ValueError) as exc:
            raise TransportError(f"{method} failed: {exc}") from exc
        # A reply that is not a JSON-RPC response object (an error page, a
        # proxy's JSON, a bare value) is a transport fault, not a result.
        if not isinstance(body, dict):
            raise TransportError(f"{method} failed: reply is not a JSON object: {body!r:.80}")
        err = body.get("error")
        if err is not None:
            if not isinstance(err, dict):
                raise TransportError(f"{method} failed: error is not an object: {err!r:.80}")
            raise RpcError(err.get("code", -1), err.get("message", "unknown error"))
        if "result" not in body:
            raise TransportError(f"{method} failed: reply has neither result nor error")
        return body["result"]


def _call_with_retries(endpoint, method: str, params: list):
    # Only transport errors are retried, DEFAULT_BACKOFF * 2**attempt
    # seconds apart; the last attempt's error propagates. An RPC error
    # means the request itself is wrong and will not get better.
    for attempt in range(DEFAULT_RETRIES - 1):
        try:
            return endpoint.call(method, params)
        except TransportError:
            time.sleep(DEFAULT_BACKOFF * 2**attempt)
    return endpoint.call(method, params)


def _fetch_block_result(endpoint, number: int) -> dict:
    result = _call_with_retries(endpoint, "eth_getBlockByNumber", [hex(number), True])
    if result is None:
        raise BlockNotFoundError(f"block {number} not found (beyond chain head?)")
    return result


def _encode(block: BlockRecord) -> bytes:
    # The record's columns, concatenated: the tx hashes and the value text
    # are already as stored, and the senders and recipients (20 zero bytes
    # for a creation) are one unhexlify of their joined digits.
    creations = block.creations
    head = _HEAD.pack(block.number, block.timestamp, len(block.senders),
                      unhexlify(block.hash[2:]), unhexlify(block.miner[2:]))
    addresses = "".join(chain(block.senders,
                              map(_NO_RECIPIENT_FOR.get, block.recipients, block.recipients)))
    return (head + block.tx_hashes + unhexlify(addresses.replace("0x", ""))
            + struct.pack(f">I{len(creations)}I", len(creations), *creations)
            + block.value_text)


def _hex_column(data: bytes, width: int) -> list[str]:
    """Split a column of ``width``-byte fields (at least one) into 0x hex."""
    return ("0x" + data.hex(" ", width).replace(" ", " 0x")).split(" ")


def _unpack(body: bytes) -> BlockRecord:
    # A format-3 body, checked column-wise; ValueError names the first part
    # that is not as _encode writes it. Only the two address columns are
    # decoded: the tx hashes and the value text are kept as stored.
    size = len(body)
    if size < _HEAD.size + _U32.size:
        raise ValueError("body shorter than its header")
    number, timestamp, n, block_hash, miner = _HEAD.unpack_from(body)
    block_hash = "0x" + block_hash.hex()
    miner = "0x" + miner.hex()
    if n == 0:
        if body[_HEAD.size:] != bytes(_U32.size):
            raise ValueError("a block without transactions has more than its header")
        return BlockRecord(number, block_hash, timestamp, miner, *_NO_COLUMNS)
    senders_at = _HEAD.size + 32 * n
    creations_at = senders_at + 40 * n
    if size < creations_at + _U32.size:
        raise ValueError(f"body too short for {n} transactions")
    (created,) = _U32.unpack_from(body, creations_at)
    values_at = creations_at + _U32.size * (1 + created)
    if size < values_at:
        raise ValueError(f"body too short for {created} contract creations")
    creations = struct.unpack_from(f">{created}I", body, creations_at + _U32.size)
    values = body[values_at:]
    if _VALUES_RE.fullmatch(values) is None or values.count(b" ") != n - 1:
        raise ValueError(f"value text is not {n} lowercase hex values")
    addresses = _hex_column(body[senders_at:creations_at], 20)
    recipients = addresses[n:]
    if creations:
        if not all(map(lt, creations, creations[1:])) or creations[-1] >= n:
            raise ValueError("creation indices not strictly increasing below the tx count")
        if set(map(recipients.__getitem__, creations)) != {_NO_RECIPIENT}:
            raise ValueError("a contract creation has a non-zero recipient")
        for i in creations:
            recipients[i] = None
    return BlockRecord(number, block_hash, timestamp, miner, tuple(addresses[:n]),
                       tuple(recipients), creations, body[_HEAD.size:senders_at], values)


def _decode(body: bytes) -> BlockRecord:
    # A format-2 body, whose values are already text as format 3 stores
    # it. The columns are built by builtins, with no Python-level call per
    # transaction: "-" maps to None through dict.get(r, r).
    if BODY_RE.fullmatch(body) is None:
        raise ValueError("not a format-2 body")
    fields = body.decode("ascii").split()
    number, timestamp = int(fields[0]), int(fields[2])
    if number > MAX_UINT64 or timestamp > MAX_UINT64:
        raise ValueError("number or timestamp exceeds 64-bit range")
    recipients = fields[6::4]
    recipients = tuple(map(_CREATION.get, recipients, recipients))
    return BlockRecord(number, fields[1], timestamp, fields[3], tuple(fields[5::4]),
                       recipients, _creations(recipients),
                       unhexlify("".join(fields[4::4]).replace("0x", "")),
                       " ".join(fields[7::4]).encode("ascii"))


# Body readers by header format name; a legacy entry's header is its
# checksum alone, so its format name is empty.
_READERS = {CACHE_FORMAT: _unpack, _FORMAT_2: _decode, b"": parse_block_json}


class BlockCache:
    """One file per block, named by zero-padded decimal height.

    Each file holds a header line (format name and the body's sha256) and
    the block's validated fields (see ``CACHE_FORMAT``), so partial runs
    resume and replays never hit the network. Entries are validated before
    they are written and checked on every read. Writes are atomic: each
    writer writes a temp file of its own, then renames it. Entries in the
    older formats (format 2, and a sha256 line followed by the full
    JSON-RPC result) are verified, parsed and rewritten in the current
    format on first load; a read-only cache keeps serving them. Files keep
    the ``.json`` name of the oldest format, so existing caches still
    resolve.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Reads and writes use plain str paths: a Path built per block costs
        # more than the os calls it wraps.
        self._prefix = os.path.join(self.directory, "")

    def _file(self, number: int) -> str:
        return f"{self._prefix}{number:012d}.json"

    def path(self, number: int) -> Path:
        return Path(self._file(number))

    def store(self, number: int, result: dict) -> BlockRecord:
        """Validate a JSON-RPC block result, cache it and return its record.

        A malformed result, or one for another block, raises
        BlockParseError and writes nothing."""
        block = parse_block_json(result)
        if block.number != number:
            raise BlockParseError("number", f"expected block {number}, got {block.number}")
        self._write(block)
        return block

    def _write(self, block: BlockRecord) -> None:
        body = _encode(block)
        header = CACHE_FORMAT + b" sha256:" + hashlib.sha256(body).hexdigest().encode("ascii")
        path = self._file(block.number)
        # A temp name of this writer's own (O_EXCL refuses an existing file),
        # so concurrent writers of one block never rename each other's
        # half-written file into place.
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            try:
                data = memoryview(header + b"\n" + body)
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def load(self, number: int) -> BlockRecord:
        """Load and verify a cached block; raises FileNotFoundError on a
        miss and CacheCorruptError on a corrupt entry."""
        path = self._file(number)
        with open(path, "rb") as f:
            header, _, body = f.read().partition(b"\n")
        if header.startswith(b"sha256:"):
            name, checksum, body = b"", header, body.rstrip(b"\n")
        else:
            name, _, checksum = header.partition(b" ")
        reader = _READERS.get(name)
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        if reader is None or checksum != b"sha256:" + digest:
            raise CacheCorruptError(f"{path}: unknown format or checksum mismatch")
        try:
            block = reader(body)
        except (BlockParseError, ValueError) as exc:
            raise CacheCorruptError(f"{path}: malformed block fields: {exc}") from exc
        if block.number != number:
            raise CacheCorruptError(f"{path}: holds block {block.number}, not {number}")
        if reader is not _unpack:
            try:
                self._write(block)
            except OSError:
                pass  # a read-only cache keeps serving the old entry
        return block

    def get(self, number: int) -> Optional[BlockRecord]:
        """Like load(), but a miss returns None; a corrupt entry still
        raises CacheCorruptError."""
        try:
            return self.load(number)
        except FileNotFoundError:
            return None


def fetch_range(endpoint, spec: SnapshotSpec, cache: BlockCache,
                on_block: Optional[Callable[[int, bool], None]] = None) -> Iterator[BlockRecord]:
    """Yield the blocks of a snapshot in ascending order.

    Cached blocks are served without network access; missing and corrupt
    entries are fetched from ``endpoint`` (up to DEFAULT_MAX_INFLIGHT
    concurrently, each tried up to DEFAULT_RETRIES times), validated, and
    persisted before being yielded; a block that fails to parse is never
    cached. ``on_block(number, from_cache)`` is invoked once per block as
    it is scheduled. With ``endpoint=None`` (offline, or no endpoint
    configured) a cache miss raises OfflineMissError and a corrupt entry
    raises CacheCorruptError instead of fetching.
    """
    numbers = list(spec.numbers())

    def fetch_and_store(number: int) -> BlockRecord:
        return cache.store(number, _fetch_block_result(endpoint, number))

    lookahead = max(2 * DEFAULT_MAX_INFLIGHT, 8)
    pending: dict[int, BlockRecord | Future] = {}
    # The pool, and concurrent.futures with the logging it imports, start
    # on the first miss: a warm range needs neither.
    pool = None
    try:
        scheduled = 0
        for i, number in enumerate(numbers):
            while scheduled < len(numbers) and scheduled < i + lookahead:
                k = numbers[scheduled]
                try:
                    cached = cache.get(k)
                except CacheCorruptError:
                    if endpoint is None:
                        raise
                    cached = None
                if cached is not None:
                    pending[k] = cached
                elif endpoint is None:
                    raise OfflineMissError(
                        f"block {k} not in cache and no RPC endpoint to fetch it from")
                else:
                    if pool is None:
                        from concurrent.futures import ThreadPoolExecutor

                        pool = ThreadPoolExecutor(max_workers=DEFAULT_MAX_INFLIGHT)
                    pending[k] = pool.submit(fetch_and_store, k)
                if on_block is not None:
                    on_block(k, cached is not None)
                scheduled += 1
            item = pending.pop(number)
            yield item if isinstance(item, BlockRecord) else item.result()
    finally:
        # Also runs when the consumer stops early and the generator is
        # closed; waits for the fetches already submitted, so their blocks
        # are still cached.
        if pool is not None:
            pool.shutdown()

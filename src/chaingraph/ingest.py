"""Block ingestion: JSON-RPC fetching, parsing, and an on-disk block cache.

Blocks are fetched with ``eth_getBlockByNumber(<hex>, true)`` so the full
transaction objects come back in one call; receipts are never requested.
``fetch_range`` is the one entry point: it serves cached blocks and
fetches the rest, retrying transport errors. Every fetched block is
validated and persisted to the cache before being handed to the caller,
so re-runs and interrupted runs are served offline. A block goes one
way: a decoded JSON-RPC result is checked straight into its cache body,
and ``_unpack`` turns a body into a record. It builds every
``BlockRecord`` (``parse_block_json`` unpacks the body ``store`` would
write), and nothing turns a record back into bytes.
The cache keeps only the fields of ``BlockRecord``, in a binary
fixed-width format (see ``CACHE_FORMAT``): hashes and addresses are held
as raw bytes, so a load checks lengths, not every hex character. An entry
in any other format, an older one included, is corrupt, and a read never
writes.

A ``BlockRecord`` holds its transactions column-wise, in the cache's own
layout: the sender and recipient columns as 0x strings, which the graph
reads, with None as a contract creation's recipient, and the creations'
tx hashes as the raw bytes the cache stores, which a warm load slices out
without decoding. No other tx hash is kept: the graph names a creation
after its hash, and reads no other. No per-transaction object is built on
the way from the cache to the graph. The cache's creation list is taken
from the null recipients of the RPC result and turned into None
recipients on a read.

A block's transactions are validated column by column: each of the hash,
from, to and value columns is joined with spaces and checked by one
fullmatch, and the kept columns are converted to the body's bytes once,
so no Python function runs per transaction. Values, and the hashes of
all but the creations, are checked but not kept: the networks read only
who sent to whom. Any transaction outside the common shape sends the
whole list to the per-transaction parser ``_parse_tx``, which alone
defines what is accepted: it names the first faulty field or accepts a
rarer shape, and its (hash, sender, recipient) rows are converted to the
same bytes at once. Every field must match in full, so trailing
whitespace (a final newline included) is refused.
"""

from __future__ import annotations

import hashlib
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
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

if TYPE_CHECKING:
    from concurrent.futures import Future

# Field patterns, always used with fullmatch: "$" would also match before
# a trailing newline, which would then be kept as part of the field.
_ADDRESS_FIELD = "0x[0-9a-fA-F]{40}"
_HASH32_FIELD = "0x[0-9a-fA-F]{64}"
_QUANTITY_FIELD = "0x[0-9a-fA-F]+"
# A quantity below 2**256: at most 64 hex digits after its leading zeros.
# Each field matches in one way only, so a column that fails to match
# costs time linear in its length, not a retry of every split.
_VALUE_FIELD = "0x(?:0*[1-9a-fA-F][0-9a-fA-F]{0,63}|0+)"
ADDRESS_RE = re.compile(_ADDRESS_FIELD)
HASH32_RE = re.compile(_HASH32_FIELD)
QUANTITY_RE = re.compile(_QUANTITY_FIELD)


def _column_re(field: str) -> re.Pattern:
    """Fields joined by single spaces. A field that itself holds a space can
    still match, as two fields: callers check the count after splitting."""
    return re.compile(f"{field}(?: {field})*")


_HASH32_COLUMN_RE = _column_re(_HASH32_FIELD)
_ADDRESS_COLUMN_RE = _column_re(_ADDRESS_FIELD)
_VALUE_COLUMN_RE = _column_re(_VALUE_FIELD)

MAX_UINT256 = 2**256 - 1
MAX_UINT64 = 2**64 - 1

# Cache entry format 5: a text header line naming the format and the sha256
# of the body, then the body, in four parts:
#   _HEAD (">QQI32s20s"): number, timestamp, transaction count n, block
#       hash, miner;
#   the sender column, 20 bytes per transaction;
#   the recipient column, 20 bytes per transaction, 20 zero bytes for a
#       contract creation;
#   the creation list: a u32 count c, then c strictly increasing u32
#       transaction indices, then the c creations' 32-byte tx hashes, in
#       the same order.
# Integers are big-endian. Any 32 or 20 bytes are a valid hash or address,
# so _unpack checks no character of them: it checks that the length is
# exactly what n and c imply, and the creation list. It accepts exactly
# the bodies that _block_body writes. A changed byte of a hash leaves the
# body of another block, which only the checksum tells apart. This is the
# only format read: an entry in any other, an older one included, is
# corrupt.
CACHE_FORMAT = b"chaingraph-block/5"
_HEAD = struct.Struct(">QQI32s20s")
_U32 = struct.Struct(">I")
_NO_RECIPIENT = "0x" + "00" * 20
_NO_RECIPIENT_FOR = {None: _NO_RECIPIENT}

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


class BlockRecord(NamedTuple):
    """A validated block, its transactions held column-wise.

    ``senders`` and ``recipients`` hold one lowercase 0x address per
    transaction, with None as the recipient of a contract creation: None
    is the only creation marker, so a payment to the zero address stays a
    payment (``_creations`` gives the creations' indices).
    ``creation_hashes`` is the contract creations' 32-byte tx hashes back
    to back, in transaction order: the raw bytes the cache stores, kept as
    they are, since the graph reads only 8 bytes of a creation's hash and
    no other transaction's. Records are immutable, hashable and compare by
    value.
    """

    number: int
    hash: str
    timestamp: int
    miner: str
    senders: tuple[str, ...]
    recipients: tuple[Optional[str], ...]
    creation_hashes: bytes


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


def _parse_tx(obj, index: int) -> tuple[str, str, Optional[str]]:
    # The transaction's (hash, sender, recipient), lowercase, with None as
    # a creation's recipient. The value is checked, as outside input, but
    # not kept.
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
    return (_canonical_hash(obj["hash"], f"{where}.hash"),
            canonical_address(obj["from"], f"{where}.from"),
            None if recipient is None else canonical_address(recipient, f"{where}.to"))


_TX_FIELDS = tuple(map(itemgetter, ("hash", "from", "to", "value")))
_RECIPIENT_TYPES = {str, type(None)}


def _creation_list(hashes, recipients) -> bytes:
    """A body's creation list: the count, the indices and the hashes of
    the creations (the None recipients), from a block's hash and recipient
    columns. Only the creations' hashes are converted to bytes."""
    creations = _creations(recipients)
    return (struct.pack(f">I{len(creations)}I", len(creations), *creations)
            + bytes.fromhex("".join([hashes[i][2:] for i in creations])))


def _parse_txs_by_column(txs: list) -> Optional[bytes]:
    """The cache body after its _HEAD: the sender and recipient columns
    and the creation list, as _parse_tx's rows give them; or None.

    Each field is checked a column at a time, by builtins, with no
    Python-level call per transaction: one fullmatch over the column's
    space-joined text, then one bytes.fromhex for the two address columns;
    the values and the hashes are only checked. None means some
    transaction is outside the common shape (a plain dict with all four
    fields, strings or a None recipient, a value below 2**256), and nothing
    was accepted: the caller then parses one transaction at a time, which
    names the fault or accepts a rarer shape (an int value, a missing "to"
    or "value", a dict subclass).
    """
    n = len(txs)
    if n == 0:
        return bytes(_U32.size)  # an empty creation list
    if set(map(type, txs)) != {dict}:
        return None
    try:
        hashes, senders, recipients, values = [list(map(get, txs)) for get in _TX_FIELDS]
    except KeyError:
        return None
    if (set(map(type, hashes + senders + values)) != {str}
            or not set(map(type, recipients)) <= _RECIPIENT_TYPES):
        return None
    # A field holding a space still matches as two fields, and would shift
    # every later transaction by one: the field counts, and the length of
    # the address bytes, guard against that.
    for pattern, column in ((_VALUE_COLUMN_RE, values), (_HASH32_COLUMN_RE, hashes)):
        text = " ".join(column)
        if pattern.fullmatch(text) is None or text.count(" ") != n - 1:
            return None
    # A creation's recipient is checked as the zero address, as the body
    # stores it; the creation indices come from the raw column, so a real
    # zero-address recipient stays a payment.
    text = " ".join(chain(senders, map(_NO_RECIPIENT_FOR.get, recipients, recipients)))
    if _ADDRESS_COLUMN_RE.fullmatch(text) is None:
        return None
    columns = bytes.fromhex(text.replace("0x", ""))
    if len(columns) != 40 * n:
        return None
    return columns + _creation_list(hashes, recipients)


def _block_body(obj) -> bytes:
    # The cache body of a decoded JSON-RPC block result; a BlockParseError
    # names the first faulty field.
    if not isinstance(obj, dict):
        raise BlockParseError("<root>", "block result is not an object")
    for key in ("number", "hash", "timestamp", "miner", "transactions"):
        if key not in obj:
            raise BlockParseError(key, "missing")
    txs = obj["transactions"]
    if not isinstance(txs, list):
        raise BlockParseError("transactions", "not a list")
    number = _parse_u64(obj["number"], "number")
    block_hash = _canonical_hash(obj["hash"], "hash")
    timestamp = _parse_u64(obj["timestamp"], "timestamp")
    miner = canonical_address(obj["miner"], "miner")
    rest = _parse_txs_by_column(txs)
    if rest is None:
        # Not reached for an empty list, so the rows transpose to three columns.
        hashes, senders, recipients = zip(*[_parse_tx(t, i) for i, t in enumerate(txs)])
        digits = "".join(chain(senders, map(_NO_RECIPIENT_FOR.get, recipients, recipients)))
        rest = unhexlify(digits.replace("0x", "")) + _creation_list(hashes, recipients)
    return _HEAD.pack(number, timestamp, len(txs), unhexlify(block_hash[2:]),
                      unhexlify(miner[2:])) + rest


def parse_block_json(obj: dict) -> BlockRecord:
    """Parse a decoded JSON-RPC block result (with full transaction
    objects), the dict ``JsonRpcEndpoint.call`` returns: the record that
    its cache body loads as.

    All hex quantities are decoded, addresses are canonicalized to
    lowercase, and transaction order is preserved.
    """
    return _unpack(_block_body(obj))


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


def _hex_column(data: bytes, width: int) -> list[str]:
    """Split a column of ``width``-byte fields into 0x hex."""
    if not data:
        return []
    return ("0x" + data.hex(" ", width).replace(" ", " 0x")).split(" ")


def _unpack(body: bytes) -> BlockRecord:
    # A format-5 body, checked column-wise, as its record; ValueError names
    # the first part that is not as _block_body writes it. Only the two
    # address columns are decoded: the creations' hashes are kept as stored.
    size = len(body)
    if size < _HEAD.size + _U32.size:
        raise ValueError("body shorter than its header")
    number, timestamp, n, block_hash, miner = _HEAD.unpack_from(body)
    block_hash = "0x" + block_hash.hex()
    miner = "0x" + miner.hex()
    creations_at = _HEAD.size + 40 * n
    if size < creations_at + _U32.size:
        raise ValueError(f"body too short for {n} transactions")
    (created,) = _U32.unpack_from(body, creations_at)
    hashes_at = creations_at + _U32.size * (1 + created)
    end = hashes_at + 32 * created
    if size < end:
        raise ValueError(f"body too short for {created} contract creations")
    if size != end:
        raise ValueError(f"body longer than {n} transactions and {created} creations")
    creations = struct.unpack_from(f">{created}I", body, creations_at + _U32.size)
    addresses = _hex_column(body[_HEAD.size:creations_at], 20)
    recipients = addresses[n:]
    if creations:
        if not all(map(lt, creations, creations[1:])) or creations[-1] >= n:
            raise ValueError("creation indices not strictly increasing below the tx count")
        if set(map(recipients.__getitem__, creations)) != {_NO_RECIPIENT}:
            raise ValueError("a contract creation has a non-zero recipient")
        for i in creations:
            recipients[i] = None
    return BlockRecord(number, block_hash, timestamp, miner, tuple(addresses[:n]),
                       tuple(recipients), body[hashes_at:])


class BlockCache:
    """One file per block, named by zero-padded decimal height.

    Each file holds a header line (format name and the body's sha256) and
    the block's validated fields (see ``CACHE_FORMAT``), so partial runs
    resume and replays never hit the network. ``store`` checks a JSON-RPC
    result straight into the body it writes and returns the record that
    body loads as; ``get`` is the one read, and returns None on a miss.
    Every read checks the entry, and a read never writes: an entry in any
    format but ``CACHE_FORMAT`` is corrupt, to be refetched by
    ``fetch_range`` or refused offline. Writes are atomic:
    each writer writes a temp file of its own, then renames it. The
    directory is made by the first store, so a command that only reads
    leaves nothing behind. Files keep the ``.json`` name of the oldest
    format.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
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
        body = _block_body(result)
        block = _unpack(body)
        if block.number != number:
            raise BlockParseError("number", f"expected block {number}, got {block.number}")
        # Made by the first store, so that a command that only reads leaves
        # nothing behind; concurrent stores may race to make it.
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write(number, body)
        return block

    def _write(self, number: int, body: bytes) -> None:
        header = CACHE_FORMAT + b" sha256:" + hashlib.sha256(body).hexdigest().encode("ascii")
        path = self._file(number)
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

    def get(self, number: int) -> Optional[BlockRecord]:
        """Load and verify a cached block; returns None on a miss and
        raises CacheCorruptError on a corrupt entry."""
        path = self._file(number)
        try:
            with open(path, "rb") as f:
                header, _, body = f.read().partition(b"\n")
        except FileNotFoundError:
            return None
        name, _, checksum = header.partition(b" ")
        if name != CACHE_FORMAT:
            found = name[:40].decode("ascii", "replace")
            raise CacheCorruptError(f"{path}: unknown format {found!r}")
        if checksum != b"sha256:" + hashlib.sha256(body).hexdigest().encode("ascii"):
            raise CacheCorruptError(f"{path}: checksum mismatch")
        try:
            block = _unpack(body)
        except ValueError as exc:
            raise CacheCorruptError(f"{path}: malformed block fields: {exc}") from exc
        if block.number != number:
            raise CacheCorruptError(f"{path}: holds block {block.number}, not {number}")
        return block


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

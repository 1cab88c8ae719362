"""Append-only, hash-chained, tamper-evident ledgers.

The paper's model (§2.2) needs exactly three properties from a blockchain:
publishing is visible to everyone within ``Δ``, published items are
irrevocable, and stored bytes can be counted (for Theorem 4.10).  A
:class:`Ledger` provides the irrevocability and the accounting: records are
wrapped in blocks whose headers chain by SHA-256, so any retroactive
mutation is detectable by :meth:`Ledger.verify_integrity`.

Every byte a ledger hashes or counts is a record's :func:`canonical_encode`
output: sorted-key, whitespace-free JSON produced in one pass of the
standard library's C-backed encoder, whose only hook spells bytes values
as ``{"__bytes__": hex}``.  The encoding is frozen — run keys, the stored
byte counts and the benchmark digests depend on it — so payloads keep to
its documented shape (str keys only), and a value or key JSON cannot
spell raises :class:`~repro.errors.LedgerError` instead of being encoded.

Visibility timing is *not* the ledger's job — the discrete-event simulator
(:mod:`repro.sim`) delivers observations with the configured delays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.crypto.hashing import sha256
from repro.errors import LedgerError, TamperError

GENESIS_HASH = bytes(32)

_BLOCK_HEADER_BYTES = 8 + 8 + 32 + 32  # index, timestamp, prev_hash, hash


def canonical_encode(payload: dict) -> bytes:
    """Canonical JSON encoding used for hashing and size accounting.

    Sorted keys, no whitespace, one C-backed encoder pass.  Values may
    be dicts, lists, tuples, str, int, float, bool, ``None``, bytes or
    bytearray; bytes values are hex-encoded with a marker so encoding is
    injective for the payload shapes the library produces.

    Dict keys must be str.  Any other value type, and any key JSON has
    no spelling for (bytes, tuples, keys of mixed types), raises
    :class:`LedgerError` rather than being encoded.  int, float, bool
    and ``None`` keys are not detected — checking every key would cost
    a second walk of the payload — but they are outside the contract
    too: JSON spells them its own way (``true``, numbers sorted
    numerically), not as the str keys the frozen encoding assumes.  No
    library payload uses them (``tests/test_ledger_encoding.py`` checks
    every engine's records).
    """
    try:
        return _ENCODER.encode(payload).encode()
    except TypeError as exc:
        raise LedgerError(f"cannot encode ledger record: {exc}") from exc


def _encode_bytes(value: object) -> dict[str, str]:
    """The encoder's hook for every value JSON has no spelling for."""
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    raise LedgerError(f"cannot encode {type(value).__name__} in a ledger record")


#: No circular-reference markers: ledger payloads are trees (a cyclic
#: payload ends in ``RecursionError``).
_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    default=_encode_bytes,
    check_circular=False,
)


@dataclass(frozen=True)
class Record:
    """One logical entry on a ledger.

    Attributes:
        kind: Record type, e.g. ``contract_published`` or ``contract_call``.
        author: Address of the party that submitted the record.
        payload: JSON-compatible body with str keys (bytes values allowed,
            hex-encoded; see :func:`canonical_encode`).
    """

    kind: str
    author: str
    payload: dict

    def encoded(self) -> bytes:
        """The record's canonical encoding, computed once and cached.

        A record is logically immutable from construction (the dataclass
        is frozen and the ledger never rewrites payloads), but every
        record used to be re-encoded three times on its way into a block
        — hash, block sizing, ledger accounting — which dominated the
        simulated hot path.  The cache rides on the frozen instance via
        ``object.__setattr__``; forging is still detected because a
        forged record is a *fresh* instance whose encoding is computed
        from its own (tampered) payload.
        """
        cached: bytes | None = getattr(self, "_encoded", None)
        if cached is None:
            cached = canonical_encode(
                {"kind": self.kind, "author": self.author, "payload": self.payload}
            )
            object.__setattr__(self, "_encoded", cached)
        return cached

    def encoded_size_bytes(self) -> int:
        return len(self.encoded())


@dataclass(frozen=True)
class Block:
    """A sealed block: header plus records, hash-chained to its parent."""

    index: int
    timestamp: int
    prev_hash: bytes
    records: tuple[Record, ...]
    block_hash: bytes = field(repr=False)

    @staticmethod
    def compute_hash(
        index: int, timestamp: int, prev_hash: bytes, records: tuple[Record, ...]
    ) -> bytes:
        body = b"".join(record.encoded() for record in records)
        header = (
            index.to_bytes(8, "big")
            + timestamp.to_bytes(8, "big", signed=True)
            + prev_hash
        )
        return sha256(header + body)

    def encoded_size_bytes(self) -> int:
        return _BLOCK_HEADER_BYTES + sum(r.encoded_size_bytes() for r in self.records)


class Ledger:
    """An append-only chain of blocks.

    Each :meth:`append` seals one block containing one record — a
    simplification (real chains batch) that keeps the simulator's
    publish/observe timing exact while preserving hash-chaining and
    byte-accounting semantics.  Timestamps must be non-decreasing.
    """

    def __init__(self, ledger_id: str) -> None:
        self.ledger_id = ledger_id
        self._blocks: list[Block] = []
        self._observers: list[Callable[[Block], None]] = []

    def append(self, record: Record, timestamp: int) -> Block:
        """Seal ``record`` into a new block at ``timestamp``."""
        if self._blocks and timestamp < self._blocks[-1].timestamp:
            raise LedgerError(
                f"timestamp {timestamp} is earlier than the chain tip "
                f"({self._blocks[-1].timestamp})"
            )
        index = len(self._blocks)
        prev_hash = self._blocks[-1].block_hash if self._blocks else GENESIS_HASH
        block_hash = Block.compute_hash(index, timestamp, prev_hash, (record,))
        block = Block(
            index=index,
            timestamp=timestamp,
            prev_hash=prev_hash,
            records=(record,),
            block_hash=block_hash,
        )
        self._blocks.append(block)
        for observer in self._observers:
            observer(block)
        return block

    def add_observer(self, callback: Callable[[Block], None]) -> None:
        """Register a callback fired synchronously on every new block."""
        self._observers.append(callback)

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    def records(self) -> list[Record]:
        return [record for block in self._blocks for record in block.records]

    def records_of_kind(self, kind: str) -> list[Record]:
        return [record for record in self.records() if record.kind == kind]

    # -- integrity and accounting ---------------------------------------------

    def verify_integrity(self) -> None:
        """Raise :class:`TamperError` if any block fails hash validation."""
        prev_hash = GENESIS_HASH
        for position, block in enumerate(self._blocks):
            if block.index != position:
                raise TamperError(
                    f"{self.ledger_id}: block at position {position} claims "
                    f"index {block.index}"
                )
            if block.prev_hash != prev_hash:
                raise TamperError(
                    f"{self.ledger_id}: block {position} does not chain to "
                    "its predecessor"
                )
            expected = Block.compute_hash(
                block.index, block.timestamp, block.prev_hash, block.records
            )
            if block.block_hash != expected:
                raise TamperError(
                    f"{self.ledger_id}: block {position} contents do not "
                    "match its hash"
                )
            prev_hash = block.block_hash

    def total_size_bytes(self) -> int:
        """Total bytes stored on this ledger (Theorem 4.10 accounting)."""
        return sum(block.encoded_size_bytes() for block in self._blocks)

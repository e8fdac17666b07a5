"""Fixed-slot page files: the on-disk format of the out-of-core store.

One file per simulated disk.  The layout is deliberately dumb — a small
fixed header, a slot-count table, then ``num_slots`` fixed-size slots —
so a reader can memory-map the file and serve any page with two
``np.frombuffer`` views and zero parsing:

.. code-block:: text

    offset 0    header (64 bytes, little-endian)
                  magic           8s   b"REPROPGF"
                  format_version  u32  PAGEFILE_FORMAT_VERSION
                  disk_id         u32  which simulated disk this file is
                  page_bytes      u64  logical page size of the store
                  slot_bytes      u64  bytes reserved per slot
                  num_slots       u64  number of page slots
                  dimension       u32  point dimensionality d
                  entry_bytes     u32  8 + 8 * d (sanity check)
                  (16 reserved zero bytes)
    offset 64   counts table: num_slots * u32 entries per slot
    data start  slot 0, slot 1, ... at ``slot_bytes`` stride
                (data start is the counts-table end rounded up to 8)

A slot holds one data page's payload: ``n`` object ids as little-endian
``int64`` followed by ``n`` points as row-major ``float64`` — exactly the
arrays the in-memory engines score, so a round trip through the file is
bit-for-bit lossless.  Slot tail bytes beyond the payload are zero.

:meth:`PageFile.read_slots` decodes many pages straight from the mapping
into ``+inf``-padded rows the caller owns; no view of the mapping leaves
a ``PageFile``, so :meth:`PageFile.close` can always unmap.

Oversized payloads **raise** :class:`SlotOverflowError` at write time —
a page is never silently truncated.  Readers validate the magic, the
format version, and that the file length matches the header exactly;
a partially written (crashed/truncated) file fails fast with
:class:`PageFormatError` instead of returning garbage pages.  See
``docs/storage.md`` for the full contract.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import IO, Optional, Sequence, Tuple, Union

import numpy as np

from repro.index.node import DEFAULT_PAGE_BYTES

__all__ = [
    "PAGEFILE_MAGIC",
    "PAGEFILE_FORMAT_VERSION",
    "HEADER_BYTES",
    "PageFormatError",
    "SlotOverflowError",
    "payload_bytes",
    "PageFileWriter",
    "PageFile",
]

#: First eight bytes of every page file.
PAGEFILE_MAGIC = b"REPROPGF"

#: On-disk format revision; bump on any incompatible layout change.
PAGEFILE_FORMAT_VERSION = 1

#: Fixed header size in bytes.
HEADER_BYTES = 64

#: ``<`` disables alignment so the struct is exactly 64 bytes everywhere.
_HEADER = struct.Struct("<8sIIQQQII16x")

_OID_BYTES = 8
_COORD_BYTES = 8


class PageFormatError(ValueError):
    """A page file is missing, corrupt, truncated, or from another
    format version."""


class SlotOverflowError(PageFormatError):
    """A page payload does not fit its fixed-size slot (never truncate)."""


def payload_bytes(num_entries: int, dimension: int) -> int:
    """Bytes needed to store ``num_entries`` (oid, point) pairs."""
    return num_entries * (_OID_BYTES + _COORD_BYTES * dimension)


def _counts_end(num_slots: int) -> int:
    return HEADER_BYTES + 4 * num_slots


def _data_start(num_slots: int) -> int:
    """First slot offset: the counts table end rounded up to 8 bytes."""
    end = _counts_end(num_slots)
    return (end + 7) & ~7


class PageFileWriter:
    """Sequential creator of one disk's page file.

    Pre-sizes the file on open (unwritten slots stay zero), accepts slot
    payloads in any order via :meth:`write_slot` or — a run of
    consecutive slots per write — :meth:`write_slots`, and writes the
    slot-count table on :meth:`close` — so a crash mid-write leaves a
    file whose length is right but whose counts table is all zeros,
    which the reader surfaces as empty pages rather than garbage.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        disk_id: int,
        num_slots: int,
        slot_bytes: int,
        dimension: int,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        if num_slots < 0:
            raise ValueError(f"num_slots must be >= 0, got {num_slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.path = os.fspath(path)
        self.disk_id = disk_id
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        self.dimension = dimension
        self.page_bytes = page_bytes
        self._counts = np.zeros(num_slots, dtype=np.uint32)
        self._start = _data_start(num_slots)
        self._file: Optional[IO[bytes]] = open(self.path, "wb")
        self._file.write(
            _HEADER.pack(
                PAGEFILE_MAGIC,
                PAGEFILE_FORMAT_VERSION,
                disk_id,
                page_bytes,
                slot_bytes,
                num_slots,
                dimension,
                _OID_BYTES + _COORD_BYTES * dimension,
            )
        )
        self._file.truncate(self._start + num_slots * slot_bytes)

    def write_slot(
        self, slot: int, oids: np.ndarray, points: np.ndarray
    ) -> None:
        """Store one page payload; raises if it exceeds the slot size."""
        self.write_slots(slot, [len(oids)], oids, points)

    def write_slots(
        self,
        first: int,
        counts: Sequence[int],
        oids: np.ndarray,
        points: np.ndarray,
    ) -> None:
        """Store the payloads of slots ``first, first + 1, ...`` with one
        write: slot ``first + i`` takes the next ``counts[i]`` entries of
        the stacked ``oids`` / ``points``, its tail is zeroed.  Raises —
        before anything is written — if a payload exceeds the slot size.
        """
        if self._file is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        counts = np.asarray(counts, dtype=np.int64)
        if not 0 <= first <= first + len(counts) <= self.num_slots:
            raise ValueError(
                f"slots [{first}, {first + len(counts)}) outside "
                f"[0, {self.num_slots}) in {self.path!r}"
            )
        oids = np.ascontiguousarray(oids, dtype=np.int64)
        points = np.ascontiguousarray(points, dtype=np.float64)
        total = int(counts.sum())
        if oids.shape != (total,) or points.shape != (total, self.dimension):
            raise ValueError(
                f"payload must be ({total},) oids and "
                f"({total}, {self.dimension}) points, got oids shape "
                f"{oids.shape} and points shape {points.shape}"
            )
        widest = int(counts.max(initial=0))
        if payload_bytes(widest, self.dimension) > self.slot_bytes:
            raise SlotOverflowError(
                f"page payload of {widest} entries needs "
                f"{payload_bytes(widest, self.dimension)} bytes "
                f"but slots in {self.path!r} hold {self.slot_bytes}; "
                f"rebuild the store with a larger slot_bytes"
            )
        run = np.zeros((len(counts), self.slot_bytes), dtype=np.uint8)
        # Slots of one entry count share a layout: fill them together.
        for count in set(counts.tolist()) - {0}:
            slots = counts == count
            entries = np.repeat(slots, counts)
            split = _OID_BYTES * count
            run[slots, :split] = oids[entries].view(np.uint8).reshape(-1, split)
            run[slots, split : payload_bytes(count, self.dimension)] = (
                points[entries].view(np.uint8).reshape(int(slots.sum()), -1)
            )
        self._file.seek(self._start + first * self.slot_bytes)
        self._file.write(run)
        self._counts[first : first + len(counts)] = counts

    def close(self) -> None:
        """Flush the slot-count table and close the file."""
        if self._file is None:
            return
        self._file.seek(HEADER_BYTES)
        self._file.write(self._counts.tobytes())
        self._file.close()
        self._file = None

    def __enter__(self) -> "PageFileWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class PageFile:
    """Read-only memory-mapped view of one disk's page file.

    Multiple ``PageFile`` handles — in the same process or in per-disk
    worker processes — may map the same file concurrently; the mapping
    is read-only and the file is immutable once written.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        try:
            self._file: Optional[IO[bytes]] = open(self.path, "rb")
        except FileNotFoundError as error:
            raise PageFormatError(
                f"page file {self.path!r} does not exist"
            ) from error
        size = os.fstat(self._file.fileno()).st_size
        if size < HEADER_BYTES:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} is {size} bytes — too short for a page "
                f"file header ({HEADER_BYTES} bytes); truncated?"
            )
        header = self._file.read(HEADER_BYTES)
        (
            magic,
            version,
            self.disk_id,
            self.page_bytes,
            self.slot_bytes,
            self.num_slots,
            self.dimension,
            entry_bytes,
        ) = _HEADER.unpack(header)
        if magic != PAGEFILE_MAGIC:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} is not a repro page file "
                f"(magic {magic!r}, expected {PAGEFILE_MAGIC!r})"
            )
        if version != PAGEFILE_FORMAT_VERSION:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} uses page-file format version {version}; "
                f"this build reads version {PAGEFILE_FORMAT_VERSION} — "
                f"rebuild the store with the current code"
            )
        if entry_bytes != _OID_BYTES + _COORD_BYTES * self.dimension:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} header is inconsistent: entry_bytes "
                f"{entry_bytes} != 8 + 8 * dimension ({self.dimension})"
            )
        self._start = _data_start(self.num_slots)
        expected = self._start + self.num_slots * self.slot_bytes
        if size != expected:
            self._file.close()
            raise PageFormatError(
                f"{self.path!r} is {size} bytes but the header promises "
                f"{expected} ({self.num_slots} slots x {self.slot_bytes} "
                f"bytes); the file is truncated or corrupt"
            )
        self._mmap: Optional[mmap.mmap] = mmap.mmap(
            self._file.fileno(), 0, access=mmap.ACCESS_READ
        )
        self._counts = np.frombuffer(
            self._mmap, dtype=np.uint32, count=self.num_slots,
            offset=HEADER_BYTES,
        )
        # The data region as one byte row per slot, for multi-slot reads
        # (a gathered payload is realigned, so any slot size works).
        self._bytes = np.frombuffer(
            self._mmap, dtype=np.uint8, count=self.num_slots * self.slot_bytes,
            offset=self._start,
        ).reshape(self.num_slots, self.slot_bytes)
        limit = self.slot_bytes // (_OID_BYTES + _COORD_BYTES * self.dimension)
        if self.num_slots and int(self._counts.max(initial=0)) > limit:
            self.close()
            raise PageFormatError(
                f"{self.path!r} count table claims a slot with "
                f"more entries than fit {self.slot_bytes} slot bytes"
            )

    def entry_count(self, slot: int) -> int:
        """Entries stored in a slot — read from the table, no page touch."""
        if self._mmap is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        return int(self._counts[slot])

    def entry_counts(self, slots: np.ndarray) -> np.ndarray:
        """Entries stored in several slots, as an owned array."""
        return self._counts[self._checked(slots)]

    def _checked(self, slots: np.ndarray) -> np.ndarray:
        """``slots`` as indices; refused on a closed file or out of range."""
        if self._mmap is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size and not 0 <= slots.min() <= slots.max() < self.num_slots:
            raise ValueError(f"slots outside [0, {self.num_slots}) in {self.path!r}")
        return slots

    def read_slot(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """One page payload as ``(points, oids)`` arrays (owned copies).

        The copy decouples returned results from the mapping's lifetime
        (a neighbor list must survive :meth:`close`); the mmap page
        fault — the simulated disk read — happens here either way.
        """
        if self._mmap is None:
            raise PageFormatError(f"page file {self.path!r} already closed")
        if not 0 <= slot < self.num_slots:
            raise ValueError(
                f"slot {slot} outside [0, {self.num_slots}) in {self.path!r}"
            )
        count = int(self._counts[slot])
        offset = self._start + slot * self.slot_bytes
        oids = np.frombuffer(
            self._mmap, dtype=np.int64, count=count, offset=offset
        ).copy()
        points = np.frombuffer(
            self._mmap,
            dtype=np.float64,
            count=count * self.dimension,
            offset=offset + _OID_BYTES * count,
        ).reshape(count, self.dimension).copy()
        return points, oids

    def read_slots(
        self, slots: np.ndarray, points: np.ndarray, oids: np.ndarray, rows: np.ndarray
    ) -> None:
        """Decode several page payloads straight into caller-owned rows.

        Slot ``slots[i]``'s ``n`` entries land in row ``rows[i]`` (in
        ``[0, R)``) of ``points`` (float64, ``(R, width, d)``) and
        ``oids`` (int64, ``(R, width)``): first what :meth:`read_slot`
        returns, then ``+inf`` points (oids there are left alone).  Slots
        of one entry count are gathered together, payload bytes only.  A
        closed file, a bad slot or array, or a slot over ``width`` entries
        is refused before the first write; the rows outlive :meth:`close`.
        """
        slots = self._checked(slots)
        rows = np.asarray(rows, dtype=np.intp)
        if (
            points.dtype != np.float64 or oids.dtype != np.int64
            or points.shape[2:] != (self.dimension,)
            or oids.shape != points.shape[:2] or rows.shape != slots.shape
        ):
            raise ValueError(
                f"points must be float64 (R, width, {self.dimension}), oids int64 "
                f"(R, width), rows one per slot; got {points.dtype} {points.shape}, "
                f"{oids.dtype} {oids.shape}, {rows.shape} for {slots.shape} slots"
            )
        width, dimension = points.shape[1], self.dimension
        counts = self._counts[slots]
        groups = set(counts.tolist())
        if max(groups, default=0) > width:
            raise PageFormatError(
                f"{self.path!r}: a slot holds more entries than a row of {width}"
            )
        for count in groups:
            at, taken = rows, slots
            if len(groups) > 1:
                same = counts == count
                at, taken = rows[same], slots[same]
            words = self._bytes[taken, : payload_bytes(count, dimension)]
            words = words.view(np.float64)
            oids[at, :count] = words[:, :count].view(np.int64)
            points[at, :count] = words[:, count:].reshape(len(taken), count, dimension)
            if count < width:
                points[at, count:] = np.inf

    def close(self) -> None:
        """Drop the mapping and close the file handle."""
        # Views export the mapping's buffer; mmap.close() raises
        # BufferError while one is alive.
        self._counts = np.zeros(0, dtype=np.uint32)
        self._bytes = np.zeros((0, 0), dtype=np.uint8)
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PageFile({self.path!r}, disk={self.disk_id}, "
            f"slots={self.num_slots}, slot_bytes={self.slot_bytes})"
        )

"""Spill files: bounded-RAM external sorting for the streaming bulk load.

The streaming STR builder (:func:`repro.storage.bulk.stream_bulk_load_mmap`)
never holds the dataset in memory.  Instead it keeps *records* — rows of
``dimension + 1`` float64 values, the point coordinates followed by the
point's original position — in flat binary files under a ``.spill``
directory inside the store directory, and sorts segments of those files
with a classic external merge sort:

1. read the segment in chunks of at most ``chunk_rows`` rows,
2. stable-sort each chunk in RAM and write it out as a sorted *run*,
3. k-way merge the runs block by block (:func:`_merge_runs`: whole
   buffered prefixes per ``argsort``, never a row at a time) back into
   the destination file, cascading through intermediate runs when the
   fan-in exceeds :data:`DEFAULT_MERGE_FANIN`.

Stability matters: the in-memory builder uses ``np.argsort(...,
kind="stable")``, whose ties keep their original order.  Chunk ``c``
holds exactly the rows ``[c * chunk_rows, (c+1) * chunk_rows)`` of the
segment, so every row in run ``c`` precedes (in original order) every
row in run ``c+1`` — and the merge gives key ties to the earlier run
(a stable argsort over prefixes concatenated in run order; a tie group
that reaches a buffer's end is emitted run by run).  Merging the runs
in chunk order therefore reproduces the exact permutation of one global
stable sort, which is what makes the streamed store byte-identical to
the in-memory one.  Segments that fit one chunk never come here: the
builder finishes their whole STR sub-recursion in RAM.

Every :class:`SpillFile` is a closeable resource tracked by the
``resource-leak`` lint rule: the builder deletes each one on all paths
(exception edges included) via ``try/finally``, so a crash mid-merge
leaves no orphaned spill files behind.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Callable, List, Optional, Union

import numpy as np

__all__ = [
    "DEFAULT_MERGE_FANIN",
    "SpillFile",
    "sort_segment",
]

#: Maximum number of sorted runs merged in one :func:`_merge_runs` pass;
#: beyond this the sort cascades through intermediate runs so the number
#: of concurrently buffered run blocks stays bounded.
DEFAULT_MERGE_FANIN = 32

_FLOAT_BYTES = 8

#: Most rows gathered at a time: by a merge round for one ``emit``, by
#: the builder's in-RAM recursion for one write-back.
_PIECE_ROWS = 8192


class SpillFile:
    """A flat binary file of fixed-width float64 record rows.

    Used both for the two ping-pong record files of the streaming
    builder and for the sorted runs of the external sort.  All I/O is
    buffered ``seek``/``read``/``write`` — never ``mmap`` — so touched
    bytes live in the OS page cache, not in this process's RSS, and the
    builder's peak memory stays bounded by its chunk size.

    Instances own an open file handle; call :meth:`close` (keep the
    file) or :meth:`delete` (close and unlink) on every path.
    """

    def __init__(self, path: Union[str, os.PathLike], width: int):
        if width < 1:
            raise ValueError(f"record width must be >= 1, got {width}")
        self.path = os.fspath(path)
        self.width = int(width)
        self._row_bytes = _FLOAT_BYTES * self.width
        self._rows = 0
        self._file: Optional[IO[bytes]] = open(self.path, "w+b")

    @property
    def rows(self) -> int:
        """Number of record rows written so far (high-water mark)."""
        return self._rows

    def _handle(self) -> IO[bytes]:
        if self._file is None:
            raise ValueError(f"spill file {self.path!r} already closed")
        return self._file

    def _coerce(self, rows: np.ndarray) -> np.ndarray:
        block = np.ascontiguousarray(rows, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != self.width:
            raise ValueError(
                f"rows must be (m, {self.width}), got shape {block.shape}"
            )
        return block

    def append(self, rows: np.ndarray) -> None:
        """Write a block of rows at the end of the file."""
        self.write_at(self._rows, rows)

    def write_at(self, start: int, rows: np.ndarray) -> None:
        """Write a block of rows at row offset ``start`` (may extend)."""
        block = self._coerce(rows)
        handle = self._handle()
        handle.seek(start * self._row_bytes)
        handle.write(block)
        self._rows = max(self._rows, start + len(block))

    def read(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` as a ``(stop - start, width)`` array."""
        if not 0 <= start <= stop <= self._rows:
            raise ValueError(
                f"row range [{start}, {stop}) outside [0, {self._rows}] "
                f"in {self.path!r}"
            )
        count = stop - start
        handle = self._handle()
        handle.seek(start * self._row_bytes)
        data = handle.read(count * self._row_bytes)
        if len(data) != count * self._row_bytes:
            raise ValueError(
                f"short read in {self.path!r}: wanted {count} rows at "
                f"{start}, file delivered {len(data)} bytes"
            )
        return np.frombuffer(data, dtype=np.float64).reshape(count, self.width)

    def close(self) -> None:
        """Close the file handle (idempotent); the file stays on disk."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def delete(self) -> None:
        """Close the handle and remove the file (idempotent)."""
        self.close()
        Path(self.path).unlink(missing_ok=True)

    def __enter__(self) -> "SpillFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpillFile({self.path!r}, width={self.width}, rows={self._rows})"


def _merge_runs(
    runs: List[SpillFile],
    emit: Callable[[np.ndarray], None],
    key_col: int,
    chunk_rows: int,
) -> None:
    """Stable k-way merge of sorted runs into ``emit`` calls of row blocks.

    Every run buffers one block of ``chunk_rows // (runs + 1)`` rows in
    a shared pool.  Per round, ``cut`` is the smallest block-tail key
    over the live runs: every row with a key ``< cut`` is already
    buffered, so those prefixes, taken in run order, need one stable
    argsort.  The ``== cut`` tie group then goes out run by run
    (refilling a run whose buffer it exhausts) — ties to the earlier
    run, runs in chunk order, hence the order of one global stable sort
    of the segment.  ``emit`` must consume its block before returning:
    blocks may be views of the pool.
    """
    if not runs:
        return
    count = len(runs)
    block_rows = max(1, chunk_rows // (count + 1))
    pool = np.empty((count * block_rows, runs[0].width))
    keys = pool[:, key_col]
    # Run i buffers pool[heads[i]:tails[i]]; offsets[i] rows are read.
    heads, tails, offsets = [0] * count, [0] * count, [0] * count

    def refill(index: int) -> None:
        stop = min(offsets[index] + block_rows, runs[index].rows)
        heads[index] = index * block_rows
        tails[index] = heads[index] + stop - offsets[index]
        pool[heads[index] : tails[index]] = runs[index].read(offsets[index], stop)
        offsets[index] = stop

    live = [index for index in range(count) if runs[index].rows]
    for index in live:
        refill(index)
    while live:
        cut = min(keys[tails[index] - 1] for index in live)
        spans = []
        for index in live:
            head, tail = heads[index], tails[index]
            heads[index] += int(np.searchsorted(keys[head:tail], cut, side="left"))
            spans.append(np.arange(head, heads[index]))
        rows = np.concatenate(spans)
        rows = rows[np.argsort(keys[rows], kind="stable")]
        for first in range(0, len(rows), _PIECE_ROWS):
            emit(pool[rows[first : first + _PIECE_ROWS]])
        for index in list(live):
            while True:
                head, tail = heads[index], tails[index]
                heads[index] += int(np.searchsorted(keys[head:tail], cut, side="right"))
                if heads[index] > head:
                    emit(pool[head : heads[index]])
                if heads[index] < tail:
                    break
                if offsets[index] == runs[index].rows:
                    live.remove(index)
                    break
                refill(index)


def sort_segment(
    src: SpillFile,
    dst: SpillFile,
    start: int,
    stop: int,
    key_col: int,
    *,
    chunk_rows: int,
    run_dir: Union[str, os.PathLike],
    fanin: int = DEFAULT_MERGE_FANIN,
) -> None:
    """Stable-sort rows ``[start, stop)`` of ``src`` into ``dst`` by one
    column, holding at most ``O(chunk_rows)`` rows in memory.

    Chunk-sized sorted runs spill into ``run_dir`` and are k-way merged
    (cascading when more than ``fanin`` runs exist).  Every run file is
    deleted before return on success *and* failure paths.
    """
    if fanin < 2:
        raise ValueError(f"fanin must be >= 2, got {fanin}")
    created: List[SpillFile] = []
    try:
        runs: List[SpillFile] = []
        serial = 0
        for offset in range(start, stop, chunk_rows):
            end = min(offset + chunk_rows, stop)
            block = src.read(offset, end)
            order = np.argsort(block[:, key_col], kind="stable")
            run = SpillFile(
                os.path.join(os.fspath(run_dir), f"run-{start}-{serial}.spill"),
                src.width,
            )
            created.append(run)
            serial += 1
            runs.append(run)
            run.append(block[order])
        while len(runs) > fanin:
            merged = SpillFile(
                os.path.join(os.fspath(run_dir), f"run-{start}-{serial}.spill"),
                src.width,
            )
            created.append(merged)
            serial += 1
            _merge_runs(runs[:fanin], merged.append, key_col, chunk_rows)
            runs = [merged] + runs[fanin:]
        position = start

        def _to_dst(block: np.ndarray) -> None:
            nonlocal position
            dst.write_at(position, block)
            position += len(block)

        _merge_runs(runs, _to_dst, key_col, chunk_rows)
    finally:
        for run in created:
            run.delete()

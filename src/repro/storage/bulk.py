"""Direct-to-disk STR bulk loading: build an MmapStore without
materializing per-point Python objects.

:func:`repro.index.bulk.bulk_load` creates one ``LeafEntry`` object per
point — fine for the paper's 10^4–10^5 points, prohibitive for N in the
tens of millions.  :func:`stream_bulk_load_mmap` is the one loader that
writes a store straight to disk: its source is an array, a ``.npy``
path or an iterable of row chunks, consumed under a RAM budget.  STR
levels larger than the sort chunk run as external sorts
(:mod:`repro.storage.spill`), a segment that fits it is finished in RAM
by :func:`repro.index.bulk.str_chunks` itself, leaf payloads move to the
page files in runs of consecutive slots, and only the directory (inner
nodes + leaf MBRs, as flat arrays — no tree node is built) is held in
RAM.  :func:`bulk_load_mmap` is its entry point for an in-RAM array.
Non-finite coordinates are rejected at ingest.

Equivalence: the leaf tiles, leaf MBRs, directory grouping (the one
builder, :func:`repro.index.bulk._str_directory`), page-to-disk
assignment (:func:`repro.parallel.paged._decluster_pages`) and header
(:func:`repro.storage.mmap_store._store_header`) are those of the
in-memory route ``bulk_load`` + ``PagedStore`` + ``save_paged_store``,
which writes byte-identical files and is the parity reference of the
test suite.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import shutil
from pathlib import Path
from typing import (
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.core.declustering import Declusterer
from repro.index.bulk import (
    _checked_oids,
    _require_finite,
    _split_bounds,
    _str_directory,
    str_chunks,
)
from repro.index.node import DEFAULT_PAGE_BYTES
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.parallel.paged import _decluster_pages
from repro.storage.mmap_store import (
    MmapStore,
    _Gather,
    _store_header,
    _write_store,
)
from repro.storage.spill import _PIECE_ROWS, SpillFile, sort_segment

__all__ = [
    "bulk_load_mmap",
    "stream_bulk_load_mmap",
    "DEFAULT_MAX_RAM_BYTES",
    "SPILL_DIR_NAME",
]

#: Default RAM budget for :func:`stream_bulk_load_mmap`'s sort chunks.
DEFAULT_MAX_RAM_BYTES = 256 * 1024 * 1024

#: Spill sub-directory (ping-pong record files + sort runs) created
#: inside the store directory during a streaming build and removed —
#: success or failure — before :func:`stream_bulk_load_mmap` returns.
SPILL_DIR_NAME = ".spill"


#: Anything :func:`stream_bulk_load_mmap` accepts as its point source:
#: an in-RAM (or memmapped) ``(N, d)`` array, a path to a C-order 2-D
#: ``.npy`` file (read with buffered I/O, never mapped), or an iterable
#: of ``(m, d)`` row chunks.
PointSource = Union[np.ndarray, str, os.PathLike, Iterable[object]]

#: Row chunks of a source; a generator, so a failed ingest can close it.
_Chunks = Generator[np.ndarray, None, None]

_RECORD_A = "records-a.f64"
_RECORD_B = "records-b.f64"


def _resolve_chunk_rows(
    dimension: int, max_ram_bytes: int, chunk_rows: Optional[int]
) -> int:
    """Rows per in-RAM sort chunk under the ``max_ram_bytes`` budget.

    A chunk of ``r`` rows costs ``r * 8 * (d + 1)`` bytes; the budget
    is divided by four record widths.  Held at once: forming a run and
    ingest, two chunks (source and copy); the block merge and the
    in-RAM recursion, one chunk plus an 8192-row piece — each plus a few
    int64 *words* per row (argsort, tile order), a whole extra chunk
    only for ``d`` <= 2.  The rest is headroom for the O(pages)
    directory.
    """
    if max_ram_bytes < 1:
        raise ValueError(f"max_ram_bytes must be >= 1, got {max_ram_bytes}")
    if chunk_rows is not None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        return int(chunk_rows)
    row_bytes = 8 * (dimension + 1)
    return max(1, int(max_ram_bytes) // (row_bytes * 4))


def _check_dim(actual: int, wanted: Optional[int]) -> int:
    if actual < 1:
        raise ValueError(f"point dimension must be >= 1, got {actual}")
    if wanted is not None and int(wanted) != actual:
        raise ValueError(
            f"source has dimension {actual}, but dimension={wanted} was given"
        )
    return actual


def _coerce_chunk(item: object) -> np.ndarray:
    """One iterable item as a C-contiguous float64 ``(m, d)`` block."""
    block = np.ascontiguousarray(item, dtype=np.float64)
    if block.ndim == 1:
        block = block.reshape(1, -1)
    if block.ndim != 2:
        raise ValueError(
            f"point chunks must be (m, d), got shape {block.shape}"
        )
    return block


def _array_chunks(array: np.ndarray, rows: int) -> _Chunks:
    """Row chunks of an in-RAM (or memmapped) point array."""
    for offset in range(0, len(array), rows):
        yield np.ascontiguousarray(
            array[offset : offset + rows], dtype=np.float64
        )


def _iterable_chunks(items: Iterable[object], rows: int) -> _Chunks:
    """Caller-supplied chunks, re-split to at most ``rows`` rows each."""
    for item in items:
        block = _coerce_chunk(item)
        for offset in range(0, len(block), rows):
            yield block[offset : offset + rows]


def _npy_meta(
    path: Union[str, os.PathLike],
) -> Tuple[Tuple[int, int], np.dtype, int]:
    """Shape, dtype, and data offset of a C-order 2-D ``.npy`` file."""
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValueError(
                f"unsupported .npy format version {version} in "
                f"{os.fspath(path)!r}"
            )
        offset = handle.tell()
    if len(shape) != 2:
        raise ValueError(f"points must be (N, d), got shape {shape}")
    if fortran:
        raise ValueError(
            f"{os.fspath(path)!r} is Fortran-ordered; the streaming "
            f"loader reads C-order row chunks"
        )
    if dtype.hasobject:
        raise ValueError(f"{os.fspath(path)!r} holds objects, not numbers")
    return (int(shape[0]), int(shape[1])), dtype, offset


def _npy_chunks(
    path: Union[str, os.PathLike],
    shape: Tuple[int, int],
    dtype: np.dtype,
    offset: int,
    rows: int,
) -> _Chunks:
    """Stream a ``.npy`` file's rows with buffered reads (never mmap).

    Every chunk is a view of one reused buffer: consume it before
    asking for the next.
    """
    total, dimension = shape
    buffer = np.empty((min(rows, total), dimension), dtype=dtype)
    with open(path, "rb") as handle:
        handle.seek(offset)
        for done in range(0, total, rows):
            block = buffer[: total - done]
            if handle.readinto(block) != block.nbytes:
                raise ValueError(
                    f"{os.fspath(path)!r} is truncated: row {done} of "
                    f"{total} ends mid-file"
                )
            yield np.ascontiguousarray(block, dtype=np.float64)


def _ingest(
    source: PointSource,
    spill_dir: Path,
    max_ram_bytes: int,
    chunk_rows: Optional[int],
    dimension: Optional[int],
) -> Tuple[SpillFile, SpillFile, int, int, int]:
    """Stream ``source`` into the primary record file.

    Returns ``(records, alternate, count, dimension, chunk_rows)`` —
    the filled ping-pong record file A, the empty file B, the point
    count, the resolved dimension, and the resolved sort-chunk size.
    Records are rows of ``d + 1`` float64 values: the coordinates
    followed by the point's original position (later the default oid).
    """
    make_chunks: Callable[[int], _Chunks]
    if isinstance(source, np.ndarray):
        if source.ndim != 2:
            raise ValueError(
                f"points must be (N, d), got shape {source.shape}"
            )
        dim = _check_dim(int(source.shape[1]), dimension)
        make_chunks = functools.partial(_array_chunks, source)
    elif isinstance(source, (str, os.PathLike)):
        shape, dtype, offset = _npy_meta(source)
        dim = _check_dim(shape[1], dimension)
        make_chunks = functools.partial(
            _npy_chunks, source, shape, dtype, offset
        )
    else:
        items = iter(source)
        try:
            head = _coerce_chunk(next(items))
        except StopIteration:
            if dimension is None:
                raise ValueError(
                    "cannot infer the point dimension of an empty "
                    "source; pass dimension="
                ) from None
            dim = _check_dim(int(dimension), None)
        else:
            dim = _check_dim(int(head.shape[1]), dimension)
            items = itertools.chain([head], items)
        make_chunks = functools.partial(_iterable_chunks, items)
    rows = _resolve_chunk_rows(dim, max_ram_bytes, chunk_rows)
    chunks = make_chunks(rows)

    records = _record_file(spill_dir, _RECORD_A, dim + 1)
    alternate: Optional[SpillFile] = None
    try:
        count = 0
        for chunk in chunks:
            if chunk.shape[1] != dim:
                raise ValueError(
                    f"point chunk has dimension {chunk.shape[1]}, "
                    f"expected {dim}"
                )
            _require_finite(chunk, count)
            block = np.empty((len(chunk), dim + 1), dtype=np.float64)
            block[:, :dim] = chunk
            block[:, dim] = np.arange(count, count + len(chunk))
            records.append(block)
            count += len(chunk)
            # Freed before the source produces its next chunk.
            del block, chunk
        alternate = _record_file(spill_dir, _RECORD_B, dim + 1)
        return records, alternate, count, dim, rows
    finally:
        # A failed ingest leaves the source generator suspended (the
        # ``.npy`` one with its file open) and, before file B exists,
        # file A unowned by the caller.
        chunks.close()
        if alternate is None:
            records.delete()


def _record_file(spill_dir: str, name: str, width: int) -> SpillFile:
    """Open one ping-pong record file under the spill directory.

    The caller owns the handle: :func:`_ingest` deletes file A when the
    ingest fails before file B exists, and
    :func:`stream_bulk_load_mmap` deletes both in its ``finally``.
    """
    return SpillFile(os.path.join(spill_dir, name), width)


def _stream_tiles(
    files: Tuple[SpillFile, SpillFile],
    count: int,
    dimension: int,
    capacity: int,
    chunk_rows: int,
    run_dir: Path,
) -> Tuple[List[Tuple[int, int, int]], np.ndarray, np.ndarray]:
    """Run the STR recursion out-of-core over the record files.

    This is :func:`repro.index.bulk.str_chunks` with the stable argsort
    replaced by :func:`repro.storage.spill.sort_segment` and the index
    arrays replaced by ``(start, stop, file)`` row ranges — an explicit
    depth-first stack preserves the recursion's tile emission order.
    The first time a segment fits the sort chunk, ``str_chunks`` itself
    finishes its whole sub-recursion on the one block read: tile MBRs
    come from the rows in hand, and the permuted rows go to the other
    record file :data:`_PIECE_ROWS` at a time, never as a whole copy.
    Returns the tiles plus their MBRs' low and high bounds.
    """
    tiles: List[Tuple[int, int, int]] = []
    lows = [np.empty((0, dimension))]
    highs = [np.empty((0, dimension))]
    step = max(1, _PIECE_ROWS // capacity)

    def finish(start: int, stop: int, dim: int, src: int) -> None:
        # A function, so the block is freed before the next segment.
        block = files[src].read(start, stop)
        chunks = str_chunks(block[:, :dimension], capacity, start_dim=dim)
        order = np.concatenate(chunks)
        edges = np.cumsum([0] + [len(chunk) for chunk in chunks])
        for first in range(0, len(chunks), step):
            cuts = edges[first : first + step + 1]
            rows = block[order[cuts[0] : cuts[-1]]]
            points, marks = rows[:, :dimension], cuts[:-1] - cuts[0]
            lows.append(np.minimum.reduceat(points, marks))
            highs.append(np.maximum.reduceat(points, marks))
            files[1 - src].write_at(start + int(cuts[0]), rows)
        tiles.extend(
            (start + int(low), start + int(high), 1 - src)
            for low, high in zip(edges[:-1], edges[1:])
        )

    stack: List[Tuple[int, int, int, int]] = [(0, count, 0, 0)] if count else []
    while stack:
        start, stop, dim, src = stack.pop()
        segment = stop - start
        if segment <= max(capacity, chunk_rows):
            finish(start, stop, dim, src)
            continue
        dst = 1 - src
        pages = math.ceil(segment / capacity)
        sort_segment(
            files[src],
            files[dst],
            start,
            stop,
            dim,
            chunk_rows=chunk_rows,
            run_dir=run_dir,
        )
        if dim >= dimension - 1:
            # Last dimension: slice into near-equal runs of <= capacity.
            children = [
                (low, high, dim, dst)
                for low, high in _split_bounds(start, stop, pages)
            ]
        else:
            dims_left = dimension - dim
            slabs = math.ceil(pages ** (1.0 / dims_left))
            children = [
                (low, high, dim + 1, dst)
                for low, high in _split_bounds(start, stop, slabs)
                if high > low
            ]
        stack.extend(reversed(children))
    return tiles, np.concatenate(lows), np.concatenate(highs)


def _spill_gather(
    files: Tuple[SpillFile, SpillFile],
    tiles: List[Tuple[int, int, int]],
    dimension: int,
    oids: Optional[np.ndarray],
) -> _Gather:
    """A gather that reads the leaves' tiles back from the record files
    (default oid: the position column), one read per run of tiles that
    follow each other in a file."""

    def gather(leaves: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        spans: List[List[int]] = []
        for index in leaves:
            start, stop, src = tiles[index]
            if spans and spans[-1][1:] == [start, src]:
                spans[-1][1] = stop
            else:
                spans.append([start, stop, src])
        block = np.concatenate(
            [files[src].read(start, stop) for start, stop, src in spans]
        )
        positions = block[:, dimension].astype(np.int64)
        return block[:, :dimension], positions if oids is None else oids[positions]

    return gather


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    """The C library's ``malloc_trim`` (glibc), or None where it has
    none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_free_heap() -> None:
    """Return the C heap's free pages to the OS (a no-op without glibc).

    After a large array is freed, glibc keeps its pages resident; whether
    the next large allocations reuse them depends on where small live
    objects landed in the heap.  Resident memory, and with it the peak,
    would then swing by that array's size from one run of the same build
    to the next.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def stream_bulk_load_mmap(
    source: PointSource,
    declusterer: Union[Declusterer, Callable],
    directory: Union[str, os.PathLike],
    *,
    num_disks: Optional[int] = None,
    oids: Optional[Sequence[int]] = None,
    tree_cls: Type[RStarTree] = XTree,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    fill: float = 0.85,
    slot_bytes: Optional[int] = None,
    max_ram_bytes: int = DEFAULT_MAX_RAM_BYTES,
    chunk_rows: Optional[int] = None,
    dimension: Optional[int] = None,
) -> MmapStore:
    """STR bulk-load a point source, in RAM or not, into an mmap store.

    ``source`` may be an array, a path to a 2-D C-order ``.npy`` file,
    or an iterable of row chunks, and is consumed in bounded-RAM chunks
    (:func:`bulk_load_mmap` is the entry point for an in-RAM array).
    The STR sort passes run as external merge sorts over spill files in
    a ``.spill`` directory inside the store directory (removed on
    success *and* failure), and leaf payloads are written straight into
    the per-disk page files one run of slots at a time.  Peak resident
    memory is bounded by ``max_ram_bytes`` (plus the O(pages)
    directory); ``chunk_rows`` overrides the derived sort-chunk size
    directly (tests use 1 to force maximal spilling).

    The output is **byte-identical** to the in-memory route
    (``save_paged_store`` of a ``PagedStore`` built by ``bulk_load``) on
    the same data, for any chunk size: the chunked external sort
    reproduces the exact stable-sort permutations of the in-memory STR
    pass, and all downstream arithmetic (tile boundaries, directory
    grouping, declustering, header, slot assignment, file formats) is
    shared.  A failed build leaves no ``.spill`` directory behind, nor a
    store directory it created.  ``dimension`` is only required when
    ``source`` is an empty iterable.
    """
    if not 0.8 <= fill <= 1.0:
        raise ValueError(f"fill must be in [0.8, 1.0], got {fill}")
    # Resolve the disk count before any work: fail fast without one.
    num_disks = _decluster_pages(declusterer, [], num_disks)[0]
    # Start from the live heap only (a caller often frees the array it
    # saved as ``source`` just before), so the RAM budget bounds growth.
    _release_free_heap()

    path = Path(directory)
    created = not path.exists()
    spill = path / SPILL_DIR_NAME
    spill.mkdir(parents=True, exist_ok=True)
    built = False
    try:
        records_a, records_b, count, dim, rows = _ingest(
            source, spill, max_ram_bytes, chunk_rows, dimension
        )
        try:
            ids = None if oids is None else _checked_oids(oids, count)
            # The tree only lends its capacities and header fields.
            tree = tree_cls(dim, page_bytes=page_bytes)
            tree.size = count
            files = (records_a, records_b)
            tiles, low, high = _stream_tiles(
                files, count, dim, max(4, int(tree.leaf_cap * fill)), rows,
                spill,
            )
            arrays, order = _str_directory(
                low, high, max(4, int(tree.dir_cap * fill))
            )
            # From here on, leaves are in store (pre-order) order.
            tiles = [tiles[page] for page in order.tolist()]
            arrays["leaf_low"], arrays["leaf_high"] = low[order], high[order]
            _, arrays["page_disks"] = _decluster_pages(
                declusterer, (low + high)[order] / 2.0, num_disks
            )
            arrays["leaf_counts"] = np.array(
                [stop - start for start, stop, _ in tiles], dtype=np.int64
            )
            scheme = getattr(declusterer, "name", "custom")
            _write_store(
                directory,
                _store_header(tree, num_disks, scheme),
                arrays,
                _spill_gather(files, tiles, dim, ids),
                page_bytes,
                slot_bytes,
            )
        finally:
            records_a.delete()
            records_b.delete()
        built = True
    finally:
        # A failed build also removes the store directory it created.
        shutil.rmtree(
            spill if built or not created else path, ignore_errors=True
        )
    # The reopen reads the directory back: free the build's copy first.
    del arrays, tiles, low, high
    _release_free_heap()
    return MmapStore(directory)


def bulk_load_mmap(
    points: np.ndarray,
    declusterer: Union[Declusterer, Callable],
    directory: Union[str, os.PathLike],
    *,
    num_disks: Optional[int] = None,
    oids: Optional[Sequence[int]] = None,
    tree_cls: Type[RStarTree] = XTree,
    page_bytes: int = DEFAULT_PAGE_BYTES,
    fill: float = 0.85,
    slot_bytes: Optional[int] = None,
) -> MmapStore:
    """STR bulk-load an in-RAM ``points`` array straight into an
    out-of-core store: :func:`stream_bulk_load_mmap` over the array,
    under its default RAM budget.

    Parameters mirror ``bulk_load`` + ``PagedStore``: ``declusterer``
    assigns pages to disks by leaf MBR center (pass ``num_disks`` when
    it is a raw callable), and the result is an opened
    :class:`MmapStore` over ``directory``.
    """
    return stream_bulk_load_mmap(
        np.asarray(points, dtype=float),
        declusterer,
        directory,
        num_disks=num_disks,
        oids=oids,
        tree_cls=tree_cls,
        page_bytes=page_bytes,
        fill=fill,
        slot_bytes=slot_bytes,
    )

"""The store directory: the one on-disk format of every persisted index.

The paper's model keeps the (small) tree directory cached on every
workstation while data pages live on the disks.  A store directory makes
that literal: the directory is the flat pre-order arrays of
``tree.npz``, while every leaf *payload* (oids + points) lives in its
disk's page file (:mod:`repro.storage.pagefile`).  This module is
everything that knows the layout — one writer (:func:`_write_store`,
behind :func:`save_paged_store`, :func:`save_tree` and the STR loaders
of :mod:`repro.storage.bulk`), one reader (:class:`MmapStore`, behind
:func:`load_paged_store` and :func:`load_tree`) and the versioned header
they share.

:class:`MmapStore` keeps the directory in RAM as arrays (no tree node is
built to open a store — the process engine reads only arrays) and
serves payloads through a read-only memory map on demand; ``tree`` /
``leaves`` are :class:`~repro.index.node.Node` objects built on first
use, for the consumers that walk a tree.  :func:`load_paged_store`
instead reads every page once and returns an in-memory
:class:`~repro.parallel.paged.PagedStore`, entries and all.

``MmapStore`` is a drop-in behind the :class:`~repro.parallel.paged.PagedStore`
query surface (``tree`` / ``leaves`` / ``page_disks`` / ``disk_of`` /
``disk_loads``), so :class:`~repro.parallel.paged.PagedEngine` runs over
it unchanged — scoring payloads fetched via :meth:`MmapStore.read_page`
instead of in-memory entries, with bit-for-bit identical results and
page counts (float64 round-trips exactly).  The charging contract is
unchanged too: a page read charges ``DiskArray.charge`` unless the
engine's buffer pool reports a hit; on a hit the payload is still
decoded from the mapping, which the OS page cache serves from RAM —
the warm read is free in the simulated accounting *and* cheap in wall
clock.  See ``docs/storage.md``.

On-disk layout of a store directory::

    store.json      store header (format versions, disks, scheme)
    tree.npz        directory arrays + leaf MBR bounds + page->disk map
    disk0000.pages  page file of disk 0 (see repro.storage.pagefile)
    disk0001.pages  ...
"""

from __future__ import annotations

import functools
import io
import json
import os
import time
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.index.bulk import DIRECTORY_ARRAYS, _materialize
from repro.index.node import LeafEntry, Node
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.parallel.paged import PagedStore, striped_assignment
from repro.storage.pagefile import (
    PageFile,
    PageFileWriter,
    PageFormatError,
    payload_bytes,
)

__all__ = [
    "MmapStore",
    "save_paged_store",
    "load_paged_store",
    "save_tree",
    "load_tree",
    "FrozenAssignment",
    "StoreFormatError",
    "STORE_JSON",
    "TREE_NPZ",
    "SIMULATED_DISK_MS_ENV",
]

#: Store-header file inside a store directory.
STORE_JSON = "store.json"

#: Environment knob: simulated disk service time in milliseconds per
#: page *block*, slept inside :meth:`MmapStore.read_page` (the process
#: engine's workers serve it on a device clock instead).  The page
#: files live on media (tmpfs, SSD page cache) many orders of magnitude
#: faster than the rotating disks whose overlap the paper measures;
#: this restores a physical service time so wall-clock benchmarks
#: (``benchmarks/bench_wallclock.py``) can observe I/O overlap across
#: per-disk workers.  Read once when a store is opened; the process
#: engine hands its store's value to every disk worker.
SIMULATED_DISK_MS_ENV = "REPRO_SIMULATED_DISK_MS"

#: Directory/tree arrays file inside a store directory.
TREE_NPZ = "tree.npz"

#: Revision of the tree fields of the header (``format_version``).
_FORMAT_VERSION = 1

#: Revision of the store-level header (disk count, scheme) and of
#: the page files it names: 2 lays slots out in the scan's rows.
_STORE_FORMAT_VERSION = 2


class StoreFormatError(ValueError):
    """A store directory is from an incompatible format revision."""


class FrozenAssignment:
    """A page-to-disk map restored from disk (a fixed table, not code).

    ``name`` preserves the declustering scheme the table was produced
    with (round-tripped through the store header), so reports and
    ``--scheme``-keyed tooling keep working on reloaded stores.
    """

    def __init__(self, page_disks: np.ndarray, name: str = "frozen"):
        self.page_disks = np.asarray(page_disks, dtype=np.int64)
        self.name = name

    def __call__(self, centers: np.ndarray) -> np.ndarray:
        if len(centers) != len(self.page_disks):
            raise ValueError(
                f"store has {len(centers)} pages but the frozen assignment "
                f"covers {len(self.page_disks)}; re-decluster after updates"
            )
        return self.page_disks.copy()


def _flatten(tree: RStarTree) -> Dict[str, np.ndarray]:
    """The :data:`~repro.index.bulk.DIRECTORY_ARRAYS` of ``tree``, from
    a walk in pre-order."""
    node_is_leaf: List[bool] = []
    node_blocks: List[int] = []
    first_child: List[int] = []
    child_count: List[int] = []
    history_nodes: List[int] = []
    history_axes: List[int] = []

    def visit(node: Node) -> int:
        node_id = len(node_is_leaf)
        node_is_leaf.append(node.is_leaf)
        node_blocks.append(node.blocks)
        first_child.append(-1)
        child_count.append(0)
        for axis in sorted(node.split_history):
            history_nodes.append(node_id)
            history_axes.append(axis)
        if not node.is_leaf:
            child_ids = [visit(child) for child in node.entries]
            if child_ids:
                first_child[node_id] = child_ids[0]
                child_count[node_id] = len(child_ids)
        return node_id

    visit(tree.root)
    return {
        "node_is_leaf": np.array(node_is_leaf, dtype=bool),
        "node_blocks": np.array(node_blocks, dtype=np.int64),
        "first_child": np.array(first_child, dtype=np.int64),
        "child_count": np.array(child_count, dtype=np.int64),
        "history_nodes": np.array(history_nodes, dtype=np.int64),
        "history_axes": np.array(history_axes, dtype=np.int64),
    }


def _tree_header(tree: RStarTree) -> dict:
    header = {
        "format_version": _FORMAT_VERSION,
        "tree_class": type(tree).__name__,
        "dimension": tree.dimension,
        "page_bytes": tree.page_bytes,
        "leaf_cap": tree.leaf_cap,
        "dir_cap": tree.dir_cap,
        "min_fill": tree.min_fill,
        "reinsert_fraction": tree.reinsert_fraction,
        "size": tree.size,
    }
    if isinstance(tree, XTree):
        header["max_overlap"] = tree.max_overlap
        header["max_blocks"] = tree.max_blocks
    return header


def _store_header(tree: RStarTree, num_disks: int, scheme: str) -> Dict:
    """Tree header plus the store-level fields: disk count and
    declustering scheme name (plain JSON, nothing pickled) — the one
    header builder of every store writer."""
    header = _tree_header(tree)
    header["store_format_version"] = _STORE_FORMAT_VERSION
    header["num_disks"] = num_disks
    header["scheme"] = scheme
    header["cache"] = None  # reserved by format 2; no reader uses it
    return header


def _check_versions(header: Dict, source: str) -> None:
    """Fail fast (and clearly) on a header from another revision."""
    for field, wanted in (
        ("store_format_version", _STORE_FORMAT_VERSION),
        ("format_version", _FORMAT_VERSION),
    ):
        version = header.get(field)
        if version != wanted:
            raise StoreFormatError(
                f"{source} uses {field.replace('_', ' ')} {version!r}; "
                f"this build reads version {wanted} — rebuild the "
                f"store with the current code"
            )


def _tree_shell(header: dict) -> RStarTree:
    """An empty tree with the class and parameters ``header`` records."""
    common = dict(
        page_bytes=header["page_bytes"],
        leaf_cap=header["leaf_cap"],
        dir_cap=header["dir_cap"],
        min_fill=header["min_fill"],
        reinsert_fraction=header["reinsert_fraction"],
    )
    if header["tree_class"] == "XTree":
        return XTree(
            header["dimension"],
            max_overlap=header["max_overlap"],
            max_blocks=header["max_blocks"],
            **common,
        )
    if header["tree_class"] == "RStarTree":
        return RStarTree(header["dimension"], **common)
    raise ValueError(f"unknown tree class {header['tree_class']!r}")


def _page_file_name(disk: int) -> str:
    return f"disk{disk:04d}.pages"


#: Bytes of page slots that :func:`_write_store` moves per write.
_RUN_BYTES = 1 << 18


#: ``gather(leaves)`` returns the stacked ``(points, oids)`` payloads of
#: the store-order leaves ``leaves``: :func:`_write_store` pulls one run
#: of a disk's pages at a time, so payloads never all coexist in RAM.
_Gather = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _savez_deterministic(
    path: Union[str, os.PathLike], arrays: Dict[str, np.ndarray]
) -> None:
    """``np.savez_compressed`` with reproducible bytes.

    ``np.savez_compressed`` stamps each zip member with the current
    mtime, so two otherwise-identical stores differ. Writing the members
    ourselves with a fixed timestamp (and fixed permission bits) makes
    ``tree.npz`` a pure function of its arrays — the property the
    streaming-vs-in-memory byte-parity tests assert.  ``np.load`` reads
    the result like any other ``.npz``.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, value in arrays.items():
            payload = io.BytesIO()
            np.lib.format.write_array(
                payload, np.asanyarray(value), allow_pickle=False
            )
            info = zipfile.ZipInfo(
                name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)
            )
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            archive.writestr(info, payload.getvalue())


def _write_store(
    directory: Union[str, os.PathLike],
    header: Dict,
    arrays: Dict[str, np.ndarray],
    gather: _Gather,
    page_bytes: int,
    slot_bytes: Optional[int],
) -> None:
    """Write ``store.json`` + ``tree.npz`` + one page file per disk.

    ``arrays`` holds the pre-order directory
    (:data:`~repro.index.bulk.DIRECTORY_ARRAYS`) and, per data page in
    store (pre-order leaf) order, ``leaf_low`` / ``leaf_high``,
    ``leaf_counts`` and ``page_disks``; ``gather`` serves the pages'
    ``(points, oids)`` in that order.  A disk's slots are numbered in
    that order, so its page file is written front to back,
    :data:`_RUN_BYTES` of consecutive slots per gather and write, in
    rows as wide as the disk's fullest page.  ``slot_bytes`` defaults
    to ``page_bytes`` times the widest leaf (supernode-aware), or to
    the largest page payload where that is more: a tree's leaf capacity
    never drops below four entries, which at high dimension outgrow a
    page.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    dimension = header["dimension"]
    page_disks = np.asarray(arrays["page_disks"], dtype=np.int64)
    counts = np.asarray(arrays["leaf_counts"], dtype=np.int64)
    if slot_bytes is None:
        blocks = arrays["node_blocks"][arrays["node_is_leaf"]]
        slot_bytes = max(
            page_bytes * int(blocks.max()),
            payload_bytes(int(counts.max(initial=0)), dimension),
        )
    run = max(1, _RUN_BYTES // slot_bytes)

    page_slots = np.zeros(len(page_disks), dtype=np.int64)
    for disk in range(header["num_disks"]):
        own = np.flatnonzero(page_disks == disk)
        page_slots[own] = np.arange(len(own))
        writer = PageFileWriter(
            path / _page_file_name(disk),
            disk_id=disk,
            num_slots=len(own),
            slot_bytes=slot_bytes,
            dimension=dimension,
            width=int(counts[own].max(initial=0)),
            page_bytes=page_bytes,
        )
        try:
            for first in range(0, len(own), run):
                batch = own[first : first + run]
                points, oids = gather(batch)
                writer.write_slots(first, counts[batch], oids, points)
        finally:
            writer.close()

    tree_arrays = {name: arrays[name] for name in DIRECTORY_ARRAYS}
    tree_arrays["leaf_low"] = arrays["leaf_low"]
    tree_arrays["leaf_high"] = arrays["leaf_high"]
    tree_arrays["leaf_counts"] = counts
    tree_arrays["page_disks"] = page_disks
    tree_arrays["page_slots"] = page_slots
    tree_arrays["header"] = np.array(json.dumps(header))
    _savez_deterministic(path / TREE_NPZ, tree_arrays)

    store_meta = dict(header)
    store_meta["kind"] = "repro.mmap-store"
    store_meta["slot_bytes"] = slot_bytes
    store_meta["num_pages"] = len(page_disks)
    (path / STORE_JSON).write_text(
        json.dumps(store_meta, indent=2, sort_keys=True) + "\n"
    )


def save_paged_store(
    store: PagedStore,
    directory: Union[str, os.PathLike],
    slot_bytes: Optional[int] = None,
) -> None:
    """Persist an in-memory ``PagedStore`` as a store directory.

    The tree directory, leaf MBRs, page-to-disk map and scheme name go
    to ``tree.npz``/``store.json``; every leaf payload goes to its
    disk's page file.  ``slot_bytes`` overrides the page
    slot size (a payload larger than the slot raises
    :class:`~repro.storage.pagefile.SlotOverflowError` rather than
    truncating).  :func:`load_paged_store` reads the store back into
    RAM; :class:`MmapStore` serves it from disk.
    """
    tree, leaves = store.tree, store.leaves
    shape = (-1, tree.dimension)
    arrays = _flatten(tree)
    arrays["leaf_low"] = np.array([leaf.mbr.low for leaf in leaves]).reshape(shape)
    arrays["leaf_high"] = np.array([leaf.mbr.high for leaf in leaves]).reshape(shape)
    arrays["leaf_counts"] = np.array(
        [len(leaf.entries) for leaf in leaves], dtype=np.int64
    )
    arrays["page_disks"] = store.page_disks

    def gather(pages: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        entries = [
            entry for page in pages.tolist() for entry in leaves[page].entries
        ]
        points = np.array([entry.point for entry in entries]).reshape(shape)
        return points, np.array([entry.oid for entry in entries], dtype=np.int64)

    _write_store(
        directory,
        _store_header(tree, store.num_disks, store.scheme),
        arrays,
        gather,
        store.page_bytes,
        slot_bytes,
    )


def load_paged_store(directory: Union[str, os.PathLike]) -> PagedStore:
    """Read a store directory back into an in-memory ``PagedStore``.

    Every page is read once and the tree is rebuilt exactly — the same
    nodes, entry order and supernode widths — so page-level experiment
    numbers are bit-for-bit reproducible after a round trip.  The
    page-to-disk assignment is restored as a :class:`FrozenAssignment`
    carrying the original scheme name; to re-decluster after structural
    updates, build a fresh :class:`~repro.parallel.paged.PagedStore`
    with a real declusterer.  Raises :class:`StoreFormatError` on a
    format-version mismatch and
    :class:`~repro.storage.pagefile.PageFormatError` on anything that is
    not a store directory.
    """
    # No simulated service time: a load is not a query.
    with MmapStore(directory, simulated_disk_ms=0.0) as mapped:
        tree = _tree_shell(mapped._header)
        tree.size = len(mapped)
        entries = []
        for disk, slot in zip(
            mapped.page_disks.tolist(), mapped._page_slots.tolist()
        ):
            points, oids = mapped._page_file(disk).read_slot(slot)
            entries.append(
                [LeafEntry(point, oid) for point, oid in zip(points, oids.tolist())]
            )
        _materialize(
            tree, mapped._directory, mapped._leaf_low, mapped._leaf_high,
            entries,
        )
        return PagedStore(
            tree=tree,
            declusterer=mapped.declusterer,
            num_disks=mapped.num_disks,
            page_bytes=mapped.page_bytes,
        )


def save_tree(tree: RStarTree, directory: Union[str, os.PathLike]) -> None:
    """Persist a bare tree as a one-disk store directory."""
    save_paged_store(
        PagedStore(
            tree=tree,
            declusterer=striped_assignment(1),
            num_disks=1,
            page_bytes=tree.page_bytes,
        ),
        directory,
    )


def load_tree(directory: Union[str, os.PathLike]) -> RStarTree:
    """The tree of a store directory, entries and all (see
    :func:`load_paged_store`)."""
    return load_paged_store(directory).tree


class MmapStore:
    """Read-only out-of-core paged store opened from a store directory.

    Exposes the :class:`~repro.parallel.paged.PagedStore` query surface
    plus :meth:`read_page` / :meth:`entry_count`; engines detect the
    ``read_page`` hook and score mmap-served payloads instead of
    in-memory entries.  :meth:`disk_table` / :meth:`read_pages` /
    :meth:`page_rows` are the same directory and payloads one disk at a
    time, as flat arrays, multi-page point gathers and the rows kept of
    them — what the per-disk worker processes use; no
    :class:`Node` exists until ``tree`` / ``leaves`` is read.  Page
    files are opened lazily per disk, so a per-disk worker process maps
    only its own disk's file.  Reopening a directory that another
    process (or store) currently maps is safe: mappings are read-only
    and the files are immutable once written.
    """

    #: Marks stores whose leaf payloads are not held in RAM.
    out_of_core = True

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        simulated_disk_ms: Optional[float] = None,
        timer: Optional[Callable[[], float]] = None,
    ):
        self.directory = Path(directory)
        if simulated_disk_ms is None:
            simulated_disk_ms = float(
                os.environ.get(SIMULATED_DISK_MS_ENV, "0") or 0.0
            )
        if simulated_disk_ms < 0:
            raise ValueError(
                f"simulated_disk_ms must be >= 0, got {simulated_disk_ms}"
            )
        self.simulated_disk_ms = simulated_disk_ms
        #: The wall clock (seconds) that times the sleeps, or None: the
        #: store reads none of its own (the process workers inject one).
        self.timer = timer
        #: Service ms slept so far as ``timer`` measured it, overshoot in.
        self.slept_ms = 0.0
        #: :meth:`clock` without a timer: the instant the last
        #: :meth:`sleep_until` slept to.
        self._woke = 0.0
        meta_path = self.directory / STORE_JSON
        if not meta_path.is_file():
            raise PageFormatError(
                f"{os.fspath(self.directory)!r} is not an mmap store "
                f"directory (missing {STORE_JSON})"
            )
        source = f"mmap store {os.fspath(directory)!r}"
        meta = json.loads(meta_path.read_text())
        _check_versions(meta, source)
        with np.load(self.directory / TREE_NPZ, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            _check_versions(header, source)
            self._directory = {name: data[name] for name in DIRECTORY_ARRAYS}
            # Row ``i`` of every per-page array is the ``i``-th leaf in
            # pre-order (an empty tree's root leaf is no data page).
            self._leaf_low = data["leaf_low"]
            self._leaf_high = data["leaf_high"]
            self._counts = data["leaf_counts"]
            self.page_disks = data["page_disks"]
            self._page_slots = data["page_slots"]
        self._header = header
        self.dimension = int(header["dimension"])
        self._size = int(header["size"])
        self.page_bytes = int(header["page_bytes"])
        self.num_disks = int(header["num_disks"])
        self.scheme = str(header.get("scheme", "frozen"))
        self.slot_bytes = int(meta["slot_bytes"])

        is_leaf = self._directory["node_is_leaf"]
        pages = int(is_leaf.sum()) if self._size else 0
        if pages != len(self.page_disks):
            raise PageFormatError(
                f"mmap store {os.fspath(directory)!r} is inconsistent: "
                f"{pages} leaves but {len(self.page_disks)} page map rows"
            )
        self.declusterer = FrozenAssignment(self.page_disks, name=self.scheme)
        self._blocks = self._directory["node_blocks"][is_leaf][:pages]
        self._tables: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._page_files: Dict[int, PageFile] = {}
        self._closed = False

    # ------------------------------------------------------------- tree

    @functools.cached_property
    def _nodes(self) -> Tuple[RStarTree, List[Node]]:
        """The directory as :class:`Node` objects, built the first time a
        consumer asks; a leaf's ``page`` is its row in the arrays."""
        tree = _tree_shell(self._header)
        tree.size = self._size
        leaves = _materialize(
            tree, self._directory, self._leaf_low, self._leaf_high
        )
        for page, leaf in enumerate(leaves):
            leaf.page = page
        return tree, leaves

    @property
    def tree(self) -> RStarTree:
        """The directory tree (leaf MBRs from the arrays, directory MBRs
        their unions; leaves own no entries), built on first use."""
        return self._nodes[0]

    @property
    def leaves(self) -> List[Node]:
        """The data pages as tree leaves, in store (pre-order) order."""
        return self._nodes[1]

    # ----------------------------------------------------------- queries

    def _page(self, leaf: Node) -> int:
        """A leaf's row in the per-page arrays."""
        if leaf.page < 0:
            raise KeyError(f"{leaf!r} is not a data page of an mmap store")
        return leaf.page

    def disk_of(self, leaf: Node) -> int:
        """Disk storing a data page."""
        return int(self.page_disks[self._page(leaf)])

    def entry_count(self, leaf: Node) -> int:
        """Entries in a data page — from the directory, no payload read."""
        return int(self._counts[self._page(leaf)])

    def disk_loads(self) -> np.ndarray:
        """Data pages stored per disk."""
        return np.bincount(self.page_disks, minlength=self.num_disks)

    def _page_file(self, disk: int) -> PageFile:
        if self._closed:
            raise ValueError(
                f"mmap store {os.fspath(self.directory)!r} is closed; "
                f"page reads after close() would silently remap the "
                f"files — reopen the store instead"
            )
        handle = self._page_files.get(disk)
        if handle is None:
            # Not disk_table: check_page_files runs this for every disk,
            # and a table copies its disk's MBR bounds.
            own = self.page_disks == disk
            handle = PageFile(self.directory / _page_file_name(disk))
            self._page_files[disk] = handle  # close() owns it from here
            slots, counts = self._page_slots[own], self._counts[own]
            if (handle.entry_counts(slots) > counts).any():
                self._page_files.pop(disk).close()
                raise PageFormatError(
                    f"{handle.path!r}: a slot holds more entries than the "
                    f"store directory records for its page"
                )
        return handle

    def read_page(self, leaf: Node) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch one data page's ``(points, oids)`` payload via mmap.

        This is the simulated disk access: the first touch of a cold
        slot faults the mapping in; re-reads come from the OS page
        cache.  Engines decide separately (via their buffer pool)
        whether to *charge* the read to the :class:`DiskArray`.  With
        ``simulated_disk_ms`` set, the read also sleeps that many
        milliseconds per page block — a stand-in for the rotating disks
        the paper overlaps; counters and results are unaffected.
        """
        page = self._page(leaf)
        payload = self._page_file(int(self.page_disks[page])).read_slot(
            int(self._page_slots[page])
        )
        if self.simulated_disk_ms:
            self._serve(leaf.blocks)
        return payload

    def disk_table(self, disk: int) -> Tuple[np.ndarray, ...]:
        """One disk's data pages as flat directory arrays, store leaf
        order: ``(lows, highs, slots, counts, blocks)`` — MBR bounds,
        page-file slot, directory entry count, blocks per page.  No
        payload is touched; rows of this table name pages to
        :meth:`read_pages`."""
        table = self._tables.get(disk)
        if table is None:
            own = np.flatnonzero(self.page_disks == disk)
            table = self._tables[disk] = (
                self._leaf_low[own], self._leaf_high[own],
                self._page_slots[own], self._counts[own], self._blocks[own],
            )
        return table

    def read_pages(self, disk: int, pages: np.ndarray) -> np.ndarray:
        """Fetch several of one disk's data pages with a single gather.

        ``pages`` indexes rows of :meth:`disk_table`; the result is
        :meth:`PageFile.gather` of their slots — the ``(n, W, d)`` point
        block, ``+inf`` past each page's count, an owned copy.  Nothing
        is slept: the caller serves the pages' simulated service time on
        its own device clock (:meth:`clock`, :meth:`sleep_until`), page
        by page.  :meth:`page_rows` reads the oids of the rows the
        caller keeps.
        """
        slots = self.disk_table(disk)[2]
        return self._page_file(disk).gather(slots[pages])

    def _serve(self, blocks: int) -> None:
        """Sleep the service time of ``blocks`` page blocks, adding what
        :attr:`timer` measured of it, if set, to :attr:`slept_ms`."""
        started = self.timer() if self.timer else 0.0
        time.sleep(self.simulated_disk_ms * blocks / 1000.0)
        if self.timer:
            self.slept_ms += (self.timer() - started) * 1000.0

    def clock(self) -> float:
        """Seconds on the store's clock: :attr:`timer`, or without one
        the last instant :meth:`sleep_until` slept to, so that a
        timer-less store paces as if no time passed between its sleeps
        (in-process scans are deterministic)."""
        return self.timer() if self.timer else self._woke

    def sleep_until(self, due: float) -> float:
        """Sleep until ``due`` seconds on :meth:`clock` (at once if it
        has passed), adding what :attr:`timer` measured of the sleep, if
        set, to :attr:`slept_ms`; returns :meth:`clock` after.  An
        absolute deadline: a late wake-up shortens the next wait."""
        started = self.clock()
        if due > started:
            time.sleep(due - started)
            if self.timer:
                self.slept_ms += (self.timer() - started) * 1000.0
            else:
                self._woke = due
        return self.clock()

    def page_rows(
        self, disk: int, pages: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(oids, points)`` of flat rows ``rows`` of the block
        :meth:`read_pages` returned for ``pages`` (:meth:`PageFile.rows`
        of their slots).  The pages were just fetched, so nothing is
        slept."""
        slots = self.disk_table(disk)[2]
        return self._page_file(disk).rows(slots[pages], rows)

    def check_page_files(self) -> None:
        """Open every disk's page file now: a missing, truncated,
        foreign-version or over-count file raises
        :class:`~repro.storage.pagefile.PageFormatError` here, not in
        whichever reader (or worker process) touches it first."""
        for disk in range(self.num_disks):
            self._page_file(disk)

    def __len__(self) -> int:
        return self._size

    # --------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Unmap every open page file (results remain valid — payload
        reads return owned copies).  Idempotent; after close,
        :meth:`read_page` raises :class:`ValueError` instead of
        silently remapping the page files."""
        for handle in self._page_files.values():
            handle.close()
        self._page_files = {}
        self._closed = True

    def __enter__(self) -> "MmapStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmapStore({os.fspath(self.directory)!r}, n={self._size}, "
            f"pages={len(self.page_disks)}, disks={self.num_disks}, "
            f"scheme={self.scheme!r})"
        )

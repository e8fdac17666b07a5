"""Resource-lifetime tests for the out-of-core storage layer.

The lifetime contract under test (docs/storage.md):

* ``close()`` is idempotent on every handle type — writer, reader,
  store — and post-close reads raise a clear :class:`ValueError`
  (``PageFormatError`` is a ``ValueError``) instead of returning
  garbage or silently reopening files.
* Exception paths do not leak: a raising constructor, a raising read
  inside a ``with`` block, or a store torn down mid-loop leaves no
  extra open file descriptors and no live ``mmap`` objects behind.
* A writer that crashes before ``close()`` commits the counts table
  leaves a *loadable* store whose pages read back empty — never a
  store that parses as garbage.
"""

import gc
import json
import mmap as mmap_module
import os

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.index.node import Node
from repro.parallel.paged import PagedStore
from repro.parallel.process import _DiskPages, _scan
from repro.storage import MmapStore, save_paged_store
from repro.storage.pagefile import (
    PageFile,
    PageFileWriter,
    PageFormatError,
)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


@pytest.fixture
def store_dir(rng, tmp_path):
    store = PagedStore(
        points=rng.random((300, 6)),
        declusterer=NearOptimalDeclusterer(6, 4),
    )
    directory = tmp_path / "store"
    save_paged_store(store, directory)
    return directory


def _open_fds():
    """Open file-descriptor count of this process (Linux)."""
    return len(os.listdir("/proc/self/fd"))


def _live_mmaps():
    """Count of unclosed mmap objects currently alive (any owner)."""
    gc.collect()
    return sum(
        1
        for obj in gc.get_objects()
        if isinstance(obj, mmap_module.mmap) and not obj.closed
    )


class TestIdempotentClose:
    def test_pagefile_close_twice(self, store_dir):
        handle = PageFile(store_dir / "disk0000.pages")
        handle.close()
        handle.close()

    def test_writer_close_twice(self, tmp_path):
        writer = PageFileWriter(
            tmp_path / "w.pages", disk_id=0, num_slots=2,
            slot_bytes=128, dimension=2, width=1,
        )
        writer.close()
        writer.close()

    def test_mmap_store_close_twice(self, store_dir):
        store = MmapStore(store_dir)
        store.read_page(store.leaves[0])
        store.close()
        store.close()


class TestPostCloseReads:
    def test_pagefile_read_slot_after_close(self, store_dir):
        handle = PageFile(store_dir / "disk0000.pages")
        handle.close()
        with pytest.raises(ValueError, match="already closed"):
            handle.read_slot(0)

    def test_pagefile_read_slots_after_close(self, store_dir):
        handle = PageFile(store_dir / "disk0000.pages")
        handle.close()
        with pytest.raises(PageFormatError, match="already closed"):
            handle.gather([0])

    def test_pagefile_entry_count_after_close(self, store_dir):
        handle = PageFile(store_dir / "disk0000.pages")
        assert handle.entry_count(0) >= 0
        handle.close()
        with pytest.raises(ValueError, match="already closed"):
            handle.entry_count(0)

    def test_writer_write_after_close(self, tmp_path):
        writer = PageFileWriter(
            tmp_path / "w.pages", disk_id=0, num_slots=1,
            slot_bytes=128, dimension=2, width=1,
        )
        writer.close()
        with pytest.raises(ValueError, match="already closed"):
            writer.write_slot(
                0, np.array([1], dtype=np.int64), np.zeros((1, 2))
            )

    def test_mmap_store_read_after_close(self, store_dir):
        store = MmapStore(store_dir)
        leaf = store.leaves[0]
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.read_page(leaf)

    def test_mmap_store_directory_survives_close(self, store_dir):
        """Directory queries need no page files and stay answerable."""
        store = MmapStore(store_dir)
        leaf = store.leaves[0]
        store.close()
        assert store.entry_count(leaf) >= 0
        assert store.disk_loads().sum() == len(store.leaves)


class TestExceptionPathLifetimes:
    def test_corrupt_open_leaks_no_fd(self, tmp_path):
        """A constructor that raises must close what it opened."""
        corrupt = tmp_path / "corrupt.pages"
        corrupt.write_bytes(b"NOTAPAGE" + b"\0" * 100)
        before = _open_fds()
        for _ in range(5):
            with pytest.raises(PageFormatError):
                PageFile(corrupt)
        assert _open_fds() == before

    def test_raising_read_inside_with_unmaps(self, store_dir):
        before_fds = _open_fds()
        before_maps = _live_mmaps()
        with pytest.raises(ValueError, match="slot"):
            with PageFile(store_dir / "disk0000.pages") as handle:
                handle.read_slot(10**6)
        assert _open_fds() == before_fds
        assert _live_mmaps() == before_maps

    def test_store_with_block_unmaps_on_error(self, store_dir):
        before_fds = _open_fds()
        before_maps = _live_mmaps()
        with pytest.raises(KeyError):
            with MmapStore(store_dir) as store:
                for leaf in store.leaves:
                    store.read_page(leaf)
                store.read_page(Node(is_leaf=True))
        assert _open_fds() == before_fds
        assert _live_mmaps() == before_maps

    def test_gathers_leave_no_mapping_behind(self, store_dir):
        """Multi-slot reads go through strided views of the mapping;
        close() must drop them first (an exported buffer makes
        ``mmap.close()`` raise ``BufferError``) and leak nothing."""
        before_fds = _open_fds()
        before_maps = _live_mmaps()
        for _ in range(5):
            with PageFile(store_dir / "disk0000.pages") as handle:
                points = handle.gather(np.arange(handle.num_slots))
            with MmapStore(store_dir) as store:
                store.disk(1).read_pages(np.arange(store.disk_loads()[1]))
        assert np.isfinite(points).any()  # owned copy, outlives the mapping
        assert _open_fds() == before_fds
        assert _live_mmaps() == before_maps

    def test_gathers_into_a_caller_array_leave_no_mapping_behind(
        self, store_dir
    ):
        """Gathered rows are copies that export nothing: ``close()``
        unmaps while the caller keeps them, and their contents stay
        valid; a refused or out-of-range read leaks nothing either."""
        before_fds = _open_fds()
        before_maps = _live_mmaps()
        for _ in range(5):
            with PageFile(store_dir / "disk0000.pages") as handle:
                slots = np.arange(handle.num_slots)
                points = handle.gather(slots)
                oids, row_points = handle.rows(slots, [0, 1])
                want = points.copy(), oids.copy(), row_points.copy()
                with pytest.raises(ValueError, match="outside"):
                    handle.gather([handle.num_slots])
            for got, copy in zip((points, oids, row_points), want):
                assert got.tobytes() == copy.tobytes()
            with MmapStore(store_dir) as store:
                pages = np.arange(store.disk_loads()[1])
                kept = store.disk(1).read_pages(pages)
                rows = store.disk(1).page_rows(pages, [0, 1])
                want = kept.copy(), rows[0].copy(), rows[1].copy()
                with pytest.raises(IndexError):
                    store.disk(1).read_pages(np.array([len(pages)]))
            for got, copy in zip((kept, *rows), want):
                assert got.tobytes() == copy.tobytes()
            with pytest.raises(PageFormatError, match="closed"):
                handle.gather(slots)
            with pytest.raises(PageFormatError, match="closed"):
                handle.rows(slots, [0])
            with pytest.raises(ValueError, match="closed"):
                store.disk(1).read_pages(pages)
            with pytest.raises(ValueError, match="closed"):
                store.disk(1).page_rows(pages, [0])
        assert _open_fds() == before_fds
        assert _live_mmaps() == before_maps

    def test_worker_decodes_leave_no_mapping_behind(self, rng, tmp_path):
        """A disk worker's per-call and batched scans and its gathers
        return copies: ``MmapStore.close()`` unmaps with them alive, leaks
        nothing, and the candidates (and chunks) they returned stay
        valid."""
        # Imported here: that module imports this one.
        from tests.test_process_engine import _posted_ring

        paged = PagedStore(
            points=rng.random((300, 6)),
            declusterer=NearOptimalDeclusterer(6, 4),
        )
        for leaf in paged.leaves[::3]:
            leaf.blocks = 2  # supernode pages beside one-block pages
        save_paged_store(paged, tmp_path / "store")
        query = np.full(6, 0.5)
        before_fds = _open_fds()
        before_maps = _live_mmaps()
        kept = []
        store = MmapStore(tmp_path / "store")
        try:
            for disk in range(store.num_disks):
                table = store.disk_table(disk)
                source = _DiskPages(store.disk(disk))
                # Per call, then a post of three, then per call again.
                nearby = np.stack([query, query + 0.1, query - 0.1])
                for post in (query[None], nearby, query[None]):
                    found, _, _ = _scan(
                        source, post, 5, _posted_ring(store, post, 5)
                    )
                    kept.append((disk, found, [a.copy() for a in found]))
                pages = np.arange(len(table[2]))
                chunk = [source.chunk(pages)[0], *source.rows(pages, [0])]
                kept.append((disk, chunk, [a.copy() for a in chunk]))
        finally:
            store.close()
        assert _open_fds() == before_fds
        assert _live_mmaps() == before_maps
        for disk, returned, snapshot in kept:
            for got, want in zip(returned, snapshot):
                assert np.array_equal(got, want)
        for disk, (rows, _, _), _ in kept[::4]:
            keys, oids = rows[:, 0], rows[:, 1].view(np.int64)
            mine = [
                entry for leaf in paged.leaves if paged.disk_of(leaf) == disk
                for entry in leaf.entries
            ]
            nearest = sorted(
                (float(((entry.point - query) ** 2).sum()), entry.oid)
                for entry in mine
            )[:5]
            assert list(oids) == [oid for _, oid in nearest]
            assert np.allclose(keys, [key for key, _ in nearest])

    def test_open_close_cycles_leak_nothing(self, store_dir):
        before = _open_fds()
        for _ in range(10):
            with MmapStore(store_dir) as store:
                store.read_page(store.leaves[0])
        assert _open_fds() == before


class TestCrashedWriter:
    def test_crashed_writer_file_loads_as_empty_pages(self, tmp_path):
        """A writer killed before close() commits the counts leaves a
        pre-sized file with an all-zero table: every page reads back
        empty, nothing parses as garbage."""
        path = tmp_path / "crashed.pages"
        writer = PageFileWriter(
            path, disk_id=0, num_slots=3, slot_bytes=256, dimension=2,
            width=1,
        )
        writer.write_slot(
            0, np.array([7], dtype=np.int64), np.ones((1, 2))
        )
        # Simulate the crash: the OS closes the fd, close() never runs,
        # so W and the counts table are never written back.
        writer._file.close()
        writer._file = None
        with PageFile(path) as handle:
            for slot in range(3):
                assert handle.entry_count(slot) == 0
                points, oids = handle.read_slot(slot)
                assert len(oids) == 0
                assert points.shape == (0, 2)
            assert handle.gather([0, 1, 2]).shape == (3, 0, 2)
            oids, points = handle.rows([0, 1, 2], [])
            assert points.shape == (0, 2) and oids.shape == (0,)

    def test_store_with_crashed_disk_loads(self, store_dir):
        """An MmapStore whose disk-0 file was re-written by a crashed
        writer still opens; disk-0 pages read back empty."""
        meta = json.loads((store_dir / "store.json").read_text())
        with MmapStore(store_dir) as probe:
            num_slots = int(probe.disk_loads()[0])
            page_bytes = probe.page_bytes
        writer = PageFileWriter(
            store_dir / "disk0000.pages",
            disk_id=0,
            num_slots=num_slots,
            slot_bytes=int(meta["slot_bytes"]),
            dimension=6,
            width=1,
            page_bytes=page_bytes,
        )
        writer._file.close()  # crash before any write or count commit
        writer._file = None
        with MmapStore(store_dir) as reopened:
            empty = nonempty = 0
            for leaf in reopened.leaves:
                points, oids = reopened.read_page(leaf)
                if reopened.disk_of(leaf) == 0:
                    assert len(oids) == 0
                    empty += 1
                else:
                    nonempty += len(oids)
            assert empty == num_slots
            assert nonempty > 0

"""Tests for :class:`repro.parallel.process.ProcessParallelEngine`.

The contract under test is the determinism guarantee documented in
``docs/performance.md``: per-disk worker processes sharing a
monotonically-tightening kNN bound return neighbors, per-disk page
counts, distance computations, and the simulated parallel time
**bit-for-bit identical** to the single-process
:class:`~repro.parallel.paged.PagedEngine` — the shared bound only
changes which pages are read *speculatively*, never which pages are
*charged*.

Worker startup is the expensive part (spawn + mmap open per disk), so
the parity tests share one module-scoped store and engine.
"""

import collections
import math
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import NearOptimalDeclusterer
from repro.index.metrics import Euclidean
from repro.index.node import DEFAULT_PAGE_BYTES
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.process import (
    _PIPELINE_DEPTH,
    ProcessParallelEngine,
    _DiskPages,
    _exact_counts,
    _top_k,
    _visit_order,
    _worker_main,
    _worker_query,
)
from repro.parallel.store import DeclusteredStore
from repro.serve import QueryRequest
from repro.storage import SIMULATED_DISK_MS_ENV, MmapStore, save_paged_store
from repro.storage.pagefile import PageFormatError
from tests.scalar_oracle import scalar_kernels
from tests.test_storage_lifetimes import _open_fds


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    rng = np.random.default_rng(42)
    store = PagedStore(
        points=rng.random((600, 6)),
        declusterer=NearOptimalDeclusterer(6, 4),
    )
    directory = tmp_path_factory.mktemp("process") / "store"
    save_paged_store(store, directory)
    return directory


@pytest.fixture(scope="module")
def mmap_store(store_dir):
    with MmapStore(store_dir) as store:
        yield store


@pytest.fixture(scope="module")
def engine(mmap_store):
    with ProcessParallelEngine(mmap_store) as engine:
        yield engine


@pytest.fixture(scope="module")
def reference(mmap_store):
    return PagedEngine(mmap_store, cache=None)


def _assert_bit_identical(ours, theirs):
    assert [(n.oid, n.distance) for n in ours.neighbors] == [
        (n.oid, n.distance) for n in theirs.neighbors
    ]
    assert np.array_equal(ours.pages_per_disk, theirs.pages_per_disk)
    assert ours.distance_computations == theirs.distance_computations
    assert ours.parallel_time_ms == theirs.parallel_time_ms


class TestParity:
    def test_queries_match_in_process_engine(self, engine, reference):
        rng = np.random.default_rng(7)
        for k in (1, 5, 10):
            for query in rng.random((8, 6)):
                _assert_bit_identical(
                    engine.query(query, k), reference.query(query, k)
                )

    def test_far_query_outside_data(self, engine, reference):
        query = np.full(6, 9.0)
        _assert_bit_identical(
            engine.query(query, 3), reference.query(query, 3)
        )

    def test_scalar_kernel_parity(self, engine, reference):
        """``scalar_kernels()`` runs the reference engine over the
        per-entry loops; the workers' page-major scan (another process,
        untouched by the patch) must keep matching it bit for bit."""
        rng = np.random.default_rng(13)
        for query in rng.random((4, 6)):
            with scalar_kernels():
                expected = reference.query(query, 6)
            _assert_bit_identical(engine.query(query, 6), expected)

    def test_query_batch(self, engine, reference, rng):
        queries = rng.random((5, 6))
        ours = engine.query_batch(queries, k=4)
        theirs = reference.query_batch(queries, k=4)
        for a, b in zip(ours.results, theirs.results):
            _assert_bit_identical(a, b)
        assert np.array_equal(ours.pages_per_disk, theirs.pages_per_disk)
        assert ours.max_pages == theirs.max_pages

    def test_single_leaf_store_scans_owning_disk_only(
        self, tmp_path
    ):
        """A dataset small enough for one page has a *leaf* root; only
        the disk that owns it may scan it (regression: every worker
        used to read a leaf root, quadruplicating the candidates)."""
        rng = np.random.default_rng(3)
        store = PagedStore(
            points=rng.random((64, 2)),
            declusterer=NearOptimalDeclusterer(2, 4),
        )
        directory = tmp_path / "tiny"
        save_paged_store(store, directory)
        with MmapStore(directory) as tiny:
            assert tiny.tree.root.is_leaf
            reference = PagedEngine(tiny, cache=None)
            with ProcessParallelEngine(tiny) as engine:
                queries = rng.random((3, 2))
                for query in queries:
                    _assert_bit_identical(
                        engine.query(query, k=4),
                        reference.query(query, k=4),
                    )
                batch = engine.query_batch(queries, k=4)
                for query, result in zip(queries, batch.results):
                    _assert_bit_identical(
                        result, reference.query(query, k=4)
                    )

    def test_pages_tied_on_mindist(self, tmp_path):
        """Pages whose MBRs share faces tie on ``mindist``, and the
        scan's visit order inside a tie group is not table order.
        Points on an integer lattice in x and y (z random, so no two
        candidates tie) and queries on the faces x = y = 2.5: the
        charged pages hold tie groups on both disks, and per call and
        batched the engine still matches ``PagedEngine``."""
        rng = np.random.default_rng(5)
        points = np.column_stack([
            rng.integers(0, 6, (3000, 2)), rng.random(3000)
        ]).astype(float)
        paged = PagedStore(
            points=points, num_disks=2, page_bytes=1024,
            declusterer=lambda centers: np.arange(len(centers)) % 2,
        )
        queries = np.column_stack([np.full((4, 2), 2.5), rng.random(4)])
        result, _ = _assert_parity(paged, tmp_path / "ties", queries, (4, 10))
        bound = result.neighbors[-1].distance ** 2
        with MmapStore(tmp_path / "ties") as store:
            for disk in range(store.num_disks):
                _, mindists = _visit_order(store.disk_table(disk), queries[-1])
                charged = mindists[mindists <= bound]
                assert len(np.unique(charged)) < len(charged)

    def test_speculative_reads_never_undercount(self, engine):
        """Workers may read extra pages under a stale bound, never
        fewer than the charged (post-hoc exact) count."""
        result = engine.query(np.full(6, 0.5), 5)
        assert engine.last_speculative_pages >= result.pages_per_disk.sum()
        assert result.pages_per_disk.sum() > 0


def _assert_parity(paged_store, directory, queries, ks, max_k=64):
    """``query`` and ``query_batch`` of a process engine over
    ``paged_store`` (saved to ``directory``) match ``PagedEngine``;
    returns the last per-call result and its speculative page count."""
    save_paged_store(paged_store, directory)
    with MmapStore(directory) as store:
        reference = PagedEngine(store, cache=None)
        with ProcessParallelEngine(store, max_k=max_k) as engine:
            for k in ks:
                batch = engine.query_batch(queries, k)
                for query, batched in zip(queries, batch.results):
                    want = reference.query(query, k)
                    _assert_bit_identical(batched, want)
                    result = engine.query(query, k)
                    _assert_bit_identical(result, want)
            return result, engine.last_speculative_pages


class TestFlatTableShapes:
    """Store shapes the workers' flat per-disk leaf table must get
    right (the heap walk got them from the tree)."""

    def test_supernode_pages_and_k_beyond_n(self, tmp_path):
        """Leaf supernodes are charged — and counted as faults — by
        ``blocks``; ``k > N`` (here also ``k = max_k``) returns every
        point and reads every page."""
        rng = np.random.default_rng(5)
        store = PagedStore(
            points=rng.random((150, 5)),
            declusterer=NearOptimalDeclusterer(5, 3),
        )
        for leaf in store.leaves[::2]:
            leaf.blocks = 2
        total_blocks = sum(leaf.blocks for leaf in store.leaves)
        assert total_blocks > len(store.leaves)
        result, speculative = _assert_parity(
            store, tmp_path / "super", rng.random((3, 5)), (3, 160),
            max_k=160,
        )
        assert len(result.neighbors) == 150
        assert result.pages_per_disk.sum() == speculative == total_blocks

    def test_all_pages_empty(self, tmp_path):
        """Pages with no entries: nothing to find, every page charged
        (the bound never becomes finite)."""
        rng = np.random.default_rng(6)
        store = PagedStore(
            points=rng.random((120, 4)),
            declusterer=NearOptimalDeclusterer(4, 2),
        )
        for leaf in store.leaves:
            leaf.entries = []
        result, _ = _assert_parity(
            store, tmp_path / "empty", rng.random((2, 4)), (2,)
        )
        assert result.neighbors == []
        assert result.pages_per_disk.sum() == len(store.leaves)

    def test_disk_without_pages_and_duplicate_points(self, tmp_path):
        """Disk 1 of 3 owns nothing (its worker answers with no
        candidates); every point is stored twice, so equal keys meet in
        the local top-k, the shared bound and the merge."""
        rng = np.random.default_rng(8)
        points = np.repeat(rng.random((90, 4)), 2, axis=0)
        store = PagedStore(
            points=points,
            declusterer=lambda centers: 2 * (np.arange(len(centers)) % 2),
            num_disks=3,
        )
        assert list(store.disk_loads() > 0) == [True, False, True]
        # Even k: no duplicate pair straddles the k-th place (ties at
        # the boundary are outside the contract).
        result, _ = _assert_parity(
            store, tmp_path / "sparse", rng.random((4, 4)), (2, 6)
        )
        assert result.pages_per_disk[1] == 0


class _CountingStore:
    """Store facade over ``read_pages``: ``pages_read`` counts the pages
    it was told are owed service time, ``owed_blocks`` their blocks
    (``page_rows`` owes nothing)."""

    def __init__(self, inner):
        self._inner = inner
        self.disk_table = inner.disk_table
        self.page_rows = inner.page_rows
        self.dimension = inner.dimension
        self.pages_read = 0
        self.owed_blocks = 0

    def read_pages(self, disk, pages, owed=None):
        charged = pages if owed is None else pages[owed]
        self.pages_read += len(charged)
        self.owed_blocks += int(self.disk_table(disk)[4][charged].sum())
        return self._inner.read_pages(disk, pages, owed)


def _assert_chunk(store, disk, pages, block):
    """A chunk's real rows, with the oids ``page_rows`` reads back for
    them, are exactly ``MmapStore.read_page`` of its pages (in any page
    order); every other row is ``+inf`` padding."""
    points = block.reshape(-1, store.dimension)
    oids, again = store.page_rows(disk, pages, np.arange(len(points)))
    assert again.tobytes() == points.tobytes()
    leaves = [leaf for leaf in store.leaves if store.disk_of(leaf) == disk]
    want = [store.read_page(leaves[page]) for page in pages]
    want_points = np.concatenate([payload[0] for payload in want])
    want_oids = np.concatenate([payload[1] for payload in want])
    real = np.isfinite(points).all(axis=1)
    assert np.isposinf(points[~real]).all()
    order, want_order = np.argsort(oids[real]), np.argsort(want_oids)
    assert np.array_equal(oids[real][order], want_oids[want_order])
    assert np.array_equal(points[real][order], want_points[want_order])


class TestBatchPageMemo:
    """The worker's page source behind ``query_batch``'s worker loop:
    every chunk is one gather of the page file's scan rows, and the
    batch scope decides only which pages owe service time."""

    def test_repeat_visits_served_from_memo(self, mmap_store):
        counting = _CountingStore(mmap_store)
        source = _DiskPages(counting, 1)
        source.scope(3)
        first = source.chunk(np.array([2, 0]))
        assert counting.pages_read == 2
        # A step mixing held and new pages owes only for the new one.
        second = source.chunk(np.array([0, 3, 2]))
        assert counting.pages_read == 3
        third = source.chunk(np.array([3, 0]))
        assert counting.pages_read == 3
        _assert_chunk(mmap_store, 1, [2, 0], first)
        _assert_chunk(mmap_store, 1, [0, 3, 2], second)
        _assert_chunk(mmap_store, 1, [3, 0], third)
        # Every chunk is whole slot rows: W of them a page.
        width = int(mmap_store.disk_table(1)[3].max())
        assert third.shape == (2, width, mmap_store.dimension)

    def test_cap_disables_insertion_not_reads(self, mmap_store, monkeypatch):
        """No page count caps what a scope holds: with the decoded
        buffer's old cap (``_CAP``) set to one page, the pages past it
        still owe service time once per scope."""
        monkeypatch.setattr(_DiskPages, "_CAP", 1, raising=False)
        counting = _CountingStore(mmap_store)
        source = _DiskPages(counting, 0)
        source.scope(1)
        source.chunk(np.array([0]))
        source.chunk(np.array([1]))
        source.chunk(np.array([1]))  # past the old cap: held all the same
        source.chunk(np.array([0]))
        assert counting.pages_read == 2
        chunk = source.chunk(np.array([1, 0, 2]))
        assert counting.pages_read == 3
        _assert_chunk(mmap_store, 0, [1, 0, 2], chunk)

    def test_scopes_hold_nothing_across_serials(self, mmap_store):
        """Per-call (serial 0) holds nothing: every chunk owes for all
        its pages; a new serial starts empty.  Rows are the same either
        way."""
        counting = _CountingStore(mmap_store)
        source = _DiskPages(counting, 1)
        pages = np.array([1, 3, 0])
        width = int(mmap_store.disk_table(1)[3].max())
        for serial, reads in ((0, 3), (0, 6), (5, 9), (5, 9), (6, 12), (0, 15)):
            source.scope(serial)
            chunk = source.chunk(pages)
            assert counting.pages_read == reads
            _assert_chunk(mmap_store, 1, pages, chunk)
            assert chunk.shape[:2] == (len(pages), width)

    def test_padding_shapes(self, tmp_path):
        """All-empty pages (``W`` 0), a zero-page disk, and a multi-block
        supernode page beside one-block pages: rows are as wide as the
        disk's fullest page (the supernode), a chunk holds
        ``sum(counts)`` real points, and the supernode owes its blocks
        once per batch scope."""
        rng = np.random.default_rng(12)
        paged = PagedStore(
            points=rng.random((400, 3)),
            declusterer=lambda centers: 2 * (np.arange(len(centers)) % 2),
            num_disks=3, page_bytes=1024,
        )
        disk0 = [leaf for leaf in paged.leaves if paged.disk_of(leaf) == 0]
        narrow = max(len(leaf.entries) for leaf in disk0[1:])
        # One supernode, fuller than every one-block page of its disk.
        for leaf in disk0[1:]:
            leaf.entries = leaf.entries[: max(1, narrow - 2)]
        disk0[0].blocks = 4
        for leaf in paged.leaves:
            if paged.disk_of(leaf) == 2:
                leaf.entries = []
        save_paged_store(paged, tmp_path / "shapes")
        with MmapStore(tmp_path / "shapes") as store:
            counting = _CountingStore(store)
            counts, blocks = store.disk_table(0)[3:]
            assert blocks[0] == 4 and counts[0] > counts[1:].max()
            source = _DiskPages(counting, 0)
            pages = np.arange(6)
            every = int(blocks[pages].sum())
            # (serial, pages owed, blocks owed): a held supernode owes
            # nothing more in its scope.
            for serial, fetched, owed in ((4, 6, every), (4, 0, 0), (0, 6, every)):
                source.scope(serial)
                before = counting.pages_read, counting.owed_blocks
                chunk = source.chunk(pages)
                assert counting.pages_read - before[0] == fetched
                assert counting.owed_blocks - before[1] == owed
                _assert_chunk(store, 0, pages, chunk)
                real = np.isfinite(chunk).all(axis=2)
                assert real.sum() == counts[pages].sum()
                assert chunk.shape == (len(pages), counts[0], 3)

            idle = _DiskPages(counting, 1)
            chunk = idle.chunk(np.zeros(0, dtype=np.intp))
            assert chunk.shape[::2] == (0, 3) and chunk.size == 0
            empty = _DiskPages(counting, 2)
            empty.scope(2)
            for _ in range(2):
                chunk = empty.chunk(np.array([1, 0]))
                assert chunk.shape == (2, 0, 3)
                oids, points = empty.rows(np.array([1, 0]), [])
                assert oids.shape == (0,) and points.shape == (0, 3)

    @pytest.mark.parametrize("serial", [0, 1])
    def test_file_count_above_directory_count_is_refused(
        self, tmp_path, serial
    ):
        """A slot claiming more entries than its page's directory row is
        ``PageFormatError`` before any row is served or any page held,
        per-call (serial 0) as in a batch scope."""
        rng = np.random.default_rng(4)
        paged = PagedStore(
            points=rng.random((80, 3)),
            declusterer=NearOptimalDeclusterer(3, 2),
        )
        save_paged_store(paged, tmp_path / "skew")
        with MmapStore(tmp_path / "skew") as store:
            store._counts[np.flatnonzero(store.page_disks == 0)[0]] -= 1
            source = _DiskPages(store, 0)
            source.scope(serial)
            with pytest.raises(PageFormatError, match="more entries"):
                source.chunk(np.array([0]))
            assert not source._held.any()
            # The per-leaf read of the in-process engines refuses it too.
            with pytest.raises(PageFormatError, match="more entries"):
                store.read_page(store.leaves[0])


class TestServiceTimeCharging:
    """Simulated service time: once per page per batch scope, and on
    every fetch per call — supernodes and large disks included."""

    @pytest.mark.parametrize("serial", [0, 1])
    def test_service_time_once_per_page_per_batch_scope(
        self, tmp_path, monkeypatch, serial
    ):
        """Six overlapping kNN scans per disk, serially: in one batch
        scope every distinct page touched owes its ``blocks`` exactly
        once; per call every fetch owes them.  Supernode pages (three
        blocks) and pages past the old decoded-buffer cap (``_CAP``, set
        to four pages) follow the same rule."""
        monkeypatch.setattr(_DiskPages, "_CAP", 4, raising=False)
        slept = []
        monkeypatch.setattr(
            "repro.storage.mmap_store.time.sleep", slept.append
        )
        rng = np.random.default_rng(19)
        paged = PagedStore(
            points=rng.random((1500, 4)),
            declusterer=NearOptimalDeclusterer(4, 2),
        )
        for leaf in paged.leaves[::4]:
            leaf.blocks = 3
        save_paged_store(paged, tmp_path / "store")
        queries = 0.45 + 0.1 * rng.random((6, 4))
        fetched = collections.Counter()
        with MmapStore(tmp_path / "store", simulated_disk_ms=1.0) as store:
            for disk in range(store.num_disks):
                table = store.disk_table(disk)
                assert len(table[4]) > 4
                source = _DiskPages(store, disk)
                source.scope(serial)
                for query in queries:
                    _, ledger = _worker_query(
                        source, table, query, 8, np.full(8, np.inf),
                        threading.Lock(),
                    )
                    # Every page the scan visited was fetched: the
                    # ascending-mindist prefix the ledger covers.
                    order, _ = _visit_order(table, query)
                    fetched.update(
                        (disk, int(page), int(table[4][page]))
                        for page in order[: ledger.shape[1]]
                    )
        again = [key for key, times in fetched.items() if times > 1]
        assert any(blocks == 3 for _, _, blocks in again)
        assert any(page >= 4 for _, page, _ in again)
        times = (lambda n: n) if not serial else (lambda n: 1)
        owed = sum(blocks * times(n) for (_, _, blocks), n in fetched.items())
        assert round(sum(slept) * 1000.0) == owed


def _corrupt_disk1(directory, fault):
    """Damage ``disk0001.pages``: chop its tail, stamp the next format
    version, or raise one slot's count above its page's directory count
    (still within the file's ``W``)."""
    path = directory / "disk0001.pages"
    raw = bytearray(path.read_bytes())
    if fault == "truncated":
        raw = raw[:-16]
    elif fault == "version":
        raw[8] += 1  # format_version, little-endian u32
    else:
        (num_slots,) = struct.unpack_from("<Q", raw, 32)
        (width,) = struct.unpack_from("<I", raw, 48)
        counts = np.frombuffer(bytes(raw[64 : 64 + 4 * num_slots]), np.uint32)
        slot = int(np.flatnonzero(counts < width)[0])
        struct.pack_into("<I", raw, 64 + 4 * slot, int(counts[slot]) + 1)
    path.write_bytes(bytes(raw))


class TestBadPageFile:
    """A bad page file is the coordinator's ``PageFormatError``, raised
    before any worker spawns — not a worker that dies and is reported
    as not replying."""

    @pytest.mark.parametrize("call", ["query", "query_batch"])
    @pytest.mark.parametrize("fault", ["truncated", "version", "count"])
    def test_bad_page_file_raises_before_the_workers_spawn(
        self, tmp_path, fault, call
    ):
        rng = np.random.default_rng(23)
        paged = PagedStore(
            points=rng.random((600, 6)),
            declusterer=NearOptimalDeclusterer(6, 2),
        )
        disk1 = [leaf for leaf in paged.leaves if paged.disk_of(leaf) == 1]
        disk1[0].entries = disk1[0].entries[:-1]  # a slot below W
        save_paged_store(paged, tmp_path / "store")
        _corrupt_disk1(tmp_path / "store", fault)
        queries = rng.random((3, 6))
        before = _open_fds()
        children = multiprocessing.active_children()
        with MmapStore(tmp_path / "store") as store:
            engine = ProcessParallelEngine(store)
            started = time.monotonic()
            with pytest.raises(PageFormatError, match="disk0001.pages"):
                if call == "query":
                    engine.query(queries[0], 3)
                else:
                    engine.query_batch(queries, 3)
            assert time.monotonic() - started < 1.0
            assert engine._procs == [] and engine._board is None
            assert engine._posted == engine._collected == 0
            engine.close()
        assert multiprocessing.active_children() == children
        assert _open_fds() == before


class TestRing:
    """The shared-memory query ring: bank alternation, serial
    alignment, the page memo's batch scope."""

    def test_mixed_sequences_keep_banks_and_serials_aligned(
        self, engine, reference
    ):
        """One engine, per-call and batched queries interleaved: every
        post lands in the bank its collect reads, whatever the parity
        the previous call left the ring in."""
        rng = np.random.default_rng(21)
        steps = [
            ("one", 3), ("batch", 1, 3), ("one", 5), ("batch", 2, 5),
            ("batch", 3, 1), ("one", 1), ("batch", 0, 4), ("one", 4),
            ("batch", 2 * _PIPELINE_DEPTH + 3, 7), ("one", 7),
            ("batch", _PIPELINE_DEPTH + 1, 2), ("batch", 1, 64),
        ]
        for kind, *sizes in steps:
            if kind == "one":
                query = rng.random(6)
                _assert_bit_identical(
                    engine.query(query, sizes[0]),
                    reference.query(query, sizes[0]),
                )
                continue
            count, k = sizes
            queries = rng.random((count, 6))
            batch = engine.query_batch(queries, k)
            assert len(batch.results) == count
            for query, result in zip(queries, batch.results):
                _assert_bit_identical(result, reference.query(query, k))

    def test_serial_echo_mismatch_raises_and_closes(
        self, mmap_store, reference
    ):
        query = np.full(6, 0.3)
        with ProcessParallelEngine(mmap_store) as engine:
            engine.query(query, 2)
            # Same bank parity, wrong serial: the workers echo what was
            # posted, the collect expects its own count.
            engine._posted += _PIPELINE_DEPTH
            with pytest.raises(RuntimeError, match="out of step"):
                engine.query(query, 2)
            assert engine._procs == []
            assert engine._posted == engine._collected == 0
            _assert_bit_identical(
                engine.query(query, 2), reference.query(query, 2)
            )

    def test_bad_requests_never_reach_the_ring(self, engine, reference):
        """``k = 0`` is the ring's stop message and a query of the
        wrong width would not fit its slot: both are refused before
        anything is posted, and the workers keep running."""
        engine.query(np.full(6, 0.5), 1)
        workers = list(engine._procs)
        with pytest.raises(ValueError, match="k must be >= 1"):
            engine.query(np.full(6, 0.5), 0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            engine.query_batch(np.full((2, 6), 0.5), 0)
        with pytest.raises(ValueError, match="dimension"):
            engine.query(np.full(5, 0.5), 1)
        with pytest.raises(ValueError, match="dimension"):
            engine.query_batch(np.full((2, 7), 0.5), 1)
        assert engine._procs == workers
        query = np.full(6, 0.5)
        _assert_bit_identical(
            engine.query(query, 2), reference.query(query, 2)
        )

    def test_memo_scope_follows_the_batch_serial(
        self, store_dir, mmap_store, monkeypatch
    ):
        """``_worker_main`` on a thread over plain arrays: a page wanted
        twice in one batch owes service time once, the per-call query
        after the batch owes it again, a new batch starts empty."""
        fetched = []
        real_read_pages = MmapStore.read_pages

        def counting_read_pages(self, disk, pages, owed=None):
            fetched.append(len(pages) if owed is None else int(owed.sum()))
            return real_read_pages(self, disk, pages, owed)

        monkeypatch.setattr(MmapStore, "read_pages", counting_read_pages)
        worker = _ThreadWorker(store_dir, mmap_store, disk=1)
        query = np.full(6, 0.5)

        def ask(k, batch):
            """Pages the worker fetched from the store for one query."""
            before = sum(fetched)
            worker.ask(query, k, batch)
            return sum(fetched) - before

        try:
            first = ask(3, batch=7)
            assert first > 0
            assert ask(3, batch=7) == 0
            assert ask(3, batch=7) == 0
            # Per-call straight after the batch: direct reads again.
            assert ask(3, batch=0) == first
            assert ask(3, batch=0) == first
            # A new batch starts with an empty memo.
            assert ask(3, batch=11) == first
            assert ask(3, batch=11) == 0
        finally:
            worker.stop()


def _non_finite_calls(engine, reference):
    """Each entry point that takes query coordinates, by name."""
    points = np.random.default_rng(3).random((200, 6))
    store = DeclusteredStore(points, NearOptimalDeclusterer(6, 4))
    paged = PagedStore(points=points, declusterer=NearOptimalDeclusterer(6, 4))
    return {
        "coordinated": lambda q: ParallelEngine(store).query(q, 3),
        "independent": lambda q: ParallelEngine(store).query(
            q, 3, mode="independent"
        ),
        "sequential": lambda q: SequentialEngine(points).query(q, 3),
        "paged": lambda q: PagedEngine(paged).query(q, 3),
        "paged-mmap": lambda q: reference.query(q, 3),
        "process": lambda q: engine.query(q, 3),
        "process-batch": lambda q: engine.query_batch(
            np.stack([np.full(6, 0.5), q]), 3
        ),
        "request": lambda q: QueryRequest(query=q, k=3),
        "request-high": lambda q: QueryRequest(
            query=np.zeros(6), kind="window", high=q
        ),
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "target",
    ["coordinated", "independent", "sequential", "paged", "paged-mmap",
     "process", "process-batch", "request", "request-high"],
)
def test_non_finite_query_is_refused(engine, reference, target, value):
    """A NaN or infinite coordinate is refused up front, never answered
    with an empty or short neighbour list; the worker ring stays in step
    and the process engine then answers a finite query exactly."""
    query = np.full(6, 0.5)
    query[2] = value
    with pytest.raises(ValueError, match="finite"):
        _non_finite_calls(engine, reference)[target](query)
    assert engine._posted == engine._collected
    finite = np.full(6, 0.25)
    _assert_bit_identical(engine.query(finite, 3), reference.query(finite, 3))


class _ThreadWorker:
    """``_worker_main`` for one disk on a thread, over plain arrays and
    ``threading`` primitives instead of the engine's shared ring."""

    def __init__(self, store_dir, store, disk, max_k=4):
        self.depth, self.max_k, self.disk = _PIPELINE_DEPTH, max_k, disk
        self.num_disks = store.num_disks
        self.width = 3 + store.dimension
        cells = self.depth * self.num_disks
        max_pages = int(store.disk_loads().max())
        self.board = np.zeros(self.depth * self.width)
        self.bounds = np.zeros(self.depth * max_k)
        arena = np.zeros(cells * max_k * (2 + store.dimension))
        self.tallies = np.zeros(cells * 3)
        ledgers = np.zeros(cells * 3 * max_pages)
        self.locks = [threading.Lock() for _ in range(self.depth)]
        self.go = threading.Semaphore(0)
        self.done = [threading.Semaphore(0) for _ in range(self.depth)]
        self.posts = 0
        self.thread = threading.Thread(
            target=_worker_main,
            args=(
                os.fspath(store_dir), disk, 0.0, max_k, self.depth,
                self.board, self.bounds, arena, self.tallies, ledgers,
                self.locks, self.go, self.done,
            ),
            daemon=True,
        )
        self.thread.start()

    def ask(self, query, k, batch):
        """Post one query (``k = 0``: stop) and wait for the deposit;
        returns the tally ``(candidates, ledger pages)``."""
        bank = self.posts % self.depth
        self.posts += 1
        with self.locks[bank]:
            self.bounds[bank * self.max_k : (bank + 1) * self.max_k] = np.inf
            row = self.board[bank * self.width : (bank + 1) * self.width]
            row[:3] = self.posts, k, batch
            row[3:] = query
        self.go.release()
        if not k:
            return None
        assert self.done[bank].acquire(timeout=30.0)
        cell = bank * self.num_disks + self.disk
        with self.locks[bank]:
            echo, count, pages = self.tallies[cell * 3 : (cell + 1) * 3]
        assert echo == self.posts
        return int(count), int(pages)

    def stop(self):
        self.ask(np.zeros(self.width - 3), 0, 0)
        self.thread.join(timeout=30.0)
        assert not self.thread.is_alive()


class TestTreeFree:
    """The serving path reads the store's directory arrays only: no
    process on it ever builds a ``Node``."""

    def test_coordinator_builds_no_node(
        self, store_dir, reference, counted_nodes
    ):
        rng = np.random.default_rng(31)
        queries = rng.random((4, 6))
        want = [reference.query(query, 3) for query in queries]
        with MmapStore(store_dir) as store:
            with ProcessParallelEngine(store) as engine:
                _assert_bit_identical(engine.query(queries[0], 3), want[0])
                batch = engine.query_batch(queries, 3)
        for result, expected in zip(batch.results, want):
            _assert_bit_identical(result, expected)
        assert counted_nodes == []

    def test_worker_builds_no_node(self, store_dir, mmap_store, counted_nodes):
        worker = _ThreadWorker(store_dir, mmap_store, disk=1)
        try:
            for batch in (0, 5, 5, 0):
                count, pages = worker.ask(np.full(6, 0.5), 3, batch)
                assert count == 3 and pages > 0
        finally:
            worker.stop()
        assert counted_nodes == []


class TestDeadWorker:
    def test_killed_idle_worker_raises_fast_then_recovers(
        self, mmap_store, reference
    ):
        """A worker that dies between queries surfaces as the usual
        ``RuntimeError`` in about a liveness slice, the engine closes,
        and the next call respawns and answers bit for bit."""
        rng = np.random.default_rng(17)
        queries = rng.random((5, 6))
        want = [reference.query(query, 3) for query in queries]
        with ProcessParallelEngine(mmap_store) as engine:
            _assert_bit_identical(engine.query(queries[0], 3), want[0])
            for run in (
                lambda: engine.query(queries[0], 3),
                lambda: engine.query_batch(queries, 3),
            ):
                engine._procs[1].kill()
                engine._procs[1].join(timeout=10.0)
                started = time.monotonic()
                with pytest.raises(RuntimeError, match="did not reply"):
                    run()
                assert time.monotonic() - started < 5.0
                assert engine._procs == []
                batch = engine.query_batch(queries, 3)
                for result, expected in zip(batch.results, want):
                    _assert_bit_identical(result, expected)
                _assert_bit_identical(engine.query(queries[0], 3), want[0])


    def test_close_with_a_bank_lock_held_by_a_killed_process(
        self, mmap_store, reference
    ):
        """A process SIGKILLed while it holds the lock of the bank the
        stop message goes to never releases it: ``close()`` gives up on
        the lock within a liveness slice and terminates the workers,
        and the engine answers the next query bit for bit."""
        query = np.full(6, 0.4)
        want = reference.query(query, 3)
        with ProcessParallelEngine(mmap_store) as engine:
            _assert_bit_identical(engine.query(query, 3), want)
            workers = list(engine._procs)
            bank = engine._posted % _PIPELINE_DEPTH
            held = engine._ctx.Event()
            holder = engine._ctx.Process(
                target=_hold_lock, args=(engine._locks[bank], held),
                daemon=True,
            )
            holder.start()
            assert held.wait(timeout=60.0)
            os.kill(holder.pid, signal.SIGKILL)
            holder.join(timeout=10.0)
            started = time.monotonic()
            engine.close()
            assert time.monotonic() - started < 5.0
            assert not any(worker.is_alive() for worker in workers)
            _assert_bit_identical(engine.query(query, 3), want)


def _hold_lock(lock, held):
    """Helper process body: take ``lock``, say so, wait to be killed."""
    lock.acquire()
    held.set()
    time.sleep(120.0)


def test_workers_sleep_the_coordinator_stores_disk_time(
    store_dir, monkeypatch
):
    """A store opened with an explicit ``simulated_disk_ms`` and no
    environment knob: every worker sleeps it too, so a query takes at
    least its busiest disk's charged blocks times the service time."""
    monkeypatch.delenv(SIMULATED_DISK_MS_ENV, raising=False)
    disk_ms = 5.0
    query = np.full(6, 0.5)
    with MmapStore(store_dir, simulated_disk_ms=disk_ms) as store:
        with ProcessParallelEngine(store) as engine:
            engine.query(query, 5)  # spawn
            started = time.perf_counter()
            result = engine.query(query, 5)
            elapsed_ms = (time.perf_counter() - started) * 1e3
    busiest = int(result.pages_per_disk.max())
    assert busiest > 0
    assert elapsed_ms >= busiest * disk_ms


_ORPHAN_SCRIPT = """
import os, signal, sys
import numpy as np
from repro.parallel.process import ProcessParallelEngine
from repro.storage import MmapStore

engine = ProcessParallelEngine(MmapStore(sys.argv[1]))
engine.query(np.full(6, 0.5), 1)
print(*(proc.pid for proc in engine._procs), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _run_script(script, store_dir, *flags):
    """``python [flags] -c script store_dir`` in this process's
    environment; waits until every process holding its stdout is gone."""
    return subprocess.run(
        [sys.executable, *flags, "-c", script, os.fspath(store_dir)],
        capture_output=True, text=True, timeout=120,
    )


def test_orphaned_workers_exit_when_the_coordinator_is_killed(store_dir):
    """Idle workers wait on their ``go`` semaphore in slices and leave
    once their parent is gone (``run`` returns only after the last
    holder of the captured stdout — a worker — has exited)."""
    started = time.monotonic()
    done = _run_script(_ORPHAN_SCRIPT, store_dir)
    assert time.monotonic() - started < 30.0
    workers = [int(pid) for pid in done.stdout.split()]
    assert len(workers) == 4
    for pid in workers:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                assert stat.read().rpartition(")")[2].split()[0] == "Z"
        except FileNotFoundError:
            pass


def _page_mindists(store, query):
    """``(mindists, disks, blocks, entries)`` over every data page of
    every disk: one ``mindist_many`` over the whole directory."""
    per_disk = [store.disk_table(disk) for disk in range(store.num_disks)]
    lows, highs, _slots, entries, blocks = (
        np.concatenate(column) for column in zip(*per_disk)
    )
    disks = np.repeat(
        np.arange(store.num_disks), [len(table[2]) for table in per_disk]
    )
    return Euclidean().mindist_many(lows, highs, query), disks, blocks, entries


def _sweep_counts(store, query, bound):
    """The directory sweep the ledgers replaced, kept as the oracle:
    every page filtered against ``bound`` (ties included)."""
    mindists, disks, blocks, entries = _page_mindists(store, query)
    charged = mindists <= bound
    counts = np.bincount(
        disks[charged], weights=blocks[charged], minlength=store.num_disks
    ).astype(np.int64)
    return counts, int(entries[charged].sum())


def _ledgers_and_bound(store, query, k, sources=None):
    """Each disk's ``_worker_query`` in turn over one shared bound (a
    serial run of what the workers do; page sources fresh unless given),
    then the coordinator's merge: ``(candidates per disk, ledgers, B*)``."""
    if sources is None:
        sources = [_DiskPages(store, disk) for disk in range(store.num_disks)]
    view = np.full(k, np.inf)
    lock = threading.Lock()
    found, ledgers = [], []
    for disk, source in enumerate(sources):
        candidates, ledger = _worker_query(
            source, store.disk_table(disk), query, k, view, lock
        )
        found.append(candidates)
        ledgers.append(ledger)
    keys = _top_k(found, k)[0]
    return found, ledgers, float(keys[-1]) if len(keys) == k else math.inf


@st.composite
def _ledger_cases(
    draw, duplicates=True, most=160, page_bytes=DEFAULT_PAGE_BYTES
):
    """``(points, num_disks, supernodes, emptied, idle_disk, queries,
    k, page_bytes)`` over the store shapes the flat leaf table must get
    right."""
    dimension = draw(st.integers(2, 5))
    distinct = draw(st.integers(1, most))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.random((distinct, dimension))
    if duplicates and draw(st.booleans()):
        points = np.repeat(points, 2, axis=0)  # duplicate points
    return {
        "points": points,
        "num_disks": draw(st.integers(1, 4)),
        "supernodes": draw(st.booleans()),
        "emptied": draw(st.sampled_from(("none", "some", "all"))),
        "idle_disk": draw(st.booleans()),
        "queries": rng.random((2, dimension)) * 1.4 - 0.2,
        # Even beyond-N and at-N values of k; max_k is k itself.
        "k": draw(st.sampled_from((1, 2, 4, len(points), 2 * len(points)))),
        "page_bytes": page_bytes,
    }


def _case_store(case):
    """The in-memory store of a :func:`_ledger_cases` draw."""
    num_disks = case["num_disks"]
    # The last disk owns nothing when asked to idle.
    owners = max(1, num_disks - case["idle_disk"])
    paged = PagedStore(
        points=case["points"],
        declusterer=lambda centers: np.arange(len(centers)) % owners,
        num_disks=num_disks,
        page_bytes=case["page_bytes"],
    )
    if case["supernodes"]:
        for leaf in paged.leaves[::2]:
            leaf.blocks = 3
    if case["emptied"] != "none":
        step = 1 if case["emptied"] == "all" else 3
        for leaf in paged.leaves[::step]:
            leaf.entries = []
    return paged


def _boundary_tie(mindists, bound):
    """Whether a page's mindist is within rounding of B*: a point on its
    page's MBR corner (always so on a one-point page) has key == mindist
    up to rounding, a boundary tie outside the PagedEngine contract."""
    return np.isclose(mindists, bound, rtol=1e-9).any()


class TestLedgerOracle:
    """The per-worker page ledgers reproduce the directory sweep (and
    ``PagedEngine``) exactly."""

    @settings(max_examples=40, deadline=None)
    @given(case=_ledger_cases())
    def test_ledger_counts_equal_directory_sweep(self, case):
        with tempfile.TemporaryDirectory() as scratch:
            save_paged_store(_case_store(case), os.path.join(scratch, "store"))
            with MmapStore(os.path.join(scratch, "store")) as store:
                reference = PagedEngine(store, cache=None)
                for query in case["queries"]:
                    _, ledgers, bound = _ledgers_and_bound(
                        store, query, case["k"]
                    )
                    counts, computations = _exact_counts(ledgers, bound)
                    swept, swept_computations = _sweep_counts(
                        store, query, bound
                    )
                    assert np.array_equal(counts, swept)
                    assert computations == swept_computations
                    mindists = _page_mindists(store, query)[0]
                    inside = mindists[mindists <= bound]
                    # The sweep comparison needs no boundary-tie
                    # exemption: it is the same arithmetic.
                    if not _boundary_tie(mindists, bound):
                        want = reference.query(query, case["k"])
                        assert np.array_equal(counts, want.pages_per_disk)
                        assert computations == want.distance_computations
                    # A bound that ties a page's mindist exactly: the
                    # nearest and the farthest charged page's.
                    ties = {inside.min(), inside.max()} if len(inside) else ()
                    for tie in ties:
                        tied, tied_computations = _exact_counts(ledgers, tie)
                        assert tied.sum() > 0
                        swept, swept_computations = _sweep_counts(
                            store, query, tie
                        )
                        assert np.array_equal(tied, swept)
                        assert tied_computations == swept_computations

    def test_single_leaf_root(self, tmp_path):
        store = PagedStore(
            points=np.random.default_rng(2).random((20, 3)),
            declusterer=NearOptimalDeclusterer(3, 2),
        )
        save_paged_store(store, tmp_path / "leaf")
        with MmapStore(tmp_path / "leaf") as tiny:
            assert tiny.tree.root.is_leaf
            query = np.full(3, 0.5)
            _, ledgers, bound = _ledgers_and_bound(tiny, query, 4)
            counts, computations = _exact_counts(ledgers, bound)
            assert (counts.sum(), computations) == (1, 20)
            assert np.array_equal(
                counts, _sweep_counts(tiny, query, bound)[0]
            )


#: One disk of ~300 six-point pages (192 bytes hold four entries at
#: d = 5, the trees' smallest leaf) and k > N: a full scan, whose chunks
#: reach every cap the cap test sets.
_LONG_SCAN = {
    "points": np.random.default_rng(0).random((1800, 3)),
    "num_disks": 2, "supernodes": True, "emptied": "some", "idle_disk": True,
    "queries": np.full((2, 3), 0.5), "k": 3600, "page_bytes": 192,
}


class TestChunkCapIndependence:
    """``_MAX_CHUNK_PAGES`` decides how far a worker reads ahead of its
    bound, never what it finds within B* or what is charged."""

    @settings(max_examples=25, deadline=None)
    @given(
        case=_ledger_cases(duplicates=False, most=1200, page_bytes=192),
        serial=st.sampled_from((0, 1)),
    )
    @example(case=_LONG_SCAN, serial=0)
    @example(case=_LONG_SCAN, serial=1)
    def test_any_cap_gives_the_same_candidates_and_counts(self, case, serial):
        """Caps 1, 2, 32, 128 and one above every disk's page count, per
        call (0) or two queries in one batch scope (1), on stores of up
        to hundreds of 192-byte pages a disk: every disk's candidates
        within B*, the merged top-k and ``_exact_counts`` at B* are
        identical, and equal ``PagedEngine``'s."""
        k = case["k"]
        with tempfile.TemporaryDirectory() as scratch:
            save_paged_store(_case_store(case), os.path.join(scratch, "store"))
            with MmapStore(os.path.join(scratch, "store")) as store:
                seen = []
                widest = int(store.disk_loads().max())
                for cap in (1, 2, 32, 128, widest + 1):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(
                            "repro.parallel.process._MAX_CHUNK_PAGES", cap
                        )
                        sources = [
                            _DiskPages(store, disk)
                            for disk in range(store.num_disks)
                        ]
                        for source in sources:
                            source.scope(serial)
                        seen.append([
                            _cap_outcome(store, query, k, sources)
                            for query in case["queries"]
                        ])
                for outcomes in seen[1:]:
                    for got, want in zip(outcomes, seen[0]):
                        assert got.keys() == want.keys()
                        for name in want:
                            assert np.array_equal(got[name], want[name]), name
                reference = PagedEngine(store, cache=None)
                metric = Euclidean()
                for query, outcome in zip(case["queries"], seen[0]):
                    want = reference.query(query, k)
                    keys = outcome["merged keys"]
                    assert [n.distance for n in want.neighbors] == [
                        metric.key_to_distance(key) for key in keys.tolist()
                    ]
                    mindists = _page_mindists(store, query)[0]
                    bound = float(keys[-1]) if len(keys) == k else math.inf
                    if not _boundary_tie(mindists, bound):
                        assert np.array_equal(
                            outcome["counts"], want.pages_per_disk
                        )
                        assert (
                            outcome["computations"]
                            == want.distance_computations
                        )


def _cap_outcome(store, query, k, sources):
    """What one serial scan of ``query`` must give at any chunk cap, by
    name: per disk the keys, oids and points found within B*, the merged
    top-k, the charged counts and the distance computations."""
    found, ledgers, bound = _ledgers_and_bound(store, query, k, sources)
    outcome = {}
    for disk, candidates in enumerate(found):
        inside = candidates[0] <= bound
        for name, column in zip(("keys", "oids", "points"), candidates):
            outcome[f"disk {disk} {name}"] = column[inside]
    for name, column in zip(("keys", "oids", "points"), _top_k(found, k)):
        outcome[f"merged {name}"] = column
    outcome["counts"], outcome["computations"] = _exact_counts(ledgers, bound)
    return outcome


_LEAK_SCRIPT = """
import sys
import numpy as np
from repro.parallel.process import ProcessParallelEngine
from repro.storage import MmapStore

with MmapStore(sys.argv[1]) as store:
    queries = np.random.default_rng(0).random((5, 6))
    with ProcessParallelEngine(store) as engine:
        engine.query(queries[0], 3)
        engine.query_batch(queries, 3)
        engine._procs[0].kill()
        try:
            engine.query(queries[0], 3)
        except RuntimeError:
            pass
        else:
            raise SystemExit("a killed worker went unnoticed")
        assert len(engine.query(queries[0], 3).neighbors) == 3
        engine.query_batch(queries, 3)
print("clean exit")
"""


class TestNoLeakedKernelObjects:
    def test_no_semaphore_outlives_the_interpreter(self, store_dir):
        """Query, batch, a killed-worker recovery and ``close()`` under
        ``-W error``: the resource tracker has nothing to report."""
        done = _run_script(_LEAK_SCRIPT, store_dir, "-W", "error")
        assert done.returncode == 0, done.stderr
        assert "clean exit" in done.stdout
        for word in ("leaked", "resource_tracker", "Warning"):
            assert word not in done.stderr, done.stderr

    def test_fds_return_to_the_pre_engine_count(self, mmap_store):
        """No pipe per queue any more: an open engine holds only its
        workers' process handles, and ``close()`` returns every fd."""

        def cycle():
            before = _open_fds()
            with ProcessParallelEngine(mmap_store) as engine:
                engine.query(np.full(6, 0.5), 2)
                engine.query_batch(np.full((3, 6), 0.25), 2)
                during = _open_fds()
            return before, during, _open_fds()

        # The first engine of a process starts multiprocessing's
        # resource tracker and shared-memory heap, which stay.
        cycle()
        before, during, after = cycle()
        assert after == before
        assert 0 < during - before <= 2 * mmap_store.num_disks


class TestLifecycle:
    def test_close_is_idempotent_and_reusable_api(self, mmap_store):
        engine = ProcessParallelEngine(mmap_store)
        first = engine.query(np.full(6, 0.25), 2)
        assert len(first.neighbors) == 2
        engine.close()
        engine.close()

    def test_context_manager_closes_workers(self, mmap_store):
        with ProcessParallelEngine(mmap_store) as engine:
            engine.query(np.full(6, 0.75), 1)
            workers = list(engine._procs)
            assert all(w.is_alive() for w in workers)
        assert all(not w.is_alive() for w in workers)

    def test_empty_batch(self, engine):
        batch = engine.query_batch(np.zeros((0, 6)), k=3)
        assert batch.results == []


class _FailingCtx:
    """Proxy multiprocessing context whose Nth Process() blows up."""

    def __init__(self, real, fail_at):
        self._real = real
        self._fail_at = fail_at
        self._spawned = 0

    def __getattr__(self, name):
        return getattr(self._real, name)

    def Process(self, *args, **kwargs):
        self._spawned += 1
        if self._spawned >= self._fail_at:
            raise OSError("simulated spawn failure")
        return self._real.Process(*args, **kwargs)


class TestStartupFailure:
    def test_spawn_failure_mid_start_tears_down_and_recovers(
        self, store_dir
    ):
        """A worker failing to spawn mid-start must not leak the workers
        and queues that did start: the engine tears itself down, the
        original error propagates, and the same engine instance works
        once the fault is gone."""
        with MmapStore(store_dir) as store:
            engine = ProcessParallelEngine(store)
            real_ctx = engine._ctx
            engine._ctx = _FailingCtx(real_ctx, fail_at=2)
            try:
                with pytest.raises(OSError, match="simulated spawn"):
                    engine.query(np.full(6, 0.5), 2)
                # close() ran: partial worker/queue state is fully reset.
                assert engine._procs == []
                assert engine._go == []
                assert engine._board is None
                assert engine._bounds is None
                assert engine._locks == []
                assert engine._arena is None
                assert engine._done == []
                # The engine recovers once spawning works again.
                engine._ctx = real_ctx
                result = engine.query(np.full(6, 0.5), 2)
                assert len(result.neighbors) == 2
            finally:
                engine._ctx = real_ctx
                engine.close()


class TestArgumentValidation:
    def test_k_beyond_max_k_raises(self, mmap_store):
        engine = ProcessParallelEngine(mmap_store, max_k=4)
        try:
            with pytest.raises(ValueError, match="max_k"):
                engine.query(np.full(6, 0.5), 5)
        finally:
            engine.close()

    def test_in_memory_store_is_rejected(self, small_uniform):
        store = PagedStore(
            points=small_uniform,
            declusterer=NearOptimalDeclusterer(6, 4),
        )
        with pytest.raises(TypeError, match="out-of-core"):
            ProcessParallelEngine(store)

    def test_max_k_must_be_positive(self, mmap_store):
        with pytest.raises(ValueError, match="max_k"):
            ProcessParallelEngine(mmap_store, max_k=0)

    def test_repr_names_the_store(self, engine):
        assert "ProcessParallelEngine" in repr(engine)

"""Tests for :class:`repro.parallel.process.ProcessParallelEngine`.

The contract under test is the determinism guarantee documented in
``docs/performance.md``: per-disk worker processes sharing a
monotonically-tightening kNN bound return neighbors, per-disk page
counts, distance computations, and the simulated parallel time
**bit-for-bit identical** to the single-process
:class:`~repro.parallel.paged.PagedEngine` — the shared bound only
changes which pages are read *speculatively*, never which pages are
*charged*.

Worker startup is the expensive part (a fork from the fork server and
an mmap open per disk; the server's own start imports numpy), so the
parity tests share one module-scoped store and engine.
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

import repro
from repro.core import NearOptimalDeclusterer
from repro.index.metrics import Euclidean
from repro.index.node import DEFAULT_PAGE_BYTES
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.process import (
    _LIVENESS_SLICE_S,
    _MAX_BATCH,
    _MAX_CHUNK_PAGES,
    _PRELOAD,
    ProcessParallelEngine,
    _charge,
    _DiskPages,
    _Filter,
    _Ring,
    _scan,
    _worker_main,
)
from repro.parallel.store import DeclusteredStore
from repro.serve import QueryRequest, WorkloadSpec, build_engine
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
                lows, highs = store.disk_table(disk)[:2]
                mindists = Euclidean().mindist_many(lows, highs, queries[-1])
                charged = mindists[mindists <= bound]
                assert len(np.unique(charged)) < len(charged)

    def test_speculative_reads_never_undercount(self, engine):
        """Workers may read extra pages under a stale bound, never
        fewer than the charged (post-hoc exact) count."""
        result = engine.query(np.full(6, 0.5), 5)
        assert engine.last_speculative_pages >= result.pages_per_disk.sum()
        assert result.pages_per_disk.sum() > 0

    def test_batches_split_at_every_size_match_per_call(
        self, engine, reference
    ):
        """Twelve queries batched in posts of every size from 1 to 12,
        and one batch of more queries than a post carries: every answer
        equals the per-call answer and ``PagedEngine``'s bit for bit."""
        rng = np.random.default_rng(37)
        queries = rng.random((_MAX_BATCH + 5, 6))
        want = [reference.query(query, 5) for query in queries]
        for query, expected in zip(queries[:12], want):
            _assert_bit_identical(engine.query(query, 5), expected)
        for size in range(1, 13):
            for first in range(0, 12, size):
                batch = engine.query_batch(queries[first : first + size], 5)
                for result, expected in zip(batch.results, want[first:]):
                    _assert_bit_identical(result, expected)
        batch = engine.query_batch(queries, 5)
        assert len(batch.results) == len(queries)
        for result, expected in zip(batch.results, want):
            _assert_bit_identical(result, expected)

    def test_a_batch_gathers_no_page_twice(self, engine, mmap_store):
        """A post gathers each page at most once for all its queries:
        the batch's count is at most the store's page count and at most
        the per-call counts summed, and the speculative count still
        covers the charged pages."""
        rng = np.random.default_rng(41)
        queries = 0.3 + 0.4 * rng.random((_MAX_BATCH, 6))
        per_call = charged = 0
        for query in queries:
            charged += int(engine.query(query, 8).pages_per_disk.sum())
            per_call += engine.last_gathered_pages
        engine.query_batch(queries, 8)
        assert 0 < engine.last_gathered_pages <= mmap_store.disk_loads().sum()
        assert engine.last_gathered_pages <= per_call
        assert engine.last_speculative_pages >= charged

    def test_a_posts_answers_outlive_the_next_post(self, engine, reference):
        """A batch of 17 is two posts on one ring: every answer owns its
        distances, oids and points, so the second post and later calls,
        which overwrite the ring, change none of the first post's, and
        no point is a view of the ring's arena."""
        rng = np.random.default_rng(53)
        queries = rng.random((_MAX_BATCH + 1, 6))
        batch = engine.query_batch(queries, 7)
        kept = [
            [(n.distance, n.oid, n.point.tobytes()) for n in r.neighbors]
            for r in batch.results
        ]
        engine.query_batch(rng.random((_MAX_BATCH + 1, 6)), 7)
        engine.query(rng.random(6), 7)
        for query, result, before in zip(queries, batch.results, kept):
            want = reference.query(query, 7)
            _assert_bit_identical(result, want)
            assert [
                (n.distance, n.oid, n.point.tobytes()) for n in result.neighbors
            ] == before == [
                (n.distance, n.oid, np.asarray(n.point, float).tobytes())
                for n in want.neighbors
            ]
            for neighbor in result.neighbors:
                assert not np.shares_memory(neighbor.point, engine._ring.arena)

    def test_workers_run_blas_on_one_thread(self, mmap_store, monkeypatch):
        """Every worker is spawned with ``OPENBLAS_NUM_THREADS=1``, so
        its BLAS starts no threads of its own (a worker runs one), even
        where the coordinator asks for more; the coordinator's own
        setting is left as it was."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        with ProcessParallelEngine(mmap_store) as engine:
            engine.query(np.full(6, 0.5), 1)
            assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
            for proc in engine._procs:
                with open(f"/proc/{proc.pid}/environ", "rb") as environ:
                    variables = environ.read().split(b"\0")
                assert b"OPENBLAS_NUM_THREADS=1" in variables
                with open(f"/proc/{proc.pid}/status") as status:
                    threads = [
                        line.split()[1] for line in status
                        if line.startswith("Threads:")
                    ]
                assert threads == ["1"]


def _assert_parity(paged_store, directory, queries, ks):
    """``query`` and ``query_batch`` of a process engine over
    ``paged_store`` (saved to ``directory``) match ``PagedEngine``;
    returns the last per-call result and its speculative page count."""
    save_paged_store(paged_store, directory)
    with MmapStore(directory) as store:
        reference = PagedEngine(store, cache=None)
        with ProcessParallelEngine(store) as engine:
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
        ``blocks``; ``k > N`` returns every point and reads every
        page."""
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
            store, tmp_path / "super", rng.random((3, 5)), (3, 160)
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

    def test_disks_short_of_k(self, tmp_path):
        """Three disks: every page of disk 1 empty, disk 2 down to one
        page of five points, so for k past five a disk deposits fewer
        than k candidates (disk 1 none at all); posts of 1, 16 and 17
        queries match ``PagedEngine`` bit for bit."""
        rng = np.random.default_rng(10)
        paged = PagedStore(
            points=rng.random((400, 3)), num_disks=3, page_bytes=512,
            declusterer=lambda centers: np.arange(len(centers)) % 3,
        )
        owned = [
            [leaf for leaf in paged.leaves if paged.disk_of(leaf) == disk]
            for disk in range(3)
        ]
        for leaf in owned[1] + owned[2][1:]:
            leaf.entries = []
        owned[2][0].entries = owned[2][0].entries[:5]
        queries = rng.random((_MAX_BATCH + 1, 3))
        save_paged_store(paged, tmp_path / "short")
        with MmapStore(tmp_path / "short") as store:
            reference = PagedEngine(store, cache=None)
            with ProcessParallelEngine(store) as engine:
                for k in (3, 12):
                    want = [reference.query(query, k) for query in queries]
                    for size in (1, _MAX_BATCH, _MAX_BATCH + 1):
                        batch = engine.query_batch(queries[:size], k)
                        for result, expected in zip(batch.results, want):
                            _assert_bit_identical(result, expected)
                    _assert_bit_identical(engine.query(queries[0], k), want[0])

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
    """Store facade over ``read_pages``: ``fetched`` lists the table rows
    of every gather, ``sizes`` the pages of each non-empty one,
    ``owed_blocks`` their blocks (the device clock, ``clock`` and
    ``sleep_until``, is the store's)."""

    def __init__(self, inner):
        self._inner = inner
        self.disk_table = inner.disk_table
        self.page_rows = inner.page_rows
        self.dimension = inner.dimension
        self.simulated_disk_ms = inner.simulated_disk_ms
        self.clock, self.sleep_until = inner.clock, inner.sleep_until
        self.fetched = []
        self.sizes = []
        self.owed_blocks = 0

    def read_pages(self, disk, pages):
        self.fetched.extend(int(page) for page in pages)
        if len(pages):
            self.sizes.append(len(pages))
        self.owed_blocks += int(self.disk_table(disk)[4][pages].sum())
        return self._inner.read_pages(disk, pages)


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


class TestDiskPages:
    """The worker's page source: every chunk is one gather of the page
    file's scan rows that owes its service time, and a page's row norms
    are computed on its first gather and kept."""

    def test_padding_shapes(self, tmp_path):
        """All-empty pages (``W`` 0), a zero-page disk, and a multi-block
        supernode page beside one-block pages: rows are as wide as the
        disk's fullest page (the supernode), a chunk holds
        ``sum(counts)`` real points and owes the supernode's blocks on
        every gather, the norms are the real rows' squared norms, NaN
        past each page's count, whichever gather computed them, and
        ``largest`` bounds every row norm by its MBR's farthest corner."""
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
            assert counting.fetched == [] and counting.owed_blocks == 0
            # Pages 2 and 3 are known before the second gather, the
            # others are new to it.
            for pages in (np.array([3, 2]), np.arange(6), np.arange(6)):
                before = len(counting.fetched)
                spent = counting.owed_blocks
                chunk, norms = source.chunk(pages)
                assert counting.fetched[before:] == pages.tolist()
                assert counting.owed_blocks - spent == int(blocks[pages].sum())
                _assert_chunk(store, 0, pages, chunk)
                real = np.isfinite(chunk).all(axis=2)
                assert real.sum() == counts[pages].sum()
                assert chunk.shape == (len(pages), counts[0], 3)
                assert np.array_equal(np.isnan(norms), ~real)
                assert np.allclose(
                    norms[real], np.einsum("ij,ij->i", chunk[real], chunk[real])
                )
                assert source.largest >= math.sqrt(np.nanmax(norms))

            idle = _DiskPages(counting, 1)
            chunk, norms = idle.chunk(np.zeros(0, dtype=np.intp))
            assert chunk.shape[::2] == (0, 3) and chunk.size == 0
            assert norms.size == 0 and idle.largest == 0.0
            empty = _DiskPages(counting, 2)
            for _ in range(2):
                chunk, norms = empty.chunk(np.array([1, 0]))
                assert chunk.shape == (2, 0, 3)
                assert norms.shape == (2, 0) and empty.largest == 0.0
                oids, points = empty.rows(np.array([1, 0]), [])
                assert oids.shape == (0,) and points.shape == (0, 3)

    def test_file_count_above_directory_count_is_refused(self, tmp_path):
        """A slot claiming more entries than its page's directory row is
        ``PageFormatError`` before any row is served: opening the page
        source opens its page file."""
        rng = np.random.default_rng(4)
        paged = PagedStore(
            points=rng.random((80, 3)),
            declusterer=NearOptimalDeclusterer(3, 2),
        )
        save_paged_store(paged, tmp_path / "skew")
        with MmapStore(tmp_path / "skew") as store:
            store._counts[np.flatnonzero(store.page_disks == 0)[0]] -= 1
            with pytest.raises(PageFormatError, match="more entries"):
                _DiskPages(store, 0)
            # The per-leaf read of the in-process engines refuses it too.
            with pytest.raises(PageFormatError, match="more entries"):
                store.read_page(store.leaves[0])


class TestServiceTimeCharging:
    """Simulated service time: the device serves each gathered page once
    per post, so once per page per batch and on every gather per call —
    supernodes and large disks included."""

    @pytest.mark.parametrize("serial", [0, 1])
    def test_service_time_once_per_page_per_batch_scope(
        self, tmp_path, monkeypatch, serial
    ):
        """Six overlapping kNN scans per disk, per call (0) or as one
        post (1): a post gathers each page at most once and its device
        serves every gathered page's ``blocks`` exactly once (the tally's
        device ms), so in one post every distinct page owes them once
        and per call every gather owes them.  Supernode pages (three
        blocks) follow the same rule, opening the page source owes
        nothing, and on a timer-less store the sleeps add up to the
        device's time."""
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
        owed = 0
        with MmapStore(tmp_path / "store", simulated_disk_ms=1.0) as store:
            for disk in range(store.num_disks):
                table = store.disk_table(disk)
                assert len(table[4]) > 4
                counting = _CountingStore(store)
                asleep = len(slept)
                source = _DiskPages(counting, disk)
                assert len(slept) == asleep and counting.fetched == []
                posts = [queries] if serial else [[query] for query in queries]
                for post in posts:
                    before = len(counting.fetched)
                    _, _, (_, gathered, device) = _scan(
                        source, np.array(post), 8,
                        np.full((len(post), 8), np.inf), threading.Lock(),
                    )
                    pages = counting.fetched[before:]
                    assert gathered == len(pages) == len(set(pages))
                    assert device == 1.0 * int(table[4][pages].sum())
                    fetched.update(
                        (disk, page, int(table[4][page])) for page in pages
                    )
                owed += counting.owed_blocks
        again = [key for key, times in fetched.items() if times > 1]
        assert bool(again) != bool(serial)
        assert any(blocks == 3 for _, _, blocks in fetched)
        assert any(blocks == 3 for _, _, blocks in again) or serial
        assert round(sum(slept) * 1000.0) == owed == sum(
            blocks * times for (_, _, blocks), times in fetched.items()
        )


class TestChunkSchedule:
    """How far a worker reads ahead follows what a page read costs: with
    a service time it gathers the pages whose service has ended on its
    device clock, without one the first chunk is already
    :data:`_MAX_CHUNK_PAGES`."""

    @pytest.fixture(scope="class")
    def schedule_dir(self, tmp_path_factory):
        """One store of ~160 256-byte pages a disk: more than the cap."""
        rng = np.random.default_rng(19)
        paged = PagedStore(
            points=rng.random((1500, 4)),
            declusterer=NearOptimalDeclusterer(4, 2), page_bytes=256,
        )
        directory = tmp_path_factory.mktemp("schedule") / "store"
        save_paged_store(paged, directory)
        return directory

    @staticmethod
    def _gathers(directory, disk_ms):
        """Per disk and per post (six per-call posts, then one post of
        the same six queries): ``(queries in the post, pages on the
        disk, sizes of the post's gathers)``."""
        queries = 0.3 + 0.4 * np.random.default_rng(5).random((6, 4))
        posts = [queries[i : i + 1] for i in range(6)] + [queries]
        scans = []
        with MmapStore(directory, simulated_disk_ms=disk_ms) as store:
            for disk in range(store.num_disks):
                counting = _CountingStore(store)
                source = _DiskPages(counting, disk)
                pages = len(store.disk_table(disk)[2])
                assert pages > _MAX_CHUNK_PAGES
                for post in posts:
                    before = len(counting.sizes)
                    _scan(
                        source, post, 40, np.full((len(post), 40), np.inf),
                        threading.Lock(),
                    )
                    scans.append((len(post), pages, counting.sizes[before:]))
        return scans

    def test_a_service_time_gathers_each_page_when_served(
        self, schedule_dir, monkeypatch
    ):
        """A timer-less store's clock moves only when the scan sleeps, so
        every page's service ends alone: each gather is one page, and the
        cap plays no part."""
        monkeypatch.setattr("repro.storage.mmap_store.time.sleep", lambda _: 0)
        scans = self._gathers(schedule_dir, 1.0)
        for _, _, sizes in scans:
            assert set(sizes) == {1}
        assert max(len(sizes) for _, _, sizes in scans) > 2

    def test_no_service_time_starts_at_the_cap(self, schedule_dir):
        """A fresh bound row reaches every page of the disk, so the first
        gather is as many as the cap allows."""
        for _, pages, sizes in self._gathers(schedule_dir, 0.0):
            assert sizes[0] == min(_MAX_CHUNK_PAGES, pages)
            assert max(sizes) <= _MAX_CHUNK_PAGES


#: A service time whose multiples are exact binary fractions of a
#: second (2**-10 s a block), so the fake clock's arithmetic is exact.
_PACED_MS = 1000.0 / 1024.0
_BLOCK_S = _PACED_MS / 1000.0


class _FakeClock:
    """A store's timer and ``time.sleep``: time moves only when slept or
    when a gather spends ``cpu`` seconds.  A long run of reads that see
    the same instant is a spin-wait, and fails."""

    def __init__(self, cpu=0.0):
        self.now, self.cpu, self.slept = 1.0, cpu, []
        self._same = 0

    def timer(self):
        self._same += 1
        assert self._same < 50, "the scan spins on its clock"
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.slept.append(seconds)
        self.spend(seconds)

    def spend(self, seconds):
        """Move time on by ``seconds`` (a read after it sees a new
        instant unless ``seconds`` is 0)."""
        self.now += seconds
        if seconds:
            self._same = 0


class _TimedStore(_CountingStore):
    """A :class:`_CountingStore` whose gathers are stamped on a
    :class:`_FakeClock` (``gathers``: ``(instant, pages)``) and spend its
    ``cpu``."""

    def __init__(self, inner, fake):
        super().__init__(inner)
        self._fake, self.gathers = fake, []

    def read_pages(self, disk, pages):
        self.gathers.append((self._fake.now, [int(page) for page in pages]))
        self._fake.spend(self._fake.cpu)
        return super().read_pages(disk, pages)


@pytest.fixture(scope="module")
def paced_dir(tmp_path_factory):
    """Two disks of 1500 four-dimensional points, every fourth page a
    three-block supernode."""
    rng = np.random.default_rng(23)
    paged = PagedStore(
        points=rng.random((1500, 4)),
        declusterer=NearOptimalDeclusterer(4, 2),
    )
    for leaf in paged.leaves[::4]:
        leaf.blocks = 3
    directory = tmp_path_factory.mktemp("paced") / "store"
    save_paged_store(paged, directory)
    return directory


_PACED_POSTS = (
    np.array([[0.5, 0.5, 0.5, 0.5]]),
    0.3 + 0.4 * np.random.default_rng(8).random((3, 4)),
)


class TestDeviceClock:
    """A disk under a service time, on a fake clock: the device serves
    the scan's pages back to back, decides each against the bound held
    when its service begins, and the scan gathers a page only once its
    service has ended."""

    @staticmethod
    def _run(directory, monkeypatch, queries, k, cpu=0.0, disk=0, view=None):
        """``_scan`` of ``queries`` on ``disk`` of a store paced on a
        :class:`_FakeClock`: ``(store facade, tally, fake, start)``."""
        fake = _FakeClock(cpu)
        monkeypatch.setattr("repro.storage.mmap_store.time.sleep", fake.sleep)
        with MmapStore(
            directory, simulated_disk_ms=_PACED_MS, timer=fake.timer
        ) as store:
            timed = _TimedStore(store, fake)
            source = _DiskPages(timed, disk)
            if view is None:
                view = np.full((len(queries), k), np.inf)
            start = fake.now
            _, _, tally = _scan(source, queries, k, view, threading.Lock())
        return timed, tally, fake, start

    @pytest.mark.parametrize("cpu", [0.0, 0.75 * _BLOCK_S, 5 * _BLOCK_S])
    @pytest.mark.parametrize("post", [0, 1])
    def test_no_page_is_gathered_before_its_due_instant(
        self, paced_dir, monkeypatch, cpu, post
    ):
        """The pages, in the order served, end at the start plus their
        running blocks: no gather takes a page before that, the last
        gather comes after the device's whole time, and the sleeps come
        to the device's time less the gathers' (late wake-ups shorten
        the next wait, and a slow gather takes every page already due)."""
        timed, (_, gathered, device), fake, start = self._run(
            paced_dir, monkeypatch, _PACED_POSTS[post], 10, cpu
        )
        blocks = timed.disk_table(0)[4]
        served = [page for _, pages in timed.gathers for page in pages]
        assert gathered == len(served) == len(set(served)) > 4
        dues = start + np.cumsum(blocks[served]) * _BLOCK_S
        instants = [at for at, pages in timed.gathers for _ in pages]
        assert (np.array(instants) >= dues).all()
        assert device == _PACED_MS * int(blocks[served].sum())
        assert timed.gathers[-1][0] == dues[-1] or cpu
        assert timed.gathers[-1][0] >= start + device / 1000.0
        spent = cpu * len(timed.gathers)
        assert sum(fake.slept) <= device / 1000.0
        assert sum(fake.slept) >= device / 1000.0 - spent
        sizes = [len(pages) for _, pages in timed.gathers]
        assert max(sizes) > 1 if cpu > _BLOCK_S * 3 else max(sizes) == 1

    @pytest.mark.parametrize("post, k", [(0, 10), (1, 10), (1, 1), (3, 1)])
    def test_a_page_past_the_bound_held_when_its_service_begins_is_never_served(
        self, paced_dir, monkeypatch, post, k
    ):
        """With no time spent between sleeps, a page's service begins the
        instant the page before it is gathered and folded: the pages
        served are exactly those that some query owes within the k-th
        key of every page served before them (a replay of that rule).
        For ``k = 1`` the ``post`` queries sit on stored points, so the
        first fold that finds one drops its bound from +inf to 0."""
        with MmapStore(paced_dir) as plain:
            lows, highs, _, counts, _ = plain.disk_table(0)
            if k == 1:
                rows = plain.read_pages(0, np.arange(len(counts)))
                rows = rows[np.isfinite(rows).all(axis=2)]
                pick = np.random.default_rng(post).choice(len(rows), post)
                queries = rows[pick]
            else:
                queries = _PACED_POSTS[post]
        timed, _, _, _ = self._run(paced_dir, monkeypatch, queries, k)
        metric = Euclidean()
        mindists = np.array([metric.mindist_many(lows, highs, q) for q in queries])
        nearest = mindists.min(axis=0)
        keys = [np.empty(0) for _ in queries]
        want = []
        with MmapStore(paced_dir) as plain:
            for page in np.argsort(nearest):
                bounds = np.array([
                    np.sort(mine)[k - 1] if len(mine) >= k else np.inf
                    for mine in keys
                ])
                if nearest[page] > bounds.max():
                    break
                if not (mindists[:, page] <= bounds).any():
                    continue
                want.append(int(page))
                points = plain.read_pages(0, np.array([page]))[0]
                points = points[: counts[page]]
                keys = [
                    np.concatenate((mine, metric.point_keys(points, q)))
                    for mine, q in zip(keys, queries)
                ]
        served = [page for _, pages in timed.gathers for page in pages]
        assert served == want

    @pytest.mark.parametrize("post", [0, 1])
    def test_every_page_within_b_star_is_served_once(
        self, paced_dir, monkeypatch, post
    ):
        """Every disk serves each page some query owes within its B*
        exactly once; with the shared rows already at B* (k keys of B*,
        as if other disks had found them first) it serves those pages and
        no other, the first one included."""
        queries, k = _PACED_POSTS[post], 10
        with MmapStore(paced_dir) as plain:
            top = _post_outcomes(plain, queries, k)
            rows = np.array([[bound] * k for *_, bound in top])
            for disk in range(plain.num_disks):
                lows, highs = plain.disk_table(disk)[:2]
                within = set()
                for query, (*_, bound) in zip(queries, top):
                    mindists = Euclidean().mindist_many(lows, highs, query)
                    within |= set(np.flatnonzero(mindists <= bound).tolist())
                assert within
                for view in (None, rows.copy()):
                    timed, _, _, _ = self._run(
                        paced_dir, monkeypatch, queries, k, disk=disk,
                        view=view,
                    )
                    served = [p for _, pages in timed.gathers for p in pages]
                    assert len(served) == len(set(served))
                    assert within <= set(served)
                    if view is not None:
                        assert set(served) == within

    def test_the_device_serves_supernodes_for_their_blocks(
        self, paced_dir, monkeypatch
    ):
        """Device ms is the service ms times the blocks served, per call
        and per post, on both disks, three-block supernodes included."""
        for disk in (0, 1):
            for queries in (*(q[None] for q in _PACED_POSTS[1]), _PACED_POSTS[1]):
                timed, (_, gathered, device), _, _ = self._run(
                    paced_dir, monkeypatch, queries, 10, disk=disk
                )
                blocks = timed.disk_table(disk)[4]
                assert device == _PACED_MS * timed.owed_blocks
                assert gathered < timed.owed_blocks == int(
                    blocks[timed.fetched].sum()
                )


class TestFilter:
    """The BLAS filter (``_Filter``) only decides which rows are refined:
    it never drops a row the exact scan keeps, and a filter that drops
    nothing changes no answer."""

    @settings(max_examples=300, deadline=None)
    @given(
        dimension=st.integers(1, 8),
        magnitude=st.sampled_from(
            (1e-150, 1e-3, 1.0, 1e150, 1e153, 1e154)
        ),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
        count=st.integers(1, 3),
        k=st.integers(1, 6),
        tie=st.sampled_from((-1, 0, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_no_row_the_exact_scan_keeps_is_dropped(
        self, dimension, magnitude, shape, count, k, tie, seed
    ):
        """Coordinates of either sign at magnitudes 1e-150 to 1e154 (where
        products near overflow), ``+inf`` padding rows, rows one ulp apart and repeated rows, and
        bounds at, one ulp below or one ulp above a query's k-th exact
        key: every real row whose exact key is below its query's bound
        survives, and for a query short of k candidates every row as
        near as the chunk's k-th real row survives too."""
        rng = np.random.default_rng(seed)
        pages, width = shape
        block = rng.standard_normal((pages, width, dimension)) * magnitude
        flat = block.reshape(-1, dimension)
        flat[1::3] = np.nextafter(flat[::3][: len(flat[1::3])], np.inf)
        flat[2::5] = flat[0]
        filled = rng.integers(0, width + 1, pages)
        padding = np.arange(width) >= filled[:, None]
        block[padding] = np.inf
        real = ~padding.ravel()
        queries = rng.standard_normal((count, dimension)) * magnitude
        metric = Euclidean()
        with np.errstate(over="ignore"):
            norms = np.einsum("ijk,ijk->ij", block, block)
            exact = np.array([
                np.where(real, metric.point_keys(flat, query), np.inf)
                for query in queries
            ])
        norms[padding] = np.nan
        largest = math.sqrt(norms[~padding].max()) if real.any() else 0.0
        ranked = np.sort(exact, axis=1)
        kth = ranked[:, min(k, ranked.shape[1]) - 1]
        bounds = np.where(
            np.isfinite(kth), np.nextafter(kth, tie * np.inf), np.inf
        ) if tie else kth.copy()
        short = np.flatnonzero(rng.random(count) < 0.5)
        with np.errstate(invalid="ignore", over="ignore"):
            rows, which = _Filter(queries, largest).survivors(
                block.copy(), norms, bounds, short, k
            )
        survived = set(zip(rows.tolist(), which.tolist()))
        for query in range(count):
            kept = exact[query] < bounds[query]
            if query in short:
                kept |= exact[query] <= kth[query]
            for row in np.flatnonzero(kept & real):
                assert (int(row), query) in survived
        assert all(real[row] for row, _ in survived)

    def test_a_product_that_overflows_drops_nothing(self):
        """Finite rows and a query near 1e154 whose products overflow:
        k rows at 1.3e154 have ``â = −inf``, so the chunk's k-th
        approximate key is ``−inf``; the nearer row at 0.85e154 must
        still survive for a query short of k candidates."""
        k = 3
        block = np.array([[1.3e154]] * k + [[0.85e154]])[None]
        norms = np.einsum("ijk,ijk->ij", block, block)
        rows, which = _Filter(np.array([[1e154]]), 1.3e154).survivors(
            block, norms, np.array([np.inf]), np.array([0]), k
        )
        assert k in rows.tolist() and which.tolist() == [0] * len(rows)

    @pytest.mark.parametrize("batched", [False, True])
    def test_a_filter_that_drops_nothing_changes_no_answer(
        self, tmp_path, monkeypatch, batched
    ):
        """With every real row refined for every query, each disk's scan
        of the same posts gives the same merged neighbours, charged
        pages and distance computations — and ``PagedEngine``'s."""
        rng = np.random.default_rng(43)
        paged = PagedStore(
            points=rng.random((2500, 5)),
            declusterer=NearOptimalDeclusterer(5, 3),
        )
        save_paged_store(paged, tmp_path / "store")
        queries = rng.random((7, 5))

        def outcomes(store):
            posts = [queries] if batched else [q[None] for q in queries]
            found = []
            for post in posts:
                found += _post_outcomes(store, post, 6)
            return found

        def every_row(self, block, norms, bounds, short, k):
            rows = np.flatnonzero(~np.isnan(norms.ravel()))
            which = np.tile(np.arange(len(bounds)), len(rows))
            return np.repeat(rows, len(bounds)), which

        with MmapStore(tmp_path / "store") as store:
            filtered = outcomes(store)
            monkeypatch.setattr(_Filter, "survivors", every_row)
            unfiltered = outcomes(store)
            reference = PagedEngine(store, cache=None)
            for query, got, want in zip(queries, filtered, unfiltered):
                keys, oids, points, counts, computations, _ = got
                assert keys.tobytes() == want[0].tobytes()
                assert oids.tobytes() == want[1].tobytes()
                assert points.tobytes() == want[2].tobytes()
                assert np.array_equal(counts, want[3])
                assert computations == want[4]
                expected = reference.query(query, 6)
                assert [n.oid for n in expected.neighbors] == oids.tolist()
                assert np.array_equal(counts, expected.pages_per_disk)
                assert computations == expected.distance_computations


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
            assert engine._procs == [] and engine._ring is None
            assert engine._posted == engine._collected == 0
            engine.close()
        assert multiprocessing.active_children() == children
        assert _open_fds() == before


class TestRing:
    """The shared-memory query ring: post / collect alignment, posts of
    up to ``_MAX_BATCH`` queries, a bounded wait for its lock."""

    def test_mixed_sequences_keep_banks_and_serials_aligned(
        self, engine, reference
    ):
        """One engine, per-call and batched queries interleaved, batches
        of one, of several and of more than one post: every post's
        collect reads that post's deposits."""
        rng = np.random.default_rng(21)
        steps = [
            ("one", 3), ("batch", 1, 3), ("one", 5), ("batch", 2, 5),
            ("batch", 3, 1), ("one", 1), ("batch", 0, 4), ("one", 4),
            ("batch", 2 * _MAX_BATCH + 3, 7), ("one", 7),
            ("batch", _MAX_BATCH + 1, 2), ("batch", 1, 64),
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
            # A wrong serial: the workers echo what was posted, the
            # collect expects its own count.
            engine._posted += 1
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
        "paged-window": lambda q: PagedEngine(paged).window(np.zeros(6), q),
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
    ["coordinated", "independent", "sequential", "paged", "paged-window",
     "paged-mmap", "process", "process-batch", "request", "request-high"],
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
    """``_worker_main`` for one disk on a thread, over a :class:`_Ring`
    of numpy buffers and ``threading`` primitives."""

    def __init__(self, store_dir, store, disk, capacity=4, disk_ms=0.0):
        self.disk = disk
        self.ring = _Ring(_ThreadCtx, store, capacity)
        self.posts = 0
        self.thread = threading.Thread(
            target=_worker_main,
            args=(os.fspath(store_dir), disk, disk_ms, self.ring),
            daemon=True,
        )
        self.thread.start()

    def ask(self, queries, k):
        """Post ``(Q, d)`` queries (``k = 0``: stop) and wait for the
        deposit; returns the candidates each query found on the disk and
        the disk's tally ``[ledger blocks, pages gathered, device ms, ms
        slept]``."""
        self.posts += 1
        assert self.ring.post(self.posts, queries, k)
        if not k:
            return None
        assert self.ring.done.acquire(timeout=30.0)
        with self.ring.lock:
            echo, *tally = self.ring.tallies[self.disk].tolist()
            assert echo == self.posts
            keys = self.ring.arena[: len(queries), self.disk, :, 0]
            return (~np.isnan(keys)).sum(1).tolist(), tally

    def stop(self):
        self.ask(np.zeros((0, self.ring.queries.shape[1])), 0)
        self.thread.join(timeout=30.0)
        assert not self.thread.is_alive()


class _ThreadCtx:
    """What a :class:`_Ring` allocates with, for threads: numpy buffers
    and ``threading`` primitives."""

    Lock, Semaphore = threading.Lock, threading.Semaphore

    @staticmethod
    def Array(typecode, size, lock):
        return np.zeros(size)


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
            for size in (1, 3, 1):
                found, (owed, gathered, device, slept) = worker.ask(
                    np.full((size, 6), 0.5), 3
                )
                assert found == [3] * size
                assert 0 < gathered and 0 < owed and device == slept == 0
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


    def test_a_reset_keeps_a_served_engines_store(self):
        """A ``build_engine`` process engine owns a temporary store that
        only ``close()`` removes: after a killed worker and after a
        larger k (two internal resets) it answers bit for bit from the
        same files, and ``close()`` then removes them."""
        spec = WorkloadSpec(n=300, d=4, num_disks=2, engine="process")
        queries = np.random.default_rng(41).random((3, 4))
        engine = build_engine(spec)
        directory = engine.store.directory
        try:
            reference = PagedEngine(engine.store, cache=None)
            _assert_bit_identical(
                engine.query(queries[0], 3), reference.query(queries[0], 3)
            )
            engine._procs[1].kill()
            engine._procs[1].join(timeout=10.0)
            with pytest.raises(RuntimeError, match="did not reply"):
                engine.query(queries[0], 3)
            for k in (3, 40):
                for query in queries:
                    _assert_bit_identical(
                        engine.query(query, k), reference.query(query, k)
                    )
            assert directory.exists()
        finally:
            engine.close()
        assert not directory.exists()

    def test_close_with_a_bank_lock_held_by_a_killed_process(
        self, mmap_store, reference
    ):
        """A process SIGKILLed while it holds the ring's lock never
        releases it: ``close()`` gives up on the lock within a liveness
        slice and terminates the workers, and the engine answers the
        next query bit for bit."""
        query = np.full(6, 0.4)
        want = reference.query(query, 3)
        with ProcessParallelEngine(mmap_store) as engine:
            _assert_bit_identical(engine.query(query, 3), want)
            workers = list(engine._procs)
            _leave_the_lock_held(engine)
            started = time.monotonic()
            engine.close()
            assert time.monotonic() - started < 5.0
            assert not any(worker.is_alive() for worker in workers)
            _assert_bit_identical(engine.query(query, 3), want)

    def test_query_batch_with_the_lock_held_by_a_killed_process(
        self, mmap_store, reference
    ):
        """The coordinator waits for the ring's lock at most a liveness
        slice: a batch posted while a dead process holds it raises the
        dead-worker ``RuntimeError`` in about a slice (plus ``close()``'s
        own slice) instead of hanging, the engine is closed, and the
        next call respawns and answers bit for bit."""
        queries = np.random.default_rng(29).random((5, 6))
        want = [reference.query(query, 3) for query in queries]
        with ProcessParallelEngine(mmap_store) as engine:
            _assert_bit_identical(engine.query(queries[0], 3), want[0])
            workers = list(engine._procs)
            _leave_the_lock_held(engine)
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="likely died"):
                engine.query_batch(queries, 3)
            assert time.monotonic() - started < 2 * _LIVENESS_SLICE_S + 3.0
            assert engine._procs == [] and engine._ring is None
            assert not any(worker.is_alive() for worker in workers)
            batch = engine.query_batch(queries, 3)
            for result, expected in zip(batch.results, want):
                _assert_bit_identical(result, expected)


def _leave_the_lock_held(engine):
    """Have a helper process take the engine's ring lock and be
    SIGKILLed while it holds it."""
    held = engine._ctx.Event()
    holder = engine._ctx.Process(
        target=_hold_lock, args=(engine._ring.lock, held), daemon=True
    )
    holder.start()
    assert held.wait(timeout=60.0)
    os.kill(holder.pid, signal.SIGKILL)
    holder.join(timeout=10.0)


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


class TestSleptTime:
    """Each worker reports its device's time for a post — the simulated
    time of every block it gathered — and the time its store slept,
    measured around the sleeps: less than the device's, as the worker
    filters while its disk works, but the post takes at least the
    device's time.  Both are 0 without a service time."""

    def test_each_disk_slept_its_gathered_blocks(self, store_dir, mmap_store):
        disk_ms = 0.5
        queries = np.random.default_rng(9).random((5, 6))
        for disk in range(mmap_store.num_disks):
            # One block a page: the pages gathered are the blocks owed.
            assert (mmap_store.disk_table(disk)[4] == 1).all()
            worker = _ThreadWorker(
                store_dir, mmap_store, disk, disk_ms=disk_ms
            )
            try:
                for post in (queries[:1], queries):
                    started = time.perf_counter()
                    _, (_, gathered, device, slept) = worker.ask(post, 3)
                    wall_ms = (time.perf_counter() - started) * 1e3
                    assert gathered > 0
                    assert device == disk_ms * gathered
                    assert 0 < slept <= wall_ms and wall_ms >= device
            finally:
                worker.stop()

    @pytest.mark.parametrize("disk_ms", [0.0, 0.5])
    def test_the_engine_reports_slept_ms_per_disk(self, store_dir, disk_ms):
        queries = np.random.default_rng(11).random((5, 6))
        with MmapStore(store_dir, simulated_disk_ms=disk_ms) as store:
            with ProcessParallelEngine(store) as engine:
                for run in (
                    lambda: engine.query(queries[0], 3),
                    lambda: engine.query_batch(queries, 3),
                ):
                    started = time.perf_counter()
                    run()
                    wall_ms = (time.perf_counter() - started) * 1e3
                    slept = engine.last_slept_ms
                    device = engine.last_device_ms
                    assert slept.shape == device.shape == (store.num_disks,)
                    if disk_ms:
                        gathered = engine.last_gathered_pages
                        assert device.sum() == disk_ms * gathered > 0
                        assert (slept > 0).all() and wall_ms >= device.max()
                    else:
                        assert not slept.any() and not device.any()


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


def _cpu_s(pid):
    """utime + stime of process ``pid`` so far, in seconds."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _status(pid, field):
    """Field ``field`` of ``/proc/<pid>/status``, as text."""
    with open(f"/proc/{pid}/status") as status:
        return next(
            line.split(":", 1)[1].strip() for line in status
            if line.startswith(field + ":")
        )


def _gone(pid):
    """Whether process ``pid`` has exited (gone, or a zombie)."""
    try:
        return _status(pid, "State").startswith("Z")
    except FileNotFoundError:
        return True


@pytest.fixture(scope="module")
def imports_s():
    """CPU seconds a fresh interpreter takes to import what the fork
    server preloads."""
    fresh = subprocess.run(
        [
            sys.executable, "-c",
            f"import os, {', '.join(_PRELOAD)}; print(sum(os.times()[:2]))",
        ],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(fresh.stdout)


class TestForkServer:
    """Workers are forked from a fork server that imported numpy and the
    engine once, so a start after the server's own, a respawn and a
    recovery cost a fork; no process outlives the coordinator."""

    def test_started_and_respawned_workers_import_nothing(
        self, mmap_store, imports_s
    ):
        """By the end of its first post a worker of a second engine, and
        one respawned for a wider k, has used under half the CPU time a
        fresh interpreter takes to import what the server preloads."""
        query = np.full(6, 0.5)
        with ProcessParallelEngine(mmap_store) as first:
            first.query(query, 1)  # the server is warm from here on
            with ProcessParallelEngine(mmap_store) as second:
                second.query(query, 1)
                started = [_cpu_s(proc.pid) for proc in second._procs]
                pids = [proc.pid for proc in second._procs]
                second.query(query, 5)  # a wider ring: a respawn
                assert [proc.pid for proc in second._procs] != pids
                respawned = [_cpu_s(proc.pid) for proc in second._procs]
        assert max(started + respawned) < imports_s / 2, (
            started, respawned, imports_s
        )

    def test_a_warm_servers_workers_run_blas_on_one_thread(
        self, mmap_store, monkeypatch
    ):
        """``test_workers_run_blas_on_one_thread`` for a second engine,
        whose workers the already running server forks."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        query = np.full(6, 0.5)
        with ProcessParallelEngine(mmap_store) as first:
            first.query(query, 1)
            with ProcessParallelEngine(mmap_store) as second:
                second.query(query, 1)
                assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
                for proc in second._procs:
                    with open(f"/proc/{proc.pid}/environ", "rb") as environ:
                        variables = environ.read().split(b"\0")
                    assert b"OPENBLAS_NUM_THREADS=1" in variables
                    assert _status(proc.pid, "Threads") == "1"

    @pytest.mark.parametrize("ending", ["close", "exit"])
    def test_no_process_outlives_the_script(
        self, store_dir, tmp_path, imports_s, ending
    ):
        """A script that closes its engine, and one that exits with it
        open, end under ``-W error`` with neither the fork server nor a
        worker left: checked the moment the script's own process exits
        (its output goes to files, so ``run`` waits for nothing else).
        The script finds ``repro`` on ``sys.path`` only, not on
        ``PYTHONPATH``, and its respawned workers still import nothing."""
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out, err = tmp_path / "out", tmp_path / "err"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            done = subprocess.run(
                [
                    sys.executable, "-W", "error", "-c", _EXIT_SCRIPT,
                    package_root, os.fspath(store_dir), ending,
                ],
                stdout=stdout, stderr=stderr, env=env, timeout=120,
            )
        pid_line, cpu_line, _ = out.read_text().split("\n")
        pids = [int(pid) for pid in pid_line.split()]
        assert [pid for pid in pids if not _gone(pid)] == []
        assert done.returncode == 0, err.read_text()
        assert err.read_text() == ""
        assert len(pids) == 1 + 4
        cpu = [float(seconds) for seconds in cpu_line.split()]
        assert max(cpu) < imports_s / 2, (cpu, imports_s)

    def test_another_forked_child_does_not_hold_up_the_exit(self, store_dir):
        """A script that leaves a daemon child of its own on the fork
        server exits at once: the engine's exit hook stops its workers
        but leaves the server, which that child keeps alive, to
        multiprocessing's own hook (which terminates the child)."""
        started = time.monotonic()
        done = _run_script(_OTHER_CHILD_SCRIPT, store_dir, "-W", "error")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert time.monotonic() - started < 30.0


_OTHER_CHILD_SCRIPT = """
import multiprocessing, sys, time
import numpy as np
from repro.parallel.process import ProcessParallelEngine
from repro.storage import MmapStore

with MmapStore(sys.argv[1]) as store:
    engine = ProcessParallelEngine(store)
    engine.query(np.full(6, 0.5), 1)
    other = multiprocessing.get_context("forkserver").Process(
        target=time.sleep, args=(600,), daemon=True
    )
    other.start()
"""


_EXIT_SCRIPT = """
import multiprocessing.forkserver, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from repro.parallel.process import ProcessParallelEngine
from repro.storage import MmapStore

def cpu_s(pid):
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

with MmapStore(sys.argv[2]) as store:
    engine = ProcessParallelEngine(store)
    engine.query(np.full(6, 0.5), 1)
    engine.query(np.full(6, 0.5), 3)  # a respawn
    server = multiprocessing.forkserver._forkserver._forkserver_pid
    print(server, *(proc.pid for proc in engine._procs))
    print(*(cpu_s(proc.pid) for proc in engine._procs), flush=True)
    if sys.argv[3] == "close":
        engine.close()
"""


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


def _scan_post(store, queries, k, sources=None):
    """Each disk's ``_scan`` of ``queries`` as one post, in turn, over
    shared bound rows (a serial run of what the workers do; page sources
    fresh unless given), deposited on a ring of numpy buffers and reduced
    there as the coordinator does: ``(ring, scans, (top, counts,
    computations))``, ``scans`` each disk's ``_scan`` result."""
    if sources is None:
        sources = [_DiskPages(store, disk) for disk in range(store.num_disks)]
    ring = _Ring(_ThreadCtx, store, max(1, min(k, len(store))))
    assert ring.post(1, queries, k)
    scans = []
    for disk, source in enumerate(sources):
        _, _, mine, view = ring.read()
        scans.append(_scan(source, mine, k, view, ring.lock))
        found, ledger, tally = scans[-1]
        ring.deposit(disk, 1, found, ledger, tally + (0.0,))
    return ring, scans, ring.reduce(1, len(queries), k)[0]


def _merged(top, query):
    """``(keys, oids, points)`` of a reduced query's real (non-NaN) rows."""
    rows = top[query][~np.isnan(top[query, :, 0])]
    return rows[:, 0], rows[:, 1].view(np.int64), rows[:, 2:]


def _post_outcomes(store, queries, k, sources=None):
    """:func:`_scan_post` per query: ``(keys, oids, points, charged
    pages per disk, distance computations, B*)``."""
    _, _, (top, counts, computations) = _scan_post(store, queries, k, sources)
    outcomes = []
    for query in range(len(queries)):
        keys, oids, points = _merged(top, query)
        bound = float(keys[-1]) if len(keys) == k else math.inf
        outcomes.append(
            (keys, oids, points, counts[query], computations[query], bound)
        )
    return outcomes


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
        # Even beyond-N and at-N values of k.
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
    """The per-worker page ledgers, deposited on the ring and cut there at
    B* (:func:`_charge`), reproduce the directory sweep (and
    ``PagedEngine``) exactly."""

    @settings(max_examples=40, deadline=None)
    @given(case=_ledger_cases())
    def test_ledger_counts_equal_directory_sweep(self, case):
        """Per call and both queries in one post; the shared rows end at
        B*."""
        k, queries = case["k"], case["queries"]
        with tempfile.TemporaryDirectory() as scratch:
            save_paged_store(_case_store(case), os.path.join(scratch, "store"))
            with MmapStore(os.path.join(scratch, "store")) as store:
                reference = PagedEngine(store, cache=None)
                for post in [queries[:1], queries[1:], queries]:
                    ring, _, (top, counts, computations) = _scan_post(
                        store, post, k
                    )
                    for row, query in enumerate(post):
                        keys = _merged(top, row)[0]
                        bound = float(keys[-1]) if len(keys) == k else math.inf
                        # Every disk shares each key it keeps, so after
                        # the last disk the shared row's k-th key is B*
                        # (a row narrower than k takes none: +inf).
                        assert ring.bounds[row, -1] == bound
                        swept, swept_computations = _sweep_counts(
                            store, query, bound
                        )
                        assert np.array_equal(counts[row], swept)
                        assert computations[row] == swept_computations
                        mindists = _page_mindists(store, query)[0]
                        inside = mindists[mindists <= bound]
                        # The sweep comparison needs no boundary-tie
                        # exemption: it is the same arithmetic.
                        if not _boundary_tie(mindists, bound):
                            want = reference.query(query, k)
                            assert np.array_equal(
                                counts[row], want.pages_per_disk
                            )
                            assert (
                                computations[row]
                                == want.distance_computations
                            )
                        # A bound that ties a page's mindist exactly: the
                        # nearest and the farthest charged page's.
                        ties = {inside.min(), inside.max()} if len(inside) else ()
                        for tie in ties:
                            tied, tied_computations = _charge(
                                ring.ledgers[row : row + 1], ring.weights,
                                np.array([tie]),
                            )
                            assert tied.sum() > 0
                            swept, swept_computations = _sweep_counts(
                                store, query, tie
                            )
                            assert np.array_equal(tied[0], swept)
                            assert tied_computations[0] == swept_computations

    @pytest.mark.parametrize("k", [3, 10])
    def test_every_disk_shares_the_keys_it_keeps(self, mmap_store, k):
        """A disk whose few candidates all beat the shared bound still
        publishes them: after a serial post over four disks (and per
        call) every shared row's k-th key is B*, so no racing worker
        reads past B* for want of a key another disk holds."""
        queries = np.random.default_rng(4).random((16, 6))
        for post in (queries, *(query[None] for query in queries)):
            ring, _, (top, _, _) = _scan_post(mmap_store, post, k)
            assert (ring.bounds[: len(post), -1] == top[:, k - 1, 0]).all()

    def test_single_leaf_root(self, tmp_path):
        store = PagedStore(
            points=np.random.default_rng(2).random((20, 3)),
            declusterer=NearOptimalDeclusterer(3, 2),
        )
        save_paged_store(store, tmp_path / "leaf")
        with MmapStore(tmp_path / "leaf") as tiny:
            assert tiny.tree.root.is_leaf
            query = np.full(3, 0.5)
            _, _, _, counts, computations, bound = _post_outcomes(
                tiny, query[None], 4
            )[0]
            assert (counts.sum(), computations) == (1, 20)
            assert np.array_equal(counts, _sweep_counts(tiny, query, bound)[0])


class TestCut:
    """The coordinator's cut of a deposited post, on a ring of numpy
    buffers: B* is the k-th merged key, and a page is charged when its
    ``mindist`` is at most B* — ties included — and not when it is NaN
    (not owed) or one ulp past B*."""

    def test_a_page_at_exactly_b_star_is_charged(self, mmap_store):
        store, k = mmap_store, 3
        ring = _Ring(_ThreadCtx, store, k)
        ring.post(7, np.full((1, 6), 0.5), k)
        blocks, entries = ring.weights[..., 0], ring.weights[..., 1]

        def cell(*rows):
            """Candidate rows ``(key, oid)`` of query 0, points zero."""
            found = np.zeros((len(rows), 8))
            found[:, 0] = [key for key, _ in rows]
            found[:, 1] = np.array([oid for _, oid in rows]).view(np.float64)
            return found, np.zeros(len(rows), int), np.arange(len(rows))

        ledgers = [np.full((1, int(n)), np.nan) for n in store.disk_loads()]
        # B* = 1.0, the third key; disk 0's second page and disk 1's
        # fourth sit exactly on it, disk 0's third one ulp past it.
        ledgers[0][0, :3] = 0.0, 1.0, np.nextafter(1.0, 2.0)
        ledgers[1][0, 3] = 1.0
        found = [cell((0.25, 11), (1.0, 12)), cell((0.5, 13), (4.0, 14))]
        found += [cell(), cell()]
        for disk in range(store.num_disks):
            ring.deposit(disk, 7, found[disk], ledgers[disk], (5, 2, 0.0, 0.0))
        (top, counts, computations), tallies = ring.reduce(7, 1, k)
        assert top[0, :, 0].tolist() == [0.25, 0.5, 1.0]
        assert top[0, :, 1].view(np.int64).tolist() == [11, 13, 12]
        want = [blocks[0, :2].sum(), blocks[1, 3], 0, 0]
        assert counts[0].tolist() == want
        assert computations[0] == entries[0, :2].sum() + entries[1, 3]
        assert tallies == [[7, 5, 2, 0.0, 0.0]] * store.num_disks

    def test_fewer_than_k_candidates_charge_every_owed_page(self, mmap_store):
        """Three candidates in all for k = 4: B* is +inf, so every page
        in a ledger is charged, and none outside one."""
        store, k = mmap_store, 4
        ring = _Ring(_ThreadCtx, store, k)
        ring.post(1, np.full((1, 6), 0.5), k)
        rows = np.zeros((3, 8))
        rows[:, 0] = 1.0, 2.0, 3.0
        found = rows, np.zeros(3, int), np.arange(3)
        empty = np.zeros((0, 8)), np.zeros(0, int), np.zeros(0, int)
        for disk, pages in enumerate(store.disk_loads()):
            ledger = np.full((1, int(pages)), np.nan)
            ledger[0, ::2] = 1e300
            ring.deposit(
                disk, 1, empty if disk else found, ledger, (0, 0, 0.0, 0.0)
            )
        (top, counts, computations), _ = ring.reduce(1, 1, k)
        assert np.isnan(top[0, 3, 0]) and top[0, :3, 0].tolist() == [1, 2, 3]
        blocks, entries = ring.weights[..., 0], ring.weights[..., 1]
        assert counts[0].tolist() == blocks[:, ::2].sum(1).tolist()
        assert computations[0] == entries[:, ::2].sum()


#: One disk of ~300 six-point pages (192 bytes hold four entries at
#: d = 5, the trees' smallest leaf) and k > N: a full scan, whose chunks
#: reach every cap the cap test sets.
_LONG_SCAN = {
    "points": np.random.default_rng(0).random((1800, 3)),
    "num_disks": 2, "supernodes": True, "emptied": "some", "idle_disk": True,
    "queries": np.full((2, 3), 0.5), "k": 3600, "page_bytes": 192,
}


class TestChunkCapIndependence:
    """``_MAX_CHUNK_PAGES`` and the chunk start rule decide how far a
    worker reads ahead of its bound, never what it finds within B* or
    what is charged."""

    @settings(max_examples=25, deadline=None)
    @given(
        case=_ledger_cases(duplicates=False, most=1200, page_bytes=192),
        serial=st.sampled_from((0, 1)),
        disk_ms=st.sampled_from((0.0, 1.0)),
    )
    @example(case=_LONG_SCAN, serial=0, disk_ms=0.0)
    @example(case=_LONG_SCAN, serial=1, disk_ms=0.0)
    @example(case=_LONG_SCAN, serial=0, disk_ms=1.0)
    @example(case=_LONG_SCAN, serial=1, disk_ms=1.0)
    def test_any_cap_gives_the_same_candidates_and_counts(
        self, case, serial, disk_ms
    ):
        """Caps 1, 2, 32, 128 and one above every disk's page count, per
        call (0) or two queries in one post (1), on stores of up to
        hundreds of 192-byte pages a disk, with no service time (chunks
        start at the cap) or 1 ms a page (paced on the device clock,
        where the cap plays no part; the sleep is patched out): every disk's
        candidates within B*, the merged top-k and the cut (``_charge``) at
        B* are identical, and equal ``PagedEngine``'s."""
        k = case["k"]
        with tempfile.TemporaryDirectory() as scratch, \
                pytest.MonkeyPatch.context() as asleep:
            asleep.setattr(
                "repro.storage.mmap_store.time.sleep", lambda _: None
            )
            save_paged_store(_case_store(case), os.path.join(scratch, "store"))
            path = os.path.join(scratch, "store")
            with MmapStore(path, simulated_disk_ms=disk_ms) as store:
                seen = []
                widest = int(store.disk_loads().max())
                for cap in (1, 2, 32, 128, widest + 1):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(
                            "repro.parallel.process._MAX_CHUNK_PAGES", cap
                        )
                        seen.append(
                            _cap_outcomes(store, case["queries"], k, serial)
                        )
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


def _cap_outcomes(store, queries, k, batched):
    """What serial scans of ``queries`` (one post each, or one post for
    all when ``batched``) must give at any chunk cap, per query by name:
    per disk the keys, oids and points found within B*, the merged
    top-k, the charged counts and the distance computations."""
    sources = [_DiskPages(store, disk) for disk in range(store.num_disks)]
    posts = [queries] if batched else [query[None] for query in queries]
    outcomes = []
    for post in posts:
        _, scans, (top, counts, computations) = _scan_post(
            store, post, k, sources
        )
        for query in range(len(post)):
            merged = _merged(top, query)
            bound = float(merged[0][-1]) if len(merged[0]) == k else math.inf
            outcome = {}
            for disk, ((rows, owner, _), _, _) in enumerate(scans):
                mine = rows[owner == query]
                inside = mine[:, 0] <= bound
                columns = mine[:, 0], mine[:, 1].view(np.int64), mine[:, 2:]
                for name, column in zip(("keys", "oids", "points"), columns):
                    outcome[f"disk {disk} {name}"] = column[inside]
            for name, column in zip(("keys", "oids", "points"), merged):
                outcome[f"merged {name}"] = column
            outcome["counts"] = counts[query]
            outcome["computations"] = computations[query]
            outcomes.append(outcome)
    return outcomes


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
                # The engine stopped: no worker and no ring is left.
                assert engine._procs == []
                assert engine._ring is None
                # The engine recovers once spawning works again.
                engine._ctx = real_ctx
                result = engine.query(np.full(6, 0.5), 2)
                assert len(result.neighbors) == 2
            finally:
                engine._ctx = real_ctx
                engine.close()


class TestCapacity:
    def test_one_respawn_per_new_largest_k(self, tmp_path):
        """The ring is as wide as the largest k asked, at most N: a new
        largest k respawns the workers once, a smaller k or one past N
        reuses them, and every answer matches ``PagedEngine``."""
        rng = np.random.default_rng(37)
        paged = PagedStore(
            points=rng.random((150, 4)),
            declusterer=NearOptimalDeclusterer(4, 2),
        )
        save_paged_store(paged, tmp_path / "store")
        # A batch of 17 is a post of 16 and a post of one.
        queries = rng.random((_MAX_BATCH + 1, 4))
        n = len(paged)
        steps = [
            # (k, respawns, capacity)
            (1, 0, 1), (10, 1, 10), (100, 1, 100), (10, 0, 100),
            (n - 1, 1, n - 1), (n, 1, n), (n + 1, 0, n), (2 * n, 0, n),
        ]
        with MmapStore(tmp_path / "store") as store:
            reference = PagedEngine(store, cache=None)
            with ProcessParallelEngine(store) as engine:
                pids = None
                for k, respawns, capacity in steps:
                    want = [reference.query(query, k) for query in queries]
                    _assert_bit_identical(engine.query(queries[0], k), want[0])
                    now = [proc.pid for proc in engine._procs]
                    assert (pids is not None and now != pids) == respawns
                    assert engine._ring.capacity == capacity
                    batch = engine.query_batch(queries, k)
                    for result, expected in zip(batch.results, want):
                        _assert_bit_identical(result, expected)
                    assert [proc.pid for proc in engine._procs] == now
                    pids = now


class TestArgumentValidation:
    def test_in_memory_store_is_rejected(self, small_uniform):
        store = PagedStore(
            points=small_uniform,
            declusterer=NearOptimalDeclusterer(6, 4),
        )
        with pytest.raises(TypeError, match="out-of-core"):
            ProcessParallelEngine(store)

    def test_repr_names_the_store(self, engine):
        assert "ProcessParallelEngine" in repr(engine)

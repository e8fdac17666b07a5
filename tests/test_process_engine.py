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
    _LIVENESS_SLICE_S,
    _MAX_BATCH,
    ProcessParallelEngine,
    _DiskPages,
    _exact_counts,
    _Filter,
    _scan,
    _top_k,
    _worker_main,
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
    """Store facade over ``read_pages``: ``fetched`` lists the table rows
    of every gather (``page_rows`` owes no service time), ``owed_blocks``
    their blocks."""

    def __init__(self, inner):
        self._inner = inner
        self.disk_table = inner.disk_table
        self.page_rows = inner.page_rows
        self.dimension = inner.dimension
        self.fetched = []
        self.owed_blocks = 0

    def read_pages(self, disk, pages):
        self.fetched.extend(int(page) for page in pages)
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
    """Simulated service time: once per gathered page per post, so once
    per page per batch and on every gather per call — supernodes and
    large disks included."""

    @pytest.mark.parametrize("serial", [0, 1])
    def test_service_time_once_per_page_per_batch_scope(
        self, tmp_path, monkeypatch, serial
    ):
        """Six overlapping kNN scans per disk, per call (0) or as one
        post (1): a post gathers each page at most once and every
        gathered page owes its ``blocks`` exactly once, so in one post
        every distinct page owes them once and per call every gather
        owes them.  Supernode pages (three blocks) follow the same rule,
        and opening the page source owes nothing."""
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
                    _, _, gathered = _scan(
                        source, np.array(post), 8,
                        np.full((len(post), 8), np.inf), threading.Lock(),
                    )
                    pages = counting.fetched[before:]
                    assert gathered == len(pages) == len(set(pages))
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
                for candidates, ledgers, bound in _scan_post(store, post, 6):
                    merged = _top_k(candidates, 6)
                    found.append((merged, _exact_counts(ledgers, bound)))
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
                (keys, oids, points), (counts, computations) = got
                assert keys.tobytes() == want[0][0].tobytes()
                assert oids.tobytes() == want[0][1].tobytes()
                assert points.tobytes() == want[0][2].tobytes()
                assert np.array_equal(counts, want[1][0])
                assert computations == want[1][1]
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
            assert engine._procs == [] and engine._board is None
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
    """``_worker_main`` for one disk on a thread, over plain arrays and
    ``threading`` primitives instead of the engine's shared ring."""

    def __init__(self, store_dir, store, disk, max_k=4):
        self.max_k, self.disk = max_k, disk
        self.num_disks = store.num_disks
        self.dimension = store.dimension
        cells = _MAX_BATCH * self.num_disks
        max_pages = int(store.disk_loads().max())
        self.board = np.zeros(3 + _MAX_BATCH * store.dimension)
        self.bounds = np.zeros(_MAX_BATCH * max_k)
        arena = np.zeros(cells * max_k * (2 + store.dimension))
        self.tallies = np.zeros(cells * 4)
        ledgers = np.zeros(cells * 3 * max_pages)
        self.lock = threading.Lock()
        self.go = threading.Semaphore(0)
        self.done = threading.Semaphore(0)
        self.posts = 0
        self.thread = threading.Thread(
            target=_worker_main,
            args=(
                os.fspath(store_dir), disk, 0.0, max_k, self.board,
                self.bounds, arena, self.tallies, ledgers, self.lock,
                self.go, self.done,
            ),
            daemon=True,
        )
        self.thread.start()

    def ask(self, queries, k):
        """Post ``(Q, d)`` queries (``k = 0``: stop) and wait for the
        deposit; returns per query the tally ``(candidates, ledger
        pages, pages gathered)``."""
        self.posts += 1
        with self.lock:
            self.bounds[: len(queries) * self.max_k] = np.inf
            self.board[:3] = self.posts, k, len(queries)
            self.board[3 : 3 + queries.size] = queries.ravel()
        self.go.release()
        if not k:
            return None
        assert self.done.acquire(timeout=30.0)
        tallies = []
        with self.lock:
            for query in range(len(queries)):
                cell = query * self.num_disks + self.disk
                echo, *tally = self.tallies[cell * 4 : (cell + 1) * 4]
                assert echo == self.posts
                tallies.append(tuple(int(x) for x in tally))
        return tallies

    def stop(self):
        self.ask(np.zeros((0, self.dimension)), 0)
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
            for size in (1, 3, 1):
                tallies = worker.ask(np.full((size, 6), 0.5), 3)
                for count, pages, gathered in tallies:
                    assert count == 3 and 0 < gathered and 0 < pages
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
            assert engine._procs == [] and engine._lock is None
            assert not any(worker.is_alive() for worker in workers)
            batch = engine.query_batch(queries, 3)
            for result, expected in zip(batch.results, want):
                _assert_bit_identical(result, expected)


def _leave_the_lock_held(engine):
    """Have a helper process take the engine's ring lock and be
    SIGKILLed while it holds it."""
    held = engine._ctx.Event()
    holder = engine._ctx.Process(
        target=_hold_lock, args=(engine._lock, held), daemon=True
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


def _scan_post(store, queries, k, sources=None):
    """Each disk's ``_scan`` of ``queries`` as one post, in turn, over
    shared bound rows (a serial run of what the workers do; page sources
    fresh unless given), then the coordinator's merge: per query
    ``(candidates per disk, ledgers per disk, B*)``."""
    if sources is None:
        sources = [_DiskPages(store, disk) for disk in range(store.num_disks)]
    view = np.full((len(queries), k), np.inf)
    lock = threading.Lock()
    scans = [_scan(source, queries, k, view, lock) for source in sources]
    outcomes = []
    for query in range(len(queries)):
        found = [candidates[query] for candidates, _, _ in scans]
        ledgers = [pages[query] for _, pages, _ in scans]
        keys = _top_k(found, k)[0]
        bound = float(keys[-1]) if len(keys) == k else math.inf
        outcomes.append((found, ledgers, bound))
    return outcomes


def _ledgers_and_bound(store, query, k, sources=None):
    """:func:`_scan_post` of one query: ``(candidates per disk, ledgers,
    B*)``."""
    return _scan_post(store, np.asarray(query)[None], k, sources)[0]


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
        call (0) or two queries in one post (1), on stores of up to
        hundreds of 192-byte pages a disk: every disk's candidates
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
    if batched:
        scans = _scan_post(store, queries, k, sources)
    else:
        scans = [_ledgers_and_bound(store, q, k, sources) for q in queries]
    outcomes = []
    for found, ledgers, bound in scans:
        outcome = {}
        for disk, candidates in enumerate(found):
            inside = candidates[0] <= bound
            for name, column in zip(("keys", "oids", "points"), candidates):
                outcome[f"disk {disk} {name}"] = column[inside]
        for name, column in zip(("keys", "oids", "points"), _top_k(found, k)):
            outcome[f"merged {name}"] = column
        outcome["counts"], outcome["computations"] = _exact_counts(
            ledgers, bound
        )
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
                # close() ran: partial worker/queue state is fully reset.
                assert engine._procs == []
                assert engine._go == []
                assert engine._board is None
                assert engine._bounds is None
                assert engine._lock is None
                assert engine._arena is None
                assert engine._done is None
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

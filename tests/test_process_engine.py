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

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.parallel.cache import CacheConfig
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.process import ProcessParallelEngine, _BatchPageMemo
from repro.storage import MmapStore, save_mmap_store
from repro.storage.pagefile import split_rows


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    rng = np.random.default_rng(42)
    store = PagedStore(
        points=rng.random((600, 6)),
        declusterer=NearOptimalDeclusterer(6, 4),
    )
    directory = tmp_path_factory.mktemp("process") / "store"
    save_mmap_store(store, directory)
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

    def test_scalar_kernel_parity(self, engine, reference, monkeypatch):
        """REPRO_SCALAR_KERNELS=1 switches the reference engine to its
        scalar twin; the workers' page-major scan has none, and must
        keep matching it bit for bit."""
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        rng = np.random.default_rng(13)
        for query in rng.random((4, 6)):
            _assert_bit_identical(
                engine.query(query, 6), reference.query(query, 6)
            )

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
        save_mmap_store(store, directory)
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
    save_mmap_store(paged_store, directory)
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
    """Store facade that counts the pages ``read_pages`` passes through."""

    def __init__(self, inner):
        self._inner = inner
        self.disk_table = inner.disk_table
        self.pages_read = 0

    def read_pages(self, disk, pages):
        self.pages_read += len(pages)
        return self._inner.read_pages(disk, pages)


class TestBatchPageMemo:
    """The batch-scoped page memo behind ``query_batch``'s worker loop."""

    def _assert_payloads(self, mmap_store, disk, pages, rows, counts):
        """Memo rows decode to exactly ``MmapStore.read_page``."""
        leaves = [
            leaf for leaf in mmap_store.leaves
            if mmap_store.disk_of(leaf) == disk
        ]
        dimension = mmap_store.tree.dimension
        for row, count, page in zip(rows, counts, pages):
            points, oids = split_rows(row[None], int(count), dimension)
            want_points, want_oids = mmap_store.read_page(leaves[page])
            assert np.array_equal(points, want_points)
            assert np.array_equal(oids, want_oids)

    def test_repeat_visits_served_from_memo(self, mmap_store):
        counting = _CountingStore(mmap_store)
        memo = _BatchPageMemo(counting, 1)
        first = memo.read_pages(np.array([2, 0]))
        assert counting.pages_read == 2
        # A step mixing held and new pages fetches only the new one.
        second = memo.read_pages(np.array([0, 3, 2]))
        assert counting.pages_read == 3
        third = memo.read_pages(np.array([3, 0]))
        assert counting.pages_read == 3
        assert np.array_equal(first[0], second[0][[2, 0]])
        assert np.array_equal(second[0][[1, 0]], third[0])
        self._assert_payloads(mmap_store, 1, [0, 3, 2], *second)

    def test_cap_disables_insertion_not_reads(self, mmap_store, monkeypatch):
        monkeypatch.setattr(_BatchPageMemo, "_CAP", 1)
        counting = _CountingStore(mmap_store)
        memo = _BatchPageMemo(counting, 0)
        memo.read_pages(np.array([0]))
        memo.read_pages(np.array([1]))
        memo.read_pages(np.array([1]))  # over cap: read-through every time
        memo.read_pages(np.array([0]))  # still memoized
        assert counting.pages_read == 3
        # A step straddling the cap comes back in request order.
        rows, counts = memo.read_pages(np.array([1, 0, 2]))
        assert counting.pages_read == 5
        self._assert_payloads(mmap_store, 0, [1, 0, 2], rows, counts)


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
                assert engine._tasks == []
                assert engine._replies is None
                assert engine._shared is None
                assert engine._locks == []
                assert engine._arena is None
                assert engine._gates == []
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

    def test_cache_is_rejected(self, mmap_store):
        with pytest.raises(ValueError, match="cacheless"):
            ProcessParallelEngine(
                mmap_store, cache=CacheConfig(capacity_pages=16)
            )

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

"""Oracle tests: vectorized traversal kernels vs. their scalar loops.

The contract of :mod:`repro.index.kernels` is *bit-for-bit* equivalence:
across seeded dimensions, k values, engines, and execution modes, a run
as shipped and a run under ``tests.scalar_oracle.scalar_kernels()``
(every kernel swapped for its per-entry loop) must agree exactly on
neighbors, ``SearchStats``, per-disk page counts, and cache stats — no
float-tolerance waivers on any counter.  Both runs share the one
best-first loop of ``repro.index.knn``, so :func:`textbook_hs95` — its
own heap, a per-child ``mindist`` test, a per-entry offer — referees
visit order and ``SearchStats`` independently, on uniform data and on an
integer lattice where equal keys and ``mindist == bound`` do occur.
Also pinned: the lazily cached per-node arrays surviving tree mutation.
"""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import RoundRobinDeclusterer
from repro.index import kernels
from repro.index.knn import (
    SearchStats,
    _CandidateSet,
    knn_best_first,
    knn_branch_and_bound,
    knn_linear_scan,
    pages_intersecting_radius,
)
from repro.index.metrics import Euclidean, LpMetric, WeightedEuclidean
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.process import ProcessParallelEngine
from repro.parallel.store import DeclusteredStore
from repro.storage import MmapStore, save_paged_store
from tests.scalar_oracle import scalar_kernels

DIMENSIONS = (2, 8, 16, 32)
KS = (1, 10, 20)

_TREES = {}
_STORES = {}


def _tree(dimension, tree_cls):
    """One tree per (dimension, class), shared across combos (queries
    never mutate it)."""
    key = (dimension, tree_cls)
    if key not in _TREES:
        rng = np.random.default_rng(17 * dimension)
        points = rng.random((350, dimension))
        tree = tree_cls(dimension=dimension)
        for oid, point in enumerate(points):
            tree.insert(point, oid)
        _TREES[key] = (points, tree)
    return _TREES[key]


def _stores(dimension):
    """One (DeclusteredStore, PagedStore) pair per dimension."""
    if dimension not in _STORES:
        rng = np.random.default_rng(29 * dimension)
        points = rng.random((400, dimension))
        declusterer = RoundRobinDeclusterer(dimension, 4)
        _STORES[dimension] = (
            points,
            DeclusteredStore(points, declusterer),
            PagedStore(points, declusterer=declusterer),
        )
    return _STORES[dimension]


def _assert_same_cache_stats(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.hits == b.hits
    assert a.misses == b.misses
    assert a.evictions == b.evictions
    assert np.array_equal(a.hits_per_disk, b.hits_per_disk)
    assert np.array_equal(a.misses_per_disk, b.misses_per_disk)


def _assert_same_parallel_result(vectorized, scalar):
    assert vectorized.neighbors == scalar.neighbors
    assert np.array_equal(
        vectorized.pages_per_disk, scalar.pages_per_disk
    )
    assert (
        vectorized.distance_computations == scalar.distance_computations
    )
    _assert_same_cache_stats(vectorized.cache_stats, scalar.cache_stats)


def textbook_hs95(roots, query, k, metric=Euclidean()):
    """HS 95 as the paper states it, over ``(tag, root)`` pairs.

    Returns the neighbors, the ``SearchStats`` and the visited
    ``(tag, node)`` pairs in order.
    """
    candidates, stats, visited = _CandidateSet(k), SearchStats(), []
    count = itertools.count()
    heap = [(0.0, next(count), tag, root) for tag, root in roots]
    while heap:
        mindist, _, tag, node = heapq.heappop(heap)
        if mindist > candidates.bound:
            break
        stats.record(node)
        visited.append((tag, node))
        for entry in node.entries:
            if node.is_leaf:
                key = metric.point_keys(entry.point[None], query)[0]
                stats.distance_computations += 1
                candidates.offer(float(key), entry.oid, entry.point)
                continue
            key = metric.mindist(entry.mbr, query)
            if key <= candidates.bound:
                heapq.heappush(heap, (key, next(count), tag, entry))
    return candidates.neighbors(metric), stats, visited


# ------------------------------------------------------- traversal level


@pytest.mark.parametrize(
    "dimension,k,tree_cls",
    list(itertools.product(DIMENSIONS, KS, (RStarTree, XTree))),
)
def test_knn_traversals_match_scalar_bit_for_bit(dimension, k, tree_cls):
    points, tree = _tree(dimension, tree_cls)
    rng = np.random.default_rng(1000 * dimension + k)
    for query in rng.random((3, dimension)):
        oracle = [n.oid for n in knn_linear_scan(points, query, k)]
        for search in (knn_best_first, knn_branch_and_bound):
            fast, fast_stats = search(tree, query, k)
            with scalar_kernels():
                slow, slow_stats = search(tree, query, k)
            assert fast == slow
            assert fast_stats == slow_stats  # every counter, exactly
            assert [n.oid for n in fast] == oracle
        radius = fast[-1].distance * 1.25 if fast else 0.5
        pages = pages_intersecting_radius(tree, query, radius)
        with scalar_kernels():
            assert pages == pages_intersecting_radius(tree, query, radius)
        order = []
        best, best_stats = knn_best_first(tree, query, k, on_node=order.append)
        book, book_stats, visited = textbook_hs95([(0, tree.root)], query, k)
        assert best == book
        assert best_stats == book_stats
        assert [id(node) for node in order] == [
            id(node) for _, node in visited
        ]


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_custom_metrics_match_scalar(dimension):
    _, tree = _tree(dimension, RStarTree)
    rng = np.random.default_rng(dimension)
    metrics = (
        WeightedEuclidean(rng.random(dimension) + 0.1),
        LpMetric(1.0),
        LpMetric(float("inf")),
    )
    for metric in metrics:
        for query in rng.random((2, dimension)):
            for search in (knn_best_first, knn_branch_and_bound):
                fast, fast_stats = search(tree, query, 5, metric=metric)
                with scalar_kernels():
                    slow, slow_stats = search(tree, query, 5, metric=metric)
                assert fast == slow
                assert fast_stats == slow_stats
            assert knn_best_first(tree, query, 5, metric=metric) == (
                textbook_hs95([(0, tree.root)], query, 5, metric)[:2]
            )


def test_minmaxdist_kernel_matches_scalar():
    _, tree = _tree(16, RStarTree)
    rng = np.random.default_rng(5)
    node = tree.root
    assert not node.is_leaf
    for query in rng.random((5, 16)):
        batched = kernels.child_minmaxdists(node, query)
        for value, child in zip(batched, node.entries):
            assert float(value) == child.mbr.minmaxdist(query)


def test_child_mindists_kernel_matches_scalar():
    _, tree = _tree(32, XTree)
    rng = np.random.default_rng(6)
    node = tree.root
    assert not node.is_leaf
    for query in rng.random((5, 32)):
        batched = kernels.child_mindists(node, query)
        for value, child in zip(batched, node.entries):
            assert float(value) == child.mbr.mindist(query)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 160),
    dimension=st.integers(1, 24),
    cuts=st.lists(st.integers(1, 159), max_size=8),
    misaligned=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_point_keys_of_a_block_match_per_page_calls(
    rows, dimension, cuts, misaligned, seed
):
    """The process workers score a whole frontier step — many pages
    concatenated — with one ``point_keys`` call; the in-process engines
    score page by page.  ``einsum("ij,ij->i")`` reduces each row on its
    own, so the keys must agree bit for bit wherever the block is cut
    and however its buffer is aligned."""
    rng = np.random.default_rng(seed)
    points = rng.random((rows, dimension))
    query = rng.random(dimension)
    block = points
    if misaligned:
        # Start the block one word into its buffer: off the 16-byte
        # boundary vector loads prefer.
        block = np.empty(points.size + 1)[1:].reshape(rows, dimension)
        block[:] = points
    metric = Euclidean()
    edges = sorted({0, rows, *(cut for cut in cuts if cut < rows)})
    per_page = [
        metric.point_keys(points[low:high].copy(), query)
        for low, high in zip(edges, edges[1:])
    ]
    assert (
        metric.point_keys(block, query).tobytes()
        == np.concatenate(per_page).tobytes()
    )


@settings(max_examples=80, deadline=None)
@given(
    counts=st.lists(st.integers(0, 24), min_size=1, max_size=12),
    slack=st.integers(0, 3),
    dimension=st.integers(1, 24),
    misaligned=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(counts=[0, 0], slack=0, dimension=3, misaligned=True, seed=0)
@example(counts=[0], slack=0, dimension=1, misaligned=False, seed=0)
def test_point_keys_of_a_padded_block_match_per_page_calls(
    counts, slack, dimension, misaligned, seed
):
    """The process workers refine rows of a gathered ``(n, W, d)`` page
    block, short pages padded with ``+inf`` points, through
    ``point_keys`` over its ``(n·W, d)`` rows.  That must give the real
    rows bit for bit as their pages score alone, every padding row must
    score ``inf`` (never ``nan``: it may not pass ``key < bound``), and a
    finite query must raise no floating-point flag on the way — for
    every ``W`` (0 included) and either buffer alignment."""
    rng = np.random.default_rng(seed)
    stride = max(counts) + slack
    pages = [rng.random((count, dimension)) * 4.0 - 2.0 for count in counts]
    query = rng.random(dimension) * 4.0 - 2.0
    shape = (len(pages), stride, dimension)
    size = len(pages) * stride * dimension

    def padded_block():
        # Optionally start one word into the buffer, off the 16-byte
        # boundary vector loads prefer.
        block = np.empty(size + 1)[int(misaligned):][:size].reshape(shape)
        block[:] = np.inf
        for row, page in zip(block, pages):
            row[: len(page)] = page
        return block

    metric = Euclidean()
    block = padded_block()
    with np.errstate(all="raise"):
        keys = metric.point_keys(block.reshape(-1, dimension), query)
    keys = keys.reshape(len(pages), stride)
    for row, page in zip(keys, pages):
        alone = metric.point_keys(page.copy(), query)
        assert row[: len(page)].tobytes() == alone.tobytes()
        assert np.isposinf(row[len(page):]).all()
        assert not (row[len(page):] < np.inf).any()


def test_offer_many_matches_sequential_offers():
    rng = np.random.default_rng(9)
    for k in (1, 4, 32):
        for trial in range(20):
            # Duplicate keys on purpose: ties must resolve identically.
            keys = rng.integers(0, 10, size=50).astype(float)
            oids, points = np.arange(len(keys)), rng.random((len(keys), 3))
            bulk = _CandidateSet(k)
            bulk.offer_many(keys, oids, points)
            one_by_one = _CandidateSet(k)
            for key, oid, point in zip(keys, oids, points):
                one_by_one.offer(float(key), int(oid), point)
            assert bulk.neighbors() == one_by_one.neighbors()
            assert bulk.bound == one_by_one.bound


def test_kernel_cache_survives_tree_mutation():
    rng = np.random.default_rng(13)
    dimension = 6
    points = rng.random((600, dimension))
    tree = RStarTree(dimension=dimension)
    for oid, point in enumerate(points[:400]):
        tree.insert(point, oid)
    query = rng.random(dimension)
    knn_best_first(tree, query, 5)  # populate caches
    for oid, point in enumerate(points[400:], start=400):
        tree.insert(point, oid)  # splits/extends must invalidate
    for oid in range(0, 120, 11):
        tree.delete(points[oid], oid)  # condensation too
    removed = set(range(0, 120, 11))
    alive = [oid for oid in range(len(points)) if oid not in removed]
    for query in rng.random((5, dimension)):
        fast, fast_stats = knn_best_first(tree, query, 8)
        with scalar_kernels():
            slow, slow_stats = knn_best_first(tree, query, 8)
        assert fast == slow
        assert fast_stats == slow_stats
        oracle = knn_linear_scan(
            points[alive], query, 8, oids=alive
        )
        assert [n.oid for n in fast] == [n.oid for n in oracle]


# --------------------------------------------------------- engine level


@pytest.mark.parametrize(
    "dimension,k,mode",
    list(
        itertools.product(
            DIMENSIONS, KS, ("coordinated", "independent")
        )
    ),
)
def test_parallel_engine_matches_scalar(dimension, k, mode):
    points, store, _ = _stores(dimension)
    rng = np.random.default_rng(77 * dimension + k)
    for cache in (None, 64):
        fast_engine = ParallelEngine(store, cache=cache)
        slow_engine = ParallelEngine(store, cache=cache)
        for query in rng.random((2, dimension)):
            fast = fast_engine.query(query, k, mode=mode)
            with scalar_kernels():
                slow = slow_engine.query(query, k, mode=mode)
            _assert_same_parallel_result(fast, slow)
            oracle = knn_linear_scan(points, query, k)
            assert [n.oid for n in fast.neighbors] == [
                n.oid for n in oracle
            ]


@pytest.mark.parametrize(
    "dimension,k", list(itertools.product(DIMENSIONS, KS))
)
def test_paged_and_sequential_engines_match_scalar(dimension, k):
    points, _, paged_store = _stores(dimension)
    rng = np.random.default_rng(88 * dimension + k)
    for cache in (None, 64):
        fast_paged = PagedEngine(paged_store, cache=cache)
        slow_paged = PagedEngine(paged_store, cache=cache)
        fast_seq = SequentialEngine(points, cache=cache)
        slow_seq = SequentialEngine(points, cache=cache)
        for query in rng.random((2, dimension)):
            paged = fast_paged.query(query, k)
            fast = fast_seq.query(query, k)
            with scalar_kernels():
                _assert_same_parallel_result(
                    paged, slow_paged.query(query, k)
                )
                slow = slow_seq.query(query, k)
            _assert_same_parallel_result(fast, slow)


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_window_query_matches_scalar(dimension):
    _, _, paged_store = _stores(dimension)
    rng = np.random.default_rng(dimension)
    for center in rng.random((4, dimension)):
        low = np.maximum(center - 0.3, 0.0)
        high = np.minimum(center + 0.3, 1.0)
        fast = PagedEngine(paged_store).window(low, high)
        with scalar_kernels():
            slow = PagedEngine(paged_store).window(low, high)
        assert [e.oid for e in fast.entries] == [
            e.oid for e in slow.entries
        ]
        assert np.array_equal(fast.pages_per_disk, slow.pages_per_disk)


# ----------------------------------------------------------------- ties


def _ranked(neighbors):
    return [(n.distance, n.oid) for n in neighbors]


def _facts(result):
    return (
        _ranked(result.neighbors),
        result.distance_computations,
        result.pages_per_disk.tolist(),
    )


def _referee(roots, query, k, disks=3, disk_of=lambda tag, leaf: tag):
    """The textbook's ``_facts``: leaf blocks charged to ``disk_of``."""
    neighbors, stats, visited = textbook_hs95(roots, query, k)
    pages = [0] * disks
    for tag, node in visited:
        if node.is_leaf:
            pages[disk_of(tag, node)] += node.blocks
    return (_ranked(neighbors), stats.distance_computations, pages), stats


@pytest.mark.parametrize("dimension", (2, 3))
def test_lattice_ties_match_textbook(dimension, tmp_path):
    """Points and queries on ``{0..5}^d`` with duplicates: equal keys,
    ``mindist == bound`` and full leaves of one distance all occur, so
    the cut ``mindist > bound`` (not ``>=``) and the strict ``offer``
    are each observable in ``SearchStats`` and the page counts."""
    rng = np.random.default_rng(41 * dimension)
    points = rng.integers(0, 6, size=(300, dimension)).astype(float)
    queries = rng.integers(0, 6, size=(6, dimension)).astype(float)
    declusterer = RoundRobinDeclusterer(dimension, 3)
    item = ParallelEngine(DeclusteredStore(points, declusterer))
    forest = list(enumerate(tree.root for tree in item.store.trees))
    sequential = SequentialEngine(points)
    paged_store = PagedStore(points, declusterer=declusterer)
    save_paged_store(paged_store, tmp_path / "store")
    with MmapStore(tmp_path / "store") as mmap_store, \
            ProcessParallelEngine(mmap_store) as process:
        for query, k in itertools.product(queries, (1, 5, 20)):
            scan = [n.distance for n in knn_linear_scan(points, query, k)]

            book, stats = _referee([(0, sequential.tree.root)], query, k, 1)
            assert [distance for distance, _ in book[0]] == scan
            best, best_stats = knn_best_first(sequential.tree, query, k)
            assert (_ranked(best), best_stats) == (book[0], stats)
            assert _facts(sequential.query(query, k)) == book

            book, _ = _referee(forest, query, k)
            assert _facts(item.query(query, k)) == book
            assert [distance for distance, _ in book[0]] == scan

            # Independent mode merges per-disk answers through a
            # sqrt/square round trip: distances to the last ulp only.
            result = item.query(query, k, mode="independent")
            assert [n.distance for n in result.neighbors] == pytest.approx(
                scan, rel=1e-12
            )
            local = [_referee([root], query, k)[0] for root in forest]
            assert _facts(result)[1:] == (
                sum(book[1] for book in local),
                np.sum([book[2] for book in local], 0).tolist(),
            )

            book, _ = _referee(
                [(-1, paged_store.tree.root)], query, k,
                disk_of=lambda tag, leaf: paged_store.disk_of(leaf),
            )
            assert _facts(PagedEngine(paged_store).query(query, k)) == book
            # The workers keep the smallest oids among candidates tied at
            # the k-th distance, the heap walk the first offered: same
            # distances and charges, not always the same tied oids.
            ranked, *charges = _facts(process.query(query, k))
            assert [distance for distance, _ in ranked] == scan
            assert charges == list(book[1:])

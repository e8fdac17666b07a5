"""Tests for STR bulk loading."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.index.bulk import _str_directory, bulk_load, str_chunks
from repro.index.knn import knn_best_first, knn_linear_scan
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from tests import directory_oracle


class TestStrChunks:
    def test_single_chunk(self, rng):
        points = rng.random((10, 3))
        chunks = str_chunks(points, 20)
        assert len(chunks) == 1
        assert sorted(chunks[0].tolist()) == list(range(10))

    def test_partition_is_exact(self, rng):
        points = rng.random((500, 4))
        chunks = str_chunks(points, 16)
        all_indices = np.concatenate(chunks)
        assert sorted(all_indices.tolist()) == list(range(500))

    def test_chunk_sizes_bounded(self, rng):
        points = rng.random((1000, 3))
        chunks = str_chunks(points, 25)
        for chunk in chunks:
            assert 1 <= len(chunk) <= 25
        # Near-equal splitting keeps chunks reasonably full.
        sizes = [len(c) for c in chunks]
        assert min(sizes) >= max(sizes) // 2

    def test_chunks_spatially_coherent(self, rng):
        """STR tiles have smaller MBRs than random groupings."""
        points = rng.random((900, 2))
        chunks = str_chunks(points, 30)

        def total_area(groups):
            area = 0.0
            for group in groups:
                box = points[group]
                area += np.prod(box.max(axis=0) - box.min(axis=0))
            return area

        random_groups = np.array_split(
            np.random.default_rng(0).permutation(900), len(chunks)
        )
        assert total_area(chunks) < total_area(random_groups) / 2

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            str_chunks(rng.random(5), 4)
        with pytest.raises(ValueError):
            str_chunks(rng.random((5, 2)), 0)


class TestBulkLoad:
    def test_empty(self):
        tree = bulk_load(np.zeros((0, 4)))
        assert len(tree) == 0

    def test_size_and_invariants(self, medium_uniform):
        tree = bulk_load(medium_uniform)
        assert len(tree) == len(medium_uniform)
        tree.check_invariants()

    def test_all_points_present(self, small_uniform):
        tree = bulk_load(small_uniform)
        oids = {entry.oid for entry in tree.all_entries()}
        assert oids == set(range(len(small_uniform)))

    def test_custom_oids(self, rng):
        points = rng.random((50, 3))
        oids = np.arange(1000, 1050)
        tree = bulk_load(points, oids=oids)
        assert {e.oid for e in tree.all_entries()} == set(oids.tolist())

    def test_oids_shape_validated(self, rng):
        with pytest.raises(ValueError):
            bulk_load(rng.random((50, 3)), oids=np.arange(10))

    def test_knn_equivalence(self, medium_uniform, rng):
        tree = bulk_load(medium_uniform)
        for query in rng.random((10, 8)):
            result, _ = knn_best_first(tree, query, 8)
            oracle = knn_linear_scan(medium_uniform, query, 8)
            assert result[-1].distance == pytest.approx(oracle[-1].distance)

    def test_rstar_class(self, small_uniform):
        tree = bulk_load(small_uniform, tree_cls=RStarTree)
        assert isinstance(tree, RStarTree)
        tree.check_invariants()

    def test_fill_validation(self, small_uniform):
        with pytest.raises(ValueError):
            bulk_load(small_uniform, fill=0.5)

    def test_bulk_tree_remains_updatable(self, rng):
        points = rng.random((400, 4))
        tree = bulk_load(points, tree_cls=XTree)
        tree.insert(rng.random(4), 400)
        assert tree.delete(points[3], 3)
        tree.check_invariants()
        assert len(tree) == 400

    def test_bulk_beats_insertion_in_pages(self, rng):
        """Packed trees need fewer pages than insertion-built ones."""
        points = rng.random((1500, 6))
        packed = bulk_load(points)
        dynamic = XTree(6)
        dynamic.extend(points)
        assert packed.num_pages() <= dynamic.num_pages()

    def test_higher_fill_fewer_pages(self, rng):
        points = rng.random((3000, 5))
        loose = bulk_load(points, fill=0.8)
        dense = bulk_load(points, fill=1.0)
        assert dense.num_pages() <= loose.num_pages()


def _preorder(node):
    """Every node of ``node``'s subtree, in pre-order."""
    yield node
    if not node.is_leaf:
        for child in node.entries:
            yield from _preorder(child)


def _tile_bounds(points, capacity):
    """STR tiles of ``points`` and their bounds, in tile order."""
    tiles = str_chunks(points, capacity) if len(points) else []
    shape = (-1, points.shape[1])
    low = np.array([points[tile].min(axis=0) for tile in tiles])
    high = np.array([points[tile].max(axis=0) for tile in tiles])
    return tiles, low.reshape(shape), high.reshape(shape)


_SHAPES = dict(
    n=st.integers(0, 700),
    d=st.integers(1, 5),
    fill=st.floats(0.8, 1.0),
    leaf_cap=st.integers(4, 40),
    dir_cap=st.integers(4, 16),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
)


def _drawn_points(n, d, seed, coarse):
    points = np.random.default_rng(seed).random((n, d))
    # Coarse grids tie many centers: the stable sorts must break them.
    return np.round(points, 1) if coarse else points


class TestDirectoryOracle:
    """``_str_directory`` builds, as flat arrays, exactly the directory
    the deleted node-by-node loop and its pre-order walk produced
    (``tests/directory_oracle.py``)."""

    @settings(max_examples=80, deadline=None)
    @given(**_SHAPES)
    @example(n=0, d=3, fill=0.85, leaf_cap=10, dir_cap=4, seed=0, coarse=False)
    @example(n=1, d=2, fill=0.85, leaf_cap=10, dir_cap=4, seed=0, coarse=False)
    @example(n=8, d=2, fill=1.0, leaf_cap=8, dir_cap=4, seed=1, coarse=False)
    @example(n=9, d=2, fill=1.0, leaf_cap=8, dir_cap=4, seed=1, coarse=True)
    @example(n=700, d=1, fill=0.8, leaf_cap=4, dir_cap=4, seed=2, coarse=True)
    def test_array_builder_matches_node_route(
        self, n, d, fill, leaf_cap, dir_cap, seed, coarse
    ):
        points = _drawn_points(n, d, seed, coarse)
        _, low, high = _tile_bounds(points, max(4, int(leaf_cap * fill)))
        target = max(4, int(dir_cap * fill))
        arrays, leaf_tiles = _str_directory(low, high, target)
        want, want_tiles, _ = directory_oracle.str_directory(low, high, target)
        for name, value in want.items():
            assert arrays[name].dtype == value.dtype, name
            assert np.array_equal(arrays[name], value), name
        for name in ("history_nodes", "history_axes"):
            assert arrays[name].dtype == np.int64 and not arrays[name].size
        assert leaf_tiles.tolist() == want_tiles.tolist()

    @settings(max_examples=25, deadline=None)
    @given(**_SHAPES)
    @example(n=1, d=2, fill=0.85, leaf_cap=10, dir_cap=4, seed=0, coarse=False)
    def test_bulk_load_tree_is_the_node_route_tree(
        self, n, d, fill, leaf_cap, dir_cap, seed, coarse
    ):
        """The materialized tree: same shape, same leaf and directory
        MBRs, same entries as the node route's."""
        points = _drawn_points(n, d, seed, coarse)
        tree = bulk_load(points, fill=fill, leaf_cap=leaf_cap, dir_cap=dir_cap)
        tiles, low, high = _tile_bounds(points, max(4, int(leaf_cap * fill)))
        _, leaf_tiles, root = directory_oracle.str_directory(
            low, high, max(4, int(dir_cap * fill))
        )
        ours, theirs = list(_preorder(tree.root)), list(_preorder(root))
        assert len(ours) == len(theirs)
        assert len(tree) == n
        for mine, want in zip(ours, theirs):
            assert mine.is_leaf == want.is_leaf
            assert (mine.mbr is None) == (want.mbr is None) == (n == 0)
            if n:
                assert mine.mbr.low.tobytes() == want.mbr.low.tobytes()
                assert mine.mbr.high.tobytes() == want.mbr.high.tobytes()
            if not mine.is_leaf:
                assert len(mine.entries) == len(want.entries)
        for leaf, tile in zip(tree.leaves(), leaf_tiles.tolist()):
            assert [entry.oid for entry in leaf.entries] == tiles[tile].tolist()
        tree.check_invariants()

"""Tests for exact tree/store serialization through store directories."""

import json

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.index.bulk import bulk_load
from repro.index.knn import knn_best_first
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.parallel.paged import PagedEngine, PagedStore
from repro.storage import (
    FrozenAssignment,
    PageFormatError,
    StoreFormatError,
    load_paged_store,
    load_tree,
    save_paged_store,
    save_tree,
)
from repro.storage.mmap_store import STORE_JSON, TREE_NPZ


def tree_signature(tree):
    """Structural fingerprint: node kinds, sizes, blocks, entry order."""
    signature = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            signature.append(
                ("leaf", node.blocks, tuple(e.oid for e in node.entries))
            )
        else:
            signature.append(("dir", node.blocks, len(node.entries),
                              tuple(sorted(node.split_history))))
            stack.extend(reversed(node.entries))
    return signature


class TestTreeRoundTrip:
    def test_bulk_loaded_xtree(self, medium_uniform, tmp_path):
        tree = bulk_load(medium_uniform)
        path = tmp_path / "tree"
        save_tree(tree, path)
        restored = load_tree(path)
        assert isinstance(restored, XTree)
        assert restored.size == tree.size
        assert tree_signature(restored) == tree_signature(tree)
        restored.check_invariants()

    def test_dynamic_rstar_tree(self, rng, tmp_path):
        tree = RStarTree(5, leaf_cap=8, dir_cap=8)
        tree.extend(rng.random((400, 5)))
        path = tmp_path / "rstar"
        save_tree(tree, path)
        restored = load_tree(path)
        assert isinstance(restored, RStarTree)
        assert not isinstance(restored, XTree)
        assert tree_signature(restored) == tree_signature(tree)
        restored.check_invariants()

    def test_supernodes_survive(self, rng, tmp_path):
        tree = XTree(12, leaf_cap=8, dir_cap=8, max_overlap=0.0)
        tree.extend(rng.random((400, 12)))
        assert tree.supernode_count() > 0
        path = tmp_path / "super"
        save_tree(tree, path)
        restored = load_tree(path)
        assert restored.supernode_count() == tree.supernode_count()

    def test_identical_query_results_and_costs(self, medium_uniform, rng,
                                               tmp_path):
        tree = bulk_load(medium_uniform)
        path = tmp_path / "tree"
        save_tree(tree, path)
        restored = load_tree(path)
        for query in rng.random((5, 8)):
            original, original_stats = knn_best_first(tree, query, 7)
            loaded, loaded_stats = knn_best_first(restored, query, 7)
            assert [n.oid for n in original] == [n.oid for n in loaded]
            assert original_stats.page_accesses == loaded_stats.page_accesses

    def test_restored_tree_is_updatable(self, small_uniform, rng, tmp_path):
        tree = bulk_load(small_uniform)
        path = tmp_path / "tree"
        save_tree(tree, path)
        restored = load_tree(path)
        restored.insert(rng.random(6), 9999)
        assert restored.delete(small_uniform[0], 0)
        restored.check_invariants()

    def test_empty_tree(self, tmp_path):
        tree = XTree(4)
        path = tmp_path / "empty"
        save_tree(tree, path)
        restored = load_tree(path)
        assert restored.size == 0


class TestPagedStoreRoundTrip:
    def test_round_trip(self, medium_uniform, rng, tmp_path):
        store = PagedStore(
            points=medium_uniform,
            declusterer=NearOptimalDeclusterer(8, 8),
        )
        path = tmp_path / "store"
        save_paged_store(store, path)
        restored = load_paged_store(path)
        assert restored.num_disks == store.num_disks
        assert np.array_equal(restored.page_disks, store.page_disks)
        # Same query, same per-disk costs.
        engine_a = PagedEngine(store)
        engine_b = PagedEngine(restored)
        for query in rng.random((4, 8)):
            a = engine_a.query(query, 5)
            b = engine_b.query(query, 5)
            assert [n.oid for n in a.neighbors] == [
                n.oid for n in b.neighbors
            ]
            assert np.array_equal(a.pages_per_disk, b.pages_per_disk)

    def test_frozen_assignment_rejects_changed_pages(self):
        frozen = FrozenAssignment(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            frozen(np.zeros((5, 3)))

    def test_scheme_name_round_trips(self, small_uniform, tmp_path):
        """The declustering scheme name survives through the store
        header, so ``--scheme``-keyed tooling works on reloaded
        stores."""
        store = PagedStore(
            points=small_uniform,
            declusterer=NearOptimalDeclusterer(6, 8),
        )
        path = tmp_path / "named_store"
        save_paged_store(store, path)
        restored = load_paged_store(path)
        assert restored.scheme == store.scheme
        assert restored.declusterer.name == store.declusterer.name
        # And it survives a second generation (save the reloaded store).
        again = tmp_path / "named_store_2"
        save_paged_store(restored, again)
        assert load_paged_store(again).scheme == store.scheme


class TestStoreFormatVersion:
    """Explicit format-version fields and clear mismatch errors."""

    def _saved(self, small_uniform, tmp_path, name="versioned"):
        store = PagedStore(
            points=small_uniform,
            declusterer=NearOptimalDeclusterer(6, 4),
        )
        path = tmp_path / name
        save_paged_store(store, path)
        return path

    @staticmethod
    def _rewrite_npz_header(directory, mutate):
        """Round-trip ``tree.npz``, applying ``mutate`` to its header."""
        path = directory / TREE_NPZ
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        header = json.loads(str(arrays["header"]))
        mutate(header)
        arrays["header"] = np.array(json.dumps(header))
        np.savez_compressed(path, **arrays)

    @staticmethod
    def _rewrite_store_json(directory, mutate):
        """Apply ``mutate`` to the ``store.json`` header."""
        path = directory / STORE_JSON
        header = json.loads(path.read_text())
        mutate(header)
        path.write_text(json.dumps(header))

    def test_header_declares_store_format_version(
        self, small_uniform, tmp_path
    ):
        path = self._saved(small_uniform, tmp_path)
        with np.load(path / TREE_NPZ, allow_pickle=False) as data:
            headers = [json.loads(str(data["header"]))]
        headers.append(json.loads((path / STORE_JSON).read_text()))
        for header in headers:
            assert header["store_format_version"] == 2
            assert header["format_version"] == 1
            assert header["scheme"] == "new"
            assert header["cache"] is None

    def test_store_version_mismatch_is_clear(
        self, small_uniform, tmp_path
    ):
        path = self._saved(small_uniform, tmp_path)
        self._rewrite_npz_header(
            path, lambda h: h.update(store_format_version=99)
        )
        with pytest.raises(StoreFormatError, match="store format version"):
            load_paged_store(path)

    def test_missing_store_version_is_rejected(
        self, small_uniform, tmp_path
    ):
        """Stores from before the explicit version field don't load
        silently."""
        path = self._saved(small_uniform, tmp_path)
        self._rewrite_store_json(
            path, lambda h: h.pop("store_format_version")
        )
        with pytest.raises(StoreFormatError, match="None"):
            load_paged_store(path)

    def test_tree_version_mismatch_is_clear(self, small_uniform, tmp_path):
        path = self._saved(small_uniform, tmp_path)
        self._rewrite_npz_header(path, lambda h: h.update(format_version=2))
        with pytest.raises(StoreFormatError, match="format version"):
            load_paged_store(path)
        # Plain trees give the same clear failure.
        tree_path = tmp_path / "tree"
        save_tree(bulk_load(small_uniform, tree_cls=XTree), tree_path)
        self._rewrite_store_json(
            tree_path, lambda h: h.update(format_version=0)
        )
        with pytest.raises(StoreFormatError, match="version 1"):
            load_tree(tree_path)

    def test_single_file_npz_is_refused(self, small_uniform, tmp_path):
        """A path to a single-file ``.npz`` (the format before store
        directories) is not a store directory: it is refused, not
        misread."""
        path = tmp_path / "old_store.npz"
        np.savez_compressed(
            path,
            header=np.array(json.dumps({"store_format_version": 1})),
            points=small_uniform,
        )
        with pytest.raises(PageFormatError, match="not an mmap store directory"):
            load_paged_store(path)
        with pytest.raises(PageFormatError, match="not an mmap store directory"):
            load_tree(path)


class TestPersistencePropertyBased:
    """Round trips over randomly built dynamic trees."""

    def test_random_dynamic_trees_roundtrip(self, tmp_path):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(
            deadline=None,
            max_examples=10,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(st.integers(0, 10_000), st.integers(30, 150),
               st.integers(2, 6))
        def check(seed, count, dimension):
            rng = np.random.default_rng(seed)
            tree = XTree(dimension, leaf_cap=6, dir_cap=6)
            tree.extend(rng.random((count, dimension)))
            path = tmp_path / f"t{seed}"
            save_tree(tree, path)
            restored = load_tree(path)
            assert tree_signature(restored) == tree_signature(tree)
            query = rng.random(dimension)
            a, sa = knn_best_first(tree, query, 3)
            b, sb = knn_best_first(restored, query, 3)
            assert [n.oid for n in a] == [n.oid for n in b]
            assert sa.page_accesses == sb.page_accesses

        check()

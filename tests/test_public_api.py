"""Tests for the top-level package surface."""

import inspect
import subprocess
import sys

import numpy as np

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_query_path_does_not_import_networkx(self):
        """Every spawned disk worker imports the package; networkx
        (~20 MB, ~0.13 s per process) may load only where ``G_d`` is
        built or coloured."""
        code = (
            "import sys, repro, repro.parallel.process, repro.serve; "
            "sys.exit('networkx' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_traversal_signatures_carry_no_kernel_switch(self):
        """The ten callables that once took a scalar/vectorized switch
        keep exactly their other parameters, in order."""
        from repro.index import knn
        from repro.parallel import events, process

        expected = {
            knn.knn_best_first: "tree query k metric on_node",
            knn.knn_branch_and_bound: "tree query k metric",
            knn.pages_intersecting_radius: "tree query radius",
            repro.ParallelEngine:
                "store parameters cache tracer",
            repro.SequentialEngine:
                "points oids tree_cls page_bytes parameters tree "
                "cache tracer",
            repro.PagedEngine: "store parameters cache tracer",
            process.ProcessParallelEngine: "store parameters tracer max_k",
            events.EventDrivenSimulator: "store parameters cache tracer",
            repro.PagedEngine.window: "self low high",
        }
        for function, names in expected.items():
            assert list(inspect.signature(function).parameters) == (
                names.split()
            ), function

    def test_persistence_signatures(self):
        """Every persisted index is a store directory: one writer and
        one reader signature per kind of index."""
        expected = {
            repro.save_paged_store: "store directory slot_bytes",
            repro.load_paged_store: "directory",
            repro.save_tree: "tree directory",
            repro.load_tree: "directory",
        }
        for function, names in expected.items():
            assert list(inspect.signature(function).parameters) == (
                names.split()
            ), function
        slot_bytes = inspect.signature(repro.save_paged_store).parameters[
            "slot_bytes"
        ]
        assert slot_bytes.default is None

    def test_docstring_quickstart_runs(self):
        points = np.random.default_rng(0).random((5000, 8))
        store = repro.PagedStore(
            points=points,
            declusterer=repro.NearOptimalDeclusterer(8, num_disks=8),
        )
        engine = repro.PagedEngine(store)
        result = engine.query(points[42], k=5)
        assert [n.oid for n in result.neighbors][0] == 42

    def test_core_objects_constructible(self):
        assert repro.col(5) == 2
        assert repro.colors_required(15) == 16
        assert repro.is_near_optimal(repro.col, 4)
        curve = repro.HilbertCurve(3, 2)
        assert curve.index_of(curve.coordinates_of(17)) == 17
        params = repro.DiskParameters()
        assert params.page_service_time_ms > 0

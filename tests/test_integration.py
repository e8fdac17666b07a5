"""End-to-end integration tests across the whole stack."""

import random

import numpy as np
import pytest

from repro import (
    DeclusteredStore,
    HilbertDeclusterer,
    NearOptimalDeclusterer,
    PagedEngine,
    PagedStore,
    ParallelEngine,
    RecursiveDeclusterer,
    SequentialEngine,
    knn_linear_scan,
)
from repro.data import fourier_points, gaussian_clusters, query_workload
from repro.parallel.events import EventDrivenSimulator, QueryArrival
from repro.parallel.process import ProcessParallelEngine
from repro.serve import QueryService, WorkloadSpec, build_engine, uniform_trace
from repro.storage import MmapStore, save_paged_store


class TestFullPipeline:
    def test_fourier_pipeline_all_declusterers_agree(self):
        """Build the paper's Fourier workload end-to-end; every
        declusterer and both architectures return identical kNN sets."""
        points = fourier_points(4000, 10, seed=42)
        queries = query_workload(points, 5, seed=43)
        oracles = [knn_linear_scan(points, q, 5) for q in queries]

        paged = PagedEngine(
            PagedStore(
                points=points, declusterer=NearOptimalDeclusterer(10, 8)
            )
        )
        item = ParallelEngine(
            DeclusteredStore(points, HilbertDeclusterer(10, 8))
        )
        for query, oracle in zip(queries, oracles):
            expected = [n.oid for n in oracle]
            assert [
                n.oid for n in paged.query(query, 5).neighbors
            ] == expected
            assert [
                n.oid for n in item.query(query, 5).neighbors
            ] == expected

    def test_clustered_pipeline_with_recursive_declustering(self):
        """Recursive declustering on clustered data: correct results and a
        better busiest-disk balance than the plain technique."""
        points = gaussian_clusters(
            6000, 8, num_clusters=3, spread=0.03, seed=44
        )
        queries = query_workload(points, 6, seed=45, jitter=0.05)
        plain_store = PagedStore(
            points=points, declusterer=NearOptimalDeclusterer(8, 16)
        )
        recursive = RecursiveDeclusterer(
            8, 16, max_levels=10, imbalance_threshold=1.1
        ).fit(points)
        recursive_store = PagedStore(tree=plain_store.tree,
                                     declusterer=recursive)
        plain_max = recursive_max = 0
        for query in queries:
            oracle = knn_linear_scan(points, query, 3)
            for store in (plain_store, recursive_store):
                result = PagedEngine(store).query(query, 3)
                assert [n.oid for n in result.neighbors] == [
                    n.oid for n in oracle
                ]
            plain_max += PagedEngine(plain_store).query(query, 3).max_pages
            recursive_max += (
                PagedEngine(recursive_store).query(query, 3).max_pages
            )
        assert recursive_max <= plain_max

    def test_insert_query_delete_cycle_parallel(self):
        """Dynamic operation of the item-level store ("completely
        dynamical")."""
        rng = np.random.default_rng(46)
        points = rng.random((1500, 6))
        store = DeclusteredStore(points, NearOptimalDeclusterer(6, 8))
        engine = ParallelEngine(store)

        # Insert a batch of new points.
        extra = rng.random((100, 6))
        for oid, point in enumerate(extra, start=1500):
            store.insert(point, oid)

        all_points = np.vstack([points, extra])
        query = rng.random(6)
        result = engine.query(query, 4)
        oracle = knn_linear_scan(all_points, query, 4)
        assert [n.oid for n in result.neighbors] == [n.oid for n in oracle]

        # Delete the nearest neighbor; the result set shifts.
        nearest = result.neighbors[0]
        assert store.delete(nearest.point, nearest.oid)
        after = engine.query(query, 1)
        assert after.neighbors[0].oid == oracle[1].oid

    def test_speedup_improves_sequential_to_sixteen_disks(self):
        """The headline claim, end-to-end: parallel NN search with the new
        declustering is much faster than sequential search."""
        points = fourier_points(20000, 15, seed=47)
        queries = query_workload(points, 8, seed=48, jitter=0.05)
        sequential = SequentialEngine(points)
        store = PagedStore(
            tree=sequential.tree,
            declusterer=NearOptimalDeclusterer(15, 16),
        )
        engine = PagedEngine(store)
        speedups = []
        for query in queries:
            seq_time = sequential.query(query, 10).parallel_time_ms
            par_time = engine.query(query, 10).parallel_time_ms
            if par_time > 0:
                speedups.append(seq_time / par_time)
        assert np.mean(speedups) > 4.0

    def test_query_results_independent_of_disk_count(self):
        points = fourier_points(3000, 8, seed=49)
        query = points[77] + 0.01
        reference = None
        for num_disks in (1, 2, 5, 8):
            store = PagedStore(
                points=points,
                declusterer=NearOptimalDeclusterer(8, num_disks),
            )
            oids = [
                n.oid for n in PagedEngine(store).query(query, 6).neighbors
            ]
            if reference is None:
                reference = oids
            assert oids == reference


def _global_rng_states():
    """Both process-global RNG states, comparable with ``==``."""
    stdlib = random.getstate()  # repro-lint: disable=seeded-rng-only
    numpy = np.random.get_state()  # repro-lint: disable=seeded-rng-only
    return stdlib, numpy[0], numpy[1].tobytes(), numpy[2:]


def test_runs_leave_the_global_rngs_alone(tmp_path):
    """A simulator run, a served trace and a process-engine query draw
    only from seeded generators: neither global RNG advances."""
    rng = np.random.default_rng(5)
    points, queries = rng.random((300, 4)), rng.random((4, 4))
    store = PagedStore(
        points=points, declusterer=NearOptimalDeclusterer(4, 4)
    )
    save_paged_store(store, tmp_path / "store")
    spec = WorkloadSpec(n=300, d=4, k=3, num_disks=4, seed=5)
    trace = uniform_trace(spec, 6, rate_qps=100.0, seed=3)
    before = _global_rng_states()
    EventDrivenSimulator(store).run(
        [QueryArrival(0.0, query, 3) for query in queries]
    )
    QueryService(build_engine(spec), "fifo").run_trace(trace)
    with MmapStore(tmp_path / "store") as mmap_store:
        with ProcessParallelEngine(mmap_store) as engine:
            assert len(engine.query(queries[0], 3).neighbors) == 3
    assert _global_rng_states() == before

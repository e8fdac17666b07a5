#!/usr/bin/env python
"""Quickstart: parallel nearest-neighbor search in five minutes.

Builds a declustered store over random feature vectors, runs a few kNN
queries, and shows the speed-up of parallel execution over a single disk —
the paper's headline result in miniature.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    NearOptimalDeclusterer,
    PagedEngine,
    PagedStore,
    SequentialEngine,
)


def main():
    rng = np.random.default_rng(7)
    dimension, num_points, num_disks = 12, 20_000, 16

    print(f"Generating {num_points} points in {dimension} dimensions ...")
    points = rng.random((num_points, dimension))

    # One X-tree over all data = the sequential baseline (a single disk).
    sequential = SequentialEngine(points)

    # The same index with its data pages declustered over 16 disks using
    # the paper's near-optimal vertex coloring.
    declusterer = NearOptimalDeclusterer(dimension, num_disks)
    store = PagedStore(tree=sequential.tree, declusterer=declusterer)
    engine = PagedEngine(store)

    print(f"Index: {len(store.leaves)} data pages over {num_disks} disks")
    print(f"Pages per disk: {store.disk_loads().tolist()}")

    query = rng.random(dimension)
    for k in (1, 10):
        seq = sequential.query(query, k)
        par = engine.query(query, k)
        assert [n.oid for n in seq.neighbors] == [
            n.oid for n in par.neighbors
        ], "parallel search must return the same neighbors"
        print(
            f"\n{k}-NN query:"
            f"\n  neighbors      : {[n.oid for n in par.neighbors]}"
            f"\n  sequential I/O : {seq.max_pages} pages "
            f"({seq.parallel_time_ms:.1f} ms simulated)"
            f"\n  busiest disk   : {par.max_pages} pages "
            f"({par.parallel_time_ms:.1f} ms simulated)"
            f"\n  speed-up       : "
            f"{seq.parallel_time_ms / par.parallel_time_ms:.1f}x"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Capacity planning with the analytical cost model.

Before buying hardware, a practitioner wants to know: how many disks does
a target query latency need, and how bad is the curse of dimensionality
for my workload?  This example uses the [BBKK 97] cost model to predict NN
radii and page counts, checks the predictions against the simulator, and
sweeps the disk count to find the knee of the speed-up curve.

Run:  python examples/capacity_planning.py
"""

import numpy as np

from repro import (
    DiskParameters,
    NearOptimalDeclusterer,
    PagedEngine,
    PagedStore,
    SequentialEngine,
    colors_required,
)
from repro.analysis import (
    expected_nn_distance,
    expected_pages_touched,
    surface_probability,
)
from repro.index.node import leaf_capacity


def main():
    rng = np.random.default_rng(3)
    num_points = 40_000

    print("== The curse of dimensionality, analytically ==")
    print(f"{'d':>3}  {'NN radius':>9}  {'P(near surface)':>15}  "
          f"{'pages touched':>13}")
    for dimension in (2, 4, 8, 12, 16):
        radius = expected_nn_distance(num_points, dimension)
        pages = expected_pages_touched(
            num_points, dimension, leaf_capacity(dimension)
        )
        print(
            f"{dimension:>3}  {radius:>9.3f}  "
            f"{surface_probability(dimension):>15.1%}  {pages:>13.0f}"
        )

    dimension = 12
    print(f"\n== Simulated disk sweep (uniform, d={dimension}, "
          f"N={num_points}) ==")
    points = rng.random((num_points, dimension))
    queries = rng.random((8, dimension))
    sequential = SequentialEngine(points)
    seq_time = np.mean(
        [sequential.query(q, 10).parallel_time_ms for q in queries]
    )
    print(f"sequential 10-NN time: {seq_time:.0f} ms (simulated)")

    max_disks = colors_required(dimension)
    print(f"{'disks':>5}  {'time(ms)':>8}  {'speed-up':>8}  "
          f"{'efficiency':>10}")
    target_ms, chosen = 250.0, None
    for num_disks in (1, 2, 4, 8, max_disks):
        store = PagedStore(
            tree=sequential.tree,
            declusterer=NearOptimalDeclusterer(dimension, num_disks),
        )
        engine = PagedEngine(store)
        time_ms = np.mean(
            [engine.query(q, 10).parallel_time_ms for q in queries]
        )
        speedup = seq_time / time_ms
        print(f"{num_disks:>5}  {time_ms:>8.0f}  {speedup:>8.1f}  "
              f"{speedup / num_disks:>10.0%}")
        if chosen is None and time_ms <= target_ms:
            chosen = num_disks

    if chosen:
        print(f"\n-> {chosen} disks meet the {target_ms:.0f} ms target.")
    else:
        print(f"\n-> even {max_disks} disks miss the {target_ms:.0f} ms "
              f"target; consider faster disks:")
        fast = DiskParameters(seek_ms=2.0, rotational_latency_ms=1.0,
                              transfer_mb_per_s=40.0)
        store = PagedStore(
            tree=sequential.tree,
            declusterer=NearOptimalDeclusterer(dimension, max_disks),
        )
        engine = PagedEngine(store, fast)
        time_ms = np.mean(
            [engine.query(q, 10).parallel_time_ms for q in queries]
        )
        print(f"   with {fast.page_service_time_ms:.1f} ms/page disks: "
              f"{time_ms:.0f} ms")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Incremental ranking, user-defined metrics, and persistence.

Three library features beyond the paper's headline experiment:

1. **incremental ranking** — stream neighbors one at a time (HS 95's full
   algorithm); stop whenever a filter is satisfied, paying I/O lazily;
2. **user-adaptable similarity** — weighted Euclidean and L_p metrics
   change who the "nearest" neighbor is;
3. **persistence** — save the index + declustering as a store
   directory, reload, and get bit-identical query costs.

Run:  python examples/ranking_and_metrics.py
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    LpMetric,
    NearOptimalDeclusterer,
    PagedEngine,
    PagedStore,
    WeightedEuclidean,
    knn_best_first,
    knn_linear_scan,
    load_paged_store,
    save_paged_store,
)
from repro.data import color_histograms
from repro.index.incremental import incremental_nearest
from repro.index.knn import SearchStats


def main():
    rng = np.random.default_rng(99)
    bins, num_images = 10, 15_000
    features, labels = color_histograms(num_images, bins, seed=42)

    store = PagedStore(
        points=features, declusterer=NearOptimalDeclusterer(bins, 16)
    )
    tree = store.tree
    query = np.clip(features[123] + 0.01 * rng.standard_normal(bins), 0, 1)

    # ---- 1. incremental ranking: "find 3 results from scene 2".
    print("== incremental ranking ==")
    stats = SearchStats()
    wanted_scene, found = int(labels[123]), []
    for neighbor in incremental_nearest(tree, query, stats):
        if labels[neighbor.oid] == wanted_scene:
            found.append(neighbor)
            if len(found) == 3:
                break
    print(f"first 3 scene-{wanted_scene} matches: "
          f"{[(n.oid, round(n.distance, 3)) for n in found]}")
    print(f"pages read lazily: {stats.page_accesses} "
          f"(a full scan would read "
          f"{sum(leaf.blocks for leaf in tree.leaves())})")

    # ---- 2. metrics change the ranking.
    print("\n== user-adaptable similarity ==")
    plain = knn_best_first(tree, query, 3)[0]
    # A user who cares overwhelmingly about the first three color bins:
    weights = np.ones(bins) * 0.05
    weights[:3] = 10.0
    weighted = knn_best_first(
        tree, query, 3, metric=WeightedEuclidean(weights)
    )[0]
    manhattan = knn_best_first(tree, query, 3, metric=LpMetric(1))[0]
    print(f"L2        top-3: {[n.oid for n in plain]}")
    print(f"weighted  top-3: {[n.oid for n in weighted]}")
    print(f"L1        top-3: {[n.oid for n in manhattan]}")
    oracle = knn_linear_scan(
        features, query, 3, metric=WeightedEuclidean(weights)
    )
    assert [n.oid for n in weighted] == [n.oid for n in oracle]
    print("weighted tree search verified against a linear scan")

    # ---- 3. persistence round trip.
    print("\n== persistence ==")
    engine = PagedEngine(store)
    before = engine.query(query, 10)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "photos"
        save_paged_store(store, path)
        restored = load_paged_store(path)
        after = PagedEngine(restored).query(query, 10)
        size = sum(file.stat().st_size for file in path.iterdir())
        print(f"saved a {size / 1024:.0f} KiB store directory; "
              f"restored {len(restored)} photos on "
              f"{restored.num_disks} disks")
    assert [n.oid for n in before.neighbors] == [
        n.oid for n in after.neighbors
    ]
    assert np.array_equal(before.pages_per_disk, after.pages_per_disk)
    print("restored store answers with identical results and identical "
          "per-disk page counts")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Image similarity search over color histograms.

The paper's motivating scenario: an image database maps every image to a
color-histogram feature vector and answers "find the most similar images"
as a nearest-neighbor query [Fal 94].  This example synthesizes a photo
collection of several *scene types* (beach, forest, night, ...), each with
its own characteristic color distribution, and compares declustering
techniques on the resulting query load.

Run:  python examples/image_search.py
"""

import numpy as np

from repro import (
    HilbertDeclusterer,
    NearOptimalDeclusterer,
    PagedEngine,
    PagedStore,
    RecursiveDeclusterer,
    SequentialEngine,
    quantile_split_values,
)

from repro.data import DEFAULT_SCENES as SCENES
from repro.data import color_histograms


def main():
    rng = np.random.default_rng(11)
    bins, num_images, num_disks = 12, 30_000, 16

    print(f"Synthesizing {num_images} photos over {len(SCENES)} scenes ...")
    histograms, labels = color_histograms(num_images, bins, seed=11)

    sequential = SequentialEngine(histograms)
    # Photos of the same scene cluster tightly in histogram space, so the
    # plain quadrant declustering overloads a few disks — apply the
    # paper's recursive extension on top of quantile splits.
    recursive = RecursiveDeclusterer(
        bins,
        num_disks,
        max_levels=12,
        imbalance_threshold=1.05,
        split_values=quantile_split_values(histograms),
    ).fit(histograms)
    engines = {}
    for declusterer in (
        NearOptimalDeclusterer(bins, num_disks),
        recursive,
        HilbertDeclusterer(bins, num_disks),
    ):
        store = PagedStore(tree=sequential.tree, declusterer=declusterer)
        engines[declusterer.name] = PagedEngine(store)

    # Query by example: a new photo of some scene.
    query_ids = rng.integers(0, num_images, 8)
    print("\nscene match of 10-NN results (same-scene fraction) and")
    print("busiest-disk pages per declusterer:")
    print(f"{'query scene':>12}  {'precision':>9}  {'seq pages':>9}  "
          f"{'new':>6}  {'+rec':>6}  {'HIL':>6}")
    speedups = {name: [] for name in engines}
    for query_id in query_ids:
        query = np.clip(
            histograms[query_id] + 0.01 * rng.standard_normal(bins), 0, 1
        )
        seq = sequential.query(query, 10)
        same_scene = np.mean(
            [labels[n.oid] == labels[query_id] for n in seq.neighbors]
        )
        row = [f"{SCENES[labels[query_id]]:>12}", f"{same_scene:>9.0%}",
               f"{seq.max_pages:>9}"]
        for name, engine in engines.items():
            result = engine.query(query, 10)
            speedups[name].append(seq.max_pages / max(1, result.max_pages))
            row.append(f"{result.max_pages:>6}")
        print("  ".join(row))

    summary = "  ".join(
        f"{name}={np.mean(values):.1f}x"
        for name, values in speedups.items()
    )
    print(f"\nmean speed-up over one disk ({num_disks} disks): {summary}")
    print("-> similar photos cluster in feature space; recursive")
    print("   declustering spreads the hot pages across all disks.")


if __name__ == "__main__":
    main()

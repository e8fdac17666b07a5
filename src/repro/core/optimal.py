"""Graph-coloring comparators: greedy/DSATUR coloring of ``G_d``.

The paper conjectures that its closed-form staircase
``2^ceil(log2(d+1))`` is the minimal number of colors for the
disk-assignment graph (verified by enumeration for low ``d``).  This
module provides a *generic* graph-coloring declusterer to test the
conjecture empirically: it colors ``G_d`` with networkx's heuristics
(DSATUR and friends) and declusters by the resulting color table.

Unlike ``col``, the table costs ``O(2^d)`` memory and the coloring up to
``O(2^d * d^2)`` time — usable for moderate dimensions only, which is
precisely the point the paper makes for preferring a closed form.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.declustering import BucketDeclusterer
from repro.core.disk_reduction import reduction_table
from repro.core.graph import disk_assignment_graph

__all__ = ["GraphColoringDeclusterer", "greedy_coloring_colors"]

#: Dimensions above this make the 2^d coloring table impractical.
_MAX_DIMENSION = 16


def greedy_coloring_colors(dimension: int, strategy: str = "DSATUR") -> int:
    """Number of colors a greedy heuristic needs for ``G_d``."""
    import networkx as nx

    graph = disk_assignment_graph(dimension)
    coloring = nx.coloring.greedy_color(graph, strategy=strategy)
    return max(coloring.values()) + 1


class GraphColoringDeclusterer(BucketDeclusterer):
    """Declustering by an explicit heuristic coloring of ``G_d``.

    Near-optimal by construction (a proper coloring of the
    disk-assignment graph *is* Definition 4), but without ``col``'s O(d)
    evaluation or its closed-form color count.

    Parameters
    ----------
    dimension:
        Must be <= 16 (the table has 2^d entries).
    num_disks:
        Defaults to the colors the heuristic used; smaller values reduce
        via the same complement folding as the main technique (after
        padding the color count to a power of two).
    strategy:
        Any networkx greedy-coloring strategy (default DSATUR).
    """

    name = "graph-color"

    def __init__(
        self,
        dimension: int,
        num_disks: Optional[int] = None,
        split_values: Optional[Sequence[float]] = None,
        strategy: str = "DSATUR",
    ):
        if dimension > _MAX_DIMENSION:
            raise ValueError(
                f"graph coloring needs a 2^d table; dimension "
                f"{dimension} > {_MAX_DIMENSION} is impractical — "
                f"use NearOptimalDeclusterer instead"
            )
        import networkx as nx

        graph = disk_assignment_graph(dimension)
        coloring = nx.coloring.greedy_color(graph, strategy=strategy)
        self.colors_used = max(coloring.values()) + 1
        if num_disks is None:
            num_disks = self.colors_used
        super().__init__(dimension, num_disks, split_values)
        if num_disks > self.colors_used:
            raise ValueError(
                f"num_disks={num_disks} exceeds the {self.colors_used} "
                f"colors found by {strategy}"
            )
        self._table = np.empty(1 << dimension, dtype=np.int64)
        for bucket, color in coloring.items():
            self._table[bucket] = color
        # Pad to a power of two so the complement folding applies.
        padded = 1
        while padded < self.colors_used:
            padded *= 2
        self._reduction = reduction_table(padded, num_disks)

    def disk_for_bucket(self, bucket: int) -> int:
        return int(self._reduction[self._table[bucket]])

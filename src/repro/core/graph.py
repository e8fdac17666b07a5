"""The disk-assignment graph and near-optimality verification (Section 4.1).

Definition 5 of the paper: the disk-assignment graph ``G_d = (V, E)`` has the
``2^d`` bucket numbers as vertices and an edge between every pair of direct
or indirect neighbors.  A declustering is *near-optimal* (Definition 4) iff
it is a proper coloring of ``G_d``.

This module provides:

* :func:`disk_assignment_graph` — the graph as a :class:`networkx.Graph`;
* :func:`near_optimality_violations` / :func:`is_near_optimal` — exhaustive
  verification of any bucket declusterer against Definition 4;
* :func:`brute_force_min_colors` — exact chromatic number of ``G_d`` for
  small ``d``, used to confirm the paper's claim that the ``col`` staircase
  is optimal for low dimensions;
* :func:`violation_statistics` — counts of colliding direct/indirect
  neighbor pairs, the quantity behind Figure 7's counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.core.bits import direct_neighbors, indirect_neighbors

if TYPE_CHECKING:  # pragma: no cover - annotation only
    import networkx as nx

__all__ = [
    "disk_assignment_graph",
    "neighbor_edges",
    "Violation",
    "near_optimality_violations",
    "is_near_optimal",
    "violation_statistics",
    "ViolationStats",
    "brute_force_min_colors",
]

DiskFunction = Callable[[int], int]


def neighbor_edges(dimension: int) -> Iterator[Tuple[int, int, str]]:
    """Yield every neighbor pair ``(b, c, kind)`` with ``b < c``.

    ``kind`` is ``"direct"`` (1-bit difference) or ``"indirect"`` (2 bits).
    """
    for bucket in range(1 << dimension):
        for other in direct_neighbors(bucket, dimension):
            if bucket < other:
                yield bucket, other, "direct"
        for other in indirect_neighbors(bucket, dimension):
            if bucket < other:
                yield bucket, other, "indirect"


def disk_assignment_graph(dimension: int) -> nx.Graph:
    """Build ``G_d`` (Definition 5) for the given dimension.

    The graph has ``2^d`` vertices and ``2^(d-1) * (d + d*(d-1)/2)`` edges;
    keep ``d`` small (``d <= 12`` is comfortable).
    """
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    # Deferred: networkx costs ~20 MB and ~0.13 s per process, and the
    # disk workers' fork server imports this package.
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(1 << dimension))
    for bucket, other, kind in neighbor_edges(dimension):
        graph.add_edge(bucket, other, kind=kind)
    return graph


@dataclass(frozen=True)
class Violation:
    """A pair of neighboring buckets assigned to the same disk."""

    bucket_a: int
    bucket_b: int
    kind: str
    disk: int


def near_optimality_violations(
    disk_for_bucket: DiskFunction,
    dimension: int,
    max_violations: Optional[int] = None,
) -> List[Violation]:
    """All Definition-4 violations of a bucket-to-disk mapping.

    Exhaustively checks every direct and indirect neighbor pair of the
    ``2^d`` buckets.  ``max_violations`` truncates the scan early once that
    many violations were found (handy when only existence matters).
    """
    violations: List[Violation] = []
    for bucket, other, kind in neighbor_edges(dimension):
        disk = disk_for_bucket(bucket)
        if disk == disk_for_bucket(other):
            violations.append(Violation(bucket, other, kind, disk))
            if max_violations is not None and len(violations) >= max_violations:
                break
    return violations


def is_near_optimal(disk_for_bucket: DiskFunction, dimension: int) -> bool:
    """True iff the mapping satisfies Definition 4 (no neighbor collisions)."""
    return not near_optimality_violations(
        disk_for_bucket, dimension, max_violations=1
    )


@dataclass(frozen=True)
class ViolationStats:
    """Collision counts of a declustering, split by neighborhood kind."""

    direct_pairs: int
    indirect_pairs: int
    direct_collisions: int
    indirect_collisions: int

    @property
    def total_collisions(self) -> int:
        return self.direct_collisions + self.indirect_collisions

    @property
    def collision_rate(self) -> float:
        pairs = self.direct_pairs + self.indirect_pairs
        return self.total_collisions / pairs if pairs else 0.0


def violation_statistics(
    disk_for_bucket: DiskFunction, dimension: int
) -> ViolationStats:
    """Count colliding direct/indirect neighbor pairs over all buckets."""
    direct_pairs = indirect_pairs = 0
    direct_collisions = indirect_collisions = 0
    for bucket, other, kind in neighbor_edges(dimension):
        same = disk_for_bucket(bucket) == disk_for_bucket(other)
        if kind == "direct":
            direct_pairs += 1
            direct_collisions += same
        else:
            indirect_pairs += 1
            indirect_collisions += same
    return ViolationStats(
        direct_pairs=direct_pairs,
        indirect_pairs=indirect_pairs,
        direct_collisions=int(direct_collisions),
        indirect_collisions=int(indirect_collisions),
    )


def brute_force_min_colors(dimension: int, limit: int = 8) -> int:
    """Exact chromatic number of ``G_d`` by backtracking (small ``d`` only).

    The paper verified "by enumerating all possible color assignments" that
    no method beats the ``col`` staircase for low dimensions; this routine
    reproduces that check.  ``limit`` caps the largest color count tried.
    Raises :class:`ValueError` if ``d`` is too large to enumerate sensibly.
    """
    if dimension > 4:
        raise ValueError(
            f"brute-force coloring of G_{dimension} with 2^{dimension} "
            f"vertices is infeasible; use dimension <= 4"
        )
    num_vertices = 1 << dimension
    adjacency: List[List[int]] = [[] for _ in range(num_vertices)]
    for bucket, other, _ in neighbor_edges(dimension):
        adjacency[bucket].append(other)
        adjacency[other].append(bucket)

    def colorable(num_colors: int) -> bool:
        colors = [-1] * num_vertices

        def backtrack(vertex: int) -> bool:
            if vertex == num_vertices:
                return True
            forbidden = {
                colors[nb] for nb in adjacency[vertex] if colors[nb] >= 0
            }
            # Symmetry breaking: vertex v may only open color max_used + 1.
            max_used = max(colors[:vertex], default=-1)
            for color in range(min(num_colors, max_used + 2)):
                if color not in forbidden:
                    colors[vertex] = color
                    if backtrack(vertex + 1):
                        return True
                    colors[vertex] = -1
            return False

        return backtrack(0)

    for num_colors in range(dimension + 1, limit + 1):
        if colorable(num_colors):
            return num_colors
    raise RuntimeError(
        f"G_{dimension} not colorable with <= {limit} colors; raise the limit"
    )

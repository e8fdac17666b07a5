"""Scalar reference for :mod:`repro.index.kernels` (tests and benchmarks).

Each kernel here is the per-entry loop its vectorized namesake promises
bit-for-bit equality with, written over ``MBR.mindist`` /
``Metric.mindist`` / ``_CandidateSet.offer`` — the scalar primitives
tree construction keeps in ``src/``.  ``scalar_kernels()`` swaps the
loops into the kernels module; every traversal and engine reaches its
kernels through that module's attributes, so one patch covers them all.
"""

from unittest import mock

import numpy as np

from repro.index import kernels
from repro.index.mbr import MBR
from repro.index.metrics import Euclidean

_EUCLIDEAN = Euclidean()


def child_mindists(node, query, metric=_EUCLIDEAN):
    return np.array(
        [metric.mindist(child.mbr, query) for child in node.entries]
    )


def child_minmaxdists(node, query):
    return np.array([child.mbr.minmaxdist(query) for child in node.entries])


def child_intersects(node, low, high):
    window = MBR(low, high)
    return np.array(
        [child.mbr.intersects(window) for child in node.entries], dtype=bool
    )


def leaf_window_mask(node, low, high):
    window = MBR(low, high)
    return np.array(
        [window.contains_point(entry.point) for entry in node.entries],
        dtype=bool,
    )


def offer_leaf(candidates, node, query, stats, metric=_EUCLIDEAN):
    points = np.vstack([entry.point for entry in node.entries])
    offer_payload(
        candidates, points, [entry.oid for entry in node.entries],
        query, stats, metric,
    )


def offer_payload(candidates, points, oids, query, stats, metric=_EUCLIDEAN):
    keys = metric.point_keys(points, query)
    stats.distance_computations += len(oids)
    for key, oid, point in zip(keys, oids, points):
        candidates.offer(float(key), int(oid), point)


def scalar_kernels():
    """Context manager: every kernel replaced by its loop inside."""
    return mock.patch.multiple(
        kernels,
        child_mindists=child_mindists,
        child_minmaxdists=child_minmaxdists,
        child_intersects=child_intersects,
        leaf_window_mask=leaf_window_mask,
        offer_leaf=offer_leaf,
        offer_payload=offer_payload,
    )

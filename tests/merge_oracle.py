"""Row-at-a-time reference for :func:`repro.storage.spill._merge_runs`.

This is the merge the streaming builder used before its block-wise
one: every run is a generator of ``(key, row)`` pairs and
``heapq.merge`` interleaves them, breaking key ties in favour of the
earlier run.  It is slow (one Python step per row) and obviously
right, which is what a test-side oracle should be.
"""

import heapq

import numpy as np


def _run_rows(run, key_col, block_rows):
    for start in range(0, run.rows, block_rows):
        for row in run.read(start, min(start + block_rows, run.rows)):
            yield (float(row[key_col]), row)


def merge_runs(runs, key_col, chunk_rows):
    """The merged rows of sorted ``SpillFile`` runs as one array, in the
    order ``heapq.merge`` over chunk-ordered runs gives."""
    if not runs:
        return np.empty((0, 0))
    block_rows = max(1, chunk_rows // (len(runs) + 1))
    streams = [_run_rows(run, key_col, block_rows) for run in runs]
    rows = [row for _key, row in heapq.merge(*streams, key=lambda item: item[0])]
    return np.array(rows).reshape(len(rows), runs[0].width)

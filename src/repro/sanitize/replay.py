"""Tie-break permutation replay: prove a simulated run is deterministic.

The simulator processes streams whose arrivals can share a timestamp —
every query of a simultaneous batch arrives at t=0, and a timed stream
can contain same-``time_ms`` arrivals.  The paper's figures are only
reproducible if the *outputs* (each query's kNN result and the per-disk
page counters) do not depend on how those ties are broken.

This module replays one run under several tie-break seeds (the
``tiebreak_seed`` hook the simulator exposes) and diffs the
:class:`RunSummary` of each replay against the first.  Any divergence —
a query whose neighbors changed, a shifted page counter — is reported
as a ``sanitize-replay-divergence`` finding pinpointing the first
differing query or disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

__all__ = [
    "REPLAY_DIVERGENCE",
    "QueryOutcome",
    "RunSummary",
    "ReplayCase",
    "replay_check",
    "summarize_report",
]

REPLAY_DIVERGENCE = "sanitize-replay-divergence"

#: One query's result as comparable data: ((oid, distance), ...).
QueryOutcome = Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class RunSummary:
    """The tie-break-invariant outputs of one simulated run.

    ``results`` holds one :data:`QueryOutcome` per query *in input
    order* (the simulator restores permuted execution to input
    positions); ``pages_per_disk`` the final per-disk read counters.
    Latencies are deliberately absent: under FCFS they legitimately
    depend on service order even when the results do not.
    """

    results: Tuple[QueryOutcome, ...]
    pages_per_disk: Tuple[int, ...]


@dataclass(frozen=True)
class ReplayCase:
    """A named, replayable run: ``run(seed)`` must be a cold start.

    ``run`` receives a tie-break seed (or None for the simulator's
    default stable order) and returns the run's :class:`RunSummary`.
    It must rebuild any order-sensitive state (e.g. not share a warm
    buffer pool between invocations): the check's contract is that two
    cold runs differing only in tie-break order agree.
    """

    name: str
    run: Callable[[Optional[int]], RunSummary]


def summarize_report(report: object) -> RunSummary:
    """Build a :class:`RunSummary` from a simulator report.

    Accepts any report with ``query_results`` (populated — run the
    simulator with ``keep_results=True``) and ``pages_per_disk``
    attributes, e.g. an ``EventSimReport``.
    """
    query_results = getattr(report, "query_results", None)
    if query_results is None:
        raise ValueError(
            "report has no query results; run the simulator with "
            "keep_results=True"
        )
    results = tuple(
        tuple(
            (int(neighbor.oid), float(neighbor.distance))
            for neighbor in result.neighbors
        )
        for result in query_results
    )
    pages = tuple(int(p) for p in getattr(report, "pages_per_disk"))
    return RunSummary(results=results, pages_per_disk=pages)


def _diff_summaries(
    name: str, seed: Optional[int], base: RunSummary, other: RunSummary
) -> List[Finding]:
    """Findings describing how ``other`` diverges from ``base``."""
    findings: List[Finding] = []
    source = f"sanitize://replay/{name}"
    if other.pages_per_disk != base.pages_per_disk:
        findings.append(
            Finding(
                source, 0, REPLAY_DIVERGENCE,
                f"per-disk page counters depend on the tie-break seed "
                f"(seed={seed}): {list(base.pages_per_disk)} vs "
                f"{list(other.pages_per_disk)}",
            )
        )
    if len(other.results) != len(base.results):
        findings.append(
            Finding(
                source, 0, REPLAY_DIVERGENCE,
                f"number of query results depends on the tie-break seed "
                f"(seed={seed}): {len(base.results)} vs "
                f"{len(other.results)}",
            )
        )
        return findings
    for index, (expected, got) in enumerate(
        zip(base.results, other.results)
    ):
        if expected != got:
            findings.append(
                Finding(
                    source, index, REPLAY_DIVERGENCE,
                    f"query {index} returned different neighbors under "
                    f"tie-break seed {seed}: {expected[:3]}... vs "
                    f"{got[:3]}...",
                )
            )
            break
    return findings


def replay_check(
    case: ReplayCase, seeds: Sequence[Optional[int]] = (None, 11, 47)
) -> List[Finding]:
    """Replay ``case`` under each seed and diff against the first.

    The default seed set covers the simulator's native stable order
    (``None``) plus two permutations.  Returns [] when every replay
    produced identical query results and per-disk counters.
    """
    if len(seeds) < 2:
        raise ValueError("replay_check needs at least two seeds to compare")
    baseline = case.run(seeds[0])
    findings: List[Finding] = []
    for seed in seeds[1:]:
        findings.extend(
            _diff_summaries(case.name, seed, baseline, case.run(seed))
        )
    return findings

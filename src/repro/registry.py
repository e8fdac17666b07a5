"""Canonical registry of declustering schemes.

Single source of truth mapping a short scheme name (the label used in
the paper's figures: ``new``, ``HIL``, ``DM``, ...) to the class
implementing it.  The CLI's ``schemes`` subcommand lists this table and
experiments can construct schemes by name via :func:`make_declusterer`.

``tests/test_registry.py`` imports ``repro.core`` and
``repro.baselines`` and cross-checks every concrete ``Declusterer``
subclass against this module: a scheme that never appears here is
unreachable from the CLI/harness and fails that test by name.  Adding a
scheme therefore means adding exactly one entry to :data:`DECLUSTERERS`
below.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.baselines.disk_modulo import DiskModuloDeclusterer
from repro.baselines.fx import FXDeclusterer
from repro.baselines.hilbert_decluster import HilbertDeclusterer
from repro.baselines.round_robin import RoundRobinDeclusterer
from repro.core.declustering import Declusterer
from repro.core.optimal import GraphColoringDeclusterer
from repro.core.recursive import RecursiveDeclusterer
from repro.core.vertex_coloring import NearOptimalDeclusterer

__all__ = [
    "DECLUSTERERS",
    "SCHEME_ALIASES",
    "available_schemes",
    "resolve_scheme",
    "make_declusterer",
]

#: Scheme name (as used in figures and reports) -> implementing class.
DECLUSTERERS: Dict[str, Type[Declusterer]] = {
    NearOptimalDeclusterer.name: NearOptimalDeclusterer,
    RecursiveDeclusterer.name: RecursiveDeclusterer,
    GraphColoringDeclusterer.name: GraphColoringDeclusterer,
    RoundRobinDeclusterer.name: RoundRobinDeclusterer,
    DiskModuloDeclusterer.name: DiskModuloDeclusterer,
    FXDeclusterer.name: FXDeclusterer,
    HilbertDeclusterer.name: HilbertDeclusterer,
}

#: Convenience spellings accepted wherever a scheme name is —
#: ``col`` is the paper's name for the near-optimal coloring scheme.
SCHEME_ALIASES: Dict[str, str] = {
    "col": NearOptimalDeclusterer.name,
    "col+rec": RecursiveDeclusterer.name,
    "opt": GraphColoringDeclusterer.name,
    "rr": RoundRobinDeclusterer.name,
    "dm": DiskModuloDeclusterer.name,
    "fx": FXDeclusterer.name,
    "hil": HilbertDeclusterer.name,
}


def available_schemes() -> Tuple[str, ...]:
    """Registered scheme names, in registry order."""
    return tuple(DECLUSTERERS)


def resolve_scheme(scheme: str) -> str:
    """Canonical registry key for ``scheme`` (aliases resolved).

    >>> resolve_scheme("col")
    'new'
    >>> resolve_scheme("DM")
    'DM'
    """
    return SCHEME_ALIASES.get(scheme, scheme)


def make_declusterer(
    scheme: str, dimension: int, num_disks: int, **kwargs: object
) -> Declusterer:
    """Construct the declusterer registered under ``scheme``.

    Extra keyword arguments are forwarded to the scheme's constructor
    (e.g. ``split_values`` for bucket declusterers, ``alpha`` for the
    recursive scheme).  Aliases from :data:`SCHEME_ALIASES` (``col``,
    ``hil``, ...) resolve to their registered scheme.

    >>> make_declusterer("DM", dimension=3, num_disks=4).name
    'DM'
    >>> make_declusterer("col", dimension=3, num_disks=4).name
    'new'
    """
    scheme = resolve_scheme(scheme)
    try:
        cls = DECLUSTERERS[scheme]
    except KeyError:
        known = ", ".join(DECLUSTERERS)
        raise ValueError(
            f"unknown declustering scheme {scheme!r}; registered: {known}"
        ) from None
    return cls(dimension, num_disks, **kwargs)

"""Tests for the declustering-scheme registry (``repro.registry``)."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro.baselines
import repro.core
from repro.core.declustering import BucketDeclusterer, Declusterer
from repro.registry import (
    DECLUSTERERS,
    SCHEME_ALIASES,
    available_schemes,
    make_declusterer,
    resolve_scheme,
)

#: Every bucket scheme of the registry at a low d and at d = 64, the
#: largest bucket space (``opt`` builds a 2^d table, so d <= 16 only).
BUCKET_CASES = [
    (name, dimension)
    for dimension in (5, 64)
    for name, cls in DECLUSTERERS.items()
    if issubclass(cls, BucketDeclusterer)
    and not (name == "graph-color" and dimension > 16)
]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class TestRegistry:
    def test_every_scheme_class_is_registered(self):
        """Every concrete ``Declusterer`` defined in ``repro.core`` or
        ``repro.baselines`` is in ``DECLUSTERERS``; an unregistered
        scheme is unreachable from the CLI and the harness, so the
        experiments would silently stop covering it."""
        packages = (repro.core, repro.baselines)
        for package in packages:
            for info in pkgutil.walk_packages(
                package.__path__, package.__name__ + "."
            ):
                importlib.import_module(info.name)
        schemes = {
            cls for cls in _all_subclasses(Declusterer)
            if cls.__module__.startswith(
                tuple(package.__name__ + "." for package in packages)
            )
            and not inspect.isabstract(cls)
        }
        assert schemes
        unregistered = schemes - set(DECLUSTERERS.values())
        assert not unregistered, sorted(cls.__name__ for cls in unregistered)

    def test_every_figure_label_is_registered(self):
        assert {"new", "new+rec", "RR", "DM", "FX", "HIL"} <= set(
            available_schemes()
        )

    def test_names_match_class_name_attributes(self):
        for name, cls in DECLUSTERERS.items():
            assert cls.name == name

    def test_make_declusterer_constructs_each_scheme(self):
        for name in available_schemes():
            declusterer = make_declusterer(name, dimension=3, num_disks=4)
            assert isinstance(declusterer, Declusterer)
            assert declusterer.dimension == 3
            assert declusterer.num_disks == 4

    def test_make_declusterer_forwards_kwargs(self):
        recursive = make_declusterer(
            "new+rec", dimension=3, num_disks=4, max_levels=2
        )
        assert recursive.max_levels == 2

    @pytest.mark.parametrize(
        "alias", ["col", "col+rec", "opt", "rr", "dm", "fx", "hil"]
    )
    def test_every_alias_round_trips_to_a_canonical_scheme(self, alias):
        """Aliases resolve, construct, and land on a registered name."""
        canonical = resolve_scheme(alias)
        assert canonical in DECLUSTERERS
        declusterer = make_declusterer(alias, dimension=3, num_disks=4)
        assert isinstance(declusterer, Declusterer)
        assert declusterer.name == canonical
        assert type(declusterer) is DECLUSTERERS[canonical]

    def test_alias_table_targets_are_all_registered(self):
        for alias, canonical in SCHEME_ALIASES.items():
            assert canonical in DECLUSTERERS, alias

    def test_resolve_scheme_is_identity_on_canonical_names(self):
        for name in DECLUSTERERS:
            assert resolve_scheme(name) == name

    @pytest.mark.parametrize("scheme, dimension", BUCKET_CASES)
    def test_assign_is_disk_for_bucket_of_the_exact_bucket(
        self, scheme, dimension
    ):
        """Vectorized bucket numbers equal the exact (Python int) ones.
        Every point lies in the upper half of its last dimension: at
        d = 64 that is bit 63, which int64 wrapped negative."""
        declusterer = make_declusterer(scheme, dimension, 4)
        points = np.random.default_rng(dimension).random((40, dimension))
        points[:, -1] = 0.5 + points[:, -1] / 2
        exact = [
            sum(1 << i for i, x in enumerate(point) if x >= 0.5)
            for point in points
        ]
        assert declusterer.assign(points).tolist() == [
            declusterer.disk_for_bucket(bucket) for bucket in exact
        ]

    def test_unknown_scheme_lists_known_names(self):
        with pytest.raises(ValueError, match="HIL"):
            make_declusterer("nope", dimension=3, num_disks=4)

    def test_cli_schemes_subcommand(self, capsys):
        from repro.cli import main

        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in available_schemes():
            assert name in out

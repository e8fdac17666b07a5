"""Tests for the experiment harness (ResultTable + cost helpers)."""

import numpy as np
import pytest

from repro.baselines import RoundRobinDeclusterer
from repro.core import NearOptimalDeclusterer
from repro.experiments.harness import (
    ResultTable,
    geometric_mean,
    query_costs,
)
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.store import DeclusteredStore


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable("Demo", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", 3)
        table.add_note("a note")
        text = table.to_text()
        assert "Demo" in text
        assert "2.5" in text
        assert "note: a note" in text

    def test_row_length_checked(self):
        table = ResultTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_access(self):
        table = ResultTable("Demo", ["a", "b"])
        table.add_row(1, 10)
        table.add_row(2, 20)
        assert table.column("b") == [10, 20]

    def test_empty_table_renders(self):
        table = ResultTable("Empty", ["only"])
        assert "Empty" in table.to_text()

    def test_float_formatting(self):
        table = ResultTable("F", ["v"])
        table.add_row(0.123456)
        assert "0.123" in table.to_text()


class TestGeometricMean:
    def test_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])


class TestCostHelpers:
    def test_sequential_costs(self, medium_uniform, rng):
        engine = SequentialEngine(medium_uniform)
        costs = query_costs(engine, rng.random((4, 8)), 3)
        assert costs.mean_pages > 0
        assert costs.mean_time_ms > 0
        assert costs.mean_balance == 1.0  # one disk is always balanced

    def test_paged_costs(self, medium_uniform, rng):
        store = PagedStore(
            points=medium_uniform, declusterer=NearOptimalDeclusterer(8, 8)
        )
        costs = query_costs(PagedEngine(store), rng.random((4, 8)), 3)
        assert costs.mean_pages > 0
        assert costs.mean_balance >= 1.0

    def test_item_costs(self, medium_uniform, rng):
        store = DeclusteredStore(
            medium_uniform, RoundRobinDeclusterer(8, 4)
        )
        costs = query_costs(ParallelEngine(store), rng.random((4, 8)), 3)
        assert costs.mean_pages > 0
        assert costs.mean_balance >= 1.0

    def test_paged_and_sequential_consistent_at_one_disk(
        self, medium_uniform, rng
    ):
        queries = rng.random((4, 8))
        sequential = SequentialEngine(medium_uniform)
        store = PagedStore(
            tree=sequential.tree,
            declusterer=NearOptimalDeclusterer(8, 1),
        )
        seq = query_costs(sequential, queries, 5)
        par = query_costs(PagedEngine(store), queries, 5)
        assert par.mean_pages == pytest.approx(seq.mean_pages)

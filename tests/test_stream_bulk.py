"""Streaming STR construction parity (``stream_bulk_load_mmap``).

The loader's contract is *byte identity*: for any dataset, chunk size,
and source kind (array, ``.npy`` path, chunk iterator), the
``store.json`` / ``tree.npz`` / per-disk page files it writes must be
``filecmp``-identical to what the in-memory route — ``bulk_load`` +
``PagedStore`` + ``save_paged_store`` — writes for the same inputs.  That
route builds real leaf entries and never runs the loader's code, so the
loader is never compared with itself.  Hypothesis draws the datasets
and chunk sizes (including ``chunk_rows=1`` — maximal spilling — and
chunk sizes larger than N); the assertions compare raw file bytes,
never parsed structures.  The code both routes share (``str_chunks``,
the store writer) is pinned by SHA-256 digests of three seeded stores
(``tests/golden/store_digests.json``).

Also here: the block-wise run merge against its row-at-a-time
``heapq.merge`` oracle (``tests/merge_oracle.py``), the non-finite
coordinate and inexact-oid rejection of every bulk loader, argument
validation, and crash-path tests proving a failed build never leaves an
orphaned ``.spill`` directory or an open file handle behind.
"""

import filecmp
import functools
import gc
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.storage.bulk as storage_bulk
from repro.core import NearOptimalDeclusterer
from repro.index.bulk import bulk_load
from repro.index.xtree import XTree
from repro.lint import LintConfig, run_lint
from repro.parallel.paged import PagedStore
from repro.registry import make_declusterer
from repro.storage import (
    SPILL_DIR_NAME,
    MmapStore,
    SpillFile,
    bulk_load_mmap,
    save_paged_store,
    sort_segment,
    stream_bulk_load_mmap,
)
from repro.storage import mmap_store
from repro.storage.mmap_store import TREE_NPZ
from repro.storage.pagefile import PAGEFILE_FORMAT_VERSION, PageFileWriter
from repro.storage.spill import DEFAULT_MERGE_FANIN, _merge_runs
from tests import merge_oracle
from tests.test_storage_lifetimes import _open_fds

SMALL_RAM = 1 << 16  # 64 KiB: forces external sorting on tiny inputs.


def dataset(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Duplicate some rows so the external sort's stability is load
    # bearing: ties must come out in original-position order.
    points = rng.random((n, d))
    if n >= 8:
        points[n // 2 :: 3] = points[: (n - n // 2 + 2) // 3]
    return points


def store_files(directory: Path):
    return sorted(
        name
        for name in os.listdir(directory)
        if (directory / name).is_file()
    )


def assert_stores_identical(reference: Path, candidate: Path):
    names = store_files(reference)
    assert store_files(candidate) == names
    assert names, "store directory is empty"
    for name in names:
        assert filecmp.cmp(
            reference / name, candidate / name, shallow=False
        ), f"{name} differs between in-memory and streaming builds"


def build_reference(points, declusterer, directory, oids=None):
    """The parity reference: ``bulk_load`` + ``PagedStore`` +
    ``save_paged_store`` — the in-memory route, not the loader."""
    save_paged_store(PagedStore(points, declusterer, oids=oids), directory)


def build_pair(points, tmp_path, *, num_disks=4, oids=None, **stream_kwargs):
    """Build the same dataset twice (in-memory route and streaming
    loader) and return the two store directories, both closed."""
    d = points.shape[1]
    reference = tmp_path / "reference"
    candidate = tmp_path / "candidate"
    build_reference(
        points, NearOptimalDeclusterer(d, num_disks), reference, oids=oids
    )
    stream_bulk_load_mmap(
        points,
        NearOptimalDeclusterer(d, num_disks),
        candidate,
        oids=oids,
        **stream_kwargs,
    ).close()
    return reference, candidate


class TestByteParity:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 150),
        d=st.integers(1, 5),
        chunk_rows=st.one_of(
            st.none(), st.just(1), st.integers(2, 200)
        ),
        seed=st.integers(0, 999),
    )
    def test_streaming_build_is_byte_identical(
        self, n, d, chunk_rows, seed, tmp_path_factory
    ):
        """The core oracle: any dataset, any chunk size (1 row up to
        more than N), identical output files."""
        tmp_path = tmp_path_factory.mktemp("parity")
        points = dataset(n, d, seed)
        # d=1 only admits 2 colors under the near-optimal scheme.
        reference, candidate = build_pair(
            points,
            tmp_path,
            num_disks=2 if d == 1 else 4,
            chunk_rows=chunk_rows,
            max_ram_bytes=SMALL_RAM,
        )
        assert_stores_identical(reference, candidate)
        assert not (candidate / SPILL_DIR_NAME).exists()

    @pytest.mark.parametrize("chunk_rows", [1, 7, 10_000])
    def test_extreme_chunk_sizes(self, chunk_rows, tmp_path):
        """chunk=1 (every row its own sort run) and chunk>N (no
        spill-merge at all) hit the two boundary code paths."""
        points = dataset(97, 3, seed=5)
        reference, candidate = build_pair(
            points, tmp_path, chunk_rows=chunk_rows
        )
        assert_stores_identical(reference, candidate)

    @pytest.mark.parametrize("near", ["capacity", "count"])
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_sizes_straddling_the_in_ram_threshold(
        self, near, delta, tmp_path
    ):
        """A segment is finished in RAM the first time it fits
        ``max(capacity, chunk_rows)``: chunk sizes one below, at and one
        above a leaf's capacity and the whole dataset cross that line."""
        points = dataset(500, 3, seed=21)
        capacity = max(4, int(XTree(3).leaf_cap * 0.85))
        assert capacity < len(points)
        base = capacity if near == "capacity" else len(points)
        reference, candidate = build_pair(
            points, tmp_path, chunk_rows=base + delta
        )
        assert_stores_identical(reference, candidate)

    def test_npy_path_source(self, tmp_path):
        points = dataset(120, 4, seed=9)
        npy = tmp_path / "points.npy"
        np.save(npy, points)
        reference = tmp_path / "reference"
        candidate = tmp_path / "candidate"
        decl = NearOptimalDeclusterer(4, 4)
        build_reference(points, decl, reference)
        stream_bulk_load_mmap(
            str(npy), decl, candidate, chunk_rows=11
        ).close()
        assert_stores_identical(reference, candidate)

    def test_iterator_source_with_ragged_chunks(self, tmp_path):
        """An iterable of uneven row chunks (including empty ones) is
        equivalent to the concatenated array."""
        points = dataset(83, 3, seed=2)
        splits = [0, 1, 1, 14, 40, 40, 83]
        chunks = [
            points[a:b] for a, b in zip(splits, splits[1:])
        ]
        reference = tmp_path / "reference"
        candidate = tmp_path / "candidate"
        decl = NearOptimalDeclusterer(3, 4)
        build_reference(points, decl, reference)
        stream_bulk_load_mmap(
            iter(chunks), decl, candidate, chunk_rows=9
        ).close()
        assert_stores_identical(reference, candidate)

    def test_explicit_oids(self, tmp_path):
        points = dataset(60, 2, seed=31)
        oids = np.arange(1000, 1060)[::-1].copy()
        reference, candidate = build_pair(
            points, tmp_path, oids=oids, chunk_rows=13
        )
        assert_stores_identical(reference, candidate)
        with MmapStore(candidate) as store:
            seen = sorted(
                int(oid)
                for leaf in store.tree.leaves()
                for oid in store.read_page(leaf)[1]
            )
        assert seen == sorted(int(o) for o in oids)

    @pytest.mark.parametrize("scheme", ["new", "RR", "HIL"])
    def test_parity_across_declustering_schemes(self, scheme, tmp_path):
        """Schemes with internal state (round-robin) still agree: each
        build gets a fresh declusterer instance."""
        points = dataset(110, 3, seed=17)
        reference = tmp_path / "reference"
        candidate = tmp_path / "candidate"
        build_reference(points, make_declusterer(scheme, 3, 4), reference)
        stream_bulk_load_mmap(
            points,
            make_declusterer(scheme, 3, 4),
            candidate,
            chunk_rows=8,
        ).close()
        assert_stores_identical(reference, candidate)

    def test_empty_iterator_needs_dimension(self, tmp_path):
        decl = NearOptimalDeclusterer(3, 2)
        store = stream_bulk_load_mmap(
            iter([]), decl, tmp_path / "empty", dimension=3
        )
        try:
            assert len(store) == 0
        finally:
            store.close()
        reference = tmp_path / "reference"
        build_reference(np.zeros((0, 3)), decl, reference)
        assert_stores_identical(reference, tmp_path / "empty")


GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "store_digests.json"

#: The pinned stores: (points, scheme, disks).
PINNED = {
    "d3-new": (lambda: dataset(300, 3, seed=41), "new", 4),
    "d16-col": (lambda: dataset(2000, 16, seed=43), "col", 4),
    "empty": (lambda: np.zeros((0, 3)), "new", 2),
}


def store_digests(directory: Path):
    """SHA-256 of every store file; ``tree.npz`` per member as loaded
    by ``np.load`` (dtype, shape and data — not the zip's bytes, which a
    zlib upgrade may change)."""
    digests = {}
    for name in store_files(directory):
        if name != TREE_NPZ:
            data = (directory / name).read_bytes()
            digests[name] = hashlib.sha256(data).hexdigest()
            continue
        with np.load(directory / name, allow_pickle=False) as arrays:
            for member in sorted(arrays.files):
                array = arrays[member]
                digest = hashlib.sha256(
                    f"{array.dtype.str}{array.shape}".encode()
                )
                digest.update(array.tobytes())
                digests[f"{name}:{member}"] = digest.hexdigest()
    return digests


def format_versions():
    """The two on-disk format revisions a store is written with."""
    return {
        "page_file": PAGEFILE_FORMAT_VERSION,
        "store": mmap_store._STORE_FORMAT_VERSION,
    }


def build_pinned(name: str, route: str, directory: Path) -> None:
    """Write pinned store ``name`` through ``route`` into ``directory``."""
    make_points, scheme, disks = PINNED[name]
    points = make_points()
    declusterer = make_declusterer(scheme, points.shape[1], disks)
    if route == "in-memory":
        build_reference(points, declusterer, directory)
    elif route == "array":
        bulk_load_mmap(points, declusterer, directory).close()
    else:
        stream_bulk_load_mmap(
            points, declusterer, directory, chunk_rows=64
        ).close()


def write_golden_digests(scratch: Path) -> None:
    """Regenerate ``GOLDEN_DIGESTS`` with the current format versions
    (``python -m tests.test_stream_bulk``; only after a version bump)."""
    golden = {"format_versions": format_versions()}
    for name in sorted(PINNED):
        build_pinned(name, "in-memory", scratch / name)
        golden[name] = store_digests(scratch / name)
    GOLDEN_DIGESTS.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


class TestFormatPin:
    """The loader and the in-memory route share ``str_chunks`` and the
    store writer, so parity alone cannot see both drift together; these
    digests can.  The file records the format versions it was written
    with: bytes that change under the same versions are a layout change
    nobody versioned; a deliberate one bumps a version and regenerates
    the file (:func:`write_golden_digests`)."""

    @pytest.mark.parametrize("route", ["in-memory", "array", "stream"])
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_store_digests(self, name, route, tmp_path):
        build_pinned(name, route, tmp_path / name)
        golden = json.loads(GOLDEN_DIGESTS.read_text())
        if store_digests(tmp_path / name) != golden[name]:
            assert golden["format_versions"] != format_versions(), (
                "format changed without a version bump"
            )
            pytest.fail(
                f"format versions {golden['format_versions']} -> "
                f"{format_versions()}: regenerate {GOLDEN_DIGESTS.name}"
            )


LOADERS = ["bulk_load", "bulk_load_mmap", "stream_bulk_load_mmap"]


def stored_oids(loader, points, oids, directory):
    """Build with ``loader``; the oids it stored, in leaf order."""
    if loader == "bulk_load":
        tree = bulk_load(points, oids=oids)
        return [entry.oid for leaf in tree.leaves() for entry in leaf.entries]
    build = {
        "bulk_load_mmap": bulk_load_mmap,
        "stream_bulk_load_mmap": functools.partial(
            stream_bulk_load_mmap, chunk_rows=16
        ),
    }[loader]
    declusterer = NearOptimalDeclusterer(points.shape[1], 4)
    with build(points, declusterer, directory, oids=oids) as store:
        return [
            int(oid) for leaf in store.leaves for oid in store.read_page(leaf)[1]
        ]


class TestOids:
    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize(
        "bad", [0.5, 1e19, -1e19, np.nan], ids=["half", "big", "-big", "nan"]
    )
    def test_inexact_oids_are_rejected(self, loader, bad, tmp_path):
        """An oid int64 cannot hold exactly is refused, not truncated
        (``17.5`` used to become 17)."""
        oids = np.arange(50, dtype=float)
        oids[17] += bad
        with pytest.raises(ValueError, match="oid .* at position 17"):
            stored_oids(loader, dataset(50, 3, seed=4), oids, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("loader", LOADERS)
    def test_integral_float_oids_are_accepted(self, loader, tmp_path):
        """3.0 is an int64 value: stored exactly as the integer 3."""
        points = dataset(50, 3, seed=4)
        oids = np.arange(100, 150)[::-1]
        exact = stored_oids(loader, points, oids, tmp_path / "int")
        assert sorted(exact) == sorted(oids.tolist())
        floats = stored_oids(
            loader, points, oids.astype(float), tmp_path / "float"
        )
        assert floats == exact
        assert {type(oid) for oid in floats} == {int}

    @pytest.mark.parametrize("loader", LOADERS)
    def test_wrong_shape_is_rejected(self, loader, tmp_path):
        with pytest.raises(ValueError, match="oids must have shape"):
            stored_oids(loader, dataset(50, 3, seed=4), np.arange(5), tmp_path)


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"fill": 0.5}, "fill must be"),
            ({"chunk_rows": 0}, "chunk_rows must be"),
            ({"max_ram_bytes": 0}, "max_ram_bytes must be"),
            ({"max_ram_bytes": -1, "chunk_rows": 5}, "max_ram_bytes must be"),
            ({"dimension": 4}, "dimension=4 was given"),
        ],
    )
    def test_bad_arguments_raise_and_leave_nothing(
        self, kwargs, message, tmp_path
    ):
        target = tmp_path / "store"
        with pytest.raises(ValueError, match=message):
            stream_bulk_load_mmap(
                dataset(40, 3, seed=1),
                NearOptimalDeclusterer(3, 2),
                target,
                **kwargs,
            )
        assert not target.exists()

    def test_callable_needs_num_disks_before_any_work(self, tmp_path):
        with pytest.raises(ValueError, match="num_disks is required"):
            stream_bulk_load_mmap(
                dataset(40, 3, seed=1),
                lambda centers: np.zeros(len(centers), dtype=np.int64),
                tmp_path / "store",
            )
        assert not (tmp_path / "store").exists()

    def test_failure_keeps_a_directory_it_did_not_create(self, tmp_path):
        (tmp_path / "keep.txt").write_text("mine")
        with pytest.raises(ValueError, match="non-finite"):
            stream_bulk_load_mmap(
                np.full((5, 3), np.nan), NearOptimalDeclusterer(3, 2), tmp_path
            )
        assert sorted(os.listdir(tmp_path)) == ["keep.txt"]


def _write_runs(tmp_path, runs):
    """Sorted ``(key, serial)`` runs as ``SpillFile``s; the serial column
    numbers the rows in run order, so it names each row's origin."""
    files, serial = [], 0
    for index, keys in enumerate(runs):
        rows = np.column_stack(
            [np.asarray(keys, dtype=float), serial + np.arange(len(keys))]
        ).reshape(len(keys), 2)
        serial += len(keys)
        run = SpillFile(tmp_path / f"run-{index}.spill", 2)
        run.append(rows)
        files.append(run)
    return files


class TestMergeOracle:
    """The block merge emits exactly the row sequence of the deleted
    row-at-a-time ``heapq.merge`` (ties to the earlier run)."""

    CASES = {
        "all-equal-keys": [[5.0] * 7, [5.0] * 3, [5.0] * 9],
        # The 2.0 group ends run 0's first block (block_rows = 2 at
        # chunk_rows 8), continues into its next blocks, and reappears
        # in runs 1 and 2.
        "ties-span-blocks-and-runs": [
            [1.0, 2.0, 2.0, 2.0, 2.0, 3.0],
            [0.5, 2.0, 2.0, 4.0],
            [2.0, 2.0, 2.0, 2.0, 2.0],
        ],
        "single-row-runs": [[3.0], [1.0], [3.0], [2.0], [1.0]],
        "signed-zeros": [[-1.0, -0.0, 0.0, 1.0], [0.0, -0.0, -0.0], [-0.0, 2.0]],
        "with-an-empty-run": [[1.0, 2.0], [], [0.0, 2.0, 2.0]],
        "one-run": [[1.0, 1.0, 2.0, 5.0]],
    }

    @pytest.mark.parametrize("chunk_rows", [1, 2, 8, 1000])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_heapq_merge(self, case, chunk_rows, tmp_path):
        runs = _write_runs(tmp_path, self.CASES[case])
        try:
            emitted = []
            _merge_runs(
                runs, lambda block: emitted.append(block.copy()), 0, chunk_rows
            )
            want = merge_oracle.merge_runs(runs, 0, chunk_rows)
        finally:
            for run in runs:
                run.delete()
        got = np.concatenate(emitted)
        assert all(len(block) for block in emitted)
        assert np.array_equal(got, want)
        # ``array_equal`` treats -0.0 == 0.0; the serials pin the order.
        assert got[:, 1].tolist() == want[:, 1].tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.integers(0, 4), max_size=12).map(sorted),
            min_size=1,
            max_size=6,
        ),
        chunk_rows=st.integers(1, 40),
    )
    def test_matches_heapq_merge_on_drawn_runs(
        self, runs, chunk_rows, tmp_path_factory
    ):
        files = _write_runs(tmp_path_factory.mktemp("merge"), runs)
        try:
            emitted = [np.empty((0, 2))]
            _merge_runs(
                files, lambda block: emitted.append(block.copy()), 0, chunk_rows
            )
            want = merge_oracle.merge_runs(files, 0, chunk_rows)
        finally:
            for run in files:
                run.delete()
        assert np.array_equal(np.concatenate(emitted), want)

    def test_empty_run_list_emits_nothing(self):
        emitted = []
        _merge_runs([], emitted.append, 0, 16)
        assert emitted == []

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_cascade_beyond_the_fanin(self, chunk_rows, tmp_path):
        """More than ``DEFAULT_MERGE_FANIN`` runs merge through
        intermediate runs and still equal one global stable sort."""
        count = chunk_rows * (2 * DEFAULT_MERGE_FANIN + 5)
        rng = np.random.default_rng(4)
        rows = np.column_stack(
            [rng.integers(0, 6, count).astype(float), np.arange(count)]
        )
        with SpillFile(tmp_path / "src.f64", 2) as src, SpillFile(
            tmp_path / "dst.f64", 2
        ) as dst:
            src.append(rows)
            sort_segment(
                src, dst, 0, count, 0, chunk_rows=chunk_rows, run_dir=tmp_path
            )
            got = dst.read(0, count)
        assert np.array_equal(got, rows[np.argsort(rows[:, 0], kind="stable")])
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dst.f64", "src.f64",
        ]


class TestNonFiniteRejected:
    """One NaN used to poison its leaf's MBR and hide that page's finite
    points from every query; every bulk loader now refuses it."""

    @staticmethod
    def poisoned(bad):
        points = dataset(300, 3, seed=12)
        points[217, 1] = bad
        return points

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_in_memory_loaders(self, bad, tmp_path):
        points = self.poisoned(bad)
        with pytest.raises(ValueError, match="point 217 has a non-finite"):
            bulk_load(points)
        with pytest.raises(ValueError, match="point 217 has a non-finite"):
            bulk_load_mmap(
                points, NearOptimalDeclusterer(3, 4), tmp_path / "store"
            )
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("source", ["array", "npy", "iterator"])
    def test_streaming_sources(self, source, tmp_path):
        points = self.poisoned(np.nan)
        feed = {
            "array": lambda: points,
            "npy": lambda: str(tmp_path / "points.npy"),
            "iterator": lambda: iter([points[:100], points[100:]]),
        }[source]
        np.save(tmp_path / "points.npy", points)
        target = tmp_path / "store"
        gc.collect()
        before = _open_fds()
        # Holding the traceback keeps the loader's frames alive: the
        # handles must be closed, not merely unreferenced.
        with pytest.raises(ValueError, match="point 217 has a non-finite") as held:
            stream_bulk_load_mmap(
                feed(), NearOptimalDeclusterer(3, 4), target, chunk_rows=64
            )
        assert _open_fds() == before
        del held
        assert not (target / SPILL_DIR_NAME).exists()


class TestCrashCleanup:
    def test_failing_source_leaves_no_spill_files(self, tmp_path):
        """A source iterator that dies mid-ingest must not orphan the
        spill directory or its record files."""

        def exploding():
            yield np.random.default_rng(0).random((10, 3))
            raise RuntimeError("disk on fire")

        target = tmp_path / "store"
        with pytest.raises(RuntimeError, match="disk on fire"):
            stream_bulk_load_mmap(
                exploding(),
                NearOptimalDeclusterer(3, 2),
                target,
                chunk_rows=4,
            )
        assert not (target / SPILL_DIR_NAME).exists()

    def test_failure_after_merge_leaves_no_spill_files(self, tmp_path):
        """A declusterer that rejects its assignment fails *after* the
        external sorts have produced spill runs; cleanup must still
        reclaim every spill byte."""

        def bad_assignment(centers):
            raise RuntimeError("assignment rejected")

        target = tmp_path / "store"
        points = dataset(64, 3, seed=3)
        with pytest.raises(RuntimeError, match="assignment rejected"):
            stream_bulk_load_mmap(
                points,
                bad_assignment,
                target,
                num_disks=2,
                chunk_rows=4,
            )
        assert not (target / SPILL_DIR_NAME).exists()

    def test_bad_oid_shape_cleans_up(self, tmp_path):
        target = tmp_path / "store"
        points = dataset(32, 2, seed=8)
        with pytest.raises(ValueError, match="oids must have shape"):
            stream_bulk_load_mmap(
                points,
                NearOptimalDeclusterer(2, 2),
                target,
                oids=np.arange(5),
                chunk_rows=6,
            )
        assert not (target / SPILL_DIR_NAME).exists()

    def test_failure_inside_the_in_ram_finish(self, tmp_path, monkeypatch):
        """The segment's block is read and its sub-recursion under way
        when the failure hits: both record files must still go."""
        real = storage_bulk.str_chunks

        def failing(points, capacity, **kwargs):
            if "start_dim" in kwargs:
                raise RuntimeError("recursion failed")
            return real(points, capacity, **kwargs)

        monkeypatch.setattr(storage_bulk, "str_chunks", failing)
        target = tmp_path / "store"
        gc.collect()
        before = _open_fds()
        with pytest.raises(RuntimeError, match="recursion failed"):
            stream_bulk_load_mmap(
                dataset(400, 3, seed=6),
                NearOptimalDeclusterer(3, 2),
                target,
                chunk_rows=150,
            )
        assert _open_fds() == before
        assert not (target / SPILL_DIR_NAME).exists()

    def test_failure_inside_a_batched_page_write(self, tmp_path, monkeypatch):
        """A page-file write that dies mid-store closes its writer and
        reclaims the spill files."""
        real = PageFileWriter.write_slots
        calls = []

        def failing(self, first, counts, oids, points):
            calls.append(first)
            if len(calls) == 2:
                raise OSError("no space left on device")
            real(self, first, counts, oids, points)

        monkeypatch.setattr(PageFileWriter, "write_slots", failing)
        target = tmp_path / "store"
        gc.collect()
        before = _open_fds()
        with pytest.raises(OSError, match="no space left"):
            stream_bulk_load_mmap(
                dataset(400, 3, seed=6),
                NearOptimalDeclusterer(3, 2),
                target,
                chunk_rows=150,
            )
        assert len(calls) == 2
        assert _open_fds() == before
        assert not (target / SPILL_DIR_NAME).exists()

    def test_storage_layer_is_resource_leak_clean(self):
        findings = run_lint(
            [Path(storage_bulk.__file__).parent],
            LintConfig(enabled=frozenset({"resource-leak"})),
        )
        assert findings == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_golden_digests(Path(scratch))

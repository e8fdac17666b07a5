"""Tests for the out-of-core page store (``repro.storage``).

Covers the page-file format (round trip, crash/truncation behavior,
oversized payloads), the store directory round trip, the edge cases the
format must handle (zero-page disks, concurrent mappings), and the
bit-for-bit equivalence of :class:`~repro.parallel.paged.PagedEngine`
over an :class:`~repro.storage.mmap_store.MmapStore` with the in-memory
reference — including the buffer-pool charging contract and the scalar
kernel fallback.
"""

import functools
import json

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.index.metrics import Euclidean
from repro.index.node import Node
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.parallel.paged import PagedEngine, PagedStore, striped_assignment
from repro.storage import (
    HEADER_BYTES,
    MmapStore,
    PAGEFILE_FORMAT_VERSION,
    PageFile,
    PageFileWriter,
    PageFormatError,
    SlotOverflowError,
    StoreFormatError,
    bulk_load_mmap,
    load_paged_store,
    payload_bytes,
    save_paged_store,
    stream_bulk_load_mmap,
)
from tests.scalar_oracle import scalar_kernels


def _results_equal(a, b):
    assert [(n.oid, n.distance) for n in a.neighbors] == [
        (n.oid, n.distance) for n in b.neighbors
    ]
    assert np.array_equal(a.pages_per_disk, b.pages_per_disk)
    assert a.distance_computations == b.distance_computations
    assert a.parallel_time_ms == b.parallel_time_ms


@pytest.fixture
def paged_store(small_uniform):
    return PagedStore(
        points=small_uniform, declusterer=NearOptimalDeclusterer(6, 4)
    )


@pytest.fixture
def store_dir(paged_store, tmp_path):
    directory = tmp_path / "store"
    save_paged_store(paged_store, directory)
    return directory


#: Slot sizes the multi-slot gathers must get right (byte rows last).
_SLOT_SIZES = pytest.mark.parametrize(
    "slot_bytes",
    [4096, payload_bytes(12, 3) + 8, payload_bytes(12, 3) + 5],
    ids=["page-sized", "snug", "not-a-multiple-of-8"],
)


class TestPageFile:
    def _write(self, path, payloads, dimension=3, slot_bytes=4096):
        writer = PageFileWriter(
            path, disk_id=2, num_slots=len(payloads),
            slot_bytes=slot_bytes, dimension=dimension, page_bytes=4096,
            width=max((len(oids) for oids, _ in payloads), default=0),
        )
        with writer:
            for slot, (oids, points) in enumerate(payloads):
                writer.write_slot(slot, oids, points)

    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        payloads = [
            (
                np.arange(count, dtype=np.int64) * 7,
                rng.random((count, 3)),
            )
            for count in (5, 0, 12)
        ]
        self._write(path, payloads)
        with PageFile(path) as handle:
            assert handle.disk_id == 2
            assert handle.num_slots == 3
            for slot, (oids, points) in enumerate(payloads):
                got_points, got_oids = handle.read_slot(slot)
                assert got_points.tobytes() == points.tobytes()
                assert got_oids.tobytes() == oids.tobytes()
                assert handle.entry_count(slot) == len(oids)

    def test_reads_survive_close(self, rng, tmp_path):
        """read_slot returns owned copies, not views into the mapping."""
        path = tmp_path / "disk.pages"
        points = rng.random((4, 3))
        self._write(path, [(np.arange(4, dtype=np.int64), points)])
        handle = PageFile(path)
        got_points, got_oids = handle.read_slot(0)
        handle.close()
        assert np.array_equal(got_points, points)
        assert got_oids.sum() == 6

    def test_zero_slot_file(self, tmp_path):
        """A disk that owns no pages still gets a valid (header-only)
        file."""
        path = tmp_path / "empty.pages"
        self._write(path, [])
        with PageFile(path) as handle:
            assert handle.num_slots == 0
            assert path.stat().st_size == HEADER_BYTES

    def test_oversized_payload_raises_not_truncates(self, rng, tmp_path):
        """A payload over the slot raises — at open when ``W`` rows would
        not fit a slot, at write when a page is wider than ``W``."""
        path = tmp_path / "disk.pages"
        big = rng.random((10, 3))
        assert payload_bytes(10, 3) > 64
        with pytest.raises(SlotOverflowError, match="slot"):
            PageFileWriter(
                path, disk_id=0, num_slots=1, slot_bytes=64,
                dimension=3, page_bytes=64, width=10,
            )
        assert not path.exists()
        writer = PageFileWriter(
            path, disk_id=0, num_slots=1, slot_bytes=64,
            dimension=3, page_bytes=64, width=2,
        )
        with pytest.raises(SlotOverflowError, match="slot"):
            writer.write_slot(0, np.arange(10, dtype=np.int64), big)
        writer.close()

    @_SLOT_SIZES
    def test_write_slots_equals_slot_by_slot(self, rng, tmp_path, slot_bytes):
        """One batched write of consecutive slots (mixed entry counts,
        an empty page) leaves the bytes per-slot writes leave."""
        counts = [5, 0, 12, 5, 1]
        payloads = [
            (rng.integers(-2**62, 2**62, count), rng.random((count, 3)))
            for count in counts
        ]
        self._write(tmp_path / "single.pages", payloads, slot_bytes=slot_bytes)
        writer = PageFileWriter(
            tmp_path / "batched.pages", disk_id=2, num_slots=len(counts),
            slot_bytes=slot_bytes, dimension=3, page_bytes=4096,
            width=max(counts),
        )
        with writer:
            writer.write_slots(
                1,
                counts[1:],
                np.concatenate([oids for oids, _ in payloads[1:]]),
                np.vstack([points for _, points in payloads[1:]]),
            )
            writer.write_slot(0, *payloads[0])
            over = slot_bytes // payload_bytes(1, 3) + 1
            with pytest.raises(SlotOverflowError, match="slot"):
                writer.write_slots(
                    0, [1, over], np.arange(1 + over), rng.random((1 + over, 3))
                )
            with pytest.raises(ValueError, match="outside"):
                writer.write_slots(4, [1, 1], np.arange(2), rng.random((2, 3)))
        assert (tmp_path / "batched.pages").read_bytes() == (
            tmp_path / "single.pages"
        ).read_bytes()

    def test_truncated_file_fails_fast(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        self._write(path, [(np.arange(3, dtype=np.int64),
                            rng.random((3, 3)))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])  # chop the tail: simulated crash
        with pytest.raises(PageFormatError, match="bytes"):
            PageFile(path)

    def test_bad_magic_and_version_are_rejected(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        self._write(path, [(np.arange(2, dtype=np.int64),
                            rng.random((2, 3)))])
        raw = bytearray(path.read_bytes())
        corrupt = tmp_path / "corrupt.pages"
        corrupt.write_bytes(b"NOTAPAGE" + raw[8:])
        with pytest.raises(PageFormatError, match="magic"):
            PageFile(corrupt)
        versioned = bytearray(raw)
        versioned[8] = PAGEFILE_FORMAT_VERSION + 1  # little-endian u32
        wrong = tmp_path / "wrong_version.pages"
        wrong.write_bytes(bytes(versioned))
        with pytest.raises(PageFormatError, match="format version"):
            PageFile(wrong)

    def test_missing_file_is_a_format_error(self, tmp_path):
        with pytest.raises(PageFormatError, match="does not exist"):
            PageFile(tmp_path / "nope.pages")

    def test_unwritten_slots_read_as_empty_pages(self, tmp_path):
        """The writer pre-truncates and commits counts at close: a slot
        never written (crash before close) is an empty page, not
        garbage."""
        writer = PageFileWriter(
            tmp_path / "disk.pages", disk_id=0, num_slots=2,
            slot_bytes=128, dimension=2, page_bytes=128, width=1,
        )
        writer.write_slot(
            1, np.array([9], dtype=np.int64), np.zeros((1, 2))
        )
        writer.close()
        with PageFile(tmp_path / "disk.pages") as handle:
            points, oids = handle.read_slot(0)
            assert len(oids) == 0 and points.shape == (0, 2)
            assert handle.entry_count(1) == 1
            # close() padded the slot never written: the gather sees an
            # empty page (all +inf), not a zero point.
            points, oids = _gathered(handle, [0, 1])
            assert np.isposinf(points[0]).all()
            assert points[1].tobytes() == np.zeros(2).tobytes()
            assert list(oids) == [0, 9]

    @_SLOT_SIZES
    def test_read_slots_matches_read_slot(self, rng, tmp_path, slot_bytes):
        """The multi-slot read (``gather``) gives exactly the per-slot
        reads, whatever the slot size (aligned or not), entry-count mix,
        order or repetition: ``W`` rows a slot, ``+inf`` past its count.
        Both equal what was written, slot by slot or in one run."""
        payloads = [
            (rng.integers(-2**62, 2**62, count), rng.random((count, 3)))
            for count in (5, 0, 12, 5)
        ]
        single, batched = tmp_path / "single.pages", tmp_path / "batched.pages"
        self._write(single, payloads, slot_bytes=slot_bytes)
        with PageFileWriter(
            batched, disk_id=2, num_slots=4, slot_bytes=slot_bytes,
            dimension=3, page_bytes=4096, width=12,
        ) as writer:
            writer.write_slots(
                0, [5, 0, 12, 5],
                np.concatenate([oids for oids, _ in payloads]),
                np.vstack([points for _, points in payloads]),
            )
        assert batched.read_bytes() == single.read_bytes()
        slots = [3, 0, 2, 1, 0]
        with PageFile(batched) as handle:
            assert handle.width == 12
            assert handle.gather(slots).shape == (5, 12, 3)
            points, oids = _gathered(handle, slots)
            for row, slot in enumerate(slots):
                want = handle.read_slot(slot)
                assert want[0].tobytes() == payloads[slot][1].tobytes()
                assert want[1].tobytes() == payloads[slot][0].tobytes()
                _assert_rows(points, oids, row, 12, *want)
            points, oids = _gathered(handle, [])
            assert points.shape == (0, 3) and oids.shape == (0,)

    def test_read_slots_of_a_crashed_writer_file_are_empty(self, tmp_path):
        """Neither ``W`` nor the counts were committed: the gather reads
        every page as empty — no rows at all — like ``read_slot``."""
        path = tmp_path / "crashed.pages"
        writer = PageFileWriter(
            path, disk_id=0, num_slots=3, slot_bytes=256, dimension=2,
            width=4,
        )
        writer.write_slot(0, np.array([7], dtype=np.int64), np.ones((1, 2)))
        writer._file.close()  # the crash: close() never commits counts
        writer._file = None
        with PageFile(path) as handle:
            assert handle.width == 0
            assert handle.gather([0, 1, 2]).shape == (3, 0, 2)
            points, oids = _gathered(handle, [0, 1, 2])
            assert points.shape == (0, 2) and oids.shape == (0,)

    def test_read_slots_range_check_and_owned_rows(self, rng, tmp_path):
        path = tmp_path / "disk.pages"
        points = rng.random((4, 3))
        self._write(path, [(np.arange(4, dtype=np.int64), points)] * 2)
        handle = PageFile(path)
        for bad in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match="outside"):
                handle.gather(bad)
            with pytest.raises(ValueError, match="outside"):
                handle.entry_counts(bad)
        # rows() leaves its checks to numpy: a row past the block, or a
        # slot past the file, is an IndexError.
        for slots, rows in (([1, 0], [8]), ([1, 0], [0, 8]), ([2], [0])):
            with pytest.raises(IndexError):
                handle.rows(slots, rows)
        assert list(handle.entry_counts([1, 0, 1])) == [4, 4, 4]
        got_points, got_oids = _gathered(handle, [1, 0])
        handle.close()  # no BufferError: the gather holds no mapping view
        assert np.array_equal(got_points, np.vstack([points] * 2))
        assert got_oids.sum() == 12
        with pytest.raises(PageFormatError, match="closed"):
            handle.gather([0])
        with pytest.raises(PageFormatError, match="closed"):
            handle.rows([0], [0])

    @_SLOT_SIZES
    def test_read_slots_into_out_matches_the_allocating_form(
        self, rng, tmp_path, slot_bytes
    ):
        """The gather of random slot lists with repeats is the per-slot
        ``read_slot`` of each, padded to ``W`` rows; every refusal
        happens before anything is read, and a closed file refuses."""
        path = tmp_path / "disk.pages"
        counts = (5, 0, 12, 5, 7)
        self._write(
            path,
            [
                (rng.integers(-2**62, 2**62, count), rng.random((count, 3)))
                for count in counts
            ],
            slot_bytes=slot_bytes,
        )
        with PageFile(path) as handle:
            for length in (0, 1, 4, 9):
                slots = rng.integers(0, 5, size=length)
                points, oids = _gathered(handle, slots)
                assert len(oids) == 12 * length
                for row, slot in enumerate(slots):
                    _assert_rows(points, oids, row, 12, *handle.read_slot(slot))
            for bad in ([0, 5], [-1], [5]):
                with pytest.raises(ValueError, match="outside"):
                    handle.gather(bad)
        with pytest.raises(PageFormatError, match="closed"):
            handle.gather([0])

    def test_zero_slot_and_all_empty_files_gather_nothing(self, tmp_path):
        """A disk with no pages and a disk of empty pages (``W = 0``)
        gather zero rows, not garbage."""
        self._write(tmp_path / "none.pages", [])
        self._write(
            tmp_path / "empty.pages",
            [(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))] * 3,
        )
        for name, slots in (("none", []), ("empty", [2, 0, 2])):
            with PageFile(tmp_path / f"{name}.pages") as handle:
                assert handle.width == 0
                points, oids = _gathered(handle, slots)
                assert points.shape == (0, 3) and oids.shape == (0,)
                with pytest.raises(ValueError, match="outside"):
                    handle.gather([3])

    @_SLOT_SIZES
    def test_scoring_gathered_rows_raises_no_fp_flag(
        self, rng, tmp_path, slot_bytes
    ):
        """The ``+inf`` padding scores ``inf`` with no invalid or overflow
        flag, and real rows score exactly as the payload does."""
        payloads = [
            (np.arange(count, dtype=np.int64), rng.random((count, 3)))
            for count in (5, 0, 12, 1)
        ]
        self._write(tmp_path / "disk.pages", payloads, slot_bytes=slot_bytes)
        query = rng.random(3)
        metric = Euclidean()
        with PageFile(tmp_path / "disk.pages") as handle:
            block = handle.gather([0, 1, 2, 3])
            with np.errstate(all="raise"):
                keys = metric.point_keys(block.reshape(-1, 3), query)
                real = keys < np.inf
        want = np.concatenate(
            [metric.point_keys(points_, query) for _, points_ in payloads]
        )
        assert keys[real].tobytes() == want.tobytes()
        assert np.isposinf(keys[~real]).all() and real.sum() == 18

    @_SLOT_SIZES
    def test_rows_of_hits_match_read_slot_after_close(
        self, rng, tmp_path, slot_bytes
    ):
        """What the scan keeps of a chunk: the rows of a gathered block
        whose keys beat a bound, read back by ``rows`` — oids and points
        equal to those rows of ``read_slot`` (the oids as written), and
        owned copies that outlive ``close``."""
        payloads = [
            (rng.integers(-2**62, 2**62, count), rng.random((count, 3)))
            for count in (5, 0, 12, 1, 7)
        ]
        self._write(tmp_path / "disk.pages", payloads, slot_bytes=slot_bytes)
        slots = np.array([4, 2, 0, 1, 2])
        query = rng.random(3)
        handle = PageFile(tmp_path / "disk.pages")
        keys = Euclidean().point_keys(
            handle.gather(slots).reshape(-1, 3), query
        )
        hits = np.flatnonzero(keys < np.median(keys[keys < np.inf]))
        assert 0 < len(hits) < 20
        oids, points = handle.rows(slots, hits)
        handle.close()
        for row, oid, point in zip(hits.tolist(), oids, points):
            page, entry = divmod(row, 12)
            want_oids, want_points = payloads[slots[page]]
            assert oid == want_oids[entry]
            assert point.tobytes() == want_points[entry].tobytes()
        assert Euclidean().point_keys(points, query).tobytes() == (
            keys[hits].tobytes()
        )


def _gathered(handle, slots):
    """``handle.gather(slots)`` as flat ``(n·W, d)`` points, beside the
    oids ``handle.rows`` reads back for every row (padding included);
    the points it reads back are the gathered ones, bit for bit."""
    points = handle.gather(slots).reshape(-1, handle.dimension)
    oids, again = handle.rows(slots, np.arange(len(points)))
    assert again.tobytes() == points.tobytes()
    return points, oids


def _read_flat(store, disk, pages):
    """:func:`_gathered` for ``MmapDisk.read_pages`` / ``page_rows``."""
    points = store.disk(disk).read_pages(pages).reshape(-1, store.dimension)
    oids, again = store.disk(disk).page_rows(pages, np.arange(len(points)))
    assert again.tobytes() == points.tobytes()
    return points, oids


def _assert_rows(points, oids, page, width, want_points, want_oids):
    """Rows of gathered page ``page`` (``width`` rows each) hold the page
    ``(want_points, want_oids)`` bit for bit, then ``+inf`` points."""
    count = len(want_oids)
    rows = slice(page * width, page * width + count)
    assert points[rows].tobytes() == want_points.tobytes()
    assert oids[rows].tobytes() == want_oids.tobytes()
    assert np.isposinf(points[page * width + count : (page + 1) * width]).all()


class TestMmapStoreRoundTrip:
    def test_surface_matches_paged_store(self, paged_store, store_dir):
        with MmapStore(store_dir) as store:
            assert store.out_of_core
            assert len(store) == len(paged_store)
            assert store.num_disks == paged_store.num_disks
            assert store.scheme == paged_store.scheme
            assert np.array_equal(store.page_disks, paged_store.page_disks)
            assert np.array_equal(store.disk_loads(),
                                  paged_store.disk_loads())
            for ours, theirs in zip(store.leaves, paged_store.leaves):
                assert store.disk_of(ours) == paged_store.disk_of(theirs)
                assert store.entry_count(ours) == len(theirs.entries)

    def test_payloads_are_bit_exact(self, paged_store, store_dir):
        with MmapStore(store_dir) as store:
            for ours, theirs in zip(store.leaves, paged_store.leaves):
                points, oids = store.read_page(ours)
                expected = np.vstack(
                    [entry.point for entry in theirs.entries]
                )
                assert points.tobytes() == expected.tobytes()
                assert list(oids) == [e.oid for e in theirs.entries]

    def test_disk_table_and_read_pages_match_per_leaf_surface(
        self, store_dir
    ):
        """The flat per-disk table is the directory, and a multi-page
        read is the per-leaf ``read_page``, bit for bit."""
        with MmapStore(store_dir) as store:
            for disk in range(store.num_disks):
                leaves = [
                    leaf for leaf in store.leaves
                    if store.disk_of(leaf) == disk
                ]
                lows, highs, slots, counts, blocks = store.disk_table(disk)
                assert len(slots) == len(leaves) == store.disk_loads()[disk]
                pages = np.arange(len(leaves))[::-1]
                points, oids = _read_flat(store, disk, pages)
                width = int(counts.max(initial=0))
                assert len(oids) == len(points) == width * len(pages)
                for row, page in enumerate(pages):
                    leaf = leaves[page]
                    assert lows[page].tobytes() == leaf.mbr.low.tobytes()
                    assert highs[page].tobytes() == leaf.mbr.high.tobytes()
                    assert counts[page] == store.entry_count(leaf)
                    assert blocks[page] == leaf.blocks
                    _assert_rows(points, oids, row, width, *store.read_page(leaf))
        with pytest.raises(ValueError, match="closed"):
            store.disk(0).read_pages(np.array([0]))

    def test_read_pages_into_out_matches_the_allocating_form(
        self, rng, store_dir, monkeypatch
    ):
        """``read_pages`` is the allocating ``read_page`` per page, padded
        to the disk's widest page — for random page lists with repeats —
        and sleeps nothing, even with a service time (its caller paces
        the pages on the store's clock); a gather of no page and a
        refused read sleep nothing either."""
        slept = []
        monkeypatch.setattr(
            "repro.storage.mmap_store.time.sleep", slept.append
        )
        reads = 0
        with MmapStore(store_dir, simulated_disk_ms=1.0) as store:
            for disk in range(store.num_disks):
                leaves = [
                    leaf for leaf in store.leaves
                    if store.disk_of(leaf) == disk
                ]
                width = int(store.disk_table(disk)[3].max())
                loads = len(leaves)
                pages = rng.integers(0, loads, size=2 * loads)
                points, oids = _read_flat(store, disk, pages)
                for row, page in enumerate(pages):
                    _assert_rows(
                        points, oids, row, width, *store.read_page(leaves[page])
                    )
                again = store.disk(disk).read_pages(pages)
                assert again.reshape(points.shape).tobytes() == points.tobytes()
                none = store.disk(disk).read_pages(pages[:0])
                assert none.shape == (0, width, store.dimension)
                with pytest.raises((ValueError, IndexError)):
                    store.disk(disk).read_pages(np.array([loads]))
                # Only the per-leaf reads compared against them slept.
                reads += len(pages)
                assert slept == [1.0 / 1000.0] * reads
        with pytest.raises(ValueError, match="closed"):
            store.disk(0).read_pages(np.array([0]))

    def test_read_page_sleeps_every_block_and_read_pages_none(
        self, paged_store, tmp_path, monkeypatch
    ):
        """The per-leaf read sleeps its page's blocks (supernode pages
        count ``blocks``); the multi-page gather sleeps nothing."""
        for leaf in paged_store.leaves[::3]:
            leaf.blocks = 2
        directory = tmp_path / "supernodes"
        save_paged_store(paged_store, directory)
        slept = []
        monkeypatch.setattr(
            "repro.storage.mmap_store.time.sleep", slept.append
        )
        with MmapStore(directory, simulated_disk_ms=2.0) as store:
            for disk in np.flatnonzero(store.disk_loads()):
                blocks = store.disk_table(disk)[4]
                store.disk(disk).read_pages(np.arange(len(blocks)))
            assert slept == []
            for leaf in store.leaves:
                store.read_page(leaf)
            owed = [leaf.blocks for leaf in store.leaves]
            assert sum(owed) > len(owed)  # supernodes counted
        assert slept == [2.0 * blocks / 1000.0 for blocks in owed]

    def test_sleep_until_paces_on_the_store_clock(self, store_dir, monkeypatch):
        """A disk's ``sleep_until`` sleeps to an absolute instant on its
        ``clock``: at once when it has passed.  Without a timer the clock
        is the last instant slept to and nothing is measured; with a
        timer set on the disk the clock is the timer and ``slept_ms``
        adds what it measured."""
        now = [5.0]
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            now[0] += seconds + 0.25  # a late wake-up, seen with a timer

        monkeypatch.setattr("repro.storage.mmap_store.time.sleep", sleep)
        with MmapStore(store_dir, simulated_disk_ms=1.0) as store:
            disk = store.disk(0)
            assert disk.clock() == 0.0
            assert disk.sleep_until(0.5) == 0.5 == disk.clock()
            assert disk.sleep_until(0.25) == 0.5
            assert slept == [0.5] and disk.slept_ms == 0.0
        slept.clear()
        now[0] = 5.0
        with MmapStore(store_dir, simulated_disk_ms=1.0) as store:
            disk = store.disk(0)
            disk.timer = lambda: now[0]
            assert disk.sleep_until(6.0) == 6.25 == disk.clock()
            assert disk.sleep_until(6.125) == 6.25
            assert slept == [1.0] and disk.slept_ms == 1250.0

    def test_zero_page_disks_get_valid_files(self, small_uniform,
                                             tmp_path):
        """More disks than pages: the trailing disks own zero pages and
        still open cleanly."""
        store = PagedStore(
            points=small_uniform[:40],
            declusterer=NearOptimalDeclusterer(6, 8),
        )
        directory = tmp_path / "sparse"
        save_paged_store(store, directory)
        with MmapStore(directory) as reopened:
            loads = reopened.disk_loads()
            assert (loads == 0).any()
            assert loads.sum() == len(reopened.leaves)
            total = sum(
                len(reopened.read_page(leaf)[1])
                for leaf in reopened.leaves
            )
            assert total == 40

    def test_reopen_while_another_handle_maps_it(self, store_dir):
        """A second opener (e.g. a worker process) maps the same files
        while the first still holds them — reads stay consistent."""
        first = MmapStore(store_dir)
        leaf = first.leaves[0]
        before = first.read_page(leaf)
        with MmapStore(store_dir) as second:
            other = second.read_page(second.leaves[0])
            assert other[0].tobytes() == before[0].tobytes()
            # First handle still serves pages after the second closed...
        after = first.read_page(leaf)
        assert after[0].tobytes() == before[0].tobytes()
        first.close()
        first.close()  # idempotent

    def test_slot_too_small_raises_at_save(self, paged_store, tmp_path):
        with pytest.raises(SlotOverflowError):
            save_paged_store(
                paged_store, tmp_path / "tiny", slot_bytes=32
            )

    def test_not_a_store_directory(self, tmp_path):
        with pytest.raises(PageFormatError, match="store.json"):
            MmapStore(tmp_path)

    def test_store_version_mismatch(self, store_dir):
        meta_path = store_dir / "store.json"
        meta = json.loads(meta_path.read_text())
        meta["store_format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreFormatError, match="store format"):
            MmapStore(store_dir)

    def test_v1_store_is_refused_at_open_with_a_rebuild_hint(self, store_dir):
        """A store of the page-major layout (store format 1, page files
        of format 1) is refused when it is opened, not on a first read,
        and so is each of its page files."""
        meta_path = store_dir / "store.json"
        meta = json.loads(meta_path.read_text())
        meta["store_format_version"] = 1
        meta_path.write_text(json.dumps(meta))
        for path in store_dir.glob("*.pages"):
            raw = bytearray(path.read_bytes())
            raw[8] = 1  # format_version, little-endian u32
            path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="version 1.*rebuild"):
            MmapStore(store_dir)
        with pytest.raises(PageFormatError, match="version 1.*rebuild"):
            PageFile(store_dir / "disk0000.pages")


#: ``(dimension, leaf_cap)`` of trees whose leaves outgrow one 4 KiB
#: page: a leaf never holds fewer than four entries (4 128 bytes at
#: d = 128, 6 432 at d = 200), and a custom ``leaf_cap`` may hold more.
WIDE_LEAVES = {"d128": (128, None), "d200": (200, None), "leaf_cap200": (5, 200)}


class TestWideSlots:
    """The default slot fits the widest page payload, on every writer."""

    @pytest.mark.parametrize(
        "route", ["save_paged_store", "bulk_load_mmap", "stream_bulk_load_mmap"]
    )
    @pytest.mark.parametrize("case", sorted(WIDE_LEAVES))
    def test_round_trip(self, case, route, tmp_path):
        dimension, leaf_cap = WIDE_LEAVES[case]
        points = np.random.default_rng(9).random((300, dimension))
        tree_cls = XTree
        if leaf_cap is not None:
            tree_cls = functools.partial(RStarTree, leaf_cap=leaf_cap)
        directory = tmp_path / "store"
        if route == "save_paged_store":
            tree = tree_cls(dimension)
            tree.extend(points)
            save_paged_store(
                PagedStore(
                    tree=tree, declusterer=striped_assignment(2), num_disks=2
                ),
                directory,
            )
            restored = load_paged_store(directory).tree
            assert [
                [entry.oid for entry in leaf.entries] for leaf in restored.leaves()
            ] == [[entry.oid for entry in leaf.entries] for leaf in tree.leaves()]
        else:
            build = {
                "bulk_load_mmap": bulk_load_mmap,
                "stream_bulk_load_mmap": functools.partial(
                    stream_bulk_load_mmap, chunk_rows=64
                ),
            }[route]
            build(
                points, striped_assignment(2), directory, num_disks=2,
                tree_cls=tree_cls,
            ).close()
        with MmapStore(directory) as store:
            assert store.slot_bytes > store.page_bytes
            pages = [store.read_page(leaf) for leaf in store.leaves]
        oids = np.concatenate([page[1] for page in pages])
        order = np.argsort(oids)
        assert oids[order].tolist() == list(range(len(points)))
        stored = np.concatenate([page[0] for page in pages])[order]
        assert stored.tobytes() == points.tobytes()


def _preorder(node):
    """Every node of ``node``'s subtree, in pre-order."""
    yield node
    if not node.is_leaf:
        for child in node.entries:
            yield from _preorder(child)


class TestLazyTree:
    """An open store is its directory arrays; the ``Node`` tree is built
    the first time a consumer asks for it, and is then the in-memory
    route's tree."""

    def test_array_surface_builds_no_node(self, store_dir, counted_nodes):
        with MmapStore(store_dir) as store:
            assert store.dimension == 6 and len(store) > 0
            assert store.disk_loads().sum() == len(store.page_disks)
            for disk in range(store.num_disks):
                table = store.disk_table(disk)
                pages = np.arange(len(table[2]))
                store.disk(disk).read_pages(pages)
            assert "pages=" in repr(store)
            assert counted_nodes == []
            tree = store.tree
            assert counted_nodes and store.tree is tree
            assert len(store.leaves) == len(store.page_disks)

    def test_tree_equals_the_in_memory_tree(self, paged_store, tmp_path):
        """Structure, leaf and directory MBRs, blocks, split history and
        the per-leaf surface, on a tree with supernode leaves and split
        history."""
        nodes = list(_preorder(paged_store.tree.root))
        for leaf in paged_store.leaves[::3]:
            leaf.blocks = 2
        for index, node in enumerate(nodes[::4]):
            node.split_history.update({index % 6, 5})
        save_paged_store(paged_store, tmp_path / "store")
        with MmapStore(tmp_path / "store") as store:
            tree = store.tree
            assert type(tree) is type(paged_store.tree)
            for name in ("dimension", "size", "leaf_cap", "dir_cap"):
                assert getattr(tree, name) == getattr(paged_store.tree, name)
            ours = list(_preorder(tree.root))
            assert len(ours) == len(nodes)
            for mine, want in zip(ours, nodes):
                assert mine.is_leaf == want.is_leaf
                assert mine.blocks == want.blocks
                assert mine.split_history == want.split_history
                assert mine.mbr.low.tobytes() == want.mbr.low.tobytes()
                assert mine.mbr.high.tobytes() == want.mbr.high.tobytes()
                if not mine.is_leaf:
                    assert len(mine.entries) == len(want.entries)
            assert store.leaves == [node for node in ours if node.is_leaf]
            for page, (mine, want) in enumerate(
                zip(store.leaves, paged_store.leaves)
            ):
                assert mine.page == page and not mine.entries
                assert store.disk_of(mine) == paged_store.disk_of(want)
                assert store.entry_count(mine) == len(want.entries)
                points, oids = store.read_page(mine)
                assert oids.tolist() == [entry.oid for entry in want.entries]
                assert points.tobytes() == np.array(
                    [entry.point for entry in want.entries]
                ).tobytes()

    def test_a_foreign_leaf_is_refused(self, store_dir):
        with MmapStore(store_dir) as store:
            for lookup in (store.disk_of, store.entry_count, store.read_page):
                with pytest.raises(KeyError, match="not a data page"):
                    lookup(Node(is_leaf=True))

    def test_empty_store(self, tmp_path):
        empty = PagedStore(
            points=np.zeros((0, 3)), declusterer=NearOptimalDeclusterer(3, 2)
        )
        save_paged_store(empty, tmp_path / "empty")
        with MmapStore(tmp_path / "empty") as store:
            assert len(store) == 0 and store.dimension == 3
            assert store.disk_loads().tolist() == [0, 0]
            assert store.disk_table(1)[0].shape == (0, 3)
            assert store.leaves == [] and store.tree.root.is_leaf


class TestEngineOverMmap:
    def test_query_parity_with_in_memory(self, paged_store, store_dir,
                                         rng):
        reference = PagedEngine(paged_store)
        with MmapStore(store_dir) as store:
            engine = PagedEngine(store)
            for query in rng.random((10, 6)):
                _results_equal(
                    reference.query(query, 5), engine.query(query, 5)
                )

    def test_scalar_kernel_parity(self, paged_store, store_dir, rng):
        with MmapStore(store_dir) as store:
            engine = PagedEngine(store)
            for query in rng.random((5, 6)):
                fast = engine.query(query, 7)
                with scalar_kernels():
                    _results_equal(fast, engine.query(query, 7))

    def test_warm_pool_reads_are_free(self, store_dir, rng):
        """The charging contract: a cold mmap read charges the disk, a
        warm buffer-pool hit charges nothing."""
        with MmapStore(store_dir) as store:
            engine = PagedEngine(store, cache=4096)
            query = rng.random(6)
            cold = engine.query(query, 5)
            warm = engine.query(query, 5)
            assert cold.pages_per_disk.sum() > 0
            assert warm.pages_per_disk.sum() == 0
            assert warm.cache_stats.hits > 0
            assert [n.oid for n in cold.neighbors] == [
                n.oid for n in warm.neighbors
            ]

    def test_empty_query_on_all_disks(self, store_dir):
        """A query far outside the data still touches >= one page per
        covered disk only as the bound demands."""
        with MmapStore(store_dir) as store:
            result = PagedEngine(store).query(np.full(6, 50.0), 1)
            assert len(result.neighbors) == 1


class TestBulkLoadMmap:
    def test_builds_without_in_memory_tree(self, small_uniform, tmp_path):
        store = bulk_load_mmap(
            small_uniform,
            NearOptimalDeclusterer(6, 4),
            tmp_path / "bulk",
        )
        try:
            assert len(store) == len(small_uniform)
            assert store.num_disks == 4
            total = sum(
                len(store.read_page(leaf)[1]) for leaf in store.leaves
            )
            assert total == len(small_uniform)
            # Every point is retrievable through a query.
            engine = PagedEngine(store)
            result = engine.query(small_uniform[17], 1)
            assert result.neighbors[0].oid == 17
            assert result.neighbors[0].distance == 0.0
        finally:
            store.close()

    def test_matches_save_path_exactly(self, small_uniform, tmp_path):
        """Both construction routes produce stores whose engines agree
        with the brute-force oracle."""
        from repro.index.knn import knn_linear_scan

        store = bulk_load_mmap(
            small_uniform,
            NearOptimalDeclusterer(6, 4),
            tmp_path / "bulk",
        )
        try:
            engine = PagedEngine(store)
            rng = np.random.default_rng(5)
            for query in rng.random((8, 6)):
                expected = knn_linear_scan(small_uniform, query, 5)
                got = engine.query(query, 5).neighbors
                assert [n.oid for n in got] == [n.oid for n in expected]
        finally:
            store.close()

    def test_custom_oids_and_large_scale_knobs(self, rng, tmp_path):
        points = rng.random((300, 4))
        oids = np.arange(300) * 3 + 1
        store = bulk_load_mmap(
            points,
            NearOptimalDeclusterer(4, 2),
            tmp_path / "oids",
            oids=oids,
        )
        try:
            result = PagedEngine(store).query(points[10], 1)
            assert result.neighbors[0].oid == 31
        finally:
            store.close()

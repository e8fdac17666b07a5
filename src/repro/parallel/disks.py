"""Simulated disk array with an explicit page-service-time model.

The paper measures query cost as *"the search time of the disk which
accesses most pages during query processing"*.  That metric is a page count
multiplied by a per-page service time, so the simulator counts page accesses
per disk and derives times from a parameterizable disk model (defaults
roughly match a mid-90s SCSI disk like those in the paper's HP 720
workstation cluster).

This substitutes for the paper's physical 16-workstation cluster: access
*counts* are exact; absolute milliseconds depend on the chosen
:class:`DiskParameters` (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DiskParameters", "DiskArray"]


@dataclass(frozen=True)
class DiskParameters:
    """Service-time model of a single disk.

    The expected time to fetch one random page is
    ``seek_ms + rotational_latency_ms + page_bytes / transfer rate``.
    Defaults: 10 ms average seek, 4 ms rotational latency (7200 rpm would
    be 4.17), 4 MB/s sustained transfer, 4 KB pages — a typical disk of the
    paper's era.
    """

    seek_ms: float = 10.0
    rotational_latency_ms: float = 4.0
    transfer_mb_per_s: float = 4.0
    page_bytes: int = 4096

    def __post_init__(self):
        if self.seek_ms < 0 or self.rotational_latency_ms < 0:
            raise ValueError("latencies must be non-negative")
        if self.transfer_mb_per_s <= 0:
            raise ValueError("transfer rate must be positive")
        if self.page_bytes <= 0:
            raise ValueError("page size must be positive")

    @property
    def page_service_time_ms(self) -> float:
        """Expected milliseconds to read one random page."""
        transfer_ms = self.page_bytes / (self.transfer_mb_per_s * 1e6) * 1e3
        return self.seek_ms + self.rotational_latency_ms + transfer_ms

    @classmethod
    def preset(cls, name: str, page_bytes: int = 4096) -> "DiskParameters":
        """Named disk profiles.

        * ``"scsi_1997"`` — the paper-era default (10 ms seek, 4 MB/s);
        * ``"hdd_7200"`` — a modern 7200 rpm HDD (8.5 ms seek, ~150 MB/s);
        * ``"sata_ssd"`` — a SATA SSD (no seek, ~0.1 ms access, 500 MB/s);
        * ``"nvme_ssd"`` — an NVMe SSD (~0.02 ms access, 3 GB/s).
        """
        profiles = {
            "scsi_1997": dict(seek_ms=10.0, rotational_latency_ms=4.0,
                              transfer_mb_per_s=4.0),
            "hdd_7200": dict(seek_ms=8.5, rotational_latency_ms=4.17,
                             transfer_mb_per_s=150.0),
            "sata_ssd": dict(seek_ms=0.1, rotational_latency_ms=0.0,
                             transfer_mb_per_s=500.0),
            "nvme_ssd": dict(seek_ms=0.02, rotational_latency_ms=0.0,
                             transfer_mb_per_s=3000.0),
        }
        if name not in profiles:
            raise ValueError(
                f"unknown disk profile {name!r}; "
                f"available: {sorted(profiles)}"
            )
        return cls(page_bytes=page_bytes, **profiles[name])


class DiskArray:
    """Per-disk page-access counters plus derived (simulated) timings."""

    def __init__(self, num_disks: int, parameters: DiskParameters = None):
        if num_disks < 1:
            raise ValueError(f"num_disks must be >= 1, got {num_disks}")
        self.num_disks = num_disks
        self.parameters = parameters or DiskParameters()
        self._pages = np.zeros(num_disks, dtype=np.int64)

    def charge(self, disk: int, pages: int = 1) -> None:
        """Record ``pages`` page reads on the given disk."""
        if not 0 <= disk < self.num_disks:
            raise ValueError(f"disk {disk} outside [0, {self.num_disks})")
        if pages < 0:
            raise ValueError(f"pages must be >= 0, got {pages}")
        self._pages[disk] += pages

    def reset(self) -> None:
        """Zero every per-disk page counter."""
        self._pages[:] = 0

    @property
    def pages_per_disk(self) -> np.ndarray:
        """Copy of the per-disk page counters."""
        return self._pages.copy()

    @property
    def total_pages(self) -> int:
        """Pages charged across all disks."""
        return int(self._pages.sum())

    @property
    def max_pages(self) -> int:
        """Pages of the busiest disk — the paper's cost metric."""
        return int(self._pages.max())

    def disk_times_ms(self) -> np.ndarray:
        """Simulated per-disk service time in milliseconds."""
        return self._pages * self.parameters.page_service_time_ms

    @property
    def parallel_time_ms(self) -> float:
        """Elapsed time with all disks working concurrently (max over
        disks)."""
        return float(self.disk_times_ms().max())

    @property
    def sequential_time_ms(self) -> float:
        """Elapsed time if one disk served every request (sum over
        disks)."""
        return float(self.disk_times_ms().sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskArray(num_disks={self.num_disks}, "
            f"pages={self._pages.tolist()})"
        )

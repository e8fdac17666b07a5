"""Page storage: the store directory, the one on-disk index format.

The storage layer moves data-page payloads out of process memory into
one memory-mapped file per simulated disk, while the tree directory
stays RAM-resident (the paper's shared-directory model).  Every
persisted index — an in-memory ``PagedStore``, a bare tree, a bulk
load — is such a directory.  See ``docs/storage.md`` for the file
format and the charging contract.
"""

from __future__ import annotations

from repro.storage.bulk import (
    DEFAULT_MAX_RAM_BYTES,
    SPILL_DIR_NAME,
    bulk_load_mmap,
    stream_bulk_load_mmap,
)
from repro.storage.mmap_store import (
    SIMULATED_DISK_MS_ENV,
    FrozenAssignment,
    MmapStore,
    StoreFormatError,
    load_paged_store,
    load_tree,
    save_paged_store,
    save_tree,
)
from repro.storage.pagefile import (
    HEADER_BYTES,
    PAGEFILE_FORMAT_VERSION,
    PAGEFILE_MAGIC,
    PageFile,
    PageFileWriter,
    PageFormatError,
    SlotOverflowError,
    payload_bytes,
)
from repro.storage.spill import SpillFile, sort_segment

__all__ = [
    "MmapStore",
    "save_paged_store",
    "load_paged_store",
    "save_tree",
    "load_tree",
    "StoreFormatError",
    "FrozenAssignment",
    "bulk_load_mmap",
    "stream_bulk_load_mmap",
    "DEFAULT_MAX_RAM_BYTES",
    "SPILL_DIR_NAME",
    "SpillFile",
    "sort_segment",
    "PageFile",
    "PageFileWriter",
    "PageFormatError",
    "SlotOverflowError",
    "payload_bytes",
    "PAGEFILE_MAGIC",
    "PAGEFILE_FORMAT_VERSION",
    "HEADER_BYTES",
    "SIMULATED_DISK_MS_ENV",
]

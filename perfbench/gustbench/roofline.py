"""Memory-bandwidth roof: host copy bandwidth and computed SpMV bytes.

SpMV is memory-bound, so the kernel is judged against the bandwidth the
host actually sustains, measured in the same run.  The copy arrays are at
least four times the last-level cache so the figure is DRAM bandwidth,
not cache bandwidth.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

#: L3 size assumed when the host does not report one (105 MiB, the L3 of
#: the 2-core host the benchmark was sized on).
DEFAULT_L3_BYTES = 105 * 2**20

_SYSFS_L3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
_SUFFIX = {"K": 2**10, "M": 2**20, "G": 2**30}


def l3_cache_bytes() -> int:
    """The host's L3 size: ``sysconf``, then sysfs, then the default."""
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return size
    except (ValueError, OSError):
        pass
    try:
        text = _SYSFS_L3.read_text().strip()  # e.g. "107520K"
        return int(text.rstrip("KMG")) * _SUFFIX.get(text[-1:], 1)
    except (OSError, ValueError):
        return DEFAULT_L3_BYTES


def stream_copy_gbps(l3_bytes: int, repeats: int = 5):
    """Median ``dst[:] = src`` bandwidth in GB/s, and the array size.

    Each array is ``4 * l3_bytes``; a copy moves the array twice (one
    read stream, one write stream), as in STREAM's Copy kernel.
    """
    array_bytes = 4 * l3_bytes
    src = np.ones(array_bytes // 8)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        np.copyto(dst, src)
        seconds.append(time.perf_counter() - started)
    del src, dst
    return 2 * array_bytes / statistics.median(seconds) / 1e9, array_bytes


def matvec_bytes(plan, x: np.ndarray, y: np.ndarray) -> int:
    """Computed compulsory traffic of one SpMV over ``plan``.

    One pass over the plan's values and column indices, one row pointer
    per row, the input vector read once and the output written once.
    Computed from array sizes, so cache misses beyond the compulsory ones
    are not counted.
    """
    m, _ = plan.shape
    per_slot = plan.values.itemsize + plan.sources.itemsize
    return int(
        plan.nnz * per_slot + (m + 1) * plan.rows.itemsize + x.nbytes + y.nbytes
    )

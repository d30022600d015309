"""Keep freed heap memory mapped in the process (glibc only).

glibc serves a request above its mmap threshold with a mapping of its
own and unmaps it on free, and it hands the top of the heap back to the
kernel once more than its trim threshold is free.  The U-Net's and the
quanvolution's NumPy temporaries, a few hundred KiB to a few MiB each,
then come back on every call as fresh pages that the kernel must fault
in and zero, at about 2-3 us per 4 KiB page on a 2-core VM.  Raising
both thresholds once keeps those buffers in the heap, where the next
allocation of that size reuses them without a fault.

The policy is set when ``quanvseg`` is imported.  Where the C library
has no ``mallopt`` (macOS, Windows) nothing is set.
"""

from __future__ import annotations

import ctypes

# mallopt parameter numbers, from glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# 32 MiB is the largest mmap threshold glibc accepts on 64-bit builds;
# only the larger buffers (a compile's transfer block V at 13 or more
# qubits, say) still get a mapping of their own, and give it back on free.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def _retain_freed_memory() -> bool:
    """Set both thresholds; True iff mallopt accepted both."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no dlopen(NULL)
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set


# Whether the policy is in force in this process.
RETAINED = _retain_freed_memory()

"""Process entry point of ``python -m antilin`` and of the ``antilin``
console script.

Besides running :func:`antilin.cli.main`, the entry point owns two
settings that only make sense for a whole process, never for a caller of
``cli.main`` in process (the tests and the tools): it pins glibc's malloc
thresholds before the run, and it freezes the heap after it.

Freezing: at exit CPython runs one last cyclic garbage collection over
every tracked object, some 23k of them after the imports of a check (about
25 ms on a 2-vCPU host, over a tenth of a small check).  No report depends on
it: the report is written by then, and the operating system
reclaims the memory of the process anyway.  ``gc.freeze()`` moves every
tracked object to the permanent generation, which no collection visits,
so the shutdown collection finds nothing to traverse; stdio flushing and
``atexit`` handlers still run as usual, unlike with ``os._exit``.
"""

import ctypes
import gc

from . import cli

# glibc serves allocations of at least M_MMAP_THRESHOLD bytes with a fresh
# mmap and returns heap-top memory beyond M_TRIM_THRESHOLD to the kernel.
# Both start at 128 KiB and move with the program's history, which is
# exactly the size of the largest per-probe temporary (a realified 2n x 2n
# float64 matrix at n = 64, and its Gram matrix): whether each probe
# re-faults those pages then depends on heap layout alone (the length of a
# path argument was enough to flip it).  Fixed values well above every
# per-probe temporary keep them on the heap in every layout.  Setting
# either value turns the dynamic adjustment off, so both are set.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 << 20    # 2n x 2n float64 up to 2n = 724
_TRIM_THRESHOLD_BYTES = 32 << 20


def _fix_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds; a no-op elsewhere."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return  # no mallopt: not glibc, or no C library to open by None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main() -> int:
    """Entry point of ``python -m antilin`` and of the ``antilin`` console
    script: pin the allocator thresholds, run the CLI, then freeze the heap
    so that the interpreter's final collection skips it."""
    _fix_malloc_thresholds()
    code = cli.main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())

import ctypes

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
    script: pin the allocator thresholds, then run the CLI."""
    _fix_malloc_thresholds()
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(main())

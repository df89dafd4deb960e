"""Thread count of the OpenBLAS libraries loaded in this process.

numpy and scipy each load their own OpenBLAS. The fits of one replicate
work on small matrices, where extra BLAS threads only spin and compete for
the cores; the harness runs replicates in parallel processes instead.
"""
from __future__ import annotations

import contextlib
import itertools

# Symbol names of the thread-count getter and setter: scipy_openblas64_ (numpy),
# scipy_openblas (scipy) and a plain system OpenBLAS.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")

_controls: tuple | None = None  # (getter, setter) per library, found on first use


def _find_controls() -> tuple:
    import ctypes  # deferred with the lookup: no cost at package import

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no procfs: nothing to control
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(_PREFIXES, _SUFFIXES):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


def controls() -> tuple:
    """(getter, setter) of every OpenBLAS loaded in this process; empty if none.

    Looked up once per process on first use. A forked child inherits the
    lookup, which stays valid there.
    """
    global _controls
    if _controls is None:
        _controls = _find_controls()
    return _controls


def thread_counts() -> tuple[int, ...]:
    """Current thread count of each OpenBLAS, in ``controls()`` order."""
    return tuple(get() for get, _ in controls())


@contextlib.contextmanager
def single_thread():
    """Run the block with every OpenBLAS at one thread, then restore the counts.

    Only counts other than one are set. In a forked child the setter starts
    the thread pool that OpenBLAS stopped at the fork, and those idle threads
    spin on the cores the worker processes need.
    """
    changed = [(count, put) for get, put in controls() if (count := get()) != 1]
    for _, put in changed:
        put(1)
    try:
        yield
    finally:
        for count, put in changed:
            put(count)

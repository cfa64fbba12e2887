"""The thread count and kernel of numpy's own BLAS, reached through ctypes.

numpy's wheels bundle OpenBLAS, which runs one thread per core. credo's
matrix products are small (thousands of rows by tens of columns), and for
them a second thread burns CPU without saving wall time, so every ``credo``
command runs inside ``one_thread()``. ``ctypes.CDLL`` on numpy's extension
module gives a handle whose symbol lookup also searches the libraries it
links, so no library path is searched for. Where no OpenBLAS entry point
resolves (MKL, Accelerate, a system BLAS), ``one_thread`` does nothing and
``describe`` reports the kernel as ``"unknown"``.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

__all__ = ["describe", "one_thread"]

# (prefix, suffix) of the OpenBLAS entry points: numpy 2 wheels bundle
# scipy-openblas (`scipy_openblas_get_num_threads64_`), numpy 1.26 wheels
# `openblas_get_num_threads64_`; builds with 32-bit integers drop the `64_`
_NAMES = [(prefix, suffix) for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def _lookup(names):
    """(get_num_threads, set_num_threads, get_corename) of the first
    (prefix, suffix) in `names` that resolves, or None."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix, suffix in names:
        try:
            get, put, core = (
                getattr(lib, f"{prefix}_{verb}{suffix}")
                for verb in ("get_num_threads", "set_num_threads", "get_corename")
            )
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        core.argtypes, core.restype = [], ctypes.c_char_p
        return get, put, core
    return None


_API = _lookup(_NAMES)


def describe() -> dict:
    """The BLAS kernel's name and its current thread count (None if unknown)."""
    if _API is None:
        return {"kernel": "unknown", "threads": None}
    get, _, core = _API
    return {"kernel": core().decode(), "threads": get()}


# the count is process-wide, so one_thread bodies that overlap in threads of
# one process share one setting
_LOCK = threading.Lock()
_running = 0  # one_thread bodies running now
_callers_count = None  # the count the first of them found


@contextmanager
def one_thread():
    """Run the body with BLAS on one thread. The first of overlapping bodies
    to enter saves the caller's count and sets 1; the last to leave restores
    it."""
    global _running, _callers_count
    if _API is None:
        yield
        return
    get, put, _ = _API
    with _LOCK:
        if _running == 0:
            _callers_count = get()
            put(1)
        _running += 1
    try:
        yield
    finally:
        with _LOCK:
            _running -= 1
            if _running == 0:
                put(_callers_count)

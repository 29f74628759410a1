"""numpy's bundled OpenBLAS at one thread.

numpy wheels bundle an OpenBLAS build with 64-bit integers (in
``numpy.libs``).  It splits large products across threads, and a
product split across two threads rounds differently from one computed
on one thread.  ``one_thread`` sets that build to one thread and
restores the previous count afterwards, so the spectra and corner
weights do not depend on OPENBLAS_NUM_THREADS.  A build that is already
at one thread is left alone: setting the count of a stopped pool starts
the pool again.

``stop_pool`` sets the build to one thread for good and stops its
thread pool, whose idle workers spin for tens of milliseconds of CPU
after each wake-up; the command line calls it once, first thing.  The
pool numpy starts at import spins before either can run; only
OPENBLAS_NUM_THREADS=1, set before numpy loads, keeps it from starting.

A build without the thread-count symbols is left alone, and so is every
build when none is found; ``stop_pool`` also leaves the pool of a build
that does not export ``blas_thread_shutdown_`` running.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os

#: (setter, getter) symbol pairs of the scipy-openblas builds
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _thread_controls() -> tuple[tuple, ...]:
    """(set, get, shutdown) functions of the OpenBLAS builds in numpy's
    wheel; shutdown is None where the build does not export it."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return ()
    root = os.path.dirname(next(iter(spec.submodule_search_locations)))
    controls = []
    for path in sorted(glob.glob(os.path.join(root, "numpy.libs", "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _SYMBOLS:
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads = getattr(lib, setter)
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                get_threads = getattr(lib, getter)
                get_threads.restype = ctypes.c_int
                # exported without the scipy_openblas prefix
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.restype = ctypes.c_int
                controls.append((set_threads, get_threads, shutdown))
                break
    return tuple(controls)


def stop_pool() -> None:
    """Set numpy's bundled OpenBLAS to one thread and stop its pool.

    The count is not restored: setting it again would restart the pool.
    """
    for set_threads, get_threads, shutdown in _thread_controls():
        if get_threads() != 1:
            set_threads(1)
        if shutdown is not None:
            shutdown()


@contextlib.contextmanager
def one_thread():
    """Run the body with numpy's bundled OpenBLAS at one thread.

    The thread counts are process-wide: nested uses restore correctly,
    but uses from several Python threads at once may restore a count
    that another one set.
    """
    changed = []
    for set_threads, get_threads, _ in _thread_controls():
        count = get_threads()
        if count != 1:
            set_threads(1)
            changed.append((set_threads, count))
    try:
        yield
    finally:
        for set_threads, count in changed:
            set_threads(count)

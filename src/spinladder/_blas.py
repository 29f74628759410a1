"""numpy's bundled OpenBLAS at one thread.

numpy wheels bundle an OpenBLAS build with 64-bit integers (in
``numpy.libs``).  It splits large products across threads, and a
product split across two threads rounds differently from one computed
on one thread.  ``one_thread`` sets that build to one thread and
restores the previous count afterwards, so the spectra and corner
weights do not depend on OPENBLAS_NUM_THREADS.  A build without the
thread-count symbols is left alone, and so is every build when none is
found.
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
    """(set, get) function pairs of the OpenBLAS builds in numpy's wheel."""
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
                controls.append((set_threads, get_threads))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_thread():
    """Run the body with numpy's bundled OpenBLAS at one thread.

    The thread counts are process-wide: nested uses restore correctly,
    but uses from several Python threads at once may restore a count
    that another one set.
    """
    controls = _thread_controls()
    previous = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)

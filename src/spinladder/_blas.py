"""numpy's bundled OpenBLAS: a one-thread pin and the complex Schur.

numpy wheels bundle an OpenBLAS build with 64-bit integers (in
``numpy.libs``).  It splits large products across threads, and a
product split across two threads rounds differently from one computed
on one thread.  ``one_thread`` sets that build to one thread and
restores the previous count afterwards, so the spectra and corner
weights do not depend on OPENBLAS_NUM_THREADS.  A build without the
thread-count symbols is left alone, and so is every build when none is
found.

The same build exports LAPACKE, and ``schur`` calls its zgees, so a
spectrum needs neither scipy nor scipy's own OpenBLAS.  Only where
numpy's build lacks the symbol (numpy linked to Accelerate or MKL) does
``schur`` use ``scipy.linalg.schur``, with scipy's bundled OpenBLAS
pinned to one thread around the call.  scipy's build is loaded on that
path alone: loading it starts its thread pool, whose workers spin for
about 0.1 s.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os

import numpy as np

#: (setter, getter) symbol pairs of the scipy-openblas builds
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)

#: LAPACKE_zgees of numpy's scipy-openblas64 build (64-bit lapack_int)
_ZGEES = "scipy_LAPACKE_zgees64_"

#: LAPACKE's matrix_layout value for Fortran (column-major) order
_COL_MAJOR = 102


@functools.cache
def _libraries(package: str) -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS builds bundled in ``package``'s wheel.

    The package directory is found without importing the package, so
    scipy is not imported here.
    """
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return ()
    root = os.path.dirname(next(iter(spec.submodule_search_locations)))
    libs = []
    for path in sorted(glob.glob(os.path.join(root, f"{package}.libs", "*openblas*.so*"))):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def _thread_controls(package: str) -> tuple[tuple, ...]:
    """(set, get) function pairs of ``package``'s bundled OpenBLAS builds."""
    controls = []
    for lib in _libraries(package):
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
def one_thread(package: str = "numpy"):
    """Run the body with ``package``'s bundled OpenBLAS at one thread.

    The thread counts are process-wide: nested uses restore correctly,
    but uses from several Python threads at once may restore a count
    that another one set.
    """
    controls = _thread_controls(package)
    previous = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)


@functools.cache
def _lapacke_zgees():
    """LAPACKE_zgees of numpy's bundled build, or None where it has none."""
    for lib in _libraries("numpy"):
        if hasattr(lib, _ZGEES):
            zgees = getattr(lib, _ZGEES)
            int64 = ctypes.c_int64
            zgees.argtypes = [
                ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_void_p,
                int64, ctypes.c_void_p, int64, ctypes.POINTER(int64),
                ctypes.c_void_p, ctypes.c_void_p, int64,
            ]
            zgees.restype = int64
            return zgees
    return None


def schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur decomposition a = Z T Z^H of a square matrix.

    Returns (T, Z) as Fortran-ordered complex arrays, like
    ``scipy.linalg.schur(a, output="complex")``: the same LAPACK routine
    (zgees, with Schur vectors and no sorting) with the workspace it
    queries itself.  A non-zero LAPACK ``info`` raises
    numpy.linalg.LinAlgError.
    """
    zgees = _lapacke_zgees()
    if zgees is None:
        import scipy.linalg

        with one_thread("scipy"):
            return scipy.linalg.schur(a, output="complex")
    t_mat = np.array(a, dtype=complex, order="F")
    if t_mat.ndim != 2 or t_mat.shape[0] != t_mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {t_mat.shape}")
    n = t_mat.shape[0]
    z_mat = np.empty((n, n), dtype=complex, order="F")
    w = np.empty(n, dtype=complex)
    sdim = ctypes.c_int64()
    lead = max(n, 1)
    info = zgees(
        _COL_MAJOR, b"V", b"N", None, n, t_mat.ctypes.data, lead,
        ctypes.byref(sdim), w.ctypes.data, z_mat.ctypes.data, lead,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"zgees failed with info = {info}")
    return t_mat, z_mat

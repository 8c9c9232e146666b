"""LAPACK's Cholesky factor, solve and condition estimate, lower triangle
(``dpotrf``, ``dpotrs``, ``dpocon``), without importing ``scipy.linalg``.

They are called through ctypes in the OpenBLAS library that scipy's
wheel bundles, the library behind ``scipy.linalg.cho_factor``,
``cho_solve`` and ``scipy.linalg.lapack.dpocon``, so the bits are
theirs.  The factor runs on one OpenBLAS thread, so its bits do not
depend on the thread count.  A scipy built against another LAPACK
bundles no such library; then the three names are bound to
``scipy.linalg.lapack``'s routines, with no thread pin.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import threading
from pathlib import Path

import numpy as np

_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_MATRIX = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
_ARGS = {  # between uplo and info; the hidden length of uplo comes last
    "dpotrf": [_INT, _MATRIX, _INT],
    "dpotrs": [_INT, _INT, _MATRIX, _INT, _MATRIX, _INT],
    "dpocon": [_INT, _MATRIX, _INT, _DOUBLE, _DOUBLE,
               np.ctypeslib.ndpointer(np.float64, ndim=1), np.ctypeslib.ndpointer(np.intc, ndim=1)],
}


def _bundled():
    """scipy's bundled OpenBLAS, found without running scipy, or None."""
    root = Path(next(iter(importlib.util.find_spec("scipy").submodule_search_locations)))
    # Linux and Windows wheels keep it in scipy.libs, macOS wheels in scipy/.dylibs.
    paths = [*(root.parent / "scipy.libs").glob("libscipy_openblas*"),
             *(root / ".dylibs").glob("libscipy_openblas*")]
    try:
        libs = [lib for lib in map(ctypes.CDLL, paths) if hasattr(lib, "scipy_dpotrf_")]
    except OSError:
        return None
    if len(libs) != 1:
        return None
    lib = libs[0]
    for name, args in _ARGS.items():
        routine = getattr(lib, f"scipy_{name}_")
        routine.argtypes, routine.restype = [ctypes.c_char_p, *args, _INT, ctypes.c_size_t], None
    lib.scipy_openblas_get_num_threads.argtypes, lib.scipy_openblas_get_num_threads.restype = [], ctypes.c_int
    lib.scipy_openblas_set_num_threads.argtypes, lib.scipy_openblas_set_num_threads.restype = [ctypes.c_int], None
    return lib


_LIB = _bundled()
# ctypes releases the GIL during a call: one pin at a time keeps the
# restored thread count the one found before any pin.
_PIN = threading.Lock()


@contextlib.contextmanager
def _one_thread():
    with _PIN:
        threads = _LIB.scipy_openblas_get_num_threads()
        _LIB.scipy_openblas_set_num_threads(1)
        try:
            yield
        finally:
            _LIB.scipy_openblas_set_num_threads(threads)


def dpotrf(a: np.ndarray) -> int:
    """Factor the Fortran-ordered ``a`` in place; returns LAPACK's info."""
    n, info = ctypes.c_int(len(a)), ctypes.c_int()
    with _one_thread():
        _LIB.scipy_dpotrf_(b"L", n, a, n, info, 1)
    return info.value


def dpotrs(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve with the factor ``c`` on a Fortran-ordered copy of ``u``."""
    x = np.array(u, dtype=float, order="F")
    n, info = ctypes.c_int(len(c)), ctypes.c_int()
    _LIB.scipy_dpotrs_(b"L", n, ctypes.c_int(x.shape[1]), c, n, x, n, info, 1)
    return x


def dpocon(c: np.ndarray, anorm: float) -> float:
    """Reciprocal 1-norm condition estimate from the factor ``c``."""
    n, rcond, info = ctypes.c_int(len(c)), ctypes.c_double(), ctypes.c_int()
    work, iwork = np.empty(3 * len(c)), np.empty(len(c), np.intc)
    _LIB.scipy_dpocon_(b"L", n, c, n, ctypes.c_double(anorm), rcond, work, iwork, info, 1)
    return rcond.value


def _scipy_routines():
    from scipy.linalg import lapack

    return (
        lambda a: lapack.dpotrf(a, lower=1, overwrite_a=1, clean=0)[1],
        lambda c, u: lapack.dpotrs(c, u, lower=1)[0],
        lambda c, anorm: lapack.dpocon(c, anorm, uplo="L")[0],
    )


if _LIB is None:
    dpotrf, dpotrs, dpocon = _scipy_routines()

"""Numba/NumPy backend selection.

Hot numeric kernels are JIT-compiled with numba by default.  Setting the
environment variable ``DIAMOND_PURE_NUMPY=1`` (before import) selects the
pure-NumPy/Python fallback path instead; the fallback is also used
automatically when numba is not importable.  ``perfbench/`` times the
package end to end and layer by layer on the active backend.
"""

import os

PURE_NUMPY = os.environ.get("DIAMOND_PURE_NUMPY", "").strip() not in ("", "0", "false", "False")

if not PURE_NUMPY:
    try:
        from numba import njit as _njit

        HAVE_NUMBA = True
    except Exception:  # pragma: no cover - depends on environment
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not PURE_NUMPY


def njit(*args, **kwargs):
    """``numba.njit`` when the numba backend is active, else a no-op decorator."""
    if USE_NUMBA:
        return _njit(*args, **kwargs)
    if args and callable(args[0]) and len(args) == 1 and not kwargs:
        return args[0]

    def wrapper(func):
        return func

    return wrapper


def backend_name():
    return "numba" if USE_NUMBA else "numpy"

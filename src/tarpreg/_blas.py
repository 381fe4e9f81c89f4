"""Hold numpy's bundled OpenBLAS at one thread while replicates run: on many
small products and solves, BLAS threads cost more than they save.  The setting
is process-wide.  tarpreg does all its linear algebra through numpy, so
scipy's own OpenBLAS copy (loaded only by the probit path's scipy.special) is
left alone.  An explicit OPENBLAS_NUM_THREADS or OMP_NUM_THREADS wins; without
a bundled OpenBLAS (MKL, a system BLAS) nothing is touched.  OpenBLAS starts
its threads when it loads, so the command line also calls ``pin_at_start``
before numpy loads.  This module imports numpy only inside its functions."""
import ctypes
import glob
import os
import platform
import sys
from contextlib import contextmanager
from functools import cache

_pinned = False     # OPENBLAS_NUM_THREADS=1 was set by pin_at_start, not by the user


def pin_at_start() -> None:
    """Start every OpenBLAS the process loads at 1 thread, unless numpy is loaded
    already or a thread variable is set: a library caller's process is never changed."""
    global _pinned
    if "numpy" not in sys.modules and not _env_choice():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        _pinned = True


@cache
def _openblas() -> tuple:
    """(file name, getter, setter) of numpy's bundled OpenBLAS, resolved once."""
    import numpy
    found = []
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)  # numpy has loaded it already: this only takes a handle
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((os.path.basename(path), get, set_))
    return tuple(found)


def _env_choice() -> bool:
    """Whether the user set a thread variable; the start-up pin does not count."""
    return bool(os.environ.get("OMP_NUM_THREADS")
                or not _pinned and os.environ.get("OPENBLAS_NUM_THREADS"))


@contextmanager
def one_thread():
    """Run the body with numpy's bundled OpenBLAS at 1 thread; restore its count after."""
    libs = () if _env_choice() else _openblas()
    before = [get() for _, get, _ in libs]
    try:
        for _, _, set_ in libs:
            set_(1)
        yield
    finally:
        for (_, _, set_), count in zip(libs, before):
            set_(count)


def runtime() -> dict:
    """Thread counts outside and inside the guard, CPU count, versions (scipy None if unused)."""
    import numpy
    libs = _openblas()
    outside = [get() for _, get, _ in libs]
    with one_thread():
        threads = {name: {"outside": count, "inside": get()}
                   for (name, get, _), count in zip(libs, outside)}
    return {"blas_threads": threads or "unknown", "thread_env_honoured": _env_choice(),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None)}

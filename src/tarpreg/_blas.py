"""Hold numpy's bundled OpenBLAS at one thread inside tarpreg's numerics, whatever
the environment: on many small products and solves, BLAS threads cost more than
they save, and a product split over threads sums in another order, so the
output bits would depend on the thread count.  The setting is process-wide and
restored after.  tarpreg does all its linear algebra through numpy, so scipy's
own OpenBLAS copy (loaded only by the probit path's scipy.special) is left
alone; without a bundled OpenBLAS (MKL, a system BLAS) nothing is touched.
OpenBLAS starts its threads when it loads, so the command line also calls
``pin_at_start`` before numpy loads.  ``runtime`` is the report each run
writes: these thread counts, the versions and the process's own peak memory.
This module imports numpy only inside its functions."""
import ctypes
import glob
import os
import platform
import sys
from contextlib import contextmanager
from functools import cache


def pin_at_start() -> None:
    """Start every OpenBLAS the process loads at 1 thread, unless numpy is loaded
    already or a thread variable is set: a library caller's process and a user's
    variable are never changed."""
    if "numpy" not in sys.modules and not (os.environ.get("OMP_NUM_THREADS")
                                           or os.environ.get("OPENBLAS_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


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


@contextmanager
def one_thread():
    """Run the body with numpy's bundled OpenBLAS at 1 thread; restore its count after."""
    libs = _openblas()
    before = [get() for _, get, _ in libs]
    try:
        for _, _, set_ in libs:
            set_(1)
        yield
    finally:
        for (_, _, set_), count in zip(libs, before):
            set_(count)


def runtime() -> dict:
    """Thread counts outside and inside the guard, CPU count, versions (scipy None if
    unused) and the process's peak resident memory so far: its own ``VmHWM`` in 10^6
    bytes, None without /proc.  Only this process's: not a pool worker's."""
    import numpy
    libs = _openblas()
    outside = [get() for _, get, _ in libs]
    with one_thread():
        threads = {name: {"outside": count, "inside": get()}
                   for (name, get, _), count in zip(libs, outside)}
    return {"blas_threads": threads or "unknown", "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
            "peak_rss_mb": _peak_rss_mb()}


def _peak_rss_mb():
    # VmHWM is the high-water mark of the memory map exec gave this process.  A
    # child's ru_maxrss is not: Linux carries a vfork parent's peak into it.
    try:
        with open("/proc/self/status", "rb") as fh:  # bytes: Name: may be any encoding
            kib = next(int(line.split()[1]) for line in fh if line.startswith(b"VmHWM:"))
    except (OSError, StopIteration):
        return None
    return kib * 1024 / 1e6

"""One tarpreg CLI call, started the way the ``tarpreg`` console script starts it.

    python3 child.py READY_FILE SPAN_DIR|- -- <tarpreg arguments>
    python3 child.py --probe

The call imports ``tarpreg.cli`` (found on PYTHONPATH), writes the monotonic
clock reading and the import time to READY_FILE, optionally installs the
span recorder of ``spans.py`` writing into SPAN_DIR, and runs
``tarpreg.cli.main``; its return value is the exit status.

``--probe`` imports the same modules and prints, as JSON, where tarpreg was
found, the interpreter and library versions and the thread count of every
OpenBLAS the process loaded.
"""
import sys
import time


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read through its own getter."""
    import ctypes
    import os

    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:
        return {}
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = getter()
                break
    return threads


def probe() -> int:
    import json
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    import tarpreg.cli

    print(json.dumps({
        "tarpreg_file": tarpreg.cli.__file__,
        "tarpreg_version": tarpreg.cli.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }))
    return 0


def call(ready_file: str, span_dir: str, argv: list) -> int:
    started = time.perf_counter()
    import tarpreg.cli
    import_s = time.perf_counter() - started
    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(f"{time.monotonic()!r} {import_s!r}\n")
    if span_dir != "-":
        import spans
        spans.install(span_dir)
    return tarpreg.cli.main(argv)


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        sys.exit(probe())
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: child.py READY_FILE SPAN_DIR|- -- ARGS... | child.py --probe")
    sys.exit(call(sys.argv[1], sys.argv[2], sys.argv[4:]))

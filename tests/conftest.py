import os

import pytest

# Single-threaded BLAS: the suite works on many small matrices, where thread
# fan-out costs far more than it saves.  Set before numpy spins up its pools.
# tarpreg's run guard holds one thread whatever these say; they also start every
# OpenBLAS at one thread, which hides the command line's start-up pin, so
# tests/test_blas.py removes them in the fresh interpreters it starts.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")


@pytest.fixture
def fail_second_call(monkeypatch):
    """``fail_second_call(name)`` makes ``tarpreg.ensemble.<name>`` raise on its second call."""
    def install(name):
        import tarpreg.ensemble as ens
        real, calls = getattr(ens, name), []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(ens, name, flaky)
    return install


@pytest.fixture
def no_child_left():
    """``no_child_left()`` asserts that this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check

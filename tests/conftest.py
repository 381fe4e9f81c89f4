import os

import pytest

# Single-threaded BLAS: the suite works on many small matrices, where thread
# fan-out costs far more than it saves.  Set before numpy spins up its pools.
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

"""The guard that holds the bundled OpenBLAS copies at one thread during a run.

tests/conftest.py sets OPENBLAS_NUM_THREADS=1, which turns the guard off, so
every check here runs in a fresh interpreter with the thread variables
removed from its environment.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tarpreg
from tarpreg._blas import _openblas

SRC = str(Path(tarpreg.__file__).parents[1])
THREAD_VARS = re.compile(r"^(OMP_|OPENBLAS_|GOTO_|MKL_|VECLIB_|BLIS_|NUMEXPR_)|NUM_THREADS")

pytestmark = pytest.mark.skipif(not _openblas(), reason="no bundled OpenBLAS")

# Reads every copy's count through the guard's own getter before a run, from
# inside run_replicate, after a run that returns and after one that raises.
# argv[1] > 0 first sets every copy to that many threads, so the guard has
# a count to change on any machine.
RUN = """
import json, sys
import tarpreg.ensemble as ens
from tarpreg import (ReplicateError, SchemeSpec, TarpConfig, apply_standardization,
                     generate, standardize)
from tarpreg._blas import _openblas

def blas_threads():
    return {name: get() for name, get, _ in _openblas()}

pin = int(sys.argv[1])
for _, _, set_ in _openblas() if pin else ():
    set_(pin)
data = generate(SchemeSpec("ar1", n=60, p=300, n_test=10, seed=1))
train = standardize(data.train)
X_new = apply_standardization(train, data.test_X)
real, seen, fail = ens.run_replicate, [], []

def spy(*args, **kwargs):
    seen.append(blas_threads())
    if fail:
        raise RuntimeError("synthetic failure")
    return real(*args, **kwargs)

ens.run_replicate = spy
out = {"before": blas_threads()}
ens.run_tarp(train, X_new, TarpConfig(n_replicates=3))
out["after_return"] = blas_threads()
fail.append(1)
try:
    ens.run_tarp(train, X_new, TarpConfig(n_replicates=3))
except ReplicateError:
    out["after_error"] = blas_threads()
out["inside"] = seen
print(json.dumps(out))
"""


def _python(*argv, **env_extra):
    env = {k: v for k, v in os.environ.items() if not THREAD_VARS.search(k)}
    env.update(PYTHONPATH=SRC, **env_extra)
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


# Lists the OpenBLAS files mapped after `import numpy`, then after importing
# tarpreg, running the guard and reading `runtime()`.
LOADED = """
import json, sys
import numpy

def openblas_files():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})

before = openblas_files()
from tarpreg._blas import one_thread, runtime
with one_thread():
    info = runtime()
print(json.dumps({"before": before, "after": openblas_files(), "scipy": info["scipy"],
                  "modules": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_guard_loads_no_openblas_the_process_had_not_loaded():
    out = json.loads(_python("-c", LOADED))
    assert out["before"] and out["after"] == out["before"]
    assert out["scipy"] is None and out["modules"] == []


def test_run_holds_one_thread_and_restores_the_count():
    out = json.loads(_python("-c", RUN, "2"))
    assert set(out["before"].values()) == {2}
    assert len(out["inside"]) == 4                      # 3 replicates, then the failing one
    assert all(seen == {name: 1 for name in out["before"]} for seen in out["inside"])
    assert out["after_return"] == out["before"]
    assert out["after_error"] == out["before"]


def test_explicit_thread_variable_wins():
    out = json.loads(_python("-c", RUN, "0", OPENBLAS_NUM_THREADS="2"))
    if (os.cpu_count() or 1) >= 2:
        assert set(out["before"].values()) == {2}
    assert all(seen == out["before"] for seen in out["inside"])
    assert out["after_return"] == out["after_error"] == out["before"]


def test_benchmark_outputs_do_not_depend_on_workers_with_threads_unset(tmp_path):
    common = ["benchmark", "--scheme", "ar1", "--n", "100", "--p", "500", "--n-test", "20",
              "--seed", "5", "--datasets", "4", "--replicates", "5"]
    code = ("import sys; from tarpreg.cli import main; *argv, out = sys.argv[1:]; "
            "sys.exit(any(main(argv + ['--workers', w, '--out', out + w]) for w in '12'))")
    _python("-c", code, *common, str(tmp_path / "w"))
    for ext in (".csv", ".json"):
        assert (tmp_path / f"w1{ext}").read_bytes() == (tmp_path / f"w2{ext}").read_bytes()
    runtime = json.loads((tmp_path / "w2.timing.json").read_text())["runtime"]
    assert runtime["thread_env_honoured"] is False
    assert all(c["inside"] == 1 for c in runtime["blas_threads"].values())

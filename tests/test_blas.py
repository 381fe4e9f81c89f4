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

import numpy as np
import pytest

import tarpreg
from tarpreg import read_csv, write_matrix_csv
from tarpreg._blas import _openblas
from tarpreg.cli import main

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


# Imports tarpreg.cli (argv[1] == "numpy": after numpy), then runs main on the
# rest of argv with run_replicate spied on; reports the thread variables,
# numpy's count before the run and inside it, and after the run the count of
# every OpenBLAS the process has mapped, each read through its own getter.
CLI_RUN = """
import ctypes, json, os, sys
if sys.argv[1] == "numpy":
    import numpy
env_before = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
import tarpreg.cli
import tarpreg.ensemble as ens
from tarpreg._blas import _openblas

def numpy_threads():
    return {name: get() for name, get, _ in _openblas()}

def mapped_blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        get = next(getattr(lib, s) for s in ("scipy_openblas_get_num_threads64_",
                                             "scipy_openblas_get_num_threads") if hasattr(lib, s))
        get.restype = ctypes.c_int
        out[os.path.basename(path)] = get()
    return out

out = {"env_before": env_before, "before": numpy_threads(), "inside": []}
real = ens.run_replicate

def spy(*args, **kwargs):
    out["inside"].append(numpy_threads())
    return real(*args, **kwargs)

ens.run_replicate = spy
assert tarpreg.cli.main(sys.argv[2:]) == 0
out["env_after"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
out["mapped_after"] = mapped_blas_threads() if os.path.exists("/proc/self/maps") else {}
print(json.dumps(out))
"""
MAPS = pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--scheme", "ar1", "--n", "40", "--p", "60", "--n-test", "10",
                 "--n-active", "5", "--seed", "3", "--out", str(out)]) == 0
    train = read_csv(str(out / "train.csv"))
    write_matrix_csv(out / "binary.csv", train.X, (train.y > np.median(train.y)) * 1.0,
                     train.col_names)
    return out


def _fit(csv_pair, tmp_path, binary=False, first="cli", **env):
    train = str(csv_pair / ("binary.csv" if binary else "train.csv"))
    test = str(csv_pair / ("binary.csv" if binary else "test.csv"))
    out = json.loads(_python("-c", CLI_RUN, first, "fit", train, test, "--replicates", "3",
                             "--out", str(tmp_path / "f"), **env))
    out["runtime"] = json.loads((tmp_path / "f.summary.json").read_text())["runtime"]
    return out


@MAPS
def test_cli_starts_openblas_at_one_thread(csv_pair, tmp_path):
    out = _fit(csv_pair, tmp_path)
    assert out["env_before"] == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    assert out["env_after"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(out["before"].values()) == {1}
    assert out["runtime"]["thread_env_honoured"] is False
    assert all(c == {"outside": 1, "inside": 1} for c in out["runtime"]["blas_threads"].values())


@MAPS
def test_binary_fit_leaves_every_openblas_at_one_thread(csv_pair, tmp_path):
    out = _fit(csv_pair, tmp_path, binary=True)
    assert len(out["mapped_after"]) == 2              # numpy's copy and scipy.special's
    assert set(out["mapped_after"].values()) == {1}


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_leaves_a_user_thread_variable_alone(csv_pair, tmp_path, name):
    out = _fit(csv_pair, tmp_path, **{name: "2"})
    assert out["env_before"] == out["env_after"]
    assert out["env_after"][name] == "2"
    assert out["runtime"]["thread_env_honoured"] is True
    if (os.cpu_count() or 1) >= 2:
        assert set(out["before"].values()) == {2}
        assert all(seen == out["before"] for seen in out["inside"])


def test_cli_after_numpy_changes_no_variable_and_still_guards(csv_pair, tmp_path):
    out = _fit(csv_pair, tmp_path, first="numpy")
    assert out["env_before"] == out["env_after"] == {"OPENBLAS_NUM_THREADS": None,
                                                     "OMP_NUM_THREADS": None}
    assert out["runtime"]["thread_env_honoured"] is False
    assert len(out["inside"]) == 3
    assert all(seen == {name: 1 for name in out["before"]} for seen in out["inside"])


IMPORT_ONLY = """
import json, os, sys
import tarpreg
out = {"numpy": "numpy" in sys.modules,
       "env": [k for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ]}
names = {}
exec("from tarpreg import *", names)
out["missing"] = [n for n in tarpreg.__all__ if n not in names]
out["count"] = len(tarpreg.__all__)
import tarpreg.cli
out["pool"] = "concurrent.futures.process" in sys.modules
print(json.dumps(out))
"""


def test_package_import_is_lazy_and_cli_import_loads_no_pool():
    out = json.loads(_python("-c", IMPORT_ONLY))
    assert out["numpy"] is False and out["env"] == []
    assert out["missing"] == [] and out["count"] > 50
    assert out["pool"] is False

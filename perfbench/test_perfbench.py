"""Tests of the benchmark itself: checker, span arithmetic, tracer, names, inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""
import json
import math
import multiprocessing
import os
import re
import types
from pathlib import Path

import numpy as np
import pytest

import check
import inputs
import run
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")
GOOD_FIT = {"index": [0.0, 1.0], "yhat": [1.0, -2.0], "lower": [0.5, -3.0],
            "upper": [1.5, -1.0]}


def test_checker_accepts_a_good_fit_table():
    assert check.fit_problems(GOOD_FIT, 2, binary=False) == []


def test_checker_rejects_nan():
    table = dict(GOOD_FIT, yhat=[1.0, math.nan])
    assert any("non-finite" in p for p in check.fit_problems(table, 2, binary=False))


def test_checker_rejects_swapped_interval():
    table = dict(GOOD_FIT, lower=[1.5, -3.0], upper=[0.5, -1.0])
    assert any("lower <= yhat <= upper" in p for p in check.fit_problems(table, 2, binary=False))


def test_checker_rejects_wrong_row_count_and_bad_probability():
    assert check.fit_problems(GOOD_FIT, 3, binary=False)
    table = {"index": [0.0, 1.0], "probability": [0.2, 1.5]}
    assert any("outside [0, 1]" in p for p in check.fit_problems(table, 2, binary=True))


def test_reference_tolerance_admits_thread_noise_and_rejects_a_changed_value():
    ref = {"probability": [0.3157781589968246, 1e-9]}
    # 1 vs 2 OpenBLAS threads, as measured on the probit path
    assert check.reference_problems({"probability": [0.31577815899681055, 1e-9]}, ref) == []
    assert check.reference_problems({"probability": [0.3157781589968246 * (1 + 1e-6), 1e-9]},
                                    ref)
    assert check.reference_problems({"probability": [math.nan, 1e-9]}, ref)
    assert check.reference_problems({"probability": [0.3]}, ref)


def test_stderr_json_error_is_a_problem():
    assert check.stderr_problems('{"error": "IngestionError", "message": "x"}\n')
    assert check.stderr_problems("a warning line\n") == []


def test_study_checker_matches_report_mean():
    table = {"dataset": [0.0, 1.0], "seed": [5.0, 6.0], "mspe": [2.0, 4.0],
             "ecp": [0.5, 0.6], "width": [1.0, 1.1]}
    assert check.study_problems(table, {"report": {"mspe": {"mean": 3.0}}}, 2) == []
    assert check.study_problems(table, {"report": {"mspe": {"mean": 3.5}}}, 2)


def test_self_time_of_nested_spans():
    #  root [0, 10]: a [1, 4] (with child c [2, 3]) and b [5, 6]
    spans_ = [["root", 0.0, 10.0, None, None], ["a", 1.0, 4.0, 0, None],
              ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    assert spans.self_times(spans_) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans_ = [["root", 0.0, 10.0, None, None], ["a", 1.0, 5.0, 0, None],
              ["b", 3.0, 12.0, 0, None]]
    assert spans.self_times(spans_)[0] == pytest.approx(1.0)


def test_recorder_names_nests_and_flushes(tmp_path):
    recorder = spans.Recorder(str(tmp_path))

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = recorder.wrap("m.inner", inner)
    traced_outer = recorder.wrap("m.outer", outer)
    assert traced_outer(1) == 4
    assert recorder.spans == []            # flushed when the outermost span closed
    (pid, batch), = spans.read_batches(str(tmp_path))
    assert pid == os.getpid()
    assert [s[spans.NAME] for s in batch] == ["m.outer", "m.inner"]
    assert batch[1][spans.PARENT] == 0
    table = spans.summarize([(pid, batch)], main_pid=pid)["functions"]
    assert table["m.outer"]["calls"] == 1
    assert table["m.outer"]["self_s"] <= table["m.outer"]["total_s"]


def test_recorder_closes_the_span_when_the_call_raises(tmp_path):
    recorder = spans.Recorder(str(tmp_path))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("m.boom", boom)()
    (_, batch), = spans.read_batches(str(tmp_path))
    assert batch[0][spans.END] >= batch[0][spans.START]


def test_forked_worker_flushes_its_own_spans(tmp_path):
    recorder = spans.Recorder(str(tmp_path))
    work = recorder.wrap("m.work", lambda x: x * 3)
    recorder.stack.append(0)               # the parent is inside an open span
    # a forked multiprocessing worker leaves through os._exit, as pool workers do
    worker = multiprocessing.get_context("fork").Process(target=work, args=(2,))
    worker.start()
    worker.join(timeout=30)
    recorder.stack.pop()
    assert not worker.is_alive() and worker.exitcode == 0
    batches = spans.read_batches(str(tmp_path))
    assert [(pid, [s[spans.NAME] for s in b]) for pid, b in batches] == [
        (worker.pid, ["m.work"])]


def test_install_rebinds_every_module_binding_one_wrapper(tmp_path, monkeypatch):
    def helper():
        return 1

    helper.__module__ = "tarpreg.fake"
    defining = types.ModuleType("tarpreg.fake")
    caller = types.ModuleType("tarpreg.caller")
    defining.helper = caller.helper = helper
    monkeypatch.setitem(__import__("sys").modules, "tarpreg.fake", defining)
    monkeypatch.setitem(__import__("sys").modules, "tarpreg.caller", caller)
    spans.install(str(tmp_path))
    assert defining.helper is caller.helper is not helper
    assert caller.helper() == 1
    (_, batch), = spans.read_batches(str(tmp_path))
    assert batch[0][spans.NAME] == "fake.helper"


def test_metric_names_and_units_are_well_formed():
    bench = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(run.END_TO_END_UNITS) + list(run.LAYER_UNITS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in bench["per_layer"]} == set(run.LAYER_UNITS)
    for m in bench["end_to_end"] + bench["per_layer"]:
        unit = run.END_TO_END_UNITS.get(m["name"]) or run.LAYER_UNITS[m["name"]]
        assert m["unit"] == unit
    gated = {name for name, w in run.WORKLOADS.items() if w.gated}
    assert {w["name"] for w in bench["workloads"]} == gated


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    a = inputs.ar1_split(3, 0, n_train=20, n_test=5, p=30, n_active=4)
    b = inputs.ar1_split(3, 0, n_train=20, n_test=5, p=30, n_active=4)
    c = inputs.ar1_split(4, 0, n_train=20, n_test=5, p=30, n_active=4)
    assert np.array_equal(a.X_train, b.X_train) and np.array_equal(a.y_test, b.y_test)
    assert not np.array_equal(a.X_train, c.X_train)
    first = inputs.write_csv(tmp_path / "a.csv", a.X_train, a.y_train)
    second = inputs.write_csv(tmp_path / "b.csv", b.X_train, b.y_train)
    assert first["sha256"] == second["sha256"]
    back = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
    assert np.array_equal(back[:, :-1], a.X_train)     # %.17g round-trips exactly
    binary = inputs.binarize(a)
    assert set(np.unique(binary.y_train)) <= {0.0, 1.0}


def test_child_env_scrubs_thread_variables(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_PROC_BIND", "true")
    monkeypatch.setenv("PERFBENCH_UNRELATED", "kept")
    env, scrubbed = run.child_env()
    assert scrubbed["OPENBLAS_NUM_THREADS"] == "1" and "OMP_PROC_BIND" in scrubbed
    assert "OPENBLAS_NUM_THREADS" not in env and "OMP_PROC_BIND" not in env
    assert env["PERFBENCH_UNRELATED"] == "kept"
    assert env["PYTHONPATH"] == str(run.SRC)

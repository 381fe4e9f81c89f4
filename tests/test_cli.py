import csv
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import tarpreg
import tarpreg._blas
import tarpreg.cli as cli
import tarpreg.data
import tarpreg.ensemble
import tarpreg.screening
from tarpreg import (ReplicateError, SchemeSpec, TarpConfig, dataset_seed, read_csv, run_tarp,
                     standardize, write_matrix_csv)
from tarpreg.cli import _build_parser, main


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_deterministic_files(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--scheme", "ar1", "--n", "20", "--p", "50", "--n-test", "5",
            "--n-active", "5", "--seed", "1"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for name in ("train.csv", "test.csv", "sim.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_sidecar_records_fifty_actives_by_default(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--scheme", "ar1", "--n", "20", "--p", "60",
                   "--seed", "2", "--n-test", "4", "--out", str(out)) == 0
    sidecar = json.loads((out / "sim.json").read_text())
    assert len(sidecar["active_idx"]) == 50
    assert len(sidecar["true_beta_nonzero"]) == 50
    assert sidecar["seed"] == 2


def test_invalid_scheme_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--scheme", "bogus", "--out", "x")
    assert err.value.code != 0


def test_parameter_error_emits_json_on_stderr(tmp_path, capsys):
    code = run_cli("simulate", "--scheme", "ar1", "--n", "20", "--p", "10",
                   "--n-test", "4", "--out", str(tmp_path / "x"))
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert "n_active" in payload["message"]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sim"
    assert run_cli("simulate", "--scheme", "ar1", "--n", "40", "--p", "60",
                   "--n-test", "10", "--n-active", "5", "--seed", "3",
                   "--out", str(out)) == 0
    return out


@pytest.mark.parametrize("flags, message", [
    (["--kappa", "0.3", "--out", "{out}"], "unrecognized arguments: --kappa 0.3"),
    (["--kappa", "nan", "--out", "{out}"], "unrecognized arguments: --kappa nan"),
    (["--backend", "sparse-ris-rp", "--kappa", "1.5", "--out", "{out}"],
     "argument --backend: invalid choice: 'sparse-ris-rp'"),
    (["--backend", "ris-pcr", "--kappa", "0.3", "--out", "{out}"],
     "unrecognized arguments: --kappa 0.3"),
    (["--replicates", "abc", "--out", "{out}"], "argument --replicates: invalid int value: 'abc'"),
    (["--backend", "ris-xx", "--out", "{out}"], "argument --backend: invalid choice: 'ris-xx'"),
    (["--replicates", "2"], "the following arguments are required: --out"),
], ids=["unknown-flag", "kappa-nan-removed", "sparse-kappa-removed", "pcr-kappa-removed",
        "bad-int", "invalid-choice", "missing-required"])
def test_usage_error_is_one_json_line(sim_dir, tmp_path, capsys, flags, message):
    # exit status 2 as argparse has it, but the message is JSON like every other failure
    with pytest.raises(SystemExit) as err:
        run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                *(flag.format(out=tmp_path / "x") for flag in flags))
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UsageError" and message in payload["message"]
    assert not list(tmp_path.iterdir())


def test_fit_predict_on_csv(sim_dir, tmp_path):
    prefix = tmp_path / "run"
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--replicates", "6", "--seed", "4", "--out", str(prefix)) == 0
    pred = read_csv(str(prefix) + ".predictions.csv")
    assert pred.X.shape[0] == 10
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["config"]["n_replicates"] == 6
    assert summary["config"]["level"] == 0.5  # defaults echoed
    assert summary["p_gamma"]["max"] <= 60
    assert summary["train"]["response_kind"] == "continuous"
    threads = summary["runtime"]["blas_threads"]  # conftest's variables leave the guard on
    assert threads == "unknown" or all(c["inside"] == 1 for c in threads.values())
    assert summary["runtime"]["replicate_processes"] == 1  # the Gaussian path never forks
    assert summary["io_times"]["read"] > 0 and summary["io_times"]["write"] > 0
    m_lo, m_hi = TarpConfig().resolved_m_range(40, 60)
    assert m_lo <= summary["m_effective"]["min"] <= summary["m_effective"]["max"] <= m_hi
    assert summary["m_effective"]["below_m"] == 0
    assert 0.1 <= summary["psi"]["min"] <= summary["psi"]["max"] <= 0.4
    assert summary["weights_ess"] is None and summary["selected_replicate"] is None

    # m above the rank of the 40 centred rows: ris-pcr truncates every replicate
    cfg = tmp_path / "pcr.cfg"
    cfg.write_text("m_lo=45\nm_hi=50\n")
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--backend", "ris-pcr", "--aggregation", "model-average",
                   "--config", str(cfg), "--replicates", "6", "--seed", "4",
                   "--out", str(tmp_path / "ma")) == 0
    summary = json.loads((tmp_path / "ma.summary.json").read_text())
    assert summary["m_effective"]["max"] <= 39 and summary["m_effective"]["below_m"] == 6
    assert summary["psi"] is None
    assert 1.0 <= summary["weights_ess"] <= 6.0
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--aggregation", "cv", "--replicates", "6", "--seed", "4",
                   "--out", str(tmp_path / "cv")) == 0
    summary = json.loads((tmp_path / "cv.summary.json").read_text())
    assert summary["selected_replicate"] in range(6) and summary["weights_ess"] is None


def test_fit_in_sample_allowed(sim_dir, tmp_path):
    prefix = tmp_path / "insample"
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "train.csv"),
                   "--replicates", "3", "--seed", "5", "--out", str(prefix)) == 0
    pred = read_csv(str(prefix) + ".predictions.csv")
    assert np.isfinite(pred.X).all() and np.isfinite(pred.y).all()


def test_fit_pcr_delta_zero_baseline(sim_dir, tmp_path):
    prefix = tmp_path / "pcr0"
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--backend", "ris-pcr", "--delta", "0", "--replicates", "3",
                   "--seed", "6", "--out", str(prefix)) == 0
    summary = json.loads((tmp_path / "pcr0.summary.json").read_text())
    assert summary["config"]["delta"] == 0.0
    assert summary["p_gamma"]["min"] == 60  # screening disabled keeps every column


def test_fit_config_file_with_flag_override(sim_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nreplicates=4\nlevel=0.8\nseed=9\n")
    prefix = tmp_path / "cfgd"
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--config", str(cfg), "--replicates", "2",
                   "--out", str(prefix)) == 0
    summary = json.loads((tmp_path / "cfgd.summary.json").read_text())
    assert summary["config"]["n_replicates"] == 2          # flag wins
    assert summary["config"]["level"] == 0.8               # file value applied
    assert summary["config"]["seed"] == 9
    assert summary["config_file_values"]["replicates"] == 4


def test_config_file_values_echo_only_the_file(sim_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\nreplicates=2\n")
    runs = {"flag": ["--seed", "5", "--replicates", "2"], "file": ["--config", str(cfg)],
            "both": ["--config", str(cfg), "--seed", "6"], "neither": ["--replicates", "2"]}
    summaries = {}
    for name, flags in runs.items():
        assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"), *flags,
                       "--out", str(tmp_path / name)) == 0
        summaries[name] = json.loads((tmp_path / f"{name}.summary.json").read_text())
    in_file = {"seed": 5, "replicates": 2}
    assert [s["config_file_values"] for s in summaries.values()] == [{}, in_file, in_file, {}]
    assert [s["config"]["seed"] for s in summaries.values()] == [5, 5, 6, 0]


@pytest.mark.parametrize("command", ["fit", "screen"], ids=["fit-flag", "screen-flag"])
def test_empty_response_is_an_ingestion_error(sim_dir, tmp_path, capsys, command):
    # an empty name is a name that is not in the header, not "use the default"
    files = [str(sim_dir / "train.csv")] + ([str(sim_dir / "test.csv")] if command == "fit" else [])
    assert run_cli(command, *files, "--response", "", "--replicates", "2",
                   "--out", str(tmp_path / "x")) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "IngestionError",
        "message": f"{sim_dir / 'train.csv'}: response column '' not found"}
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["fit", "screen"])
def test_a_csv_with_no_predictor_column_is_one_json_error(tmp_path, capsys, command):
    data = tmp_path / "one.csv"
    data.write_text("y\n1\n2\n3\n4\n5\n")
    files = [str(data)] * (2 if command == "fit" else 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(command, *files, "--out", str(tmp_path / "q")) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "IngestionError",
        "message": f"{data}: a predictor column is needed, got X of shape (5, 0)"}
    assert [f.name for f in tmp_path.iterdir()] == ["one.csv"]


@pytest.mark.parametrize("flags", [["--n-active", "2", "--coef", "0"], ["--n-active", "0"]],
                         ids=["coef-0", "n-active-0"])
def test_benchmark_on_a_constant_response_runs_the_gaussian_path(tmp_path, flags):
    # y = 0 exactly lies in {0, 1}, but a simulated response is continuous
    assert run_cli("benchmark", "--scheme", "ar1", "--n", "20", "--p", "20", "--n-test", "5",
                   *flags, "--noise-sd", "0", "--datasets", "1", "--workers", "1",
                   "--replicates", "2", "--out", str(tmp_path / "b")) == 0
    with open(tmp_path / "b.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (float(row["mspe"]), float(row["ecp"])) == (0.0, 1.0)


def test_fit_unknown_config_key_fails(sim_dir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    code = run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert code == 1


_BENCH_FLAGS = ["--scheme", "ar1", "--n", "20", "--p", "30", "--n-test", "4",
                "--n-active", "3", "--datasets", "1"]


@pytest.mark.parametrize("command, flags, cfg_text", [
    ("fit", [], "replicates=abc\n"),
    ("fit", ["--delta", "abc"], None),
    ("fit", ["--delta", "nan"], None),
    ("screen", ["--delta", "abc"], None),
    ("fit", [], "probit_burnin=50\nprobit_iterations=10\n"),
    ("benchmark", _BENCH_FLAGS + ["--m", "5"], None),
    ("benchmark", _BENCH_FLAGS + ["--psi", "0.3"], None),
    ("benchmark", _BENCH_FLAGS + ["--workers", "-4"], None),
    ("benchmark", _BENCH_FLAGS + ["--no-aggregate", "--m", "50"], None),
    ("benchmark", _BENCH_FLAGS + ["--backend", "ris-pcr", "--no-aggregate", "--m", "5",
                                  "--psi", "0.3"], None),
    ("fit", [], "backend=sparse-ris-rp\n"),
    ("benchmark", _BENCH_FLAGS + ["--no-aggregate", "--m", "5", "--replicates", "50"], None),
    ("benchmark", _BENCH_FLAGS + ["--no-aggregate", "--m", "5"], "replicates=50\n"),
    ("benchmark", _BENCH_FLAGS + ["--no-aggregate", "--m", "5"], "m_lo=3\nm_hi=9\n"),
    ("fit", ["--seed", str(2 ** 64)], None),
    ("benchmark", _BENCH_FLAGS + ["--seed", "-3"], None),
    ("screen", ["--seed", "-1"], None),
    # used to run, and fail on the summary JSON after every replicate
    ("fit", ["--delta", "inf"], None),
], ids=["config-replicates-abc", "delta-abc", "delta-nan",
        "screen-delta-abc", "config-burnin-exceeds-iterations",
        "benchmark-m-without-no-aggregate", "benchmark-psi-without-no-aggregate",
        "benchmark-workers-negative", "benchmark-m-above-p", "benchmark-psi-on-ris-pcr",
        "config-sparse-backend-removed",
        "benchmark-replicates-with-no-aggregate",
        "benchmark-config-replicates-with-no-aggregate",
        "benchmark-config-m-range-with-no-aggregate", "fit-seed-2-64",
        "benchmark-seed-negative", "screen-seed-negative", "delta-inf"])
def test_bad_setting_is_one_json_parameter_error(sim_dir, tmp_path, capsys,
                                                 command, flags, cfg_text):
    files = [] if command == "benchmark" else [str(sim_dir / "train.csv")]
    if command == "fit":
        files.append(str(sim_dir / "test.csv"))
    if cfg_text is not None:
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(cfg_text)
        flags = flags + ["--config", str(cfg)]
    prefix = tmp_path / "bad"
    if "--no-aggregate" not in flags:  # which runs one replicate, so --replicates is an error
        flags = flags + ["--replicates", "2"]
    assert run_cli(command, *files, *flags, "--out", str(prefix)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    if "--seed" in flags:  # -3 used to run as seed 2**64 - 3, and 2**64 as seed 0
        assert payload["message"].startswith("seed must be an integer in [0, 2**64)")
    if "--no-aggregate" in flags and ("--replicates" in flags or cfg_text == "replicates=50\n"):
        # --replicates used to be overridden to 1
        assert payload["message"] == ("--no-aggregate runs one replicate per dataset: "
                                      "set no replicates")
    if cfg_text == "m_lo=3\nm_hi=9\n":  # the file's m range used to be replaced by --m
        assert payload["message"] == "--no-aggregate runs at the fixed --m: set no m_lo or m_hi"
    if cfg_text == "replicates=abc\n":
        assert f"{cfg}:1:" in payload["message"]
    if cfg_text == "backend=sparse-ris-rp\n":
        assert payload["message"] == "backend must be one of ('ris-rp', 'ris-pcr')"
    if "--delta" in flags:
        assert "delta" in payload["message"]
    assert not list(tmp_path.glob("bad.*"))  # no predictions or summary written


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--a-sigma", "1"]),
    ("benchmark", ["--b-sigma", "1"]),
    ("fit", ["--b-sigma", "nan"]),
    ("fit", ["--a-sigma", "1e308"]),
    ("fit", ["--b-sigma", "1e308"]),
], ids=["fit-a-sigma", "benchmark-b-sigma", "fit-b-sigma-nan", "fit-a-sigma-1e308",
        "fit-b-sigma-1e308"])
def test_removed_prior_flag_is_one_json_usage_error(sim_dir, tmp_path, capsys, command, flags):
    # sigma^2's Inv-Gamma(0.02, 0.02) prior is fixed, not a setting
    files = (_BENCH_FLAGS if command == "benchmark"
             else [str(sim_dir / "train.csv"), str(sim_dir / "test.csv")])
    with pytest.raises(SystemExit) as err:
        run_cli(command, *files, *flags, "--out", str(tmp_path / "x"))
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UsageError"
    assert f"unrecognized arguments: {' '.join(flags)}" in payload["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cfg_text, message", [
    ("replicates=4\nreplicates=6\n", "{cfg}:2: key 'replicates' repeats line 1"),
    ("replicates=2\ncenter_y=on\n", "{cfg}:2: unknown key 'center_y'"),
    ("kappa=0.3\n", "{cfg}:1: unknown key 'kappa'"),
    ("k_folds=3\n", "{cfg}:1: unknown key 'k_folds'"),
    ("theta_scale=2\n", "{cfg}:1: unknown key 'theta_scale'"),
    ("probit_average=on\n", "{cfg}:1: unknown key 'probit_average'"),
    ("psi_lo=0.2\n", "{cfg}:1: unknown key 'psi_lo'"),
    ("psi_hi=0.3\n", "{cfg}:1: unknown key 'psi_hi'"),
    ("aggregation=cv\npi_method=mixture\n", "{cfg}:2: unknown key 'pi_method'"),
    ("aggregation=model-average\npi_method=mixture\n", "{cfg}:2: unknown key 'pi_method'"),
    ("a_sigma=0.1\n", "{cfg}:1: unknown key 'a_sigma'"),
    ("replicates=2\nb_sigma=0.02\n", "{cfg}:2: unknown key 'b_sigma'"),
    ("response=y\n", "{cfg}:1: unknown key 'response'"),
    ("m_lo=10\n", "config must set both m_lo and m_hi"),
    ("replicates\n", "{cfg}:1: expected key=value"),
], ids=["repeated-key", "center-y-removed", "kappa-removed", "k-folds-removed",
        "theta-scale-removed", "probit-average-removed", "psi-lo-removed", "psi-hi-removed",
        "pi-method-mixture-cv-removed", "pi-method-mixture-model-average-removed",
        "a-sigma-removed", "b-sigma-removed", "response-removed", "m-lo-without-m-hi",
        "line-without-equals"])
def test_config_file_error_names_line_and_key(sim_dir, tmp_path, capsys, cfg_text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ParameterError",
                                                   "message": message.format(cfg=cfg)}
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv, error, message", [
    (["fit", "{train}", "{narrow}"], "ParameterError",
     "test has 9 predictor columns, train has 10"),
    (["fit", "{one_row}", "{train}"], "DimensionError", "standardize needs n >= 2"),
    (["fit", "{train}", "{train}", "--response", "99"], "IngestionError",
     "{train}: response column index 99 out of range"),
    (["screen", "{train}", "--response", "99"], "IngestionError",
     "{train}: response column index 99 out of range"),
], ids=["fit-test-one-column-narrower", "fit-one-row-train", "fit-response-99",
        "screen-response-99"])
def test_input_that_does_not_fit_the_command_is_one_json_error(tmp_path, capsys, argv, error,
                                                               message):
    X, y = np.random.default_rng(4).normal(size=(6, 10)), np.arange(6.0)
    paths = {"train": tmp_path / "train.csv", "narrow": tmp_path / "narrow.csv",
             "one_row": tmp_path / "one_row.csv"}
    write_matrix_csv(paths["train"], X, y)
    write_matrix_csv(paths["narrow"], X[:, :9], y)
    write_matrix_csv(paths["one_row"], X[:1], y[:1])
    assert run_cli(*[a.format(**paths) for a in argv], "--out", str(tmp_path / "x")) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error, "message": message.format(**paths)}
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())  # no output file left


@pytest.mark.parametrize("cfg_text, key", [
    ("theta_scale=3\n", "theta_scale"),
    ("k_folds=3\n", "k_folds"),
], ids=["theta-scale-removed", "k-folds-removed"])
def test_binary_config_error_names_line_and_key(tmp_path, capsys, cfg_text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    train = _binary_csv(tmp_path)
    assert run_cli("fit", str(train), str(train), "--config", str(cfg),
                   "--out", str(tmp_path / "x")) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ParameterError",
                                                   "message": f"{cfg}:1: unknown key '{key}'"}
    assert sorted(tmp_path.iterdir()) == sorted([cfg, train])


def test_replicate_error_json_carries_index_and_seed(sim_dir, tmp_path, capsys,
                                                     fail_second_call):
    fail_second_call("fit_compressed")
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--replicates", "3", "--seed", "5", "--out", str(tmp_path / "x")) == 1
    payload = json.loads(capsys.readouterr().err)
    assert (payload["error"], payload["index"], payload["seed"]) == ("ReplicateError", 1, 5)
    assert not list(tmp_path.glob("x.*"))


def test_replicate_error_is_the_same_for_any_workers(tmp_path, capsys, fail_second_call):
    common = ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
              "--n-active", "4", "--seed", "3", "--datasets", "2", "--replicates", "3"]
    payloads = []
    for workers in ("1", "2"):
        # the forked process inherits a fresh patch and sends the error back pickled
        fail_second_call("run_replicate")
        assert run_cli(*common, "--workers", workers, "--out", str(tmp_path / workers)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payloads.append(json.loads(err))
    assert payloads[0] == payloads[1]
    assert (payloads[0]["error"], payloads[0]["index"], payloads[0]["seed"]) == (
        "ReplicateError", 1, dataset_seed(3, 0))
    assert not list(tmp_path.glob("*.json"))


def test_replicate_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ReplicateError(3, 7, ValueError("boom"))))
    assert (type(err), err.index, err.seed) == (ReplicateError, 3, 7)
    assert str(err) == "replicate 3 (seed 7) failed: ValueError('boom')"


def test_benchmark_pool_is_capped_at_the_dataset_count(tmp_path):
    assert run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
                   "--n-active", "4", "--seed", "4", "--datasets", "2", "--replicates", "2",
                   "--workers", "3", "--out", str(tmp_path / "cap")) == 0
    assert json.loads((tmp_path / "cap.timing.json").read_text())["workers"] == 2


def test_benchmark_workers_zero_is_one_per_allowed_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
                   "--n-active", "4", "--seed", "4", "--datasets", "3", "--replicates", "2",
                   "--workers", "0", "--out", str(tmp_path / "one")) == 0
    assert json.loads((tmp_path / "one.timing.json").read_text())["workers"] == 1


@pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                    reason="needs os.fork and os.sched_getaffinity")
@pytest.mark.parametrize("case", ["child-dies", "caller-interrupted"])
def test_a_benchmark_process_that_dies_or_an_interrupt_leaves_no_process(tmp_path, capsys,
                                                                          monkeypatch,
                                                                          no_child_left, case):
    real, parent = tarpreg.ensemble.run_replicate, os.getpid()

    def patched(*args, **kwargs):
        if os.getpid() != parent:  # the forked process, which runs the odd datasets
            if case == "child-dies":
                os._exit(3)
            time.sleep(20)  # killed, not waited for
        elif case == "caller-interrupted":
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(tarpreg.ensemble, "run_replicate", patched)
    argv = ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
            "--n-active", "4", "--datasets", "3", "--replicates", "2", "--workers", "2",
            "--out", str(tmp_path / "b")]
    started = time.perf_counter()
    if case == "child-dies":
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "TarpError", "message": "the process running the "
                                   "datasets l = 1 (mod 2) ended without sending them"}
    else:
        with pytest.raises(KeyboardInterrupt):
            run_cli(*argv)
    assert time.perf_counter() - started < 10
    no_child_left()
    assert not list(tmp_path.iterdir())  # no output file


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1))
def test_benchmark_files_do_not_depend_on_workers_at_any_seed(seed):
    with tempfile.TemporaryDirectory() as tmp:
        for workers in ("1", "2"):
            assert run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40",
                           "--n-test", "8", "--n-active", "4", "--seed", str(seed),
                           "--datasets", "3", "--replicates", "3", "--workers", workers,
                           "--out", os.path.join(tmp, workers)) == 0
        for ext in (".csv", ".json"):
            assert Path(tmp, "1" + ext).read_bytes() == Path(tmp, "2" + ext).read_bytes()


@pytest.mark.parametrize("flags, field", [
    (["--noise-sd", "nan"], "noise_sd"),
    (["--n-active", "3", "--noise-sd", "1e308"], "coef_value"),
    (["--n-active", "3", "--coef", "1e308"], "coef_value"),
    (["--scheme", "bridge", "--p", "50", "--n-active", "3", "--coef", "1e308"], "coef_value"),
    (["--p", "30", "--n-active", "-1"], "n_active"),
    (["--noise-sd", "inf"], "noise_sd"),
    (["--coef", "nan"], "coef_value"),
    (["--coef=-inf"], "coef_value"),
    (["--scheme", "pcr", "--p", "50", "--noise-sd", "1e308"], "noise_sd"),
    (["--scheme", "pcr", "--n-active", "3"], "n_active"),
    (["--scheme", "pcr", "--coef", "7"], "coef_value"),
    (["--scheme", "block", "--p", "400", "--n-active", "150"], "n_active"),
    (["--scheme", "bridge", "--p", "1", "--n-active", "1"], "p"),
    (["--n-active", "3", "--seed", "-1"], "seed"),
], ids=["noise-sd-nan", "noise-sd-overflows", "coef-overflows", "bridge-coef-overflows",
        "n-active-negative", "noise-sd-inf", "coef-nan", "coef-minus-inf", "pcr-noise-sd-overflows",
        "pcr-n-active", "pcr-coef", "block-n-active-above-high-columns", "bridge-p-one",
        "seed-negative"])
def test_bad_scheme_setting_is_one_json_parameter_error(tmp_path, capsys, flags, field):
    scheme = [] if "--scheme" in flags else ["--scheme", "ar1"]
    out = tmp_path / "sim"
    assert run_cli("simulate", *scheme, *flags, "--n", "20", "--n-test", "4",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert payload["message"].startswith(field + " ")
    assert not (out / "train.csv").exists()


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--rho", "nan"]),
    ("benchmark", ["--rho", "-1"]),
    ("simulate", ["--scheme", "block", "--rho-high", "1.5"]),
    ("benchmark", ["--scheme", "block", "--rho-high", "0.8"]),
    ("simulate", ["--scheme", "block", "--rho-low", "-0.1"]),
    ("benchmark", ["--scheme", "block", "--rho-low", "0.2"]),
    ("simulate", ["--scheme", "block", "--block-size", "50"]),
    ("benchmark", ["--scheme", "block", "--block-size", "50"]),
    ("simulate", ["--scheme", "pcr", "--n-outliers", "0"]),
    ("benchmark", ["--scheme", "pcr", "--n-outliers", "0"]),
    ("simulate", ["--scheme", "pcr", "--outlier-sd", "0"]),
    ("simulate", ["--scheme", "pcr", "--outlier-sd", "inf"]),
    ("benchmark", ["--scheme", "pcr", "--outlier-sd", "1e308"]),
    ("benchmark", ["--scheme", "pcr", "--outlier-sd", "1e200"]),
    ("simulate", ["--scheme", "bridge", "--t-max", "nan"]),
    ("simulate", ["--scheme", "bridge", "--t-max", "1e308"]),
    ("benchmark", ["--t-max", "inf"]),
    ("benchmark", ["--scheme", "bridge", "--t-max", "1e160"]),
], ids=["simulate-rho-nan", "benchmark-rho-minus-one", "simulate-rho-high-1.5",
        "benchmark-rho-high", "simulate-rho-low-negative", "benchmark-rho-low",
        "simulate-block-size", "benchmark-block-size", "simulate-n-outliers",
        "benchmark-n-outliers", "simulate-outlier-sd-zero", "simulate-outlier-sd-inf",
        "benchmark-outliers-overflow", "benchmark-outlier-variance-overflows",
        "simulate-t-max-nan", "simulate-bridge-overflows", "benchmark-t-max-inf",
        "benchmark-bridge-variance-overflows"])
def test_removed_scheme_flag_is_one_json_usage_error(tmp_path, capsys, command, flags):
    # the design constants of simulate are not settings; their old flags are usage errors
    scheme = [] if "--scheme" in flags else ["--scheme", "ar1"]
    with pytest.raises(SystemExit) as err:
        run_cli(command, *scheme, *flags, "--n", "20", "--n-test", "4",
                "--out", str(tmp_path / "x"))
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UsageError"
    assert f"unrecognized arguments: {' '.join(flags[-2:])}" in payload["message"]
    assert not list(tmp_path.iterdir())


def test_fit_rejects_a_response_whose_sum_of_squares_overflows(tmp_path, capsys):
    sim = tmp_path / "big"
    assert run_cli("simulate", "--scheme", "ar1", "--n", "30", "--p", "50", "--n-active", "3",
                   "--coef", "1e200", "--out", str(sim)) == 0
    assert run_cli("fit", str(sim / "train.csv"), str(sim / "test.csv"),
                   "--out", str(tmp_path / "x")) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "IngestionError"
    assert "sum of squares overflows" in payload["message"]
    assert not list(tmp_path.glob("x.*"))


def test_json_output_is_strict_and_never_half_written(sim_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("tarpreg.cli.runtime", lambda: {"nan": float("nan")})
    prefix = tmp_path / "x"
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--replicates", "2", "--out", str(prefix)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "TarpError"
    assert f"{prefix}.summary.json" in payload["message"]
    assert not (tmp_path / "x.summary.json").exists()


def test_fit_predicts_a_one_row_test_file(sim_dir, tmp_path):
    lines = (sim_dir / "test.csv").read_text().splitlines(keepends=True)
    (tmp_path / "two.csv").write_text("".join(lines[:3]))
    (tmp_path / "one.csv").write_text("".join(lines[:2]))
    preds = {}
    for name in ("two", "one"):
        prefix = tmp_path / f"{name}_run"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("fit", str(sim_dir / "train.csv"), str(tmp_path / f"{name}.csv"),
                           "--replicates", "4", "--seed", "2", "--out", str(prefix)) == 0
        preds[name] = np.loadtxt(str(prefix) + ".predictions.csv", delimiter=",",
                                 skiprows=1, ndmin=2)
    assert preds["one"].shape == (1, 4)
    np.testing.assert_allclose(preds["one"][0], preds["two"][0], rtol=1e-12)


def test_fit_predicts_the_same_from_quoted_copies_of_its_inputs(sim_dir, tmp_path):
    for name in ("train.csv", "test.csv"):  # every cell quoted, as csv.QUOTE_ALL writes
        with open(sim_dir / name, newline="") as src, \
                open(tmp_path / name, "w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
    preds = []
    for i, data in enumerate((sim_dir, tmp_path)):
        prefix = tmp_path / f"run{i}"
        assert run_cli("fit", str(data / "train.csv"), str(data / "test.csv"),
                       "--replicates", "4", "--seed", "2", "--out", str(prefix)) == 0
        preds.append(Path(str(prefix) + ".predictions.csv").read_bytes())
    assert (tmp_path / "train.csv").read_text().startswith('"')
    assert preds[0] == preds[1]


def test_every_scheme_field_is_a_simulate_flag():
    args = _build_parser().parse_args(["simulate", "--scheme", "ar1", "--out", "x"])
    missing = [f.name for f in fields(SchemeSpec)
               if f.name != "scheme" and f.name not in vars(args)]
    assert missing == []


def test_fit_rejects_test_columns_in_another_order(sim_dir, tmp_path, capsys):
    rows = [line.split(",") for line in (sim_dir / "test.csv").read_text().splitlines()]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("".join(",".join([r[1], r[0], *r[2:]]) + "\n" for r in rows))
    assert run_cli("fit", str(sim_dir / "train.csv"), str(swapped), "--replicates", "2",
                   "--out", str(tmp_path / "x")) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError"
    assert "column 0" in payload["message"] and "'x1'" in payload["message"]
    assert not (tmp_path / "x.predictions.csv").exists()


def test_cli_defaults_are_the_dataclass_defaults(sim_dir, tmp_path):
    assert run_cli("fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                   "--out", str(tmp_path / "d")) == 0
    summary = json.loads((tmp_path / "d.summary.json").read_text())
    assert summary["config"] == json.loads(json.dumps(asdict(TarpConfig())))
    assert run_cli("simulate", "--scheme", "ar1", "--out", str(tmp_path / "sim")) == 0
    sidecar = json.loads((tmp_path / "sim" / "sim.json").read_text())
    assert sidecar["spec"] == asdict(SchemeSpec("ar1"))


def _config_key_default(key):
    # the field a key sets, so a key that outlives its field raises AttributeError
    cfg = TarpConfig()
    return cfg.n_replicates if key == "replicates" else getattr(cfg, key)


def test_every_config_key_parses_to_its_own_default(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--scheme", "ar1", "--n", "20", "--p", "30", "--n-test", "4",
                   "--n-active", "3", "--out", str(sim)) == 0
    data = [str(sim / "train.csv"), str(sim / "test.csv")]
    assert run_cli("fit", *data, "--out", str(tmp_path / "plain")) == 0
    plain = (tmp_path / "plain.predictions.csv").read_bytes()
    cfg = tmp_path / "default.cfg"
    for key, kind in cli._CONFIG_SCHEMA.items():
        if key in ("m_lo", "m_hi"):  # their default depends on n and p
            continue
        default = _config_key_default(key)
        assert type(default) is kind, key
        cfg.write_text(f"{key}={default}\n")
        assert run_cli("fit", *data, "--config", str(cfg), "--out", str(tmp_path / key)) == 0
        assert (tmp_path / f"{key}.predictions.csv").read_bytes() == plain, key


def test_benchmark_config_response_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replicates=2\nresponse=y\n")
    assert run_cli("benchmark", *_BENCH_FLAGS, "--config", str(cfg),
                   "--out", str(tmp_path / "b")) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ParameterError", "message": f"{cfg}:2: unknown key 'response'"}
    assert not list(tmp_path.glob("b.*"))


def test_benchmark_noise_sd_inf_fails_before_any_dataset(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_benchmark_one", lambda job: pytest.fail("a dataset ran"))
    assert run_cli("benchmark", *_BENCH_FLAGS, "--noise-sd", "inf",
                   "--out", str(tmp_path / "b")) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError" and payload["message"].startswith("noise_sd ")
    assert not list(tmp_path.glob("b.*"))


@pytest.mark.parametrize("flags, field", [
    (["--scheme", "block", "--p", "400", "--n-active", "150"], "n_active"),
    (["--scheme", "bridge", "--p", "1", "--n-active", "1"], "p"),
], ids=["block-n-active-above-high-columns", "bridge-p-one"])
def test_benchmark_scheme_shape_error_fails_before_any_dataset(tmp_path, capsys, monkeypatch,
                                                               flags, field):
    monkeypatch.setattr(cli, "_benchmark_one", lambda job: pytest.fail("a dataset ran"))
    assert run_cli("benchmark", *flags, "--n", "20", "--n-test", "4", "--datasets", "1",
                   "--workers", "1", "--replicates", "2", "--out", str(tmp_path / "b")) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ParameterError" and payload["message"].startswith(field + " ")
    assert not list(tmp_path.glob("b.*"))


def test_fit_binary_writes_probabilities(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    rng = np.random.default_rng(7)
    rows = ["x0,x1,x2,y"]
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(int)
    for i in range(30):
        rows.append(",".join(map(str, [*X[i], y[i]])))
    path = tmp_path / "bin.csv"
    path.write_text("\n".join(rows) + "\n")
    prefix = tmp_path / "binrun"
    assert run_cli("fit", str(path), str(path), "--replicates", "2", "--seed", "8",
                   "--out", str(prefix)) == 0
    pred = read_csv(str(prefix) + ".predictions.csv")
    names = json.loads((tmp_path / "binrun.summary.json").read_text())
    assert names["train"]["response_kind"] == "binary"
    assert names["runtime"]["replicate_processes"] == (2 if hasattr(os, "fork") else 1)
    assert ((pred.y >= 0) & (pred.y <= 1)).all()  # probability column


def test_fit_reads_a_one_label_response_as_continuous(tmp_path):
    # the simulated y is all 0: benchmark runs the Gaussian path on it, and so must fit
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--scheme", "ar1", "--n", "20", "--p", "20", "--n-test", "5",
                   "--n-active", "2", "--coef", "0", "--noise-sd", "0", "--out", str(sim)) == 0
    prefix = tmp_path / "q"
    assert run_cli("fit", str(sim / "train.csv"), str(sim / "test.csv"), "--replicates", "2",
                   "--out", str(prefix)) == 0
    summary = json.loads((tmp_path / "q.summary.json").read_text())
    assert summary["train"]["response_kind"] == "continuous"
    with open(str(prefix) + ".predictions.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["index", "yhat", "lower", "upper"]


def test_benchmark_single_dataset_reports_zero_sd(tmp_path):
    prefix = tmp_path / "b1"
    assert run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40",
                   "--n-test", "8", "--n-active", "4", "--seed", "9",
                   "--datasets", "1", "--replicates", "3", "--workers", "1",
                   "--out", str(prefix)) == 0
    report = json.loads((tmp_path / "b1.json").read_text())
    assert report["report"]["mspe"]["sd"] == 0.0
    assert report["datasets"] == 1


def test_benchmark_seed_from_config_and_flag_override(tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=5\n")
    common = ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
              "--n-active", "4", "--datasets", "2", "--replicates", "2", "--workers", "1",
              "--config", str(cfg)]
    assert run_cli(*common, "--out", str(tmp_path / "f")) == 0
    report = json.loads((tmp_path / "f.json").read_text())
    assert report["config"]["seed"] == 5
    assert report["dataset_seeds"] == [dataset_seed(5, i) for i in range(2)]
    assert run_cli(*common, "--seed", "6", "--out", str(tmp_path / "g")) == 0
    report = json.loads((tmp_path / "g.json").read_text())
    assert report["dataset_seeds"] == [dataset_seed(6, i) for i in range(2)]


def test_benchmark_timing_reports_elapsed_and_summed_time(tmp_path, monkeypatch):
    # a dataset's time runs from drawing it to scoring it, not only its run_tarp
    generate = cli.generate
    monkeypatch.setattr(cli, "generate", lambda spec: time.sleep(0.05) or generate(spec))
    prefix = tmp_path / "t"
    assert run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40",
                   "--n-test", "8", "--n-active", "4", "--seed", "2",
                   "--datasets", "3", "--replicates", "2", "--workers", "1",
                   "--out", str(prefix)) == 0
    timing = json.loads((tmp_path / "t.timing.json").read_text())
    assert min(timing["per_dataset_wall_time"]) >= 0.05
    assert timing["dataset_time_sum"] == sum(timing["per_dataset_wall_time"])
    assert timing["wall_time"] >= timing["dataset_time_sum"]
    assert set(timing["runtime"]) == {"blas_threads", "cpu_count", "python", "numpy", "scipy",
                                      "peak_rss_mb"}
    assert "runtime" not in json.loads((tmp_path / "t.json").read_text())


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_runtime_reports_the_process_own_peak_memory():
    # a fresh interpreter, whose peak is its own and not this test run's
    code = ("import json, numpy as np; from tarpreg._blas import runtime; "
            "np.ones(8_000_000); print(json.dumps(runtime()['peak_rss_mb']))")
    env = dict(os.environ, PYTHONPATH=str(Path(tarpreg.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) >= 64  # the 64 MB array was touched, then freed


def test_runtime_peak_memory_is_null_without_proc(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/status")
    monkeypatch.setattr(tarpreg._blas, "open", no_proc, raising=False)
    assert tarpreg._blas.runtime()["peak_rss_mb"] is None


# Runs in a fresh interpreter, so modules other tests imported do not count.
NO_SCIPY = """
import json, sys
from tarpreg.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

train, test, binary, out = sys.argv[1:]
loaded = {"import": scipy_modules()}
for name, flags in (("default", []), ("model-average", ["--aggregation", "model-average"]),
                    ("cv", ["--aggregation", "cv"])):
    assert main(["fit", train, test, "--replicates", "3", *flags, "--out", out + name]) == 0
    loaded[name] = scipy_modules()
assert main(["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
             "--n-active", "4", "--datasets", "2", "--replicates", "2", "--workers", "1",
             "--out", out + "bench"]) == 0
loaded["benchmark"] = scipy_modules()
assert main(["fit", binary, binary, "--replicates", "2", "--out", out + "binary"]) == 0
loaded["binary"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_cli_import_and_gaussian_runs_load_no_scipy(sim_dir, tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    binary = tmp_path / "bin.csv"
    write_matrix_csv(binary, X, (X[:, 0] > 0).astype(float))
    env = dict(os.environ, PYTHONPATH=str(Path(tarpreg.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY, str(sim_dir / "train.csv"),
                          str(sim_dir / "test.csv"), str(binary), str(tmp_path / "r")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert {k: v for k, v in loaded.items() if k != "binary"} == dict.fromkeys(
        ["import", "default", "model-average", "cv", "benchmark"], [])
    assert "scipy.special" in loaded["binary"]  # the probit sampler loads it on first use
    for name, scipy_version in (("cv", None), ("binary", scipy.__version__)):
        summary = json.loads((tmp_path / f"r{name}.summary.json").read_text())
        assert summary["runtime"]["scipy"] == scipy_version
    timing = json.loads((tmp_path / "rbench.timing.json").read_text())
    assert timing["runtime"]["scipy"] is None


def test_fit_rejects_header_of_another_width(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("a,b\n1,2,3\n4,5,6\n7,8,9\n")
    for flags in ([], ["--response", "0"]):
        assert run_cli("fit", str(path), str(path), *flags, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "IngestionError",
                                   "message": f"{path}: header has 2 columns, body has 3"}
    assert not (tmp_path / "x.predictions.csv").exists()


def test_benchmark_workers_do_not_change_outputs(tmp_path):
    common = ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40",
              "--n-test", "8", "--n-active", "4", "--seed", "10",
              "--datasets", "4", "--replicates", "3"]
    p1, p2 = tmp_path / "w1", tmp_path / "w2"
    assert run_cli(*common, "--workers", "1", "--out", str(p1)) == 0
    assert run_cli(*common, "--workers", "2", "--out", str(p2)) == 0
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    assert (tmp_path / "w1.json").read_bytes() == (tmp_path / "w2.json").read_bytes()


def test_benchmark_report_csv_roundtrips(tmp_path):
    prefix = tmp_path / "rt"
    assert run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40",
                   "--n-test", "8", "--n-active", "4", "--seed", "11",
                   "--datasets", "3", "--replicates", "2", "--workers", "1",
                   "--out", str(prefix)) == 0
    table = read_csv(str(prefix) + ".csv")
    assert table.n == 3
    assert table.col_names == ("dataset", "seed", "mspe", "ecp")  # width is response
    report = json.loads((tmp_path / "rt.json").read_text())
    # every dataset seed must be exactly representable in the CSV float column
    assert [int(s) for s in table.X[:, 1]] == report["dataset_seeds"]


def test_benchmark_no_aggregate_requires_m(tmp_path):
    code = run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40",
                   "--n-test", "8", "--n-active", "4", "--datasets", "1",
                   "--no-aggregate", "--workers", "1",
                   "--out", str(tmp_path / "x"))
    assert code == 1


def test_benchmark_no_aggregate_fixed_m_psi(tmp_path):
    prefix = tmp_path / "na"
    assert run_cli("benchmark", "--scheme", "ar1", "--n", "30", "--p", "40",
                   "--n-test", "8", "--n-active", "4", "--seed", "12",
                   "--datasets", "2", "--no-aggregate", "--m", "7", "--psi", "0.25",
                   "--workers", "1", "--out", str(prefix)) == 0
    report = json.loads((tmp_path / "na.json").read_text())
    assert report["no_aggregate"] is True
    assert report["config"]["n_replicates"] == 1
    assert report["config"]["m_range"] == [7, 7]
    assert report["config"]["psi_range"] == [0.25, 0.25]


def test_screen_delta_zero_selects_all_columns(sim_dir, tmp_path):
    prefix = tmp_path / "s0"
    assert run_cli("screen", str(sim_dir / "train.csv"), "--delta", "0",
                   "--replicates", "5", "--seed", "13", "--out", str(prefix)) == 0
    summary = json.loads((tmp_path / "s0.json").read_text())
    assert summary["expected_selected"] == 60.0
    assert all(len(sel) == 60 for sel in summary["selected_per_replicate"])
    freq = read_csv(str(prefix) + ".frequency.csv", response="frequency")
    assert freq.y.tolist() == [1.0] * 60


def test_screen_large_delta_concentrates_on_top_column(sim_dir, tmp_path):
    prefix = tmp_path / "s9"
    assert run_cli("screen", str(sim_dir / "train.csv"), "--delta", "40",
                   "--replicates", "30", "--seed", "14", "--out", str(prefix)) == 0
    table = read_csv(str(prefix) + ".frequency.csv", response="frequency")
    q = table.X[:, 2]
    top = int(np.argmax(q))
    assert q[top] == 1.0
    assert table.y[top] == 1.0                       # always selected
    assert np.delete(q, top).max() < 0.05            # everyone else almost never
    summary = json.loads((tmp_path / "s9.json").read_text())
    assert summary["expected_selected"] == pytest.approx(float(q.sum()))


def test_screen_export_writes_union_submatrix(sim_dir, tmp_path):
    prefix = tmp_path / "se"
    export = tmp_path / "screened.csv"
    assert run_cli("screen", str(sim_dir / "train.csv"), "--delta", "2",
                   "--replicates", "10", "--seed", "15", "--out", str(prefix),
                   "--export", str(export)) == 0
    summary = json.loads((tmp_path / "se.json").read_text())
    union = sorted({j for sel in summary["selected_per_replicate"] for j in sel})
    names = summary["column_names"]
    assert export.read_text().splitlines()[0].split(",") == [names[j] for j in union] + ["y"]
    exported = read_csv(str(export))
    std = standardize(read_csv(str(sim_dir / "train.csv")))
    assert np.array_equal(exported.X, std.X[:, union])
    assert np.array_equal(exported.y, std.y)


def test_screen_export_reads_back_as_a_dataset(sim_dir, tmp_path):
    sub = str(tmp_path / "sub.csv")
    assert run_cli("screen", str(sim_dir / "train.csv"), "--replicates", "4", "--export", sub,
                   "--out", str(tmp_path / "all")) == 0
    assert run_cli("screen", sub, "--out", str(tmp_path / "sub")) == 0
    first, second = (json.loads((tmp_path / f"{name}.json").read_text())
                     for name in ("all", "sub"))
    union = sorted({j for sel in first["selected_per_replicate"] for j in sel})
    assert len(union) < 60  # the export is a proper subset of the columns
    assert second["column_names"] == [first["column_names"][j] for j in union]
    utility = [read_csv(str(tmp_path / f"{name}.frequency.csv"), response="utility").y
               for name in ("all", "sub")]
    np.testing.assert_allclose(utility[1], utility[0][union], rtol=0, atol=1e-12)
    assert run_cli("fit", sub, sub, "--out", str(tmp_path / "fit")) == 0


def test_screen_masks_are_the_masks_fit_draws(sim_dir, tmp_path):
    prefix = tmp_path / "sm"
    assert run_cli("screen", str(sim_dir / "train.csv"), "--delta", "2",
                   "--replicates", "6", "--seed", "16", "--out", str(prefix)) == 0
    screened = json.loads((tmp_path / "sm.json").read_text())["selected_per_replicate"]
    std = standardize(read_csv(str(sim_dir / "train.csv")))
    fitted = run_tarp(std, std.X[:2], TarpConfig(delta=2.0, n_replicates=6, seed=16))
    digests = [hashlib.sha1(np.asarray(sel, dtype=np.int64).tobytes()).hexdigest()[:12]
               for sel in screened]
    assert digests == [r.mask_digest for r in fitted.per_replicate]
    assert len({len(sel) for sel in screened}) > 1  # the screen is not keeping every column


def test_screen_computes_the_utilities_once(sim_dir, tmp_path, monkeypatch):
    real, calls = tarpreg.screening.marginal_utility, []
    for module in (tarpreg.screening, tarpreg.ensemble, cli):  # every name it is bound to
        if hasattr(module, "marginal_utility"):
            monkeypatch.setattr(module, "marginal_utility", lambda d: calls.append(1) or real(d))
    assert run_cli("screen", str(sim_dir / "train.csv"), "--replicates", "3",
                   "--out", str(tmp_path / "s1")) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command, patched", [("fit", "runtime"), ("benchmark", "runtime"),
                                              ("screen", "screening_probs"),
                                              ("simulate", "asdict")])
def test_failed_command_leaves_no_output_file(sim_dir, tmp_path, capsys, monkeypatch,
                                              command, patched):
    # a NaN in the last JSON payload fails the command after its first file is written
    stub = lambda *a: {"nan": float("nan")}
    if patched == "screening_probs":  # the NaN is the delta that screen's summary echoes
        real = cli.screening_probs
        stub = lambda *a: replace(real(*a), delta=float("nan"))
    monkeypatch.setattr("tarpreg.cli." + patched, stub)
    argv = {
        "fit": ["fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"),
                "--replicates", "2"],
        "benchmark": ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
                      "--n-active", "4", "--datasets", "2", "--replicates", "2",
                      "--workers", "1"],
        "screen": ["screen", str(sim_dir / "train.csv"), "--export", str(tmp_path / "x.sub.csv")],
        "simulate": ["simulate", "--scheme", "ar1", "--n", "20", "--p", "10", "--n-active", "3"],
    }[command]
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "TarpError"
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


@pytest.mark.parametrize("command", ["fit", "benchmark"])
def test_replicate_loop_holds_no_raw_design(sim_dir, tmp_path, monkeypatch, command):
    # the standardized matrices are written over the parse or draw buffers, so those
    # buffers live on in them, but no raw Dataset or SimulatedData does; fit reads
    # its test rows as a bare table
    real_read, real_table = cli.read_csv, cli._read_table
    real_generate, real_run = cli.generate, cli.run_tarp
    raw, buffers, seen = [], [], []

    def reading(*args, **kwargs):
        ds = real_read(*args, **kwargs)
        raw.append(weakref.ref(ds))
        buffers.append(ds.X.base)
        return ds

    def reading_table(*args, **kwargs):
        X, y, names = real_table(*args, **kwargs)
        buffers.append(X.base)
        return X, y, names

    def generating(spec):
        data = real_generate(spec)
        raw.extend([weakref.ref(data), weakref.ref(data.train)])
        buffers.extend([data.train.X.base] * 2)
        return data

    def spy(train, X_new, cfg):
        seen.append(([ref() is None for ref in raw], np.shares_memory(train.X, buffers[0]),
                     np.shares_memory(X_new, buffers[1])))
        return real_run(train, X_new, cfg)

    monkeypatch.setattr(cli, "read_csv", reading)
    monkeypatch.setattr(cli, "_read_table", reading_table)
    monkeypatch.setattr(cli, "generate", generating)
    monkeypatch.setattr(cli, "run_tarp", spy)
    if command == "fit":
        argv = ["fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"), "--replicates", "2"]
    else:
        argv = ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
                "--n-active", "4", "--datasets", "1", "--replicates", "2", "--workers", "1"]
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == 0
    assert len(raw) == (1 if command == "fit" else 2)
    assert seen == [([True] * len(raw), True, True)]


@pytest.mark.parametrize("n, constant", [(30, []), (30, [0, 3]), (2, [1])])
def test_standardized_inputs_overwrite_the_raw_buffers(n, constant):
    rng = np.random.default_rng(8)
    buffer = rng.normal(4.0, 3.0, size=(n + 6, 5))
    buffer[:n, constant] = 2.5  # constant in the training rows only
    raw = tarpreg.Dataset.from_arrays(buffer[:n], rng.normal(size=n))
    want = standardize(raw)
    want_new = tarpreg.apply_standardization(want, buffer[n:])
    std, X_new = cli._standardized_inputs(raw, buffer[n:])
    assert np.shares_memory(std.X, buffer[:n]) and np.shares_memory(X_new, buffer[n:])
    assert std.X.tobytes() == want.X.tobytes() and X_new.tobytes() == want_new.tobytes()
    assert std.standardized and std.col_scales.tobytes() == want.col_scales.tobytes()


def _binary_csv(tmp_path):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 3))
    path = tmp_path / "bin.csv"
    write_matrix_csv(path, X, (X[:, 0] + 0.5 * rng.normal(size=30) > 0).astype(float))
    return path


@pytest.mark.parametrize("command, shapes", [("fit", [(40, 60)]),  # not the test rows
                                             ("benchmark", [(30, 40)] * 3)])
def test_each_raw_matrix_is_summarised_once(sim_dir, tmp_path, monkeypatch, command, shapes):
    real, seen = tarpreg.data.column_statistics, []
    monkeypatch.setattr(tarpreg.data, "column_statistics",
                        lambda X: seen.append(X.shape) or real(X))
    if command == "fit":
        argv = ["fit", str(sim_dir / "train.csv"), str(sim_dir / "test.csv"), "--replicates", "2"]
    else:
        argv = ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
                "--n-active", "4", "--datasets", "3", "--replicates", "2", "--workers", "1"]
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == 0
    assert seen == shapes

"""Batch command-line front end.

Subcommands::

    simulate   write train/test CSVs plus a JSON sidecar for one scheme
    fit        fit on a training CSV, predict a test CSV, write predictions
    benchmark  run many simulated datasets and report metric means/sds
    screen     screening diagnostics and screened-column export for a CSV

Config files are flat ``key=value`` lines (``#`` comments allowed); any
command-line flag overrides the file value, and the effective configuration
is echoed into the run summary.  All failures print a machine-readable JSON
object on stderr and exit nonzero: 2 for a usage error, 1 otherwise.
Benchmark outputs are bit-identical for any ``--workers`` value; wall-clock
timings go to a separate ``.timing.json`` so the data files stay
deterministic.  Importing this module starts OpenBLAS at one thread
(``_blas.pin_at_start``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

from . import __version__
from ._blas import one_thread, pin_at_start, runtime

# OpenBLAS reads its thread count once, when numpy (or scipy) first loads it,
# so this must run before any import below that loads numpy.
pin_at_start()

import numpy as np

from .data import (RESPONSE_BINARY, Dataset, _read_table, read_csv, transform_columns,
                   write_csv, write_matrix_csv)
from .ensemble import (AGGREGATIONS, BACKENDS, TarpConfig, _allowed_cpus, _in_processes,
                       dataset_seed, draw_replicate, run_tarp, run_tarp_binary,
                       screening_probs)
from .errors import DimensionError, ParameterError, ReplicateError, TarpError, checked_int
from .metrics import ecp_width, mspe
from .simulate import SCHEMES, SchemeSpec, generate

_CONFIG_SCHEMA = {
    "backend": str, "delta": str, "replicates": int, "level": float, "seed": int,
    "aggregation": str, "m_lo": int, "m_hi": int, "probit_iterations": int, "probit_burnin": int,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TarpError, OSError) as exc:
        _emit_error(exc)
        return 1


class _Parser(argparse.ArgumentParser):
    """A usage error is one JSON line on stderr, like every other failure; exit status 2."""

    def error(self, message):
        print(json.dumps({"error": "UsageError", "message": f"{self.prog}: {message}"},
                         sort_keys=True), file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tarpreg",
        description="Screened random-projection regression with conjugate Bayesian prediction")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write train/test CSVs for one simulation scheme")
    _scheme_flags(sim)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a training CSV and predict a test CSV")
    fit.add_argument("train", help="training CSV")
    fit.add_argument("test", help="test CSV with the same columns")
    fit.add_argument("--config", help="key=value config file")
    fit.add_argument("--response", help="response column name or index (default: last)")
    _model_flags(fit)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--out", required=True, help="output prefix")
    fit.set_defaults(func=cmd_fit)

    bench = sub.add_parser("benchmark", help="repeated-dataset benchmark of one scheme")
    _scheme_flags(bench)
    bench.add_argument("--config", help="key=value config file")
    _model_flags(bench)
    bench.add_argument("--datasets", type=int, default=100)
    bench.add_argument("--workers", type=int, default=0,
                       help="0 = one per CPU this process may use")
    bench.add_argument("--no-aggregate", action="store_true",
                       help="single replicate per dataset at fixed --m/--psi")
    bench.add_argument("--m", type=int, help="fixed compression dimension (needs --no-aggregate)")
    bench.add_argument("--psi", type=float, help="fixed projection sparsity (needs --no-aggregate)")
    bench.add_argument("--out", required=True, help="output prefix")
    bench.set_defaults(func=cmd_benchmark)

    scr = sub.add_parser("screen", help="screening diagnostics for a CSV dataset; the "
                         "masks match fit's under the default model config")
    scr.add_argument("data", help="data CSV")
    scr.add_argument("--response", help="response column name or index (default: last)")
    scr.add_argument("--delta", help="screening exponent (number or 'auto')")
    scr.add_argument("--replicates", type=int)
    scr.add_argument("--seed", type=int)
    scr.add_argument("--export", help="also write the union screened columns and y as CSV here")
    scr.add_argument("--out", required=True, help="output prefix")
    scr.set_defaults(func=cmd_screen)
    return parser


def _scheme_flags(p: argparse.ArgumentParser) -> None:
    # one flag per field after scheme, typed by the field's default; no defaults
    # here: SchemeSpec holds them, and each dest is its field name
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    for f in fields(SchemeSpec)[1:]:
        name = "coef" if f.name == "coef_value" else f.name
        p.add_argument("--" + name.replace("_", "-"), dest=f.name, type=type(f.default))


def _model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--delta", help="screening exponent (number or 'auto')")
    p.add_argument("--replicates", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--aggregation", choices=AGGREGATIONS)


def cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    data = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    train_path, test_path, sidecar_path = (os.path.join(args.out, name)
                                           for name in ("train.csv", "test.csv", "sim.json"))
    with _removed_on_failure(train_path, test_path, sidecar_path):
        write_matrix_csv(train_path, data.train.X, data.train.y, data.train.col_names)
        write_matrix_csv(test_path, data.test_X, data.test_y, data.train.col_names)
        nz = np.flatnonzero(data.true_beta)
        sidecar = {
            "seed": spec.seed,
            "spec": asdict(spec),
            "active_idx": data.active_idx.tolist(),
            "true_beta_nonzero": [[int(j), float(data.true_beta[j])] for j in nz],
        }
        _write_json(sidecar_path, sidecar)
    return 0


def cmd_fit(args) -> int:
    cfg, raw_cfg = _config_from_args(args)
    response = _response(args)
    read_started = time.perf_counter()
    train = read_csv(args.train, response=response)
    test_X, _, test_names = _read_table(args.test, response)  # no column statistics
    read_time = time.perf_counter() - read_started
    if test_X.shape[1] != train.p:
        raise ParameterError(f"test has {test_X.shape[1]} predictor columns, "
                             f"train has {train.p}")
    for j, (got, want) in enumerate(zip(test_names, train.col_names)):
        if got != want:
            raise ParameterError(f"test column {j} is {got!r}, train column {j} is {want!r}")
    std_train, X_new = _standardized_inputs(train, test_X)
    del train, test_X  # the replicate loop holds only the standardized matrices

    started = time.perf_counter()
    if std_train.response_kind == RESPONSE_BINARY:
        result = run_tarp_binary(std_train, X_new, cfg)
        columns = {"index": np.arange(len(X_new)), "probability": result.prob}
        weights = selected = None
    else:
        result = run_tarp(std_train, X_new, cfg)
        columns = {"index": np.arange(len(X_new)), "yhat": result.yhat,
                   "lower": result.lower, "upper": result.upper}
        weights, selected = result.weights, result.selected_replicate
    with _removed_on_failure(args.out + ".predictions.csv", args.out + ".summary.json"):
        write_started = time.perf_counter()
        write_csv(args.out + ".predictions.csv", list(columns.values()), list(columns))
        write_time = time.perf_counter() - write_started
        records = result.per_replicate
        pg = [r.p_gamma for r in records]
        m_eff = [r.m_effective for r in records]
        psi = [r.psi for r in records if r.psi is not None]
        summary = {
            "command": "fit",
            "version": __version__,
            "config": asdict(cfg),
            "config_file_values": raw_cfg,
            "train": {"path": args.train, "n": std_train.n, "p": std_train.p,
                      "response": response, "response_kind": std_train.response_kind},
            "test_rows": len(X_new),
            "p_gamma": {"mean": float(np.mean(pg)), "min": int(np.min(pg)),
                        "max": int(np.max(pg))},
            "m_effective": {"min": min(m_eff), "max": max(m_eff),
                            "below_m": sum(r.m_effective < r.m for r in records)},
            "psi": {"min": min(psi), "max": max(psi)} if psi else None,
            "weights_ess": None if weights is None else float(1.0 / np.sum(weights ** 2)),
            "selected_replicate": selected,
            "phase_times": result.phase_times,
            "io_times": {"read": read_time, "write": write_time},
            "wall_time": time.perf_counter() - started,
            "runtime": dict(runtime(), replicate_processes=result.processes),
        }
        _write_json(args.out + ".summary.json", summary)
    return 0


def cmd_benchmark(args) -> int:
    cfg, raw_cfg = _config_from_args(args)
    spec = replace(_spec_from_args(args), seed=cfg.seed)
    if args.no_aggregate:
        if args.m is None:
            raise ParameterError("--no-aggregate requires --m")
        if args.replicates is not None or "replicates" in raw_cfg:
            raise ParameterError("--no-aggregate runs one replicate per dataset: "
                                 "set no replicates")
        if cfg.m_range is not None:  # only a config file sets it here
            raise ParameterError("--no-aggregate runs at the fixed --m: set no m_lo or m_hi")
        cfg = replace(cfg, n_replicates=1, m_range=(args.m, args.m))
        if args.psi is not None:
            cfg = replace(cfg, psi_range=(args.psi, args.psi))
    elif args.m is not None or args.psi is not None:
        raise ParameterError("--m and --psi require --no-aggregate")
    checked_int("--datasets", args.datasets, 1)
    checked_int("--workers", args.workers, 0)

    seeds = [dataset_seed(cfg.seed, i) for i in range(args.datasets)]
    started = time.perf_counter()
    rows, _, workers = _in_processes(lambda l: _benchmark_one(replace(spec, seed=seeds[l]), cfg),
                                     args.datasets, args.workers or _allowed_cpus(), "datasets")
    elapsed = time.perf_counter() - started

    metric_names = ["mspe", "ecp", "width"]
    table = {name: np.array([row[name] for row in rows]) for name in metric_names}
    with _removed_on_failure(args.out + ".csv", args.out + ".json", args.out + ".timing.json"):
        write_csv(args.out + ".csv",
                  [np.arange(args.datasets, dtype=np.float64),
                   np.array(seeds, dtype=np.float64)] + [table[k] for k in metric_names],
                  ["dataset", "seed"] + metric_names)
        report = {
            "command": "benchmark",
            "version": __version__,
            "method": cfg.backend,
            "scheme": asdict(spec),
            "config": asdict(cfg),
            "config_file_values": raw_cfg,
            "datasets": args.datasets,
            "dataset_seeds": seeds,
            "no_aggregate": bool(args.no_aggregate),
            "report": {name: {"mean": float(table[name].mean()),
                              "sd": float(table[name].std())}
                       for name in metric_names},
        }
        _write_json(args.out + ".json", report)
        _write_json(args.out + ".timing.json", {
            "wall_time": elapsed,
            "dataset_time_sum": sum(row["wall_time"] for row in rows),
            "workers": workers,
            "per_dataset_wall_time": [row["wall_time"] for row in rows],
            "phase_times": {k: sum(row["phase_times"][k] for row in rows)
                            for k in rows[0]["phase_times"]},
            "runtime": runtime(),
        })
    return 0


def _benchmark_one(spec, cfg) -> dict:
    started = time.perf_counter()  # the dataset's whole time: draw, standardize, run, score
    data = generate(spec)
    (std_train, X_new), test_y = _standardized_inputs(data.train, data.test_X), data.test_y
    del data  # the replicate loop holds only the standardized matrices
    result = run_tarp(std_train, X_new, replace(cfg, seed=spec.seed, keep_replicates=False))
    ecp, width = ecp_width(result.lower, result.upper, test_y)
    return {"mspe": mspe(result.yhat, test_y), "ecp": ecp, "width": width,
            "wall_time": time.perf_counter() - started, "phase_times": result.phase_times}


def cmd_screen(args) -> int:
    cfg, _ = _config_from_args(args)
    std, _ = _standardized_inputs(read_csv(args.data, response=_response(args)))
    with one_thread():  # fit screens under the guard too, so the masks match at any count
        probs = screening_probs(std, cfg)
    counts = np.zeros(std.p)
    selections = []
    for l in range(cfg.n_replicates):
        mask = draw_replicate(std, cfg, probs, l).mask
        counts[mask.selected] += 1
        selections.append(mask.selected.tolist())
    freq = counts / cfg.n_replicates
    with _removed_on_failure(args.out + ".frequency.csv", args.out + ".json", args.export):
        write_csv(args.out + ".frequency.csv",
                  [np.arange(std.p, dtype=np.float64), probs.utility, probs.q, freq],
                  ["column", "utility", "q", "frequency"])
        union = np.flatnonzero(counts > 0)
        summary = {
            "command": "screen",
            "version": __version__,
            "delta": probs.delta,
            "replicates": cfg.n_replicates,
            "seed": cfg.seed,
            "expected_selected": float(probs.q.sum()),
            "degenerate": probs.degenerate,
            "union_size": int(union.size),
            "column_names": list(std.col_names),
            "selected_per_replicate": selections,
        }
        _write_json(args.out + ".json", summary)
        if args.export:
            write_matrix_csv(args.export, std.X[:, union], std.y,
                             [std.col_names[j] for j in union])
    return 0


def _standardized_inputs(raw: Dataset, test_X=None):
    """``standardize(raw)`` and ``apply_standardization`` of ``test_X``, each written
    over its raw matrix: a view of read_csv's parse buffer or of generate's drawn
    matrix, which the command made and drops, so no full-size copy is made."""
    if raw.n < 2:
        raise DimensionError("standardize needs n >= 2")
    for X in (raw.X,) if test_X is None else (raw.X, test_X):
        X.base.setflags(write=True)
        X.setflags(write=True)
        transform_columns(X, raw.col_means, raw.col_scales, out=X)
    return Dataset(raw.X, raw.y, raw.response_kind, raw.col_means, raw.col_scales,
                   standardized=True, col_names=raw.col_names), test_X


def _spec_from_args(args) -> SchemeSpec:
    return SchemeSpec(**{f.name: getattr(args, f.name) for f in fields(SchemeSpec)
                         if getattr(args, f.name, None) is not None})


def _config_from_args(args):
    """Merge config-file values and CLI flags (flags win) into a TarpConfig.

    Only the values the user gave are passed on; TarpConfig holds the defaults
    and the checks.  Returns the config and the file's own values, unmerged.
    """
    raw = _read_config(args.config) if getattr(args, "config", None) else {}
    given = dict(raw)
    given.update((key, getattr(args, key)) for key in _CONFIG_SCHEMA
                 if getattr(args, key, None) is not None)
    if "replicates" in given:
        given["n_replicates"] = given.pop("replicates")
    if "m_lo" in given or "m_hi" in given:
        if not ("m_lo" in given and "m_hi" in given):
            raise ParameterError("config must set both m_lo and m_hi")
        given["m_range"] = (given.pop("m_lo"), given.pop("m_hi"))
    return TarpConfig(**given), raw


def _read_config(path) -> dict:
    values, seen = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_SCHEMA:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            if seen.setdefault(key, lineno) != lineno:
                raise ParameterError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
            kind = _CONFIG_SCHEMA[key]
            try:
                values[key] = kind(value)
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: {key} must be "
                                     f"{'an int' if kind is int else 'a float'}, "
                                     f"got {value!r}") from None
    return values


def _response(args):
    """The --response column, else the last: an index if it parses as an int, else a name."""
    value = args.response if args.response is not None else "-1"
    try:
        return int(value)
    except ValueError:
        return value


@contextmanager
def _removed_on_failure(*paths):
    """Delete ``paths`` if the block raises: a command that exits 1 leaves no output."""
    try:
        yield
    except BaseException:
        for path in filter(os.path.exists, filter(None, paths)):
            os.remove(path)
        raise


def _write_json(path, payload) -> None:
    # serialized before the file is opened, so a NaN leaves no half-written file
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise TarpError(f"{path}: not strict JSON: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ReplicateError):
        payload.update(index=exc.index, seed=exc.seed)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

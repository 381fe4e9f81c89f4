#!/usr/bin/env python3
"""Benchmark of the tarpreg command line, one whole CLI call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, both modes
    python3 perfbench/run.py --record-reference         # rewrite reference.json

Run it from the root of a source checkout; the program is imported from
``src/``.  A closed loop with one client starts each call in a fresh
subprocess once the previous one has exited, with the BLAS and OpenMP thread
variables removed from the child's environment.  Every call's outputs are
checked (check.py).  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json as medians over its calls; with ``--trace 1`` it
alternates untraced and traced calls on the same inputs and reports the
per-layer metrics from the traced ones (spans.py).  Results, environment and
the per-layer table go to ``.perfbench/`` in the checkout; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0
RUN_LIMIT_S = 170.0          # a run must end within 180 s
THREAD_VARS = re.compile(r"^(OMP_|OPENBLAS_|GOTO_|MKL_|VECLIB_|BLIS_|NUMEXPR_)|NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "fit": benchmark-made CSVs; "study": `tarpreg benchmark`
    args: tuple           # CLI arguments besides inputs, seed and --out
    datasets: int         # fit: input pairs made per run; study: --datasets
    predicted: tuple      # layers predicted to dominate self time
    binary: bool = False
    gated: bool = True    # listed in BENCHMARK.json (README.md says why one is not)


WORKLOADS = {w.name: w for w in (
    Workload("fit-rp-2k", "fit", (), 3,
             ("projection.compress", "data.read_csv", "cli.import")),
    Workload("fit-probit-2k", "fit", ("--replicates", "10"), 4,
             ("posterior.probit_gibbs",), binary=True),
    Workload("study-rp-2k-cv", "study",
             ("--scheme", "ar1", "--p", "2000", "--n-test", "300", "--aggregation", "cv",
              "--workers", "1", "--replicates", "8", "--config", str(HERE / "cv.conf")), 8,
             ("posterior.fit_compressed", "ensemble.kfold_mse")),
    Workload("study-pcr-20k", "study",
             ("--scheme", "ar1", "--p", "20000", "--backend", "ris-pcr", "--replicates", "5"), 2,
             ("projection.gen_pcr_matrix",), gated=False),
)}

# Functions whose calls and self time are per-layer metrics; the trace file
# under .perfbench/ holds every wrapped function.
LAYER_FUNCTIONS = (
    "cli.cmd_fit", "cli.cmd_benchmark",
    "data.read_csv", "data.standardize", "data.apply_standardization", "data.write_csv",
    "simulate.generate",
    "screening.marginal_utility", "screening.inclusion_probabilities", "screening.sample_gamma",
    "projection.gen_rp_matrix", "projection.gen_pcr_matrix", "projection.compress",
    "posterior.fit_compressed", "posterior.log_marginal_likelihood", "posterior.predict",
    "posterior.probit_gibbs", "posterior.predict_probit",
    "studentt.t_interval_halfwidth",
    "ensemble.run_replicate", "ensemble.run_tarp", "ensemble.run_tarp_binary",
    "ensemble.kfold_mse",
    "metrics.ecp_width",
)
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "pred_loss": "loss"}
LAYER_UNITS = {"cli.import_s": "s", "cli.pool_busy_ratio": "ratio",
               "data.read_csv.mb_per_s": "MB/s", "screening.p_gamma_mean": "columns",
               "projection.compress.gather_mb": "MB-computed",
               "projection.compress.gflop": "GFLOP-computed", "trace.overhead_s": "s"}
for _fn in LAYER_FUNCTIONS:
    LAYER_UNITS[f"{_fn}.calls"] = "count"
    LAYER_UNITS[f"{_fn}.self_s"] = "s"


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Call:
    index: int
    group: int            # calls in one group have identical inputs
    traced: bool
    returncode: int
    wall_s: float
    setup_s: float
    import_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: str = ""
    problems: list = field(default_factory=list)
    table: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    workers: int = 0
    trace: dict = field(default_factory=dict)


# ---------------------------------------------------------------- set-up

def child_env() -> tuple:
    """The caller's environment without thread settings, importing tarpreg from src/."""
    env = {k: v for k, v in os.environ.items() if not THREAD_VARS.search(k)}
    scrubbed = {k: v for k, v in os.environ.items() if THREAD_VARS.search(k)}
    env["PYTHONPATH"] = str(SRC)
    return env, scrubbed


def probe(env) -> dict:
    """Import tarpreg once in a child (this also compiles its bytecode) and
    report versions and BLAS threads; refuse a tarpreg found outside src/."""
    if not (SRC / "tarpreg" / "cli.py").is_file():
        raise SetupError(f"no tarpreg sources under {SRC}")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--probe"], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SetupError(f"importing tarpreg failed:\n{proc.stderr}")
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(found["tarpreg_file"]).resolve().parent != (SRC / "tarpreg").resolve():
        raise SetupError(f"tarpreg imported from {found['tarpreg_file']}, not {SRC}")
    return found


def environment(found: dict, scrubbed: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas_threads_in_child": found["blas_threads"],
        "scrubbed_thread_vars": scrubbed,
        "python": found["python"], "numpy": found["numpy"], "scipy": found["scipy"],
        "tarpreg_version": found["tarpreg_version"],
        "git_commit": git_commit(),
        "src_sha256": tree_sha256(SRC / "tarpreg"),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two readings."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def make_inputs(workload: Workload, seed: int, workdir: Path) -> list:
    """Write the fit workload's input pairs; return each split with its file records."""
    made = []
    for d in range(workload.datasets):
        split = inputs.ar1_split(seed, d)
        if workload.binary:
            split = inputs.binarize(split)
        train = inputs.write_csv(workdir / f"train{d}.csv", split.X_train, split.y_train)
        test = inputs.write_csv(workdir / f"test{d}.csv", split.X_test, split.y_test)
        made.append({"split": split, "files": [train, test]})
    return made


# ---------------------------------------------------------------- one call

def cli_args(workload: Workload, seed: int, workdir: Path, group: int, prefix: Path) -> list:
    if workload.kind == "fit":
        return ["fit", str(workdir / f"train{group}.csv"), str(workdir / f"test{group}.csv"),
                *workload.args, "--out", str(prefix)]
    return ["benchmark", *workload.args, "--datasets", str(workload.datasets),
            "--seed", str(seed), "--out", str(prefix)]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_call(workload: Workload, seed: int, workdir: Path, index: int, group: int,
             traced: bool, env: dict, timeout: float) -> Call:
    prefix = workdir / f"c{index}"
    ready = workdir / f"c{index}.ready"
    span_dir = workdir / f"c{index}.spans"
    if traced:
        span_dir.mkdir()
    cmd = [sys.executable, str(HERE / "child.py"), str(ready),
           str(span_dir) if traced else "-", "--",
           *cli_args(workload, seed, workdir, group, prefix)]
    with open(f"{prefix}.stdout", "wb") as out, open(f"{prefix}.stderr", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=workdir, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ready_at, import_s = float("nan"), float("nan")
    if ready.is_file():
        ready_at, import_s = map(float, ready.read_text().split())
    call = Call(index=index, group=group, traced=traced, returncode=proc.returncode,
                wall_s=exited - spawned, setup_s=ready_at - spawned, import_s=import_s,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss * 1024 / 1e6)
    stderr = Path(f"{prefix}.stderr").read_text(encoding="utf-8", errors="replace")
    if call.returncode != 0:
        call.problems.append(f"exit status {call.returncode}: {stderr[-400:]}")
    call.problems += check.stderr_problems(stderr)
    if not call.problems:
        try:
            collect_outputs(workload, call, prefix)
        except (OSError, ValueError, KeyError) as exc:
            call.problems.append(f"unreadable output: {exc}")
    if traced and call.returncode == 0:
        call.trace = spans.summarize(spans.read_batches(span_dir), main_pid=proc.pid)
    return call


def collect_outputs(workload: Workload, call: Call, prefix: Path) -> None:
    if workload.kind == "fit":
        path = Path(f"{prefix}.predictions.csv")
        call.digest = inputs.file_sha256(path)
        call.table = check.read_columns(path)
        call.problems += check.fit_problems(call.table, inputs.N_TEST, workload.binary)
        return
    csv_path, json_path = Path(f"{prefix}.csv"), Path(f"{prefix}.json")
    call.digest = inputs.file_sha256(csv_path) + inputs.file_sha256(json_path)
    call.table = check.read_columns(csv_path)
    call.report = json.loads(json_path.read_text(encoding="utf-8"))
    call.workers = json.loads(Path(f"{prefix}.timing.json").read_text())["workers"]
    call.problems += check.study_problems(call.table, call.report, workload.datasets)


# ---------------------------------------------------------------- a run

def measure(workload: Workload, seed: int, seconds: float, trace: bool, env: dict,
            workdir: Path, run_started: float) -> list:
    """Closed loop: the next call starts when the previous one has exited.

    Without tracing, calls cycle over the input groups until one group has
    been called twice, so that repeated inputs are checked for identical
    outputs.  With tracing, each group gets an untraced call followed by a
    traced call on the same inputs.  The loop stops when another call would
    end after ``seconds``.
    """
    groups = workload.datasets if workload.kind == "fit" else 1
    min_calls = 2 if trace else groups + 1
    calls = []
    started = time.monotonic()
    while True:
        k = len(calls)
        if calls:
            typical = statistics.median(c.wall_s for c in calls)
            now = time.monotonic()
            pair_done = not trace or k % 2 == 0
            ahead = typical * (2 if trace else 1)
            if pair_done and k >= min_calls and now - started + ahead > seconds:
                break
            if pair_done and now - run_started + ahead > RUN_LIMIT_S - 10:
                break
        group = (k // 2 if trace else k) % groups
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - run_started))
        calls.append(run_call(workload, seed, workdir, k, group, trace and k % 2 == 1,
                              env, timeout))
    return calls


def cross_check(workload: Workload, seed: int, calls: list, made: list) -> None:
    """Same inputs, same bytes; and the reference seed matches reference.json."""
    first = {}
    for call in calls:
        if call.problems:
            continue
        base = first.setdefault(call.group, call)
        if call.digest != base.digest:
            call.problems.append(f"outputs differ from call {base.index} on the same inputs")
    if seed != REFERENCE_SEED:
        return
    ref = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["workloads"][workload.name]
    for call in calls:
        if call.problems:
            continue
        if made and made[call.group]["files"] != ref["inputs"][call.group]:
            call.problems.append("inputs differ from the reference inputs")
        call.problems += check.reference_problems(call.table, ref["outputs"][call.group])


def pred_loss(workload: Workload, calls: list, made: list) -> float:
    """Held-out squared error of the predictions (see README.md)."""
    good = {c.group: c for c in calls if not c.problems}
    if workload.kind == "study":
        return statistics.fmean(c.report["report"]["mspe"]["mean"] for c in good.values())
    losses = []
    for group, call in sorted(good.items()):
        split = made[group]["split"]
        column = "probability" if workload.binary else "yhat"
        err = np.mean((np.array(call.table[column]) - split.y_test) ** 2)
        null = np.mean((split.y_test - split.y_train.mean()) ** 2)
        losses.append(float(err / null))
    return statistics.fmean(losses)


def end_to_end(workload: Workload, calls: list, made: list) -> dict:
    """Medians over the calls that passed; failures count in ``failed`` instead."""
    good = [c for c in calls if not c.problems]
    values = {
        "wall_s": statistics.median(c.wall_s for c in good),
        "setup_s": statistics.median(c.setup_s for c in good),
        "cpu_s": statistics.median(c.cpu_s for c in good),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in good),
        "pred_loss": pred_loss(workload, calls, made),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_values(call: Call) -> dict:
    """Per-layer metrics of one traced call."""
    table = call.trace["functions"]
    values = {}
    for fn in LAYER_FUNCTIONS:
        row = table.get(fn, {})
        values[f"{fn}.calls"] = row.get("calls", 0)
        values[f"{fn}.self_s"] = row.get("self_s", 0.0)
    read = table.get("data.read_csv", {})
    values["data.read_csv.mb_per_s"] = (read["bytes"] / 1e6 / read["self_s"]
                                        if read.get("bytes") else 0.0)
    gamma = table.get("screening.sample_gamma", {})
    values["screening.p_gamma_mean"] = (gamma["p_gamma"] / gamma["calls"]
                                        if gamma.get("p_gamma") else 0.0)
    comp = table.get("projection.compress", {})
    values["projection.compress.gather_mb"] = comp.get("gather_bytes", 0) / 1e6
    values["projection.compress.gflop"] = comp.get("flop", 0) / 1e9
    bench = table.get("cli.cmd_benchmark", {})
    busy = call.trace["worker_run_tarp_s"]
    values["cli.pool_busy_ratio"] = (busy / (call.workers * bench["total_s"])
                                     if busy and call.workers else 0.0)
    return values


def per_layer(calls: list) -> dict:
    traced = [c for c in calls if c.trace]
    if not traced:
        raise SetupError("no traced call completed")
    rows = [layer_values(c) for c in traced]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    values["cli.import_s"] = statistics.median(c.import_s for c in calls if not c.problems)
    by_index = {c.index: c for c in calls}
    values["trace.overhead_s"] = statistics.median(
        c.wall_s - by_index[c.index - 1].wall_s for c in traced)
    return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}


def layer_table(calls: list) -> dict:
    """Every wrapped function that ran: median calls, self and total seconds."""
    traced = [c for c in calls if c.trace]
    names = sorted({n for c in traced for n in c.trace["functions"]})
    table = {}
    for name in names:
        rows = [c.trace["functions"].get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                for c in traced]
        table[name] = {k: statistics.median(r[k] for r in rows)
                       for k in ("calls", "self_s", "total_s")}
    return table


def dominance(workload: Workload, table: dict, import_s: float) -> dict:
    """Compare the predicted dominant layers with the largest measured self time.

    The ``cli.main``/``cli.cmd_*`` spans are left out: their self time is
    argument handling plus, under the pool, waiting for the workers.
    """
    work = {n: r["self_s"] for n, r in table.items()
            if not (n == "cli.main" or n.startswith("cli.cmd_"))}
    work["cli.import"] = import_s
    top = max(work, key=work.get)
    return {"predicted": list(workload.predicted), "observed": top,
            "observed_self_s": work[top],
            "verdict": "confirmed" if top in workload.predicted else "refuted"}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run_started = time.monotonic()
    env, scrubbed = child_env()
    found = probe(env)
    workdir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    made = make_inputs(workload, seed, workdir) if workload.kind == "fit" else []
    ticks = cpu_ticks()
    calls = measure(workload, seed, seconds, trace, env, workdir, run_started)
    steal = steal_share(ticks, cpu_ticks())
    cross_check(workload, seed, calls, made)
    if all(c.problems for c in calls):
        raise SetupError(f"{workload.name}: every call failed: {calls[0].problems}")
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": dict(environment(found, scrubbed), cpu_steal_share=steal),
        "inputs": [m["files"] for m in made],
        "calls": [{k: v for k, v in vars(c).items() if k not in ("table", "report", "trace")}
                  for c in calls],
    }
    if trace:
        result["metrics"] = per_layer(calls)
        result["layers"] = layer_table(calls)
        result["dominance"] = dominance(workload, result["layers"],
                                        result["metrics"]["cli.import_s"]["value"])
    else:
        result["metrics"] = end_to_end(workload, calls, made)
    (OUT / f"{workdir.name}.json").write_text(json.dumps(result, indent=1, default=float))
    shutil.rmtree(workdir)      # inputs are remade from the seed; the results file keeps the rest
    return result


# ---------------------------------------------------------------- output

def print_report(result: dict) -> None:
    calls = result["calls"]
    failed = [c for c in calls if c["problems"]]
    env = result["environment"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"calls={len(calls)}  failed={len(failed)}  "
          f"error_rate={len(failed) / len(calls):.3g}")
    print(f"   nproc={env['nproc']}  blas_threads={env['blas_threads_in_child']}  "
          f"scrubbed={sorted(env['scrubbed_thread_vars'])}  python={env['python']}  "
          f"numpy={env['numpy']}  scipy={env['scipy']}  commit={env['git_commit']}  "
          f"cpu_steal_share={env['cpu_steal_share']}")
    for c in failed:
        print(f"   call {c['index']} FAILED: {'; '.join(c['problems'])}")
    for name, m in result["metrics"].items():
        print(f"   {name:44s} {m['value']:14.6g} {m['unit']}")
    if result["trace"]:
        print(f"   {'layer (median over traced calls)':44s} {'calls':>8s} {'self_s':>10s} "
              f"{'total_s':>10s}")
        for name, row in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"   {name:44s} {row['calls']:8.0f} {row['self_s']:10.4f} "
                  f"{row['total_s']:10.4f}")
        d = result["dominance"]
        print(f"   predicted dominant {d['predicted']}; largest self time "
              f"{d['observed']} ({d['observed_self_s']:.3f} s): {d['verdict']}")


def summary_line(results: list) -> str:
    calls = [c for r in results for c in r["calls"]]
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}:{name}": m for r in results for name, m in r["metrics"].items()}
    failed = sum(1 for c in calls if c["problems"])
    return json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                       "metrics": metrics})


def record_reference() -> None:
    """Run every workload at the reference seed and store its outputs."""
    reference = {"seed": REFERENCE_SEED, "rtol": check.REFERENCE_RTOL, "workloads": {}}
    env, _ = child_env()
    probe(env)
    for workload in WORKLOADS.values():
        workdir = OUT / f"reference-{workload.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        made = make_inputs(workload, REFERENCE_SEED, workdir) if workload.kind == "fit" else []
        groups = workload.datasets if workload.kind == "fit" else 1
        outputs = []
        for g in range(groups):
            call = run_call(workload, REFERENCE_SEED, workdir, g, g, False, env, RUN_LIMIT_S)
            if call.problems:
                raise SetupError(f"{workload.name}: {call.problems}")
            outputs.append({k: v for k, v in call.table.items()
                            if k not in ("index", "dataset")})
        reference["workloads"][workload.name] = {
            "inputs": [m["files"] for m in made], "outputs": outputs}
        shutil.rmtree(workdir)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload == "all":
            plan = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
        else:
            plan = [(WORKLOADS[args.workload], bool(args.trace))]
        results = []
        for workload, trace in plan:
            results.append(run_workload(workload, args.seed, args.seconds, trace))
            print_report(results[-1])
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(summary_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

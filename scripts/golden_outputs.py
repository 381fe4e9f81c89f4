#!/usr/bin/env python3
"""Golden outputs: what each tarpreg command writes, at tiny shapes, as numbers to check.

Usage: python scripts/golden_outputs.py [--golden FILE]          write FILE
       python scripts/golden_outputs.py --diff [--golden FILE]   compare a new run with FILE

Runs a fixed list of command lines in process through ``tarpreg.cli.main``, in
a temporary directory: ``simulate`` for each of the four schemes; ``fit`` with
the default config, ``cv``, ``model-average``, ``ris-pcr`` and a binary
response; ``benchmark`` at ``--workers`` 1 and 2; and ``screen
--export``.  For each file a command writes it records:

* a CSV: the sha256 of its bytes, its header, its shape, and the sum and sum
  of squares of each column;
* a JSON file: every value except the timings, ``runtime`` and paths, and the
  sha256 of those values dumped with sorted keys.

A ``.timing.json`` file holds only timings and is skipped.  FILE defaults to
tests/data/golden_outputs.json.  ``--diff`` prints each file whose digest
moved, the largest relative change of its numbers, and every other value or
key that changed; it exits 1 if anything moved.  A column sum is measured
against sqrt(rows * sum of squares), its size for a column of any mean, so
the sum of a standardized column (zero up to rounding) is not divided by zero.
"""
import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tarpreg import cli  # noqa: E402  (before numpy, so that it pins the BLAS threads)

import numpy as np  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden_outputs.json"
SKIPPED_KEYS = {"wall_time", "phase_times", "io_times", "runtime", "path"}
_BENCH = ["benchmark", "--scheme", "ar1", "--n", "30", "--p", "40", "--n-test", "8",
          "--n-active", "4", "--seed", "5", "--datasets", "3", "--replicates", "4"]
_FIT = ["fit", "sim-ar1/train.csv", "sim-ar1/test.csv", "--replicates", "10", "--seed", "7"]


def commands():
    """(name, argv) in run order; a name is the folder or file prefix its outputs get."""
    sims = [(f"sim-{scheme}", ["simulate", "--scheme", scheme, "--n", "40",
                               "--p", "400" if scheme == "block" else "60",  # block: p >= 400
                               "--n-test", "10", "--seed", "3"]
             + ([] if scheme == "pcr" else ["--n-active", "5"]))  # pcr draws its own beta
            for scheme in ("ar1", "block", "pcr", "bridge")]
    fits = [(f"fit-{name}", _FIT + flags) for name, flags in [
        ("default", []), ("cv", ["--aggregation", "cv"]),
        ("model-average", ["--aggregation", "model-average"]),
        ("ris-pcr", ["--backend", "ris-pcr"]),
    ]]
    fits.append(("fit-binary", ["fit", "binary-train.csv", "binary-test.csv",
                                "--replicates", "4", "--seed", "7"]))
    return [*sims, *fits,
            ("benchmark-w1", _BENCH + ["--workers", "1"]),
            ("benchmark-w2", _BENCH + ["--workers", "2"]),
            ("screen", ["screen", "sim-ar1/train.csv", "--replicates", "10", "--seed", "7",
                        "--export", "screen/export.csv"])]


def collect(workdir) -> dict:
    """Run every command in ``workdir`` and summarise each file it writes, by relative path."""
    workdir = Path(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in commands():
            if name == "fit-binary":
                _write_binary_pair()
            out = ["--out", name] if name.startswith("sim-") else ["--out", f"{name}/out"]
            Path(name).mkdir(exist_ok=True)
            if cli.main(argv + out) != 0:
                raise SystemExit(f"golden_outputs: {name} failed: {' '.join(argv)}")
    finally:
        os.chdir(cwd)
    return {path.relative_to(workdir).as_posix(): summarize(path)
            for path in sorted(workdir.rglob("*"))
            if path.is_file() and not path.name.endswith(".timing.json")
            and not path.name.startswith("binary-")}


def _write_binary_pair():
    """sim-ar1's train and test files with y cut at the training median."""
    from tarpreg.data import write_matrix_csv
    header = Path("sim-ar1/train.csv").read_text().split("\n", 1)[0].strip().split(",")
    train, test = (np.loadtxt(f"sim-ar1/{part}.csv", delimiter=",", skiprows=1)
                   for part in ("train", "test"))
    cut = np.median(train[:, -1])
    for part, table in (("train", train), ("test", test)):
        write_matrix_csv(f"binary-{part}.csv", table[:, :-1], (table[:, -1] > cut) * 1.0,
                         header[:-1])


def summarize(path) -> dict:
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix == ".csv":
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return {"sha256": hashlib.sha256(raw).hexdigest(),
                "columns": raw.split(b"\r\n", 1)[0].decode().split(","),
                "shape": list(table.shape), "sum": table.sum(axis=0).tolist(),
                "sumsq": (table * table).sum(axis=0).tolist()}
    values = _without_skipped(json.loads(raw))
    text = json.dumps(values, sort_keys=True).encode()
    return {"sha256": hashlib.sha256(text).hexdigest(), "values": values}


def _without_skipped(value):
    if isinstance(value, dict):
        return {k: _without_skipped(v) for k, v in value.items() if k not in SKIPPED_KEYS}
    if isinstance(value, list):
        return [_without_skipped(v) for v in value]
    return value


def compare(want: dict, got: dict) -> dict:
    """{file: (largest relative change of a number, [every other change])}, for each
    file whose digest moved, or that only one side has."""
    moved = {}
    for name in sorted(want.keys() | got.keys()):
        if name not in got or name not in want:
            moved[name] = (0.0, ["only in the " + ("golden file" if name in want else "new run")])
        elif want[name]["sha256"] != got[name]["sha256"]:
            w, g = ({k: v for k, v in side[name].items() if k != "sha256"}
                    for side in (want, got))
            changes, notes = [], []
            if "sum" in w and w["shape"] == g["shape"]:
                rows = w["shape"][0]
                for key in ("sum", "sumsq"):
                    scale = [np.sqrt(rows * max(a, b)) if key == "sum" else max(a, b)
                             for a, b in zip(w["sumsq"], g["sumsq"])]
                    changes += [_relative(a, b, s) for a, b, s in zip(w.pop(key), g.pop(key),
                                                                        scale)]
            _walk(w, g, "", changes, notes)
            moved[name] = (max(changes, default=0.0), notes)
    return moved


def _walk(want, got, where, changes, notes):
    number = (int, float)
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys()):
            if key not in got:
                notes.append(f"{where}.{key}: removed")
            elif key not in want:
                notes.append(f"{where}.{key}: added")
            else:
                _walk(want[key], got[key], f"{where}.{key}", changes, notes)
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _walk(w, g, f"{where}[{i}]", changes, notes)
    elif (isinstance(want, number) and isinstance(got, number)
          and not isinstance(want, bool) and not isinstance(got, bool)):
        changes.append(_relative(want, got, max(abs(want), abs(got))))
    elif want != got:
        notes.append(f"{where}: {want!r} -> {got!r}")


def _relative(a, b, scale) -> float:
    return 0.0 if a == b else float(abs(a - b) / scale) if scale > 0 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--golden", type=Path, default=GOLDEN, help="the golden file")
    parser.add_argument("--diff", action="store_true",
                        help="compare a new run with the golden file instead of writing it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        got = collect(workdir)
    if not args.diff:
        args.golden.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} file summaries to {args.golden}")
        return 0
    moved = compare(json.loads(args.golden.read_text()), got)
    for name, (change, notes) in moved.items():
        print(f"{name}: largest relative change {change:.3g}")
        for note in notes:
            print(f"    {note}")
    print(f"{len(moved)} of {len(got)} files moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

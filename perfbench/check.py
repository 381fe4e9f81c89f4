"""Correctness checks on the files one CLI call wrote.

Every check returns a list of problems; an empty list means the call passed.
A call fails when it exits non-zero, prints a JSON error on stderr, writes the
wrong number of rows, writes a value that is not finite, writes an interval
that does not contain its point prediction or a probability outside [0, 1],
or, for the reference seed, differs from the recorded reference by more than
``REFERENCE_RTOL``.

``REFERENCE_RTOL`` is 1e-8, relative to max(1, |reference|).  Changing the
BLAS thread count moves outputs by about 1e-13 relative, so that passes; a
changed random stream moves them by 1e-3 or more, so that fails.
"""
from __future__ import annotations

import csv
import json
import math

REFERENCE_RTOL = 1e-8

FIT_COLUMNS = ["index", "yhat", "lower", "upper"]
PROBIT_COLUMNS = ["index", "probability"]
STUDY_COLUMNS = ["dataset", "seed", "mspe", "ecp", "width"]


def read_columns(path) -> dict:
    """A numeric CSV with a header row, as {column name: list of floats}."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    names = rows[0]
    table = {name: [] for name in names}
    for i, row in enumerate(rows[1:]):
        if len(row) != len(names):
            raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {len(names)}")
        for name, cell in zip(names, row):
            table[name].append(float(cell))
    return table


def stderr_problems(text: str) -> list:
    problems = []
    for line in text.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "error" in obj:
            problems.append(f"error on stderr: {line.strip()}")
    return problems


def _shape_problems(table: dict, columns: list, n_rows: int) -> list:
    if list(table) != columns:
        return [f"columns {list(table)}, expected {columns}"]
    got = len(table[columns[0]])
    if got != n_rows:
        return [f"{got} rows, expected {n_rows}"]
    problems = []
    for name in columns:
        bad = [i for i, v in enumerate(table[name]) if not math.isfinite(v)]
        if bad:
            problems.append(f"column {name} has non-finite values at rows {bad[:5]}")
    return problems


def fit_problems(table: dict, n_rows: int, binary: bool) -> list:
    """Checks on the predictions CSV of ``tarpreg fit``."""
    problems = _shape_problems(table, PROBIT_COLUMNS if binary else FIT_COLUMNS, n_rows)
    if problems:
        return problems
    if table["index"] != [float(i) for i in range(n_rows)]:
        problems.append("index column is not 0..n-1")
    if binary:
        bad = [i for i, v in enumerate(table["probability"]) if not 0.0 <= v <= 1.0]
        if bad:
            problems.append(f"probabilities outside [0, 1] at rows {bad[:5]}")
    else:
        bad = [i for i, (lo, mid, hi) in enumerate(zip(table["lower"], table["yhat"],
                                                       table["upper"]))
               if not lo <= mid <= hi]
        if bad:
            problems.append(f"lower <= yhat <= upper fails at rows {bad[:5]}")
    return problems


def study_problems(table: dict, report: dict, datasets: int) -> list:
    """Checks on the per-dataset CSV and report JSON of ``tarpreg benchmark``."""
    problems = _shape_problems(table, STUDY_COLUMNS, datasets)
    if problems:
        return problems
    if not all(0.0 <= v <= 1.0 for v in table["ecp"]):
        problems.append("coverage outside [0, 1]")
    if not all(v > 0.0 for v in table["width"] + table["mspe"]):
        problems.append("non-positive interval width or MSPE")
    mean = report.get("report", {}).get("mspe", {}).get("mean")
    expected = sum(table["mspe"]) / datasets
    if not isinstance(mean, float) or not math.isclose(mean, expected, rel_tol=1e-12):
        problems.append(f"report mean MSPE {mean!r} does not match the CSV ({expected!r})")
    return problems


def reference_problems(table: dict, reference: dict, rtol: float = REFERENCE_RTOL) -> list:
    """Compare every column in ``reference`` with ``table`` within ``rtol``."""
    problems = []
    for name, ref in reference.items():
        got = table.get(name)
        if got is None or len(got) != len(ref):
            problems.append(f"column {name} missing or of the wrong length")
            continue
        bad = [(i, abs(g - r) / max(1.0, abs(r)))
               for i, (g, r) in enumerate(zip(got, ref))
               if not abs(g - r) <= rtol * max(1.0, abs(r))]
        if bad:
            i, err = bad[0]
            problems.append(f"column {name} differs from the reference at {len(bad)} "
                            f"rows (row {i}: {err:.3g} relative, tolerance {rtol:g})")
    return problems

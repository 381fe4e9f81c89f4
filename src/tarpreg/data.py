"""Dataset container, column standardization and CSV I/O.

Predictor columns are standardized to sample mean 0 and sample standard
deviation 1 (divisor n-1).  Constant columns cannot be scaled; they are
forced to 0, flagged by a recorded scale of 0, and carry zero screening
utility downstream.  The response is never standardized: binary responses
must stay in {0, 1} and continuous responses are centered (and un-centered)
by the ensemble layer instead.
"""
from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IngestionError, all_finite, checked_array

RESPONSE_CONTINUOUS = "continuous"
RESPONSE_BINARY = "binary"
_BLOCK_BYTES = 1 << 20  # the temporary that a reduction over _column_blocks makes


@dataclass(frozen=True)
class Dataset:
    """Immutable design matrix + response with its standardization statistics.

    ``col_means``/``col_scales`` always hold the transform parameters of the
    originating raw data, so test rows can be mapped with training statistics
    whether or not ``X`` itself has been standardized yet.  Each array is kept
    without a copy when it already is C-contiguous float64, and is made read-only:
    after ``Dataset.from_arrays(X, y)`` the caller's own ``X`` and ``y`` are
    read-only (copy them first to keep writing into them).
    """

    X: np.ndarray
    y: np.ndarray
    response_kind: str
    col_means: np.ndarray
    col_scales: np.ndarray
    standardized: bool
    col_names: tuple = ()

    def __post_init__(self):
        X = np.ascontiguousarray(checked_array("X", self.X, (None, None)))
        if X.shape[1] < 1:
            raise IngestionError(f"a predictor column is needed, got X of shape {X.shape}")
        y = np.ascontiguousarray(checked_array("y", self.y, (X.shape[0],)))
        means, scales = (checked_array(name, getattr(self, name), (X.shape[1],), finite=False)
                         for name in ("col_means", "col_scales"))
        if self.response_kind not in (RESPONSE_CONTINUOUS, RESPONSE_BINARY):
            raise IngestionError(f"unknown response kind {self.response_kind!r}")
        if self.response_kind == RESPONSE_BINARY and not np.isin(y, (0.0, 1.0)).all():
            raise IngestionError("binary response must take values in {0, 1}")
        if (scales < 0).any():
            raise IngestionError("column scales must be >= 0")
        names = tuple(self.col_names) if self.col_names else tuple(f"x{j}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise DimensionError("col_names length does not match p")
        for name, a in (("X", X), ("y", y), ("col_means", means), ("col_scales", scales)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "col_names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_arrays(cls, X, y, response_kind=None, col_names=()) -> "Dataset":
        X = np.ascontiguousarray(X, dtype=np.float64)
        if not response_kind:
            # binary only when both labels occur: a y all 0 (or all 1) is continuous.  Not
            # np.unique, nor np.isin with y second: each imports numpy.ma (1.5 MB).
            both = np.isin(y, (0.0, 1.0)).all() and np.isin(y, 0.0).any() and np.isin(y, 1.0).any()
            response_kind = RESPONSE_BINARY if both else RESPONSE_CONTINUOUS
        return cls(X, y, response_kind, *column_statistics(X), standardized=False,
                   col_names=col_names)


def column_statistics(X: np.ndarray):
    """Per-column sample mean and sample standard deviation (divisor n-1).

    One min and max per column reject non-finite entries and find the constant
    columns, which get scale 0 exactly.  A non-constant column whose magnitudes
    overflow either statistic is rejected rather than scaled to zero.  Both are
    taken a column block at a time, the one temporary.
    """
    if X.ndim != 2 or X.shape[0] < 1:
        raise DimensionError(f"column statistics need a 2-d X with a row, got shape {X.shape}")
    lo, hi = X.min(axis=0), X.max(axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise IngestionError("X contains non-finite entries")
    means, scales = np.empty(X.shape[1]), np.empty(X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in _column_blocks(X):
            means[cols] = X[:, cols].mean(axis=0)
            scales[cols] = X[:, cols].std(axis=0, ddof=1 if X.shape[0] > 1 else 0)
    constant = lo == hi
    bad = np.flatnonzero(~constant & ~(np.isfinite(means) & np.isfinite(scales)))
    if bad.size:
        raise IngestionError(
            f"column {bad[0]}: mean or standard deviation overflows double precision")
    scales[constant] = 0.0
    return means, scales


def _column_blocks(X: np.ndarray) -> list:
    """Column slices of X of about _BLOCK_BYTES, none one column wide unless X is: numpy
    reduces a block of two or more columns over its rows in the same order as all of X
    (so with the same bits), but a lone column pairwise."""
    n, p = X.shape
    width = max(2, _BLOCK_BYTES // (X.itemsize * n))
    starts = range(0, max(p - 1, 1), width)  # the last block takes a lone last column
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], p])]


def standardize(raw: Dataset) -> Dataset:
    """Center and scale each non-constant column by the mean and sample sd that
    ``raw`` holds (constant columns map to 0), and keep them for test rows.
    A Dataset that is already standardized is returned unchanged."""
    if raw.standardized:
        return raw
    if raw.n < 2:
        raise DimensionError("standardize needs n >= 2")
    return Dataset(transform_columns(raw.X, raw.col_means, raw.col_scales), raw.y,
                   raw.response_kind, raw.col_means, raw.col_scales,
                   standardized=True, col_names=raw.col_names)


def transform_columns(X: np.ndarray, means: np.ndarray, scales: np.ndarray, out=None) -> np.ndarray:
    """(X - means) / scales, constant columns 0, into ``out`` (may be X) or a new array."""
    constant = scales == 0.0
    out = np.subtract(X, means, out=out)
    np.divide(out, np.where(constant, 1.0, scales), out=out)
    out[:, constant] = 0.0
    return out


def apply_standardization(train: Dataset, new_X) -> np.ndarray:
    """Map new rows through the training statistics: (x - mean) / scale.

    Constant training columns map to 0 regardless of the new values.
    """
    new_X = np.ascontiguousarray(checked_array("new_X", new_X, (None, train.p)))
    return transform_columns(new_X, train.col_means, train.col_scales)


def read_csv(path, response=-1):
    """Read a rectangular numeric CSV into a Dataset (see ``_read_table``).  Response
    kind is binary iff the response takes both values 0 and 1 and no other."""
    X, y, col_names = _read_table(path, response)
    try:
        return Dataset.from_arrays(X, y, col_names=col_names)
    except IngestionError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def _read_table(path, response=-1):
    """(X, y, col_names) of a rectangular numeric CSV, X writable in the parse buffer.

    The first row is a header iff any cell in it fails to parse as a number,
    and a header must be as wide as the body.  response: column name or
    zero-based index; default -1 selects the last column.  Without a header the
    predictors are named ``x0, x1, ...``.  A UTF-8 byte-order mark is dropped and cells
    may be quoted.  One np.loadtxt call parses a clean file; where its C parser rejects a
    cell, one per-cell pass either names the first fault or returns the table.
    """
    try:
        data, names = _read_fast(path)
    except (csv.Error, UnicodeError) as exc:  # not UTF-8, or a cell past csv's size limit
        raise IngestionError(f"{path}: {exc}") from None
    width = data.shape[1]
    if names is not None and len(names) != width:
        raise IngestionError(f"{path}: header has {len(names)} columns, body has {width}")
    if not all_finite(data):  # the n x p mask only to name the first bad cell
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise IngestionError(f"{path}: non-finite value at row {i}, column {j}")

    if isinstance(response, str):
        if names is None or response not in names:
            raise IngestionError(f"{path}: response column {response!r} not found")
        rcol = names.index(response)
    else:
        rcol = int(response) % width if -width <= int(response) < width else None
        if rcol is None:
            raise IngestionError(f"{path}: response column index {response} out of range")
    col_names = (tuple(f"x{j}" for j in range(width - 1)) if names is None
                 else tuple(nm for j, nm in enumerate(names) if j != rcol))
    # y is copied out and the predictors move left within the parse buffer, a block
    # of rows at a time: a block's new place ends before the next block starts
    y, n, step = data[:, rcol].copy(), data.shape[0], max(1, _BLOCK_BYTES // data[0].nbytes)
    X = data.reshape(-1)[:n * (width - 1)].reshape(n, width - 1)
    for a in range(0, n, step):
        X[a:a + step] = np.delete(data[a:a + step], rcol, axis=1)
    return X, y, col_names


def _read_fast(path):
    """(data, names) of a CSV file from one call of np.loadtxt's C parser, or from _read_cells
    where that reads no row: a rejected cell ('1_000', a non-ASCII digit, a fault) or none."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        seen = []  # the lines csv reads up to the first record, for loadtxt if it is data
        row0 = next(filter(None, csv.reader(seen.append(ln) or ln for ln in fh)), [])
        header = not _all_numeric(row0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(fh if header else itertools.chain(seen, fh), delimiter=",",
                                  comments=None, quotechar='"', ndmin=2)
        except ValueError:  # a cell the C parser rejects: read as no row
            data = np.empty((0, 0))
    if not data.shape[0]:
        return _read_cells(path)
    return data, ([c.strip() for c in row0] if header else None)


def _read_cells(path):
    """(data, names) of a CSV file by one pass of csv and float, data a writable view of the
    values gathered 8 bytes each; or the IngestionError naming the file's first fault."""
    from array import array  # loaded here, not on a clean file's read
    values = array("d")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = filter(None, csv.reader(fh))
        if (row0 := next(rows, None)) is None:
            raise IngestionError(f"{path}: empty file")
        names = None if _all_numeric(row0) else [c.strip() for c in row0]
        if names is not None and (row0 := next(rows, None)) is None:
            raise IngestionError(f"{path}: header but no data rows")
        width = len(row0)
        for i, row in enumerate(itertools.chain([row0], rows)):
            if len(row) != width:
                raise IngestionError(f"{path}: ragged row {i} has {len(row)} cells, expected {width}")
            for j, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise IngestionError(
                        f"{path}: non-numeric cell {cell!r} at row {i}, column {j}") from None
    return np.frombuffer(values).reshape(-1, width), names


def write_csv(path, columns, names):
    """Write named finite columns as CSV, lossless to full double precision."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    if not columns or len(columns) != len(names):
        raise DimensionError("one name per column, and a column, required")
    n = columns[0].shape[0]
    if any(c.shape != (n,) for c in columns):
        raise DimensionError("all columns must share the same length")
    table = np.column_stack(columns)
    if not all_finite(table):  # the mask only to name the first bad column
        j = np.flatnonzero(~np.isfinite(table).all(axis=0))[0]
        raise IngestionError(f"columns[{j}] ({names[j]!r}) contains non-finite entries")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(names)
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n")


def write_matrix_csv(path, X, y, col_names=None):
    """Write the predictors under their names, then the response as column ``y``."""
    X = np.asarray(X, dtype=np.float64)
    names = list(col_names) if col_names else [f"x{j}" for j in range(X.shape[1])]
    write_csv(path, [X[:, j] for j in range(X.shape[1])] + [y], names + ["y"])


def _all_numeric(row) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return False
    return True

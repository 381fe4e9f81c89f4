import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tarpreg.data
from tarpreg import (Dataset, DimensionError, IngestionError, TarpError,
                     apply_standardization, marginal_utility, read_csv, standardize,
                     write_csv, write_matrix_csv)

MAX = 1.7976931348623157e308


def test_standardize_two_point_column_uses_sample_sd():
    ds = Dataset.from_arrays(np.array([[1.0], [-1.0]]), np.zeros(2))
    out = standardize(ds)
    # sample sd of (1, -1) is sqrt(2), so the scaled column is +-1/sqrt(2)
    assert out.X[:, 0] == pytest.approx([1 / np.sqrt(2), -1 / np.sqrt(2)])
    assert out.col_scales[0] == pytest.approx(np.sqrt(2.0))
    assert out.col_means[0] == 0.0


def test_standardize_sets_unit_sample_sd_and_zero_mean():
    rng = np.random.default_rng(1)
    ds = Dataset.from_arrays(rng.normal(5.0, 3.0, size=(40, 6)), rng.normal(size=40))
    out = standardize(ds)
    assert np.abs(out.X.mean(axis=0)).max() < 1e-10
    assert np.abs(out.X.std(axis=0, ddof=1) - 1).max() < 1e-8


def test_standardize_idempotent():
    rng = np.random.default_rng(2)
    ds = Dataset.from_arrays(rng.normal(2.0, 7.0, size=(25, 4)), rng.normal(size=25))
    once = standardize(ds)
    twice = standardize(once)
    assert np.abs(twice.X - once.X).max() < 1e-10


def test_standardize_constant_column_flagged_and_zeroed():
    X = np.column_stack([np.full(5, 5.0), np.arange(5.0)])
    out = standardize(Dataset.from_arrays(X, np.zeros(5)))
    assert out.X[:, 0] == pytest.approx(np.zeros(5))
    assert out.col_scales[0] == 0.0
    assert (out.col_scales == 0).tolist() == [True, False]


def test_standardize_rejects_tiny_n():
    ds = Dataset(np.ones((1, 1)), np.zeros(1), "continuous",
                 np.zeros(1), np.ones(1), standardized=False)
    with pytest.raises(DimensionError):
        standardize(ds)


def test_standardize_returns_a_standardized_dataset_unchanged():
    rng = np.random.default_rng(5)
    raw = Dataset.from_arrays(rng.normal(5.0, 3.0, size=(50, 4)), rng.normal(size=50))
    std = standardize(raw)
    assert standardize(std) is std
    # the recorded transform is still the raw one, so raw test rows map onto std.X
    assert np.array_equal(apply_standardization(standardize(standardize(raw)), raw.X), std.X)


def test_standardize_reuses_the_statistics_of_the_raw_dataset(monkeypatch):
    rng = np.random.default_rng(6)
    raw = Dataset.from_arrays(rng.normal(2.0, 4.0, size=(30, 5)), rng.normal(size=30))
    monkeypatch.setattr(tarpreg.data, "column_statistics",
                        lambda X: pytest.fail("column statistics computed again"))
    std = standardize(raw)
    assert std.col_means is raw.col_means and std.col_scales is raw.col_scales


def test_finite_input_builds_no_mask_the_size_of_the_matrix(tmp_path, monkeypatch):
    from tarpreg.ensemble import TarpConfig, _checked_probs
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 20))
    path = tmp_path / "d.csv"
    write_matrix_csv(path, X, rng.normal(size=30))
    sizes = []
    for name in ("isfinite", "isnan", "isinf"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda a, *args, _real=real, **kwargs:
                            sizes.append(np.size(a)) or _real(a, *args, **kwargs))
    std = standardize(read_csv(path))
    std = standardize(Dataset.from_arrays(X, rng.normal(size=30)))
    _checked_probs(std, apply_standardization(std, X[:7]), TarpConfig())
    assert sizes and max(sizes) <= 30  # vectors of n or p+1 entries, no 7 x 20 or 30 x 20 mask


def test_column_statistics_find_non_finite_and_constant_columns():
    X = np.array([[1.0, 2.0, 5.0], [1.0, 3.0, 5.0]])
    means, scales = tarpreg.data.column_statistics(X)
    assert scales.tolist() == [0.0, np.sqrt(0.5), 0.0]
    for bad in (np.nan, np.inf, -np.inf):
        X[1, 2] = bad
        with pytest.raises(IngestionError, match="X contains non-finite entries"):
            tarpreg.data.column_statistics(X)


def test_dataset_rejects_non_finite():
    with pytest.raises(IngestionError):
        Dataset.from_arrays(np.array([[1.0, np.nan]]), np.zeros(1))
    with pytest.raises(IngestionError):
        Dataset.from_arrays(np.ones((2, 2)), np.array([1.0, np.inf]))


def test_dataset_rejects_overflowing_column():
    X = np.ones((4, 3))
    X[:, 0] = [1.0, 2.0, 3.0, 5.0]
    X[:, 1] = [1e300, -1e300, 1e300, -1e300]  # finite cells, infinite variance
    with pytest.raises(IngestionError, match="column 1"):
        Dataset.from_arrays(X, np.zeros(4))
    X[:, 1] = 1e308  # constant: flagged by scale 0 even though its mean overflows
    assert (Dataset.from_arrays(X, np.zeros(4)).col_scales == 0).tolist() == [False, True, True]


def test_read_csv_rejects_overflowing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,1e300,0\n2,-1e300,1\n3,1e300,2\n")
    with pytest.raises(IngestionError, match="column 1") as err:
        read_csv(path)
    assert str(err.value).startswith(f"{path}: ")  # the file is named


def test_dataset_rejects_a_matrix_with_no_predictor_column():
    with pytest.raises(IngestionError, match="a predictor column is needed"):
        Dataset.from_arrays(np.zeros((5, 0)), np.arange(5.0))


@pytest.mark.parametrize("y, kind", [([0, 1, 1], "binary"), ([1.0, 0.0, 0.0], "binary"),
                                     ([0, 0, 0], "continuous"), ([1, 1, 1], "continuous"),
                                     ([0, 1, 2], "continuous")],
                         ids=["both", "both-float", "zeros", "ones", "three-values"])
def test_dataset_response_is_binary_only_with_both_labels(y, kind):
    assert Dataset.from_arrays(np.eye(3), y).response_kind == kind


def test_dataset_keeps_a_response_kind_given_on_one_label():
    ds = Dataset.from_arrays(np.eye(3), np.zeros(3), response_kind="binary")
    assert ds.response_kind == "binary"


def test_dataset_binary_kind_enforced():
    with pytest.raises(IngestionError):
        Dataset.from_arrays(np.ones((3, 1)), np.array([0.0, 1.0, 2.0]),
                            response_kind="binary")


def test_apply_standardization_examples():
    train = standardize(Dataset.from_arrays(
        np.array([[1.0], [3.0]]), np.zeros(2)))  # mean 2, sample sd sqrt(2)
    # row of training means maps to zero
    assert apply_standardization(train, np.array([[2.0]]))[0, 0] == 0.0

    ds = Dataset(np.zeros((2, 1)), np.zeros(2), "continuous",
                 np.array([2.0]), np.array([2.0]), standardized=True)
    assert apply_standardization(ds, np.array([[6.0]]))[0, 0] == pytest.approx(2.0)

    ident = Dataset(np.zeros((2, 1)), np.zeros(2), "continuous",
                    np.array([0.0]), np.array([1.0]), standardized=True)
    x = np.array([[1.25], [-3.5]])
    assert np.array_equal(apply_standardization(ident, x), x)


def test_apply_standardization_reproduces_training_matrix_exactly():
    rng = np.random.default_rng(3)
    raw = Dataset.from_arrays(rng.normal(1.0, 4.0, size=(30, 5)), rng.normal(size=30))
    std = standardize(raw)
    again = apply_standardization(std, raw.X)
    assert np.array_equal(again, std.X)


def test_apply_standardization_rejects_column_mismatch():
    std = standardize(Dataset.from_arrays(np.random.default_rng(0).normal(size=(10, 3)),
                                          np.zeros(10)))
    with pytest.raises(DimensionError):
        apply_standardization(std, np.ones((2, 4)))


def test_read_csv_with_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = read_csv(path)
    assert ds.X.shape == (3, 2)
    assert ds.y.tolist() == [3.0, 6.0, 9.0]
    assert ds.col_names == ("a", "b")
    assert ds.response_kind == "continuous"


@pytest.mark.parametrize("header_line", ["a,b", '"a","b"', "a,b,c,y", "a,b,y,"],
                         ids=["narrow", "narrow-quoted", "wide", "trailing-comma"])
def test_read_csv_rejects_header_of_another_width(tmp_path, header_line):
    # the header line is read by csv, quoted or not, and the body by np.loadtxt
    path = tmp_path / "w.csv"
    path.write_text(header_line + "\n1,2,3\n4,5,6\n")
    names = header_line.count(",") + 1
    for response in (-1, 0):
        with pytest.raises(IngestionError) as err:
            read_csv(path, response=response)
        assert str(err.value) == f"{path}: header has {names} columns, body has 3"


def test_read_csv_binary_response_inferred(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0.5,0\n2,0.25,1\n3,0.125,1\n")
    ds = read_csv(path)
    assert ds.response_kind == "binary"


def test_read_csv_response_by_name(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,a\n1,10\n2,20\n")
    ds = read_csv(path, response="y")
    assert ds.y.tolist() == [1.0, 2.0]
    assert ds.col_names == ("a",)


def test_read_csv_na_cell_names_row_and_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,NA\n")
    with pytest.raises(IngestionError, match="row 1, column 1"):
        read_csv(path)


def test_read_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(IngestionError, match="ragged"):
        read_csv(path)


def test_read_csv_missing_response_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(IngestionError):
        read_csv(path, response="nope")


def test_read_csv_strips_byte_order_mark(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,9\n")
    ds = read_csv(path)
    assert ds.X.tolist() == [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]]
    assert ds.col_names == ("x0", "x1")
    for first in (b"a,b,y", b'"a",b,y'):  # a header line unquoted and quoted
        path.write_bytes(b"\xef\xbb\xbf" + first + b"\n1,2,3\n4,5,6\n")
        ds = read_csv(path)
        assert ds.col_names == ("a", "b")
        assert ds.y.tolist() == [3.0, 6.0]


@pytest.mark.parametrize("text", [b"a\xe9,y\n1,2\n", b"a" * 140_000 + b",y\n1,2\n"],
                         ids=["latin-1", "header-cell-past-csv-field-limit"])
def test_read_csv_names_the_file_csv_cannot_read(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    with pytest.raises(IngestionError) as err:
        read_csv(path)
    assert str(err.value).startswith(f"{path}: ")


def test_read_csv_parses_clean_files_in_one_call(tmp_path, monkeypatch):
    def per_cell(*args):
        raise AssertionError("per-cell parse ran on a clean file")
    monkeypatch.setattr(tarpreg.data, "_read_cells", per_cell)
    path = tmp_path / "d.csv"
    for text in ("a,b,y\r\n1, 2,3\r\n\r\n4,5e-1,6\r\n", "1,2,0\r4,5,1\r",
                 '"a","b","y"\r\n"1","2","3"\r\n"4","5","6"\r\n'):
        path.write_bytes(text.encode())
        assert read_csv(path).n == 2
    path.write_bytes(b"y\n1\n2")  # parsed in one call too, then rejected: no predictor column
    with pytest.raises(IngestionError, match="a predictor column is needed"):
        read_csv(path)


def test_read_csv_names_a_fault_after_one_c_parse(tmp_path, monkeypatch):
    # the fault finder runs before the Python-float retry, which only a faultless file reaches
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(tarpreg.data.np, "loadtxt",
                        lambda *a, **kw: calls.append(kw["converters"]) or loadtxt(*a, **kw))
    path = tmp_path / "d.csv"
    path.write_text("a,b,y\n1,2,3\n4,5,NA\n")
    with pytest.raises(IngestionError, match="non-numeric cell 'NA' at row 1, column 2"):
        read_csv(path)
    assert calls == [None]
    calls.clear()
    path.write_text("a,b,y\n1_000,2,3\n4,5,6\n")
    ds = read_csv(path)
    assert calls == [None, float]
    assert ds.X.tolist() == [[1000.0, 2.0], [4.0, 5.0]] and ds.y.tolist() == [3.0, 6.0]


def _read_csv_per_cell(path, header, response):
    # the csv + float parse that read_csv used before the one-call parse, with
    # the header width check both parses now share
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append(row)
    if not rows:
        raise IngestionError(f"{path}: empty file")
    names = None
    if header == "auto":
        header = not all(_is_float(c) for c in rows[0])
    if header:
        names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise IngestionError(f"{path}: header but no data rows")
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestionError(f"{path}: ragged row {i} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise IngestionError(
                    f"{path}: non-numeric cell {cell!r} at row {i}, column {j}") from None
    if names is not None and len(names) != width:
        raise IngestionError(f"{path}: header has {len(names)} columns, body has {width}")
    if not np.isfinite(data).all():
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise IngestionError(f"{path}: non-finite value at row {i}, column {j}")
    if isinstance(response, str):
        if names is None or response not in names:
            raise IngestionError(f"{path}: response column {response!r} not found")
        rcol = names.index(response)
    else:
        rcol = response % width if -width <= response < width else None
        if rcol is None:
            raise IngestionError(f"{path}: response column index {response} out of range")
    col_names = () if names is None else tuple(nm for j, nm in enumerate(names) if j != rcol)
    try:
        return Dataset.from_arrays(np.delete(data, rcol, axis=1), data[:, rcol],
                                   col_names=col_names)
    except IngestionError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def _is_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


_CLEAN_CELLS = ["0", "1", "-2.5", "3e-7", "1e5", "+4", ".5", "6.", "0.1"]
_ODD_CELLS = [" 7 ", "\t8", "9\xa0", '"10"', '"1,2"', "#11", "1_000", "NA", "inf",
              "-Infinity", "nan", "1e999", "", "  ", "x", "0x10", "1d5", "1 2"]
_NAMES = ["a", "b", "y", " c ", '"q"', "#h", "1", ""]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_read_csv_matches_per_cell_parse(tmp_path_factory, data):
    width = data.draw(st.integers(1, 3), label="width")
    nrows = data.draw(st.integers(1, 3), label="rows")
    rows = [data.draw(st.lists(st.sampled_from(_CLEAN_CELLS), min_size=width, max_size=width))
            for _ in range(nrows)]
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]), label="odd cells")):
        i = data.draw(st.integers(0, nrows - 1))
        rows[i][data.draw(st.integers(0, width - 1))] = data.draw(st.sampled_from(_ODD_CELLS))
    if data.draw(st.integers(0, 4), label="ragged") == 0:
        i = data.draw(st.integers(0, nrows - 1))
        rows[i] = rows[i] + ["5"] if data.draw(st.booleans()) else rows[i][:-1]
    if data.draw(st.booleans(), label="header line"):
        rows.insert(0, data.draw(st.lists(st.sampled_from(_NAMES + _CLEAN_CELLS),
                                          min_size=width, max_size=width)))
    if data.draw(st.integers(0, 3), label="quoted line") == 0:  # as QUOTE_ALL writes
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = [f'"{c}"' for c in rows[i]]
    lines = [",".join(r) + ("," if data.draw(st.integers(0, 9)) == 0 else "") for r in rows]
    for _ in range(data.draw(st.integers(0, 2), label="blank lines")):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", "", "", " ", "\t"])))
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line ending")
    text = eol.join(lines) + data.draw(st.sampled_from(["", eol]))
    if data.draw(st.booleans(), label="byte-order mark"):
        text = "\ufeff" + text
    response = data.draw(st.sampled_from([-1, -1, 0, "y"]), label="response")

    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for read in (lambda: read_csv(path, response),
                 lambda: _read_csv_per_cell(path, "auto", response)):
        try:
            ds = read()
        except TarpError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((ds.X.tobytes(), ds.X.shape, ds.y.tobytes(), ds.col_names,
                             ds.response_kind))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_csv_roundtrip_lossless_to_15_digits(tmp_path_factory, data):
    n, p = data.draw(st.integers(2, 8)), data.draw(st.integers(1, 4))
    # predictors stay where their sample variance is finite; the response is
    # never standardized, so it takes any finite double (+-0, subnormals, +-MAX)
    X = data.draw(arrays(np.float64, (n, p), elements=st.floats(-1e150, 1e150)))
    y = data.draw(arrays(np.float64, n, elements=st.floats(-MAX, MAX)))
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    write_matrix_csv(path, X, y)
    back = read_csv(path)
    assert back.X.tobytes() == X.tobytes()  # %.17g is exact for float64, sign of 0 too
    assert back.y.tobytes() == y.tobytes()


def test_write_csv_bytes_match_reference_format(tmp_path):
    rng = np.random.default_rng(4)
    cols = [np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, MAX, -MAX]),
            rng.normal(size=6) * 10.0 ** rng.integers(-8, 8, size=6),
            np.arange(6.0) * 1e15]
    names = ["plain", "a,b", 'q"x']
    path = tmp_path / "w.csv"
    write_csv(path, cols, names)
    want = 'plain,"a,b","q""x"\r\n' + "".join(
        ",".join(format(float(c[i]), ".17g") for c in cols) + "\r\n" for i in range(6))
    assert path.read_bytes() == want.encode("utf-8")


def test_write_csv_needs_a_column(tmp_path):
    # no column raised an IndexError
    with pytest.raises(DimensionError, match="a column"):
        write_csv(tmp_path / "w.csv", [], [])
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("step", ["standardize", "apply_standardization"])
def test_standardization_allocates_one_output_matrix(step):
    # tracemalloc sees numpy's buffers; the bound leaves room for the per-column
    # vectors and the ufunc iterator's fixed 64 KiB buffer, not for a second matrix
    rng = np.random.default_rng(4)
    raw = Dataset.from_arrays(rng.normal(3.0, 2.0, size=(400, 1000)), rng.normal(size=400))
    std = standardize(raw)
    new_X = rng.normal(size=(300, 1000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = standardize(raw).X if step == "standardize" else apply_standardization(std, new_X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.nbytes


def _unblocked_utility(std):
    """marginal_utility as one numpy expression over all of X."""
    yc = std.y - std.y.mean()
    xnorm = np.linalg.norm(std.X, axis=0)
    r = (std.X.T @ yc) / (np.where(xnorm == 0.0, 1.0, xnorm) * np.linalg.norm(yc))
    r[xnorm == 0.0] = 0.0
    return np.clip(r, -1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), extra=st.integers(0, 7), blocks=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_statistics_and_norms_equal_the_whole_matrix_expressions(n, extra, blocks, seed):
    # p covers up to three full column blocks and a ragged end, a lone last column too
    p = max(1, blocks * max(2, tarpreg.data._BLOCK_BYTES // (8 * n)) + extra)
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** rng.integers(-150, 151, size=p)
    X = magnitude * (rng.normal(size=(n, p)) + rng.normal(size=p) * 10.0 ** rng.integers(0, 8))
    X[:, rng.random(p) < 0.2] = 7.0  # constant columns
    means, scales = tarpreg.data.column_statistics(X)
    want_scales = X.std(axis=0, ddof=1 if n > 1 else 0)
    want_scales[X.min(axis=0) == X.max(axis=0)] = 0.0
    assert means.tobytes() == X.mean(axis=0).tobytes()
    assert scales.tobytes() == want_scales.tobytes()
    if n >= 3:
        std = standardize(Dataset.from_arrays(X, rng.normal(size=n)))
        assert marginal_utility(std).tobytes() == _unblocked_utility(std).tobytes()


@pytest.mark.parametrize("step", ["column_statistics", "marginal_utility"])
def test_column_reductions_allocate_one_block(step):
    rng = np.random.default_rng(5)
    raw = Dataset.from_arrays(rng.normal(3.0, 2.0, size=(400, 2000)), rng.normal(size=400))
    std = standardize(raw)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if step == "column_statistics":
            tarpreg.data.column_statistics(raw.X)
        else:
            marginal_utility(std)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * raw.X.nbytes


@pytest.mark.parametrize("response", [0, 500, 1000], ids=["first", "middle", "last"])
def test_read_csv_splits_the_response_off_inside_the_parse_buffer(tmp_path, response):
    # np.loadtxt alone peaks at about 1.28 X; a second n x p array would take it past 2
    A = np.random.default_rng(6).normal(size=(400, 1001))
    path = tmp_path / "wide.csv"
    write_csv(path, list(A.T), [f"c{j}" for j in range(1001)])
    tracemalloc.start()
    try:
        ds = read_csv(path, response=response)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.X.tobytes() == np.delete(A, response, axis=1).tobytes()
    assert ds.y.tobytes() == A[:, response].tobytes()
    assert peak <= 1.5 * ds.X.nbytes


def test_read_csv_parses_a_quoted_file_as_lean_as_an_unquoted_one(tmp_path):
    # every cell quoted, as csv.QUOTE_ALL writes; a per-cell parse holding the rows as
    # str lists peaks near 10.6 X
    A = np.random.default_rng(7).normal(size=(200, 2001))
    path = tmp_path / "quoted.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow([f"c{j}" for j in range(2001)])
        writer.writerows(A.tolist())
    tracemalloc.start()
    try:
        ds = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.X.tobytes() == A[:, :-1].tobytes()
    assert ds.y.tobytes() == A[:, -1].tobytes()
    assert ds.col_names == tuple(f"c{j}" for j in range(2000))
    assert peak <= 1.5 * ds.X.nbytes

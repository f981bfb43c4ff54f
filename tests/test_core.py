"""Data model, metrics, and CSV ingestion."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heterotl import core
from heterotl.core import (DataError, Dataset, DimensionError,
                           InvalidValueError, ConfigError, TLFit,
                           TruthRecord, apply_centering, fit_centering,
                           l1_estimation_error,
                           mean_absolute_prediction_error, read_dataset_csv,
                           read_x_csv, rmse, write_dataset_csv)
from oracles import l1_loop, map_loop, rmse_loop


def test_map_identical_is_zero():
    y = np.array([1.0, -2.0, 3.5])
    assert mean_absolute_prediction_error(y, y) == 0.0


def test_map_hand_value():
    assert mean_absolute_prediction_error([1.0, 2.0], [0.0, 0.0]) == 1.5


def test_l1_identical_is_zero():
    b = np.array([0.5, -0.5, 2.0])
    assert l1_estimation_error(b, b) == 0.0


def test_l1_hand_value():
    assert l1_estimation_error([1.0, 0.0], [0.0, 1.0]) == 2.0


def test_rmse_identical_is_zero():
    y = np.array([4.0, 5.0])
    assert rmse(y, y) == 0.0


def test_rmse_hand_value():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
        np.sqrt(12.5), abs=1e-15)


def test_metrics_match_loop_oracles():
    rng = np.random.default_rng(42)
    y = rng.standard_normal(50)
    yhat = rng.standard_normal(50)
    assert mean_absolute_prediction_error(y, yhat) == pytest.approx(
        map_loop(y, yhat), abs=1e-12)
    assert l1_estimation_error(y, yhat) == pytest.approx(
        l1_loop(y, yhat), abs=1e-12)
    assert rmse(y, yhat) == pytest.approx(rmse_loop(y, yhat), abs=1e-12)


def test_metric_length_mismatch():
    with pytest.raises(DimensionError):
        mean_absolute_prediction_error([1.0, 2.0], [1.0])
    with pytest.raises(DimensionError):
        l1_estimation_error([1.0, 2.0], [1.0])
    with pytest.raises(DimensionError):
        rmse([1.0], [1.0, 2.0])


def test_metric_rejects_non_finite():
    with pytest.raises(InvalidValueError):
        mean_absolute_prediction_error([np.nan, 1.0], [0.0, 0.0])
    with pytest.raises(InvalidValueError):
        rmse([1.0, np.inf], [0.0, 0.0])


def test_metric_rejects_empty():
    with pytest.raises(DimensionError):
        rmse([], [])


finite_vecs = arrays(np.float64, st.shared(st.integers(1, 20), key="n"),
                     elements=st.floats(-1e6, 1e6))


@given(finite_vecs, finite_vecs)
@settings(max_examples=50, deadline=None)
def test_metric_properties(y, yhat):
    m = mean_absolute_prediction_error(y, yhat)
    r = rmse(y, yhat)
    assert m >= 0.0 and r >= 0.0
    # symmetry in the arguments, invariance under a shared permutation
    assert m == mean_absolute_prediction_error(yhat, y)
    perm = np.arange(len(y))[::-1]
    assert m == pytest.approx(
        mean_absolute_prediction_error(y[perm], yhat[perm]), rel=1e-12)
    assert r == pytest.approx(rmse(y[perm], yhat[perm]), rel=1e-12)
    if np.array_equal(y, yhat):
        assert m == 0.0 and r == 0.0
    assert m <= r + 1e-9 * max(1.0, r)


def test_dataset_shapes_and_counts():
    x = np.arange(6.0).reshape(3, 2)
    y = np.array([1.0, 2.0, 3.0])
    z = np.ones((3, 4))
    ds = Dataset(x, y, z)
    assert (ds.n, ds.p1, ds.p2) == (3, 2, 4)
    assert Dataset(x, y).p2 == 0
    assert Dataset(x, y).z is None


def test_dataset_row_mismatch():
    x = np.zeros((3, 2))
    with pytest.raises(DimensionError):
        Dataset(x, np.zeros(4))
    with pytest.raises(DimensionError):
        Dataset(x, np.zeros(3), np.zeros((2, 1)))


def test_dataset_needs_columns():
    with pytest.raises(DimensionError):
        Dataset(np.zeros((3, 0)), np.zeros(3))
    with pytest.raises(DimensionError):
        Dataset(np.zeros((3, 1)), np.zeros(3), np.zeros((3, 0)))


def test_dataset_rejects_non_finite():
    with pytest.raises(InvalidValueError):
        Dataset(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(InvalidValueError):
        Dataset(np.array([[1.0]]), np.array([np.inf]))


def test_dataset_immutable():
    ds = Dataset(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(AttributeError):
        ds.x = np.ones((2, 1))
    with pytest.raises(ValueError):
        ds.x[0, 0] = 5.0


def test_dataset_copies_input():
    x = np.zeros((2, 2))
    ds = Dataset(x, np.zeros(2))
    x[0, 0] = 99.0
    assert ds.x[0, 0] == 0.0


def test_dataset_without_z():
    ds = Dataset(np.ones((2, 1)), np.ones(2), np.ones((2, 3)))
    bare = ds.without_z()
    assert bare.z is None
    assert np.array_equal(bare.x, ds.x)
    assert np.array_equal(bare.y, ds.y)


def test_tlfit_sum_identity():
    omega = np.array([1.0, -2.0, 0.5])
    delta = np.array([0.25, 0.0, -1.5])
    fit = TLFit(omega, delta, 0.1, "htl")
    assert np.array_equal(fit.beta_hat, omega + delta)
    assert fit.p == 3


def test_tlfit_rejects_inconsistent_beta():
    with pytest.raises(InvalidValueError):
        TLFit([1.0], [1.0], 0.0, "htl", beta_hat=[3.0])


def test_tlfit_validation():
    with pytest.raises(ConfigError):
        TLFit([1.0], [0.0], -0.5, "htl")
    with pytest.raises(ConfigError):
        TLFit([1.0], [0.0], 0.0, "mystery")
    with pytest.raises(DimensionError):
        TLFit([1.0, 2.0], [0.0], 0.0, "htl")


def test_truth_record_sparsity_counts():
    deltas = [np.array([0.0, 1.0, 0.0, -2.0]), np.zeros(4)]
    rec = TruthRecord(np.ones(4), deltas, None)
    assert rec.sparsity_s_delta == [2, 0]


def test_centering_round_trip():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 5)) + 7.0
    means = fit_centering(X)
    centered = apply_centering(X, means)
    assert np.max(np.abs(centered.mean(axis=0))) < 1e-12
    with pytest.raises(DimensionError):
        apply_centering(X, means[:-1])


def _toy_dataset(with_z):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal(5)
    z = rng.standard_normal((5, 2)) if with_z else None
    return Dataset(x, y, z)


@pytest.mark.parametrize("with_z", [True, False])
def test_csv_round_trip_exact(tmp_path, with_z):
    ds = _toy_dataset(with_z)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, ds)
    back = read_dataset_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)
    if with_z:
        assert np.array_equal(back.z, ds.z)
    else:
        assert back.z is None


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1,2,3\n")
    with pytest.raises(DataError, match="header"):
        read_dataset_csv(path)
    # the header is checked before any row
    path.write_text("x1,q\noops\n")
    for read, layout in ((read_dataset_csv, "x1..xP1[, z1..zP2], y"),
                         (read_x_csv, "x1..xP1 only")):
        with pytest.raises(DataError) as info:
            read(path)
        assert str(info.value) == \
            f"{path}: header must be {layout}; got ['x1', 'q']"


def _assert_both_readers_reject(tmp_path, text, message, width=2):
    """Both CSV readers raise DataError reading exactly "<path>: <message>"
    for text after a valid header of width columns (no header if 0)."""
    headers = {read_dataset_csv: [f"x{j}" for j in range(1, width)] + ["y"],
               read_x_csv: [f"x{j}" for j in range(1, width + 1)]}
    for read, header in headers.items():
        path = tmp_path / f"{read.__name__}.csv"
        path.write_text((",".join(header) + "\n" if width else "") + text)
        with pytest.raises(DataError) as info:
            read(path)
        assert str(info.value) == f"{path}: {message}"


def test_csv_rejects_bad_cell(tmp_path):
    _assert_both_readers_reject(
        tmp_path, "1.0,2.0\noops,3.0\n",
        "row 3, column x1: cannot parse 'oops' as a number")


def test_csv_rejects_short_row(tmp_path):
    _assert_both_readers_reject(tmp_path, "1.0,2.0,3.0\n4.0,5.0\n",
                                "row 3 has 2 fields, expected 3", width=3)


def test_csv_rejects_non_finite(tmp_path):
    _assert_both_readers_reject(tmp_path, "nan,2.0\n",
                                "row 2, column x1: non-finite value")


def test_csv_rejects_empty_and_headless(tmp_path):
    _assert_both_readers_reject(tmp_path, "", "empty file", width=0)
    _assert_both_readers_reject(tmp_path, "", "no data rows")


# Each entry: a file, with {h} for the reader's two-column header, and
# the rows it reads to or the message it fails with ({layout} and {last}
# stand for the reader's header rule and last column).
_CSV_CORPUS = {
    "empty-line-mid": ("{h}\n1,2\n\n3,4\n", "row 3 has 0 fields, expected 2"),
    "empty-line-end": ("{h}\n1,2\n3,4\n\n", "row 4 has 0 fields, expected 2"),
    "empty-line-crlf": ("{h}\r\n1,2\r\n\r\n3,4\r\n",
                        "row 3 has 0 fields, expected 2"),
    "empty-line-only": ("{h}\n\n", "row 2 has 0 fields, expected 2"),
    "whitespace-line": ("{h}\n1,2\n  \n3,4\n",
                        "row 3 has 1 fields, expected 2"),
    "crlf": ("{h}\r\n1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    "bare-cr": ("{h}\r1,2\r3,4\r", [[1, 2], [3, 4]]),
    "quoted-field": ('{h}\n"1.5",2\n', [[1.5, 2]]),
    "underscore": ("{h}\n1_0,2\n", [[10, 2]]),
    "full-width-digit": ("{h}\n１,2\n", [[1, 2]]),
    "whitespace-cells": ("{h}\n 1.5 ,\t-2\n", [[1.5, -2]]),
    "no-final-newline": ("{h}\n1,2\n3,4", [[1, 2], [3, 4]]),
    "trailing-comma": ("{h}\n1,2,\n", "row 2 has 3 fields, expected 2"),
    "bom-before-header": ("\ufeff{h}\n1,2\n", [[1, 2]]),
    "bom-in-row": ("{h}\n\ufeff1,2\n",
                   "row 2, column x1: cannot parse '\\ufeff1' as a number"),
    "hash": ("{h}\n1,2\n#c,4\n",
             "row 3, column x1: cannot parse '#c' as a number"),
    "inf": ("{h}\ninf,2\n", "row 2, column x1: non-finite value"),
    "nan": ("{h}\n1,2\n3,nan\n", "row 3, column {last}: non-finite value"),
    "overflow": ("{h}\n1e400,2\n", "row 2, column x1: non-finite value"),
}

_CSV_READERS = {read_dataset_csv: ("x1,y", "x1..xP1[, z1..zP2], y"),
                read_x_csv: ("x1,x2", "x1..xP1 only")}


def _read_rows(read, path):
    out = read(path)
    return out if read is read_x_csv else np.column_stack([out.x, out.y])


@pytest.mark.parametrize("name", list(_CSV_CORPUS))
def test_csv_corpus_reads_as_pinned(tmp_path, name):
    # the syntax csv.reader and float accept, and their messages, whichever
    # parser reads the rows
    text, expected = _CSV_CORPUS[name]
    for read, (header, layout) in _CSV_READERS.items():
        path = tmp_path / f"{read.__name__}.csv"
        path.write_bytes(text.format(h=header).encode("utf-8"))
        if isinstance(expected, str):
            with pytest.raises(DataError) as info:
                read(path)
            message = expected.format(layout=layout,
                                      last=header.split(",")[-1])
            assert str(info.value) == f"{path}: {message}"
        else:
            assert np.array_equal(_read_rows(read, path), expected)


def _wide_dataset(n=2000, p1=20, p2=20, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, p1)), rng.standard_normal(n),
                   rng.standard_normal((n, p2)))


def test_csv_well_formed_file_skips_the_exact_loop(tmp_path, monkeypatch):
    ds = _wide_dataset()
    path = tmp_path / "proxy.csv"
    write_dataset_csv(path, ds)

    def exact_rows(*args):
        raise AssertionError("a well-formed file reached the exact loop")

    monkeypatch.setattr(core, "_exact_rows", exact_rows)
    back = read_dataset_csv(path)
    assert back.x.tobytes() == ds.x.tobytes()
    assert back.z.tobytes() == ds.z.tobytes()
    assert back.y.tobytes() == ds.y.tobytes()


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.sampled_from([repr, "%.17g".__mod__]))
@settings(max_examples=60, deadline=None)
def test_csv_values_read_back_bit_equal(X, spell):
    # each spelling of a finite double reads back to the same bits
    lines = [",".join(f"x{j}" for j in range(1, X.shape[1] + 1))]
    lines += [",".join(spell(float(v)) for v in row) for row in X]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert read_x_csv(path).tobytes() == X.tobytes()


def test_csv_read_memory_is_a_small_multiple_of_the_array(tmp_path):
    ds = _wide_dataset()
    path = tmp_path / "proxy.csv"
    write_dataset_csv(path, ds)
    read_dataset_csv(path)
    tracemalloc.start()
    try:
        read_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ds.n * (ds.p1 + ds.p2 + 1) * 8


def test_csv_not_utf8_is_a_data_error(tmp_path):
    for read, (header, _) in _CSV_READERS.items():
        path = tmp_path / f"{read.__name__}.csv"
        path.write_bytes(header.encode() + b"\n1,2\n3,\xff\n")
        with pytest.raises(DataError) as info:
            read(path)
        assert str(info.value) == \
            f"{path}: not UTF-8 (byte 0xff: invalid start byte)"


def test_read_x_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n")
    X = read_x_csv(path)
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    bad = tmp_path / "withz.csv"
    bad.write_text("x1,z1\n1.0,2.0\n")
    with pytest.raises(DataError, match="x1..xP1 only"):
        read_x_csv(bad)

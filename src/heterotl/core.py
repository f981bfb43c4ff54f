"""Shared data model, validation, error types, evaluation metrics, and CSV
and atomic file I/O."""

import csv
import itertools
import math
import numbers
import os
import tempfile

import numpy as np

METHOD_TAGS = ("htl", "homogeneous", "target_lasso", "oracle")


class HeterotlError(Exception):
    """Base class for all library errors."""


class DimensionError(HeterotlError):
    """Array shapes do not agree."""


class InvalidValueError(HeterotlError):
    """Non-finite values where finite ones are required."""


class SupportError(HeterotlError):
    """Input lies outside the basis support [-a, a]."""


class CapacityError(HeterotlError):
    """Requested more basis functions than the enumeration cap admits."""


class IncompatibleError(HeterotlError):
    """Objects cannot be combined (mixed variants, mismatched parameters)."""


class ConfigError(HeterotlError):
    """Invalid configuration values."""


class ConvergenceError(HeterotlError):
    """A solver failed to converge within its iteration budget."""


class DataError(HeterotlError):
    """Malformed input data file; message names file, row, and column."""


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def _as_vector(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d array, got ndim={a.ndim}")
    return a


def _require_finite(a, name):
    """InvalidValueError naming the first non-finite entry of a."""
    bad = ~np.isfinite(a)
    if np.any(bad):
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        raise InvalidValueError(f"{name} entry ({', '.join(map(str, at))}) "
                                f"= {a[at]} is not finite")


def _check_nonnegative(name, value, positive=False):
    """value when it is a finite real number >= 0 (> 0 when positive);
    otherwise ConfigError naming name. A NaN fails here, where a check
    written `value < 0` lets it through."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0
            or (positive and value == 0)):
        raise ConfigError(f"{name} must be a finite number "
                          f"{'>' if positive else '>='} 0, got {value!r}")
    return value


def _check_fit_counts(cv_folds, p1_prime, d_cap, budget):
    """ConfigError naming the first integer fit option out of range:
    cv_folds >= 2, p1_prime >= 1, d_cap >= 2, and budget None or >= 1."""
    for name, value, least in (("cv_folds", cv_folds, 2),
                               ("p1_prime", p1_prime, 1),
                               ("d_cap", d_cap, 2), ("budget", budget, 1)):
        if value is None and name == "budget":
            continue
        if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                or value < least):
            raise ConfigError(f"{name} must be an integer >= {least}, "
                              f"got {value!r}")


def _check_penalty(name, value, keywords=()):
    """A penalty option: one of the keyword strings, or a finite number
    >= 0, given as a number or as its text (the form the command line
    gives), returned as a float. Anything else raises ConfigError naming
    name."""
    if isinstance(value, str):
        if value in keywords:
            return value
        try:
            value = float(value)
        except ValueError:
            either = "".join(f"{k!r} or " for k in keywords)
            raise ConfigError(f"{name} must be {either}a number, "
                              f"got {value!r}") from None
    return float(_check_nonnegative(name, value))


def _check_seed(name, seed):
    """ConfigError naming name for a negative integer seed, which numpy's
    generators reject with a bare ValueError."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, "
                          f"got {seed}")


class Dataset:
    """One domain's observations.

    x : (n, p1) matched covariates, observed in every domain.
    z : (n, p2) mismatched covariates, or None when unobserved.
    y : (n,) response.

    Immutable after construction; arrays are validated and copied.
    """

    __slots__ = ("x", "z", "y")

    def __init__(self, x, y, z=None):
        x = _as_matrix(x, "x")
        y = _as_vector(y, "y")
        if x.shape[1] < 1:
            raise DimensionError("x needs at least one column")
        if x.shape[0] != y.shape[0]:
            raise DimensionError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        _require_finite(x, "x")
        _require_finite(y, "y")
        if z is not None:
            z = _as_matrix(z, "z")
            if z.shape[1] < 1:
                raise DimensionError("z needs at least one column")
            if z.shape[0] != x.shape[0]:
                raise DimensionError(
                    f"z has {z.shape[0]} rows but x has {x.shape[0]}")
            _require_finite(z, "z")
            z = z.copy()
            z.flags.writeable = False
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def p1(self):
        return self.x.shape[1]

    @property
    def p2(self):
        return 0 if self.z is None else self.z.shape[1]

    def without_z(self):
        """Copy of this dataset with the mismatched block dropped."""
        return Dataset(self.x, self.y)


class TLFit:
    """A fitted transfer model: beta_hat = omega_hat + delta_hat.

    omega_hat is the proxy-trained reference vector, delta_hat the fitted
    contrast, lam the l1 penalty level, method one of METHOD_TAGS.
    """

    __slots__ = ("omega_hat", "delta_hat", "beta_hat", "lam", "method")

    def __init__(self, omega_hat, delta_hat, lam, method, beta_hat=None):
        omega_hat = _as_vector(omega_hat, "omega_hat")
        delta_hat = _as_vector(delta_hat, "delta_hat")
        if omega_hat.shape != delta_hat.shape:
            raise DimensionError("omega_hat and delta_hat lengths differ")
        if beta_hat is None:
            beta_hat = omega_hat + delta_hat
        else:
            beta_hat = _as_vector(beta_hat, "beta_hat")
            # compare against the recomputed sum bitwise: subtracting the
            # parts back out rounds differently and rejects valid sums
            if not np.array_equal(beta_hat, omega_hat + delta_hat):
                raise InvalidValueError(
                    "beta_hat must equal omega_hat + delta_hat exactly")
        if not (lam >= 0):
            raise ConfigError(f"lam must be >= 0, got {lam}")
        if method not in METHOD_TAGS:
            raise ConfigError(f"unknown method tag {method!r}")
        for name, v in (("omega_hat", omega_hat), ("delta_hat", delta_hat),
                        ("beta_hat", beta_hat)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "method", method)

    def __setattr__(self, name, value):
        raise AttributeError("TLFit is immutable")

    @property
    def p(self):
        return self.beta_hat.shape[0]


class TruthRecord:
    """Simulation ground truth for one replication.

    Holds the true coefficient vector, the per-proxy contrasts with their
    exact nonzero counts, the true target feature map (None when the
    generating map is not linear), and the withheld target/test mismatched
    features.
    """

    __slots__ = ("beta_star", "delta_star_per_proxy", "sparsity_s_delta",
                 "true_map_target", "z_target", "z_test")

    def __init__(self, beta_star, delta_star_per_proxy, true_map_target,
                 z_target=None, z_test=None):
        beta_star = _as_vector(beta_star, "beta_star")
        deltas = [_as_vector(d, "delta_star") for d in delta_star_per_proxy]
        sparsity = [int(np.count_nonzero(d)) for d in deltas]
        object.__setattr__(self, "beta_star", beta_star)
        object.__setattr__(self, "delta_star_per_proxy", deltas)
        object.__setattr__(self, "sparsity_s_delta", sparsity)
        object.__setattr__(self, "true_map_target", true_map_target)
        object.__setattr__(self, "z_target", z_target)
        object.__setattr__(self, "z_test", z_test)

    def __setattr__(self, name, value):
        raise AttributeError("TruthRecord is immutable")


def _metric_pair(y, yhat):
    y = _as_vector(y, "y")
    yhat = _as_vector(yhat, "yhat")
    if y.shape != yhat.shape:
        raise DimensionError(
            f"length mismatch: y has {y.shape[0]}, yhat has {yhat.shape[0]}")
    if y.shape[0] < 1:
        raise DimensionError("need at least one observation")
    _require_finite(y, "y")
    _require_finite(yhat, "yhat")
    return y, yhat


def mean_absolute_prediction_error(y, yhat):
    """Mean absolute prediction error, (1/n) sum |y_i - yhat_i|."""
    y, yhat = _metric_pair(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def l1_estimation_error(beta_hat, beta_star):
    """l1 distance between an estimate and the truth, sum |b_j - b*_j|."""
    beta_hat = _as_vector(beta_hat, "beta_hat")
    beta_star = _as_vector(beta_star, "beta_star")
    if beta_hat.shape != beta_star.shape:
        raise DimensionError(
            f"length mismatch: {beta_hat.shape[0]} vs {beta_star.shape[0]}")
    return float(np.sum(np.abs(beta_hat - beta_star)))


def rmse(y, yhat):
    """Root mean squared prediction error."""
    y, yhat = _metric_pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def fit_centering(X):
    """Column means of a training design, for the optional centering step."""
    return _as_matrix(X, "X").mean(axis=0)


def apply_centering(X, means):
    """Subtract previously fitted column means from new rows."""
    X = _as_matrix(X, "X")
    means = _as_vector(means, "means")
    if X.shape[1] != means.shape[0]:
        raise DimensionError(
            f"X has {X.shape[1]} columns but means has {means.shape[0]}")
    return X - means


def _dataset_header(p1, p2):
    cols = [f"x{j}" for j in range(1, p1 + 1)]
    cols += [f"z{j}" for j in range(1, p2 + 1)]
    cols.append("y")
    return cols


def _utf8_error(path, exc):
    """The text of the error for a file that is not UTF-8, naming it and
    the first byte that does not decode."""
    return (f"{path}: not UTF-8 (byte 0x{exc.object[exc.start]:02x}: "
            f"{exc.reason})")


def _read_numeric_csv(path, parse_header):
    """Parse a header-led numeric CSV into (layout, (n, columns) array).

    parse_header(header) checks the stripped header and returns its
    layout, raising DataError for a header it rejects. Header errors come
    before row errors; every message names the file, and row errors name
    the row and column. A UTF-8 byte-order mark before the header, as
    spreadsheet programs write one, is dropped.

    The rows are read by numpy's C reader. A file it rejects, or would
    read otherwise than csv.reader and float do, is read again by the
    exact per-cell loop, which gives the same values for every file both
    accept and the message that names the first bad row or cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            layout = parse_header(header)
            data = _c_rows(fh, len(header))
        if data is None:
            data = _exact_rows(path, header)
    except UnicodeDecodeError as exc:
        raise DataError(_utf8_error(path, exc)) from None
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise DataError(
            f"{path}: row {bad[0] + 2}, column {header[bad[1]]}: "
            "non-finite value")
    return layout, data


def _c_rows(fh, width):
    """The rest of fh as an (n, width) float array by np.loadtxt, or None
    where the exact loop must decide: no rows, an empty line (which
    loadtxt skips and csv.reader reads as a row of 0 fields), a row of
    another width, or a cell loadtxt cannot parse (a quoted field, 1_0,
    full-width digits, text). Lines are streamed to loadtxt, so the body
    is never held as one string."""
    lines = 0
    blank = False

    def body():
        nonlocal lines, blank
        for line in fh:
            if line in ("\n", "\r\n", "\r"):
                blank = True
                return
            lines += 1
            yield line

    rows = body()
    # an empty body makes loadtxt warn; leave it to the exact loop
    first = next(rows, None)
    if first is None:
        return None
    try:
        data = np.loadtxt(itertools.chain((first,), rows), dtype=float,
                          delimiter=",", comments=None, quotechar=None,
                          ndmin=2)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
    if blank or data.shape != (lines, width):
        return None
    return data


def _exact_rows(path, header):
    """The rows after the header as an (n, columns) array, read by
    csv.reader and each cell by float; DataError names the first row of
    another width or cell that does not parse, and a file with no rows."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {i} has {len(row)} fields, expected "
                    f"{len(header)}")
            vals = []
            for j, field in enumerate(row):
                try:
                    vals.append(float(field))
                except ValueError:
                    raise DataError(
                        f"{path}: row {i}, column {header[j]}: "
                        f"cannot parse {field!r} as a number") from None
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def read_dataset_csv(path):
    """Read a Dataset from CSV with columns x1..xP1[, z1..zP2], y.

    UTF-8, '.' decimal separator, header required. Parse failures raise
    DataError naming the file, row, and column.
    """
    def parse_header(header):
        p1 = 0
        while p1 < len(header) and header[p1] == f"x{p1 + 1}":
            p1 += 1
        k = p1
        p2 = 0
        while k < len(header) and header[k] == f"z{p2 + 1}":
            k += 1
            p2 += 1
        if p1 < 1 or k >= len(header) or header[k] != "y" or k + 1 != len(header):
            raise DataError(
                f"{path}: header must be x1..xP1[, z1..zP2], y; got {header}")
        return p1, p2

    (p1, p2), data = _read_numeric_csv(path, parse_header)
    x = data[:, :p1]
    z = data[:, p1:p1 + p2] if p2 else None
    y = data[:, -1]
    return Dataset(x, y, z)


def write_dataset_csv(path, dataset):
    """Write a Dataset in the same CSV layout read_dataset_csv expects."""
    header = _dataset_header(dataset.p1, dataset.p2)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.x[i]]
            if dataset.z is not None:
                row += [repr(float(v)) for v in dataset.z[i]]
            row.append(repr(float(dataset.y[i])))
            writer.writerow(row)


def read_x_csv(path):
    """Read a covariates-only CSV with columns x1..xP1 into an (n, p1) array."""
    def parse_header(header):
        expected = [f"x{j}" for j in range(1, len(header) + 1)]
        if not header or header != expected:
            raise DataError(
                f"{path}: header must be x1..xP1 only; got {header}")

    return _read_numeric_csv(path, parse_header)[1]


def write_atomic(path, text):
    """Write text to path through a temp file in the same directory and a
    rename, so readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

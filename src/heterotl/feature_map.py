"""Estimate the matched-to-mismatched feature map on proxy data.

Both variants are one representation: a feature matrix F(X) times one
coefficient matrix C, Z ~ F(X) C. The linear variant takes F(X) = X and
fits C = P by least squares, ||Z - XP||_F^2 (optionally with a ridge
shift tau on the Gram, solving (X'X + tau I) P = X'Z). The sieve variant
takes the cosine tensor basis of X / x_scale and fits C = Theta, all Z
columns in one l1-penalized proximal-gradient (FISTA) solve on the M x M
gram of the expansion; a penalized column stops at a duality gap of
1e-10 of its objective at zero (the column's mean square), and
settings.tol only bounds the gradient of unpenalized ones. fit_sieve_map
fits every sieve map on sums over row blocks of the expansion, never
all of it. Without an explicit budget, each proxy's truncation M is
picked by a hold-out ladder (101, 201, 401, ... up to the default cap)
that stops at the first rung whose held-out mean squared error does not
fall. The bases are nested, so each rung is a leading block of the
cap's basis, and one set of sums serves the whole ladder: each rung
borders the last rung's sums over the training rows with its new
columns, and the map is then fit on the picked rung's sums plus those
of the held-out rows. gamma="cv" sums each fold's rows on their own,
and a fold's training gram is the all-rows sums less the fold's. Maps
are averaged entrywise and compared by the spectral norm of their
coefficient difference, after zero-padding sieve matrices of different
truncation in the shared deterministic index ordering. Imputation
applies F(X) C to new matched covariates, a sieve map in the same row
blocks.
"""

import warnings

import numpy as np

from .core import (ConfigError, ConvergenceError, DimensionError,
                   IncompatibleError, InvalidValueError, SupportError,
                   _require_finite)
from .penalized_reg import (LassoSettings, _block_sums, _cv_pick, _folds,
                            _Gram, _nested_lstsq, _prox_grad_columns,
                            _row_blocks, _widened, default_grid)
from .sieve_basis import BasisIndexSet, _check_input, expand

# the name each variant gives its coefficient matrix
_COEF_NAME = {"linear": "P", "sieve": "Theta"}


class FeatureMapModel:
    """A fitted map from matched to mismatched features, F(X) @ coef.

    kind "linear" stores P = coef of shape (p1, p2), applied to X itself;
    kind "sieve" stores a BasisIndexSet, Theta = coef of shape (M, p2),
    and an optional per-coordinate input scale applied before basis
    expansion. P and Theta read the coefficient matrix under the name of
    its kind and are None for the other kind. fitted_on counts the
    proxies averaged into the model.
    """

    __slots__ = ("kind", "coef", "basis", "x_scale", "fitted_on",
                 "ridge_tau", "rank_warning")

    def __init__(self, kind, P=None, basis=None, Theta=None, x_scale=None,
                 fitted_on=1, ridge_tau=0.0, rank_warning=False):
        if kind not in _COEF_NAME:
            raise ConfigError(f"unknown map kind {kind!r}")
        name = _COEF_NAME[kind]
        coef = np.asarray(P if kind == "linear" else Theta, dtype=float)
        if coef.ndim != 2:
            raise DimensionError(
                f"{name} must be a 2-d matrix, got shape {coef.shape}")
        _require_finite(coef, name)
        if kind == "linear":
            basis = x_scale = None
        elif not isinstance(basis, BasisIndexSet):
            raise IncompatibleError("sieve map needs a BasisIndexSet")
        elif coef.shape[0] != len(basis):
            raise DimensionError(
                f"Theta must have {len(basis)} rows, got {coef.shape}")
        elif x_scale is not None:
            x_scale = _check_x_scale(x_scale, basis.p1)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "x_scale", x_scale)
        object.__setattr__(self, "fitted_on", int(fitted_on))
        object.__setattr__(self, "ridge_tau", float(ridge_tau))
        object.__setattr__(self, "rank_warning", bool(rank_warning))

    def __setattr__(self, name, value):
        raise AttributeError("FeatureMapModel is immutable")

    @property
    def P(self):
        return self.coef if self.kind == "linear" else None

    @property
    def Theta(self):
        return self.coef if self.kind == "sieve" else None

    @property
    def p1(self):
        return self.coef.shape[0] if self.basis is None else self.basis.p1

    @property
    def p2(self):
        return self.coef.shape[1]

    def to_dict(self):
        d = {"variant": self.kind, "p1": self.p1, "p2": self.p2,
             "fitted_on": self.fitted_on, "ridge_tau": self.ridge_tau,
             "rank_warning": self.rank_warning}
        if self.kind == "linear":
            d["P"] = self.coef.tolist()
        else:
            d["basis"] = self.basis.to_dict()
            d["Theta"] = self.coef.tolist()
            d["x_scale"] = None if self.x_scale is None \
                else self.x_scale.tolist()
        return d

    @classmethod
    def from_dict(cls, d):
        if d["variant"] == "linear":
            return cls("linear", P=d["P"], fitted_on=d["fitted_on"],
                       ridge_tau=d["ridge_tau"],
                       rank_warning=d.get("rank_warning", False))
        return cls("sieve", basis=BasisIndexSet.from_dict(d["basis"]),
                   Theta=d["Theta"], x_scale=d.get("x_scale"),
                   fitted_on=d["fitted_on"], ridge_tau=d["ridge_tau"],
                   rank_warning=d.get("rank_warning", False))


def fit_linear_map(proxy, tau=0.0):
    """Least-squares fit of Z on X.

    With tau = 0, P = R11^-1 R12 from the Householder factor of the
    proxy's [X | Z | y], which its reference coefficients share (see
    penalized_reg._nested_lstsq). A design that factor cannot vouch for
    is fit by lstsq, and a rank-deficient one gets the minimum-norm
    solution, a UserWarning and rank_warning=True. tau > 0 adds a ridge
    shift to the Gram instead.
    """
    if proxy.z is None:
        raise IncompatibleError("proxy dataset has no mismatched block z")
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")
    X, Z = proxy.x, proxy.z
    if tau > 0:
        G = X.T @ X + tau * np.eye(X.shape[1])
        P = np.linalg.solve(G, X.T @ Z)
        return FeatureMapModel("linear", P=P, ridge_tau=tau)
    fits = _nested_lstsq(proxy)
    deficient = fits.rank_x < X.shape[1]
    if deficient:
        warnings.warn(
            f"proxy design has rank {fits.rank_x} < {X.shape[1]}; "
            "minimum-norm map fitted", UserWarning, stacklevel=2)
    return FeatureMapModel("linear", P=fits.P.copy(), rank_warning=deficient)


def fit_sieve_map(proxy, basis, gamma="auto", settings=None, c_gamma=1.0,
                  x_scale=None, cv_folds=5, cv_seed=0, ladder=False):
    """Penalized basis-expansion fit of each Z column on the expanded X.

    gamma may be a nonnegative number, "auto" for
    c_gamma * sqrt(log M / n), or "cv" for per-column cross-validation
    over cv_folds folds drawn with cv_seed. x_scale, p1 positive entries,
    rescales X coordinatewise before expansion (entries of X / x_scale
    must lie within the basis support); both are checked before any fit.
    With ladder=True, basis is the cap of the hold-out ladder, which
    picks its leading block: each rung of _ladder(len(basis)) is fit on
    the rows outside fold 0 at gamma ("auto" for "cv") and scored by its
    mean squared error on fold 0, until a rung does not improve on the
    last, which is taken.

    All columns run in one FISTA solve on the M x M gram of the expansion
    (8 M^2 bytes), read off unnormalized sums that _block_sums adds up a
    block of 512 rows at a time, so no n x M expansion is held. The
    ladder grows one set of training sums, each rung bordering the last
    rung's with its new columns, and the picked rung's plus the held-out
    rows' sums are the all-rows sums; without it those run over every row
    in order. gamma="cv" sums each fold's rows: fold f's training gram is
    the all-rows sums less fold f's (after the ladder, fold 0's are the
    ladder's), each column's grid, from the all-rows null threshold down,
    runs as the columns of one solve on its column of that gram, and
    _cv_pick picks. A column with gamma > 0 stops at a duality gap of
    1e-10 of its objective at zero, ||z_j||^2 / n; one with gamma = 0
    (least squares) once its gradient is within settings.tol in every
    coordinate, the only use of tol here. A column open after
    settings.max_iters iterations raises ConvergenceError.
    """
    if proxy.z is None:
        raise IncompatibleError("proxy dataset has no mismatched block z")
    # checked whole, so that an error names its row in X, not in a block
    X = _check_input(proxy.x if x_scale is None
                     else proxy.x / _check_x_scale(x_scale, basis.p1), basis)
    Z, settings = proxy.z, settings or LassoSettings()
    rungs = _ladder(len(basis)) if ladder else [len(basis)]
    folds = _folds(proxy.n, cv_folds, cv_seed) \
        if gamma == "cv" or len(rungs) > 1 else None
    train = None
    if len(rungs) > 1:
        basis, A, b = _ladder_sums(X, Z, basis, rungs, folds[0], gamma,
                                   c_gamma, settings)
        if gamma == "cv":
            train = A.copy(), b.copy()
        # the held-out rows' sums complete the all-rows sums
        _block_sums(_expansion_blocks(X[folds[0]], basis), Z[folds[0]], A, b)
    else:
        A, b, _ = _block_sums(_expansion_blocks(X, basis), Z)
    if gamma == "cv":
        gammas = _cv_gammas(X, Z, basis, A, b, folds, train, settings)
    else:
        gammas = _gammas(gamma, c_gamma, len(basis), proxy.n, Z.shape[1])
    Theta = _fit(_Gram.from_sums(A, b, Z, in_place=True), gammas, settings)
    return FeatureMapModel("sieve", basis=basis, Theta=Theta,
                           x_scale=x_scale)


def _check_x_scale(x_scale, p1):
    """x_scale as a float vector, once it has p1 finite positive entries."""
    x_scale = np.asarray(x_scale, dtype=float)
    if x_scale.shape != (p1,):
        raise DimensionError(f"x_scale must have length {p1}")
    _require_finite(x_scale, "x_scale")
    if np.any(x_scale <= 0):
        raise InvalidValueError("x_scale must be positive")
    return x_scale


def _expansion_blocks(X, basis):
    """The expansion of X in row blocks, each made when it is asked for."""
    return (expand(X[rows], basis) for rows in _row_blocks(X.shape[0]))


def _gammas(gamma, c_gamma, M, n, p2):
    """The penalty of each of p2 z columns for a number or "auto"."""
    if gamma == "auto":
        gamma = c_gamma * np.sqrt(np.log(M) / n) if M > 1 else 0.0
    elif not (gamma >= 0):
        raise ConfigError(f"gamma must be >= 0, got {gamma}")
    return np.full(p2, float(gamma))


def _fit(G, gammas, settings):
    """The sieve coefficients fit on the gram G, column j at gammas[j]."""
    # the z columns share the design, so one matrix solve fits them all
    Theta, iters, converged = _prox_grad_columns(G, gammas, settings)
    if not converged.all():
        j = int(np.flatnonzero(~converged)[0])
        raise ConvergenceError(
            f"sieve fit did not converge for z column {j + 1} "
            f"after {iters} iterations")
    return Theta


_FIRST_RUNG = 101  # the smallest truncation the hold-out ladder scores


def _ladder(cap):
    """The truncations the hold-out ladder scores: 101, 201, 401, ...
    below cap, then cap (cap alone when it is at most 101)."""
    rungs, M = [], _FIRST_RUNG
    while M < cap:
        rungs.append(M)
        M = 2 * M - 1
    return rungs + [cap]


def _leading(basis, M):
    """The first M indices of basis, which is what unravel gives for M:
    the ordering is nested."""
    return BasisIndexSet._of_ints(basis.p1, basis.p1_prime, basis.a,
                                  basis.multi_indices[:M], basis.d_cap,
                                  basis.orders[:M])


def _rung_error(G, X_held, Z_held, basis, gammas, settings):
    """Held-out mean squared error, over every z column, of the sieve map
    at basis fit on the training gram G."""
    Theta = _fit(G, gammas, settings)
    return float(np.mean((_predicted(X_held, basis, Theta) - Z_held) ** 2))


def _ladder_sums(X, Z, basis, rungs, held, gamma, c_gamma, settings):
    """The leading block of basis that the hold-out ladder over rungs
    picks with the rows held out, and its sums (A, b) over the other rows,
    copied out of the last rung's (see fit_sieve_map)."""
    X_train, Z_train = np.delete(X, held, 0), np.delete(Z, held, 0)
    X_held, Z_held = X[held], Z[held]
    score = "auto" if gamma == "cv" else gamma
    A, b = np.zeros((0, 0)), np.zeros((0, Z.shape[1]))
    best = best_err = None
    for M in rungs:
        rung = _leading(basis, M)
        start = len(A)
        A, b = _widened(A, b, M)
        _block_sums(_expansion_blocks(X_train, rung), Z_train, A, b, start)
        gammas = _gammas(score, c_gamma, M, len(Z_train), Z.shape[1])
        err = _rung_error(_Gram.from_sums(A, b, Z_train), X_held, Z_held,
                          rung, gammas, settings)
        if best is not None and not err < best_err:
            break
        best, best_err = rung, err
    m = len(best)
    return best, A[:m, :m].copy(), b[:m].copy()


def _cv_gammas(X, Z, basis, A, b, folds, train, settings):
    """Each z column's penalty by cross-validation over folds (see
    fit_sieve_map), given the all-rows sums A and b and fold 0's
    training sums train, or None."""
    n = len(X)
    grids = [default_grid(2.0 / n * np.max(np.abs(b_j))) for b_j in b.T]
    errs = [np.zeros((grid.size, len(folds))) for grid in grids]
    for f, held in enumerate(folds):
        if f == 0 and train is not None:
            A_train, b_train = train
        else:
            # the training sums overwrite the fold's own
            A_train, b_train, _ = _block_sums(
                _expansion_blocks(X[held], basis), Z[held])
            np.subtract(A, A_train, out=A_train)
            np.subtract(b, b_train, out=b_train)
        G = _Gram.from_sums(A_train, b_train, np.delete(Z, held, 0),
                            in_place=True)
        X_held, Z_held = X[held], Z[held]
        for j, grid in enumerate(grids):
            Delta, _, _ = _prox_grad_columns(G.column(j), grid, settings)
            preds = _predicted(X_held, basis, Delta)
            errs[j][:, f] = np.mean(np.abs(preds - Z_held[:, j, None]),
                                    axis=0)
    return np.array([_cv_pick(grid, err)[0]
                     for grid, err in zip(grids, errs)])


_FRAME_PARTS = ("variant", "input dimension", "output dimension",
                "basis parameters", "input scale")


def _frame(m):
    # what two maps must share for their coefficient rows to line up
    b = m.basis
    return (m.kind, m.p1, m.p2,
            None if b is None else (b.p1_prime, b.a, b.d_cap),
            None if m.x_scale is None else tuple(m.x_scale))


def _padded_coefs(maps):
    """Coefficient matrices of maps in one frame, zero-padded to the
    largest truncation (a shorter sieve truncation is a prefix of a longer
    one), and the map that has it."""
    for part, values in zip(_FRAME_PARTS, zip(*map(_frame, maps))):
        if len(set(values)) > 1:
            raise IncompatibleError(f"maps differ in {part}")
    widest = max(maps, key=lambda m: m.coef.shape[0])
    M = widest.coef.shape[0]
    return widest, [np.pad(m.coef, ((0, M - len(m.coef)), (0, 0)))
                    for m in maps]


def average_maps(maps):
    """Entrywise mean of maps in one frame.

    The maps must share variant and dimensions, and sieve maps also
    (p1_prime, a, d_cap) and input scale; sieve coefficient matrices are
    zero-padded to the largest truncation before averaging.
    """
    maps = list(maps)
    if not maps:
        raise IncompatibleError("need at least one map")
    widest, coefs = _padded_coefs(maps)
    tau = maps[0].ridge_tau if len({m.ridge_tau for m in maps}) == 1 \
        else 0.0
    return FeatureMapModel(
        widest.kind, basis=widest.basis, x_scale=widest.x_scale,
        fitted_on=sum(m.fitted_on for m in maps), ridge_tau=tau,
        rank_warning=any(m.rank_warning for m in maps),
        **{_COEF_NAME[widest.kind]: np.mean(coefs, axis=0)})


def impute(map_model, X, clamp_tol=0.0):
    """Predicted mismatched features for new matched covariates.

    A non-finite entry of X raises InvalidValueError. Sieve maps rescale X
    by the stored x_scale first; entries beyond the support are clamped to
    the boundary when the relative overshoot is at most clamp_tol (with a
    warning), otherwise a SupportError is raised.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != map_model.p1:
        raise DimensionError(
            f"X must be (n, {map_model.p1}), got shape {X.shape}")
    _require_finite(X, "X")
    if map_model.basis is None:
        return X @ map_model.coef
    X = _within_support(map_model, X, clamp_tol)
    return _predicted(X, map_model.basis, map_model.coef)


def _predicted(X, basis, coef):
    """expand(X, basis) @ coef, expanded and multiplied in row blocks:
    no n x M expansion is held."""
    out = np.empty((X.shape[0], coef.shape[1]))
    for rows in _row_blocks(X.shape[0]):
        out[rows] = expand(X[rows], basis) @ coef
    return out


def _within_support(map_model, X, clamp_tol):
    # rescale by x_scale, then clamp or reject entries beyond the support
    if map_model.x_scale is not None:
        X = X / map_model.x_scale
    a = map_model.basis.a
    over = np.abs(X) > a
    if not np.any(over):
        return X
    beyond = np.abs(X) > a * (1.0 + clamp_tol)
    if np.any(beyond):
        i, k = np.argwhere(beyond)[0]
        raise SupportError(
            f"entry ({i}, {k}) overshoots the support [-{a}, {a}] by "
            f"more than {clamp_tol:.1%}")
    warnings.warn(
        f"{int(over.sum())} entr(ies) clamped to the support boundary",
        UserWarning, stacklevel=3)
    return np.clip(X, -a, a)


def map_discrepancy(map_a, map_b):
    """Largest singular value of the coefficient difference.

    Sieve pairs with different truncation are zero-padded like
    average_maps.
    """
    _, (a, b) = _padded_coefs([map_a, map_b])
    return float(np.linalg.norm(a - b, 2))

"""Estimate the matched-to-mismatched feature map on proxy data.

Both variants are one representation: a feature matrix F(X) times one
coefficient matrix C, Z ~ F(X) C. The linear variant takes F(X) = X and
fits C = P by least squares, ||Z - XP||_F^2 (optionally with a ridge
shift tau on the Gram, solving (X'X + tau I) P = X'Z). The sieve variant
takes the cosine tensor basis of X / x_scale and fits C = Theta, all Z
columns in one l1-penalized proximal-gradient (FISTA) solve on the M x M
gram of the expansion, accumulated from row blocks of the expansion
without ever holding all of it; a penalized column stops at a duality
gap of 1e-10 of its objective at zero (the column's mean square), and
settings.tol only bounds the gradient of unpenalized ones. Maps are
averaged entrywise and compared by the spectral norm of their
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
from .penalized_reg import (LassoSettings, _cv_select, _Gram, _nested_lstsq,
                            _prox_grad_columns, _row_blocks, default_grid,
                            null_threshold)
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
            x_scale = np.asarray(x_scale, dtype=float)
            if x_scale.shape != (basis.p1,):
                raise DimensionError(f"x_scale must have length {basis.p1}")
            if np.any(x_scale <= 0):
                raise InvalidValueError("x_scale must be positive")
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
                  x_scale=None, cv_folds=5, cv_seed=0):
    """Penalized basis-expansion fit of each Z column on the expanded X.

    gamma may be a nonnegative number, "auto" for
    c_gamma * sqrt(log M / n), or "cv" for per-column cross-validation
    over cv_folds folds drawn with cv_seed. x_scale rescales X
    coordinatewise before expansion (entries of X / x_scale must lie
    within the basis support).

    All columns run in one FISTA solve on the M x M gram of the expansion
    (8 M^2 bytes). The gram is accumulated from the expansion of one
    block of 512 rows of X at a time, so the fit holds the gram and one
    block, never the n x M expansion; "cv" alone expands every row, for
    its folds. Each fold builds one gram of its training rows with every
    z column as a response, and solves each column's grid in one solve on
    it. A column with gamma > 0 stops at a duality gap of
    1e-10 of its objective at zero, ||z_j||^2 / n; one with gamma = 0
    (least squares) once its gradient is within settings.tol in every
    coordinate, the only use of tol here. A column open after
    settings.max_iters iterations raises ConvergenceError.
    """
    if proxy.z is None:
        raise IncompatibleError("proxy dataset has no mismatched block z")
    X, Z = proxy.x, proxy.z
    if x_scale is not None:
        x_scale = np.asarray(x_scale, dtype=float)
        X = X / x_scale
    # checked whole, so that an error names its row in X, not in a block
    X = _check_input(X, basis)
    n, M = X.shape[0], len(basis)
    # the gram reads the expansion in row blocks, made as it asks for them
    design = (expand(X[rows], basis) for rows in _row_blocks(n))
    if settings is None:
        settings = LassoSettings()
    if gamma == "auto":
        gam = c_gamma * np.sqrt(np.log(M) / n) if M > 1 else 0.0
        gammas = np.full(Z.shape[1], gam)
    elif gamma == "cv":
        # the folds take rows from the whole expansion, so it is built
        design = Psi = expand(X, basis)
        grids = [default_grid(null_threshold(Psi, z)) for z in Z.T.copy()]
        # one gram per fold serves every z column, and FISTA runs each
        # column's grid as columns of one solve on it: on these wide,
        # well-conditioned designs it picked the trace's gamma about 7x
        # faster at fig5 scale (M = 1261, one z column, one BLAS thread)
        picks = _cv_select(Psi, Z, np.zeros(M), grids, cv_folds, cv_seed,
                           settings, _prox_grad_columns)
        gammas = np.array([lam for lam, _ in picks])
    else:
        if not (gamma >= 0):
            raise ConfigError(f"gamma must be >= 0, got {gamma}")
        gammas = np.full(Z.shape[1], float(gamma))
    # the z columns share the design, so one matrix solve fits them all
    Theta, iters, converged = _prox_grad_columns(_Gram(design, Z), gammas,
                                                 settings)
    if not converged.all():
        j = int(np.flatnonzero(~converged)[0])
        raise ConvergenceError(
            f"sieve fit did not converge for z column {j + 1} "
            f"after {iters} iterations")
    return FeatureMapModel("sieve", basis=basis, Theta=Theta,
                           x_scale=x_scale)


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
    # expand and multiply in row blocks: no n x M expansion is held
    X = _within_support(map_model, X, clamp_tol)
    out = np.empty((X.shape[0], map_model.p2))
    for rows in _row_blocks(X.shape[0]):
        out[rows] = expand(X[rows], map_model.basis) @ map_model.coef
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

"""Estimate the matched-to-mismatched feature map on proxy data.

The linear variant fits P minimizing ||Z - XP||_F^2 (optionally with a
ridge shift tau on the Gram, solving (X'X + tau I) P = X'Z). The sieve
variant expands X in the cosine tensor basis and fits all Z columns in
one l1-penalized proximal-gradient (FISTA) solve; a penalized column stops
at a duality gap of 1e-10 of its objective at zero (the column's mean
square), and settings.tol only bounds the gradient of unpenalized ones.
Maps from several proxies are averaged entrywise; sieve coefficient
matrices of different truncation are first zero-padded in the shared
deterministic index ordering. Imputation applies the fitted map to new
matched covariates.
"""

import warnings

import numpy as np

from .core import (ConfigError, ConvergenceError, DimensionError,
                   IncompatibleError, InvalidValueError, SupportError,
                   _require_finite)
from .penalized_reg import (LassoSettings, _lstsq_minnorm,
                            _prox_grad_columns, _top_eigenvalue,
                            cv_lambda)
from .sieve_basis import BasisIndexSet, expand


class FeatureMapModel:
    """A fitted map from matched to mismatched features.

    kind "linear" stores P of shape (p1, p2); kind "sieve" stores a
    BasisIndexSet, a coefficient matrix Theta of shape (M, p2), and an
    optional per-coordinate input scale applied before basis expansion.
    fitted_on counts the proxies averaged into the model.
    """

    __slots__ = ("kind", "P", "basis", "Theta", "x_scale", "fitted_on",
                 "ridge_tau", "rank_warning")

    def __init__(self, kind, P=None, basis=None, Theta=None, x_scale=None,
                 fitted_on=1, ridge_tau=0.0, rank_warning=False):
        if kind == "linear":
            P = np.asarray(P, dtype=float)
            if P.ndim != 2:
                raise DimensionError("P must be a 2-d matrix")
            if not np.all(np.isfinite(P)):
                raise InvalidValueError("P contains non-finite values")
            basis = Theta = x_scale = None
        elif kind == "sieve":
            if not isinstance(basis, BasisIndexSet):
                raise IncompatibleError("sieve map needs a BasisIndexSet")
            Theta = np.asarray(Theta, dtype=float)
            if Theta.ndim != 2 or Theta.shape[0] != len(basis):
                raise DimensionError(
                    f"Theta must have {len(basis)} rows, got {Theta.shape}")
            if not np.all(np.isfinite(Theta)):
                raise InvalidValueError("Theta contains non-finite values")
            if x_scale is not None:
                x_scale = np.asarray(x_scale, dtype=float)
                if x_scale.shape != (basis.p1,):
                    raise DimensionError(
                        f"x_scale must have length {basis.p1}")
                if np.any(x_scale <= 0):
                    raise InvalidValueError("x_scale must be positive")
            P = None
        else:
            raise ConfigError(f"unknown map kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "Theta", Theta)
        object.__setattr__(self, "x_scale", x_scale)
        object.__setattr__(self, "fitted_on", int(fitted_on))
        object.__setattr__(self, "ridge_tau", float(ridge_tau))
        object.__setattr__(self, "rank_warning", bool(rank_warning))

    def __setattr__(self, name, value):
        raise AttributeError("FeatureMapModel is immutable")

    @property
    def p1(self):
        return self.P.shape[0] if self.kind == "linear" else self.basis.p1

    @property
    def p2(self):
        return (self.P if self.kind == "linear" else self.Theta).shape[1]

    def to_dict(self):
        d = {"variant": self.kind, "p1": self.p1, "p2": self.p2,
             "fitted_on": self.fitted_on, "ridge_tau": self.ridge_tau,
             "rank_warning": self.rank_warning}
        if self.kind == "linear":
            d["P"] = self.P.tolist()
        else:
            d["basis"] = self.basis.to_dict()
            d["Theta"] = self.Theta.tolist()
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
    """Least-squares fit of Z on X, one shared factorization for all columns.

    tau > 0 adds a ridge shift to the Gram. With tau = 0 and a
    rank-deficient design the minimum-norm solution is returned and the
    model carries rank_warning=True.
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
    P, rank = _lstsq_minnorm(X, Z)
    deficient = rank < X.shape[1]
    if deficient:
        warnings.warn(
            f"proxy design has rank {rank} < {X.shape[1]}; "
            "minimum-norm map fitted", UserWarning, stacklevel=2)
    return FeatureMapModel("linear", P=P, rank_warning=deficient)


def fit_sieve_map(proxy, basis, gamma="auto", settings=None, c_gamma=1.0,
                  x_scale=None, cv_folds=5, cv_seed=0):
    """Penalized basis-expansion fit of each Z column on the expanded X.

    gamma may be a nonnegative number, "auto" for
    c_gamma * sqrt(log M / n), or "cv" for per-column five-fold
    cross-validation. x_scale rescales X coordinatewise before expansion
    (entries of X / x_scale must lie within the basis support).

    All columns run in one FISTA solve. A column with gamma > 0 stops at a
    duality gap of 1e-10 of its objective at zero, ||z_j||^2 / n; one with
    gamma = 0 (least squares) once its gradient is within settings.tol in
    every coordinate, the only use of tol here. A column open after
    settings.max_iters iterations raises ConvergenceError.
    """
    if proxy.z is None:
        raise IncompatibleError("proxy dataset has no mismatched block z")
    X, Z = proxy.x, proxy.z
    if x_scale is not None:
        x_scale = np.asarray(x_scale, dtype=float)
        X = X / x_scale
    Psi = expand(X, basis)
    n, M = Psi.shape
    if settings is None:
        settings = LassoSettings()
    if gamma == "auto":
        gam = c_gamma * np.sqrt(np.log(M) / n) if M > 1 else 0.0
        gammas = np.full(Z.shape[1], gam)
    elif gamma == "cv":
        zero_off = np.zeros(M)
        gammas = np.array([cv_lambda(Psi, Z[:, j], zero_off, folds=cv_folds,
                                     seed=cv_seed, settings=settings)[0]
                           for j in range(Z.shape[1])])
    else:
        if not (gamma >= 0):
            raise ConfigError(f"gamma must be >= 0, got {gamma}")
        gammas = np.full(Z.shape[1], float(gamma))
    # the z columns share the design, so one matrix solve fits them all
    Theta, iters, converged = _prox_grad_columns(Psi, Z, gammas, settings)
    if not converged.all():
        j = int(np.flatnonzero(~converged)[0])
        raise ConvergenceError(
            f"sieve fit did not converge for z column {j + 1} "
            f"after {iters} iterations")
    return FeatureMapModel("sieve", basis=basis, Theta=Theta,
                           x_scale=x_scale)


def _same_sieve_frame(a, b):
    if a.basis.p1 != b.basis.p1 or a.basis.p1_prime != b.basis.p1_prime \
            or a.basis.a != b.basis.a or a.basis.d_cap != b.basis.d_cap:
        return False
    sa, sb = a.x_scale, b.x_scale
    if (sa is None) != (sb is None):
        return False
    return sa is None or np.array_equal(sa, sb)


def _pad_theta(m, M):
    if m.Theta.shape[0] == M:
        return m.Theta
    out = np.zeros((M, m.Theta.shape[1]))
    out[:m.Theta.shape[0]] = m.Theta
    return out


def average_maps(maps):
    """Entrywise mean of same-variant maps.

    Sieve maps must share (p1, p1_prime, a) and input scale; their Theta
    matrices are zero-padded to the largest truncation before averaging,
    which is well defined because the index ordering is deterministic.
    """
    maps = list(maps)
    if not maps:
        raise IncompatibleError("need at least one map")
    kind = maps[0].kind
    if any(m.kind != kind for m in maps):
        raise IncompatibleError("cannot average maps of different variants")
    if any(m.p2 != maps[0].p2 for m in maps):
        raise IncompatibleError("maps have different output dimensions")
    fitted = sum(m.fitted_on for m in maps)
    if kind == "linear":
        if any(m.P.shape != maps[0].P.shape for m in maps):
            raise IncompatibleError("linear maps have different shapes")
        P = np.mean([m.P for m in maps], axis=0)
        tau = maps[0].ridge_tau if len({m.ridge_tau for m in maps}) == 1 \
            else 0.0
        return FeatureMapModel("linear", P=P, fitted_on=fitted,
                               ridge_tau=tau,
                               rank_warning=any(m.rank_warning for m in maps))
    if any(not _same_sieve_frame(m, maps[0]) for m in maps):
        raise IncompatibleError(
            "sieve maps have mismatched basis parameters or input scale")
    big = max(maps, key=lambda m: len(m.basis))
    M = len(big.basis)
    Theta = np.mean([_pad_theta(m, M) for m in maps], axis=0)
    return FeatureMapModel("sieve", basis=big.basis, Theta=Theta,
                           x_scale=big.x_scale, fitted_on=fitted)


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
    if map_model.kind == "linear":
        return X @ map_model.P
    if map_model.x_scale is not None:
        X = X / map_model.x_scale
    a = map_model.basis.a
    over = np.abs(X) > a
    if np.any(over):
        worst = np.max(np.abs(X[over]))
        if worst > a * (1.0 + clamp_tol):
            i, k = np.argwhere(np.abs(X) > a * (1.0 + clamp_tol))[0]
            raise SupportError(
                f"entry ({i}, {k}) overshoots the support [-{a}, {a}] by "
                f"more than {clamp_tol:.1%}")
        warnings.warn(
            f"{int(over.sum())} entr(ies) clamped to the support boundary",
            UserWarning, stacklevel=2)
        X = np.clip(X, -a, a)
    return expand(X, map_model.basis) @ map_model.Theta


def map_discrepancy(map_a, map_b, tol=1e-10, max_iters=10000):
    """Largest singular value of the coefficient difference.

    Computed by power iteration on the smaller of Delta'Delta and
    Delta Delta'. Sieve pairs with different truncation are zero-padded
    like average_maps.
    """
    if map_a.kind != map_b.kind:
        raise IncompatibleError("cannot compare maps of different variants")
    if map_a.p2 != map_b.p2:
        raise IncompatibleError("maps have different output dimensions")
    if map_a.kind == "linear":
        if map_a.P.shape != map_b.P.shape:
            raise IncompatibleError("linear maps have different shapes")
        delta = map_a.P - map_b.P
    else:
        if not _same_sieve_frame(map_a, map_b):
            raise IncompatibleError(
                "sieve maps have mismatched basis parameters or input scale")
        M = max(map_a.Theta.shape[0], map_b.Theta.shape[0])
        delta = _pad_theta(map_a, M) - _pad_theta(map_b, M)
    A = delta.T @ delta if delta.shape[0] >= delta.shape[1] \
        else delta @ delta.T
    lam = _top_eigenvalue(A.__matmul__, A.shape[0], max_iters, tol)
    return float(np.sqrt(max(lam, 0.0)))

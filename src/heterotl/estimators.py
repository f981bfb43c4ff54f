"""End-to-end estimators and prediction.

Four procedures share one target objective. The transfer estimator imputes
the mismatched block from proxy-trained feature maps, pre-trains reference
coefficients by averaged proxy least squares, then shrinks the target fit
toward them with an l1 penalty. The homogeneous baseline does the same on
the matched block only. A proxy's linear map, its reference coefficients
and its matched-block ones are read off one Householder factor of its
[X | Z | y], kept on the proxy, so the estimators fit on it share one
factor. The target-only lasso shrinks toward zero. The oracle predictor
applies true coefficients and exists for benchmarking.
The bootstrap refits the transfer estimator's target stage on resampled
target rows, with the proxy side fit once.
"""

import inspect
import json
import warnings

import numpy as np

from .core import (ConfigError, ConvergenceError, Dataset, DimensionError,
                   DataError, IncompatibleError, TLFit, _check_fit_counts,
                   _check_nonnegative, _check_penalty, _check_seed,
                   _require_finite, _utf8_error, apply_centering,
                   fit_centering, write_atomic)
from .feature_map import (FeatureMapModel, average_maps, fit_linear_map,
                          fit_sieve_map, impute)
from .penalized_reg import (LassoSettings, SolveDiagnostics, _nested_lstsq,
                            cv_lambda, lasso_with_offset, warm_start)
from .sieve_basis import default_truncation, unravel


class HtlModel:
    """Fitted transfer model: coefficient fit plus the feature map it used."""

    __slots__ = ("fit", "map", "map_kind", "centering", "clamp_tol",
                 "diagnostics", "settings")

    def __init__(self, fit, map_model, map_kind, centering=None,
                 clamp_tol=0.0, diagnostics=None, settings=None):
        if fit.p != map_model.p1 + map_model.p2:
            raise DimensionError(
                "fit length does not match p1 + p2 of the feature map")
        object.__setattr__(self, "fit", fit)
        object.__setattr__(self, "map", map_model)
        object.__setattr__(self, "map_kind", map_model.kind)
        object.__setattr__(self, "centering",
                           None if centering is None
                           else np.asarray(centering, dtype=float))
        object.__setattr__(self, "clamp_tol", float(clamp_tol))
        object.__setattr__(self, "diagnostics", diagnostics)
        object.__setattr__(self, "settings", settings)
        if map_kind != map_model.kind:
            raise IncompatibleError("map_kind does not match the map")

    def __setattr__(self, name, value):
        raise AttributeError("HtlModel is immutable")

    @property
    def p1(self):
        return self.map.p1

    @property
    def p2(self):
        return self.map.p2


def _check_proxies(proxies):
    proxies = list(proxies)
    if not proxies:
        raise IncompatibleError("need at least one proxy dataset")
    p1, p2 = proxies[0].p1, proxies[0].p2
    for k, pr in enumerate(proxies):
        if pr.z is None:
            raise IncompatibleError(f"proxy {k + 1} has no mismatched block")
        if pr.p1 != p1 or pr.p2 != p2:
            raise IncompatibleError(
                f"proxy {k + 1} dimensions ({pr.p1}, {pr.p2}) do not match "
                f"proxy 1 ({p1}, {p2})")
    return proxies


def _mean_minnorm_coefficients(proxies, x_only):
    """Mean over proxies of the coefficients of y on [X | Z], or on X
    alone, read off each proxy's shared fits (_nested_lstsq)."""
    coefs = []
    for k, pr in enumerate(proxies):
        fits = _nested_lstsq(pr)
        if x_only:
            w, rank, cols = fits.omega_x, fits.rank_x, pr.p1
        else:
            w, rank, cols = fits.omega, fits.rank, pr.p1 + pr.p2
        if rank < cols:
            warnings.warn(
                f"proxy {k + 1} design has rank {rank} < {cols}; "
                "minimum-norm coefficients fitted", UserWarning, stacklevel=3)
        coefs.append(w)
    return np.mean(coefs, axis=0)


def fit_proxy_coefficients(proxies):
    """Mean of per-proxy least-squares coefficients on the design [X | Z].

    Each proxy's coefficients come from the one Householder factor of its
    [X | Z | y] that its linear map and X-only coefficients share. A
    design that factor cannot vouch for is fit by lstsq, and a
    rank-deficient one gets its minimum-norm solution and a UserWarning
    that names its rank.
    """
    return _mean_minnorm_coefficients(_check_proxies(proxies), False)


def _proxy_x_coefficients(proxies):
    return _mean_minnorm_coefficients(_check_proxies(proxies), True)


def _fit_maps(proxies, map_kind, ridge_tau, gamma, c_gamma, p1_prime,
              budget, d_cap, settings, cv_folds, cv_seed):
    if map_kind == "linear":
        return average_maps([fit_linear_map(pr, tau=ridge_tau)
                             for pr in proxies])
    if map_kind != "sieve":
        raise ConfigError(f"unknown map kind {map_kind!r}")
    p1 = proxies[0].p1
    absmax = np.max([np.max(np.abs(pr.x), axis=0) for pr in proxies], axis=0)
    x_scale = np.maximum(1.001 * absmax, 1e-12)
    n_min = min(pr.n for pr in proxies)
    M = default_truncation(p1, n_min, budget, p1_prime, d_cap)
    basis = unravel(p1, p1_prime, M, a=1.0, d_cap=d_cap)
    # a budget pins M; without one, each proxy's held-out rows pick it,
    # with the default truncation as the cap
    return average_maps([
        fit_sieve_map(pr, basis, gamma, settings, c_gamma=c_gamma,
                      x_scale=x_scale, cv_folds=cv_folds, cv_seed=cv_seed,
                      ladder=budget is None) for pr in proxies])


def _shrink_toward(D, y, omega_hat, lam, settings, cv_folds, cv_seed):
    """The target solve shared by every estimator: lam by cross-validation
    when lam == "cv", then a warm-started lasso of y on D shrunk toward
    omega_hat. lam may also be the text of a number. Returns (lam,
    delta_hat, SolveDiagnostics); a final solve that does not certify
    within settings.max_iters raises ConvergenceError.
    """
    lam = _check_penalty("lam", lam, ("cv",))
    _check_seed("cv_seed", cv_seed)
    if lam == "cv":
        lam, _ = cv_lambda(D, y, omega_hat, folds=cv_folds, seed=cv_seed,
                           settings=settings)
    d0 = warm_start(D, y - D @ omega_hat, lam, settings)
    _, delta, diag = lasso_with_offset(D, y, omega_hat, lam, settings,
                                       delta0=d0)
    if not diag.converged:
        raise ConvergenceError(
            f"target solve at lambda={lam:.6g} did not converge within "
            f"{settings.max_iters} iterations (KKT violation "
            f"{diag.max_kkt_violation:.3g})")
    return lam, delta, diag


def _target_stage(map_model, omega_hat, target, lam, settings, clamp_tol,
                  center, cv_folds, cv_seed):
    zhat = impute(map_model, target.x, clamp_tol=clamp_tol)
    D = np.hstack([target.x, zhat])
    centering = None
    if center:
        centering = fit_centering(D)
        D = apply_centering(D, centering)
    lam, delta, diag = _shrink_toward(D, target.y, omega_hat, lam, settings,
                                      cv_folds, cv_seed)
    fit = TLFit(omega_hat, delta, lam, "htl")
    return HtlModel(fit, map_model, map_model.kind, centering=centering,
                    clamp_tol=clamp_tol, diagnostics=diag, settings=settings)


def fit_htl(proxies, target, map_kind="linear", lam="cv", settings=None,
            ridge_tau=0.0, gamma="auto", c_gamma=1.0, p1_prime=1,
            budget=None, d_cap=64, clamp_tol=0.01, center=False,
            cv_folds=5, cv_seed=0):
    """Two-stage transfer fit.

    Stage one fits a feature map on each proxy (linear least squares or
    penalized sieve), averages them, and imputes the target's mismatched
    block, one fit_sieve_map call per proxy. budget pins the sieve's
    number of basis functions M; without it, each proxy picks M on
    held-out rows (fold 0 of the cv_folds folds drawn with cv_seed): the
    truncations 101, 201, 401, ... up to min(p1^3, n_p / 2, admissible
    count) are scored until the held-out error stops falling, and the map
    is refit on all rows at the last rung that improved. The ladder grows
    one gram per proxy: each rung adds only its new columns' products to
    the last rung's sums over the training rows, and the refit adds only
    the held-out rows' sums (a gram equal to one built on all rows up to
    rounding). Stage two averages per-proxy least-squares coefficients
    on [X | Z] into omega_hat, then solves the l1 fit of the target
    response on [X_t | Zhat_t] shrunk toward omega_hat. lam is a number
    or "cv" for cross-validation on the target sample, over
    cv_folds folds drawn with cv_seed; gamma="cv" picks the sieve penalty
    with the same folds and seed, once per proxy at its picked M.
    center=True subtracts target-design column means (reapplied at
    prediction). A final target solve that does not certify raises
    ConvergenceError.

    lam and gamma may be given as the text of a number; a number option
    that is negative or not finite, or an integer option out of its
    range, raises ConfigError naming it.
    """
    lam = _check_penalty("lam", lam, ("cv",))
    gamma = _check_penalty("gamma", gamma, ("auto", "cv"))
    for name, value in (("ridge_tau", ridge_tau), ("c_gamma", c_gamma),
                        ("clamp_tol", clamp_tol)):
        _check_nonnegative(name, value)
    _check_fit_counts(cv_folds, p1_prime, d_cap, budget)
    proxies = _check_proxies(proxies)
    if target.p1 != proxies[0].p1:
        raise IncompatibleError(
            f"target has p1={target.p1} but proxies have p1={proxies[0].p1}")
    if settings is None:
        settings = LassoSettings()
    map_model = _fit_maps(proxies, map_kind, ridge_tau, gamma, c_gamma,
                          p1_prime, budget, d_cap, settings, cv_folds, cv_seed)
    omega_hat = fit_proxy_coefficients(proxies)
    return _target_stage(map_model, omega_hat, target, lam, settings,
                         clamp_tol, center, cv_folds, cv_seed)


def fit_homogeneous(proxies, target, lam="cv", settings=None, cv_folds=5,
                    cv_seed=0):
    """Matched-block transfer baseline.

    Averaged per-proxy least squares on X alone gives the reference
    omega_hat; the target fit on X_t shrinks toward it. The mismatched
    block is ignored entirely.
    """
    proxies = _check_proxies(proxies)
    if target.p1 != proxies[0].p1:
        raise IncompatibleError(
            f"target has p1={target.p1} but proxies have p1={proxies[0].p1}")
    if settings is None:
        settings = LassoSettings()
    omega1 = _proxy_x_coefficients(proxies)
    lam, delta, _ = _shrink_toward(target.x, target.y, omega1, lam, settings,
                                   cv_folds, cv_seed)
    return TLFit(omega1, delta, lam, "homogeneous")


def fit_target_lasso(target, lam="cv", settings=None, cv_folds=5, cv_seed=0):
    """Plain lasso on the target sample (offset zero)."""
    if target.n < 2:
        raise ConfigError("target lasso needs at least two observations")
    if settings is None:
        settings = LassoSettings()
    zero = np.zeros(target.p1)
    lam, delta, _ = _shrink_toward(target.x, target.y, zero, lam, settings,
                                   cv_folds, cv_seed)
    return TLFit(zero, delta, lam, "target_lasso")


def bootstrap_refit(proxies, target, B, seed=0, sampler=None,
                    **fit_kwargs):
    """Resample target rows with replacement B times and refit.

    fit_kwargs are fit_htl's keywords, with its defaults. The proxy side
    is fit once: the feature map and the reference coefficients do not
    involve the target sample, so they stay fixed across draws. Each draw
    refits the target stage (including lambda selection under the cv
    policy, with the fold seed held fixed so a forced identity resample
    reproduces the plain fit). sampler(rng, n) may replace the default
    with-replacement row draw. Returns a (B, p) matrix of coefficient
    vectors.
    """
    if B < 1:
        raise ConfigError(f"need B >= 1 bootstrap draws, got {B}")
    _check_seed("seed", seed)
    base = fit_htl(proxies, target, **fit_kwargs)
    bound = inspect.signature(fit_htl).bind(proxies, target, **fit_kwargs)
    bound.apply_defaults()
    opts = bound.arguments
    rng = np.random.default_rng(seed)
    n = target.n
    draws = np.empty((B, base.p1 + base.p2))
    for b in range(B):
        if sampler is None:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.asarray(sampler(rng, n), dtype=int)
        resampled = Dataset(target.x[idx], target.y[idx])
        model = _target_stage(base.map, base.fit.omega_hat, resampled,
                              opts["lam"], base.settings, opts["clamp_tol"],
                              opts["center"], opts["cv_folds"],
                              opts["cv_seed"])
        draws[b] = model.fit.beta_hat
    return draws


def predict(model, X_new):
    """Predictions for new matched covariates.

    An HtlModel imputes the mismatched block first and applies the full
    coefficient vector; a TLFit applies its matched-block coefficients to
    X_new directly. A non-finite entry of X_new raises InvalidValueError.
    """
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2:
        raise DimensionError("X_new must be a 2-d matrix")
    _require_finite(X_new, "X_new")
    if isinstance(model, HtlModel):
        if X_new.shape[1] != model.p1:
            raise DimensionError(
                f"X_new has {X_new.shape[1]} columns, model expects "
                f"{model.p1}")
        zhat = impute(model.map, X_new, clamp_tol=model.clamp_tol)
        D = np.hstack([X_new, zhat])
        if model.centering is not None:
            D = apply_centering(D, model.centering)
        return D @ model.fit.beta_hat
    if isinstance(model, TLFit):
        if model.method == "htl":
            raise IncompatibleError(
                "a bare TLFit with method htl cannot predict; "
                "use the HtlModel carrying its feature map")
        if X_new.shape[1] != model.p:
            raise DimensionError(
                f"X_new has {X_new.shape[1]} columns, fit expects {model.p}")
        return X_new @ model.beta_hat
    raise IncompatibleError(f"cannot predict from {type(model).__name__}")


def oracle_predict(X_new, Z_new, beta_star):
    """Predictions from true coefficients.

    With Z_new absent, applies only the first p1 entries of beta_star to
    X_new (the matched-only benchmarking convention); with Z_new present,
    applies the full coefficient vector to [X_new | Z_new].
    """
    X_new = np.asarray(X_new, dtype=float)
    beta_star = np.asarray(beta_star, dtype=float)
    if X_new.ndim != 2:
        raise DimensionError("X_new must be a 2-d matrix")
    if Z_new is None:
        if X_new.shape[1] > beta_star.shape[0]:
            raise DimensionError(
                "beta_star is shorter than the number of X columns")
        return X_new @ beta_star[:X_new.shape[1]]
    Z_new = np.asarray(Z_new, dtype=float)
    if Z_new.ndim != 2 or Z_new.shape[0] != X_new.shape[0]:
        raise DimensionError("Z_new rows must match X_new")
    if X_new.shape[1] + Z_new.shape[1] != beta_star.shape[0]:
        raise DimensionError(
            "beta_star length must equal total number of columns")
    return X_new @ beta_star[:X_new.shape[1]] \
        + Z_new @ beta_star[X_new.shape[1]:]


def _tlfit_to_dict(fit):
    return {"omega_hat": fit.omega_hat.tolist(),
            "delta_hat": fit.delta_hat.tolist(),
            "beta_hat": fit.beta_hat.tolist(),
            "lambda": fit.lam, "method": fit.method}


def _tlfit_from_dict(d):
    return TLFit(d["omega_hat"], d["delta_hat"], d["lambda"], d["method"],
                 beta_hat=d["beta_hat"])


def model_to_dict(model):
    """JSON-ready dict for an HtlModel or a bare TLFit."""
    if isinstance(model, HtlModel):
        settings = model.settings or LassoSettings()
        return {"model": "htl", "fit": _tlfit_to_dict(model.fit),
                "map": model.map.to_dict(),
                "centering": None if model.centering is None
                else model.centering.tolist(),
                "clamp_tol": model.clamp_tol,
                "settings": {"max_iters": settings.max_iters,
                             "tol": settings.tol},
                "diagnostics": None if model.diagnostics is None
                else model.diagnostics.to_dict()}
    if isinstance(model, TLFit):
        return {"model": "single", "fit": _tlfit_to_dict(model)}
    raise IncompatibleError(f"cannot serialize {type(model).__name__}")


def model_from_dict(d):
    if d["model"] == "single":
        return _tlfit_from_dict(d["fit"])
    if d["model"] != "htl":
        raise IncompatibleError(f"unknown model kind {d['model']!r}")
    # files from before the standardize option was removed still carry
    # it; only max_iters and tol are read
    settings = d.get("settings")
    diagnostics = d.get("diagnostics")
    return HtlModel(_tlfit_from_dict(d["fit"]),
                    FeatureMapModel.from_dict(d["map"]),
                    d["map"]["variant"], centering=d.get("centering"),
                    clamp_tol=d.get("clamp_tol", 0.0),
                    diagnostics=None if diagnostics is None
                    else SolveDiagnostics(**diagnostics),
                    settings=None if settings is None
                    else LassoSettings(max_iters=settings["max_iters"],
                                       tol=settings["tol"]))


def save_model(path, model, manifest=None):
    """Write a model JSON file atomically (temp file then rename)."""
    payload = model_to_dict(model)
    if manifest is not None:
        payload["manifest"] = manifest
    write_atomic(path, json.dumps(payload, indent=2))


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(_utf8_error(path, exc)) from None
    return model_from_dict(json.loads(text))

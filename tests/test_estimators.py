"""End-to-end estimators, prediction, and model serialization."""

import inspect
import warnings

import numpy as np
import pytest

from heterotl import estimators, feature_map, penalized_reg
from heterotl.core import (Dataset, DimensionError, IncompatibleError,
                           InvalidValueError, SupportError, TLFit,
                           mean_absolute_prediction_error)
from heterotl.estimators import (HtlModel, _proxy_x_coefficients,
                                 fit_homogeneous, fit_htl,
                                 fit_proxy_coefficients, fit_target_lasso,
                                 load_model, oracle_predict, predict,
                                 save_model)
from heterotl.feature_map import (FeatureMapModel, average_maps,
                                  fit_linear_map, fit_sieve_map, impute)
from heterotl.penalized_reg import (_RANK_MARGIN, LassoSettings,
                                    _lstsq_minnorm, _nested_lstsq,
                                    lasso_with_offset, null_threshold)
from heterotl.sieve_basis import expand, unravel
from heterotl.simulation import gen_linear_scenario
from oracles import ols, sieve_cv_picks


def _linear_world(seed, K=2, n_p=400, n_t=50, p1=4, p2=3, delta_scale=1.0,
                  model_noise=0.5):
    """Toy linear-map world; map noise is always on so [X | Z] is full rank."""
    rng = np.random.default_rng(seed)
    p = p1 + p2
    beta = np.zeros(p)
    beta[: p // 2] = 1.0
    P = rng.uniform(0.5, 1.5, size=(p1, p2))
    proxies = []
    for _ in range(K):
        X = rng.standard_normal((n_p, p1))
        Z = X @ P + rng.standard_normal((n_p, p2))
        delta = delta_scale * rng.normal(0.0, 0.25, p)
        eps = model_noise * rng.standard_normal(n_p)
        y = X @ (beta[:p1] - delta[:p1]) + Z @ (beta[p1:] - delta[p1:]) + eps
        proxies.append(Dataset(X, y, Z))
    X_t = rng.standard_normal((n_t, p1))
    Z_t = X_t @ P + rng.standard_normal((n_t, p2))
    y_t = X_t @ beta[:p1] + Z_t @ beta[p1:] \
        + model_noise * rng.standard_normal(n_t)
    return proxies, Dataset(X_t, y_t), beta, P


def _assert_least_squares(w, D, Y):
    """w agrees with oracles.ols within 1e-12 of its largest coefficient,
    and solves the normal equations D'(Y - D w) = 0 to rounding."""
    ref = ols(D, Y)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
    scale = np.abs(D).T @ (np.abs(Y) + np.abs(D) @ np.abs(w))
    assert np.all(np.abs(D.T @ (Y - D @ w)) <= 1e-13 * scale)


def _spy(monkeypatch, name):
    """The argument tuples of every np.linalg.<name> call from now on."""
    calls, f = [], getattr(np.linalg, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_proxy_coefficients_single_is_ols():
    proxies, _, _, _ = _linear_world(0, K=1)
    pr = proxies[0]
    D = np.hstack([pr.x, pr.z])
    _assert_least_squares(fit_proxy_coefficients(proxies), D, pr.y)


def test_proxy_coefficients_identical_proxies():
    proxies, _, _, _ = _linear_world(1, K=1)
    single = fit_proxy_coefficients(proxies)
    doubled = fit_proxy_coefficients([proxies[0], proxies[0]])
    assert np.array_equal(single, doubled)


def test_proxy_coefficients_noiseless_recovery():
    proxies, _, beta, _ = _linear_world(2, K=3, delta_scale=0.0,
                                        model_noise=0.0)
    omega = fit_proxy_coefficients(proxies)
    assert np.max(np.abs(omega - beta)) < 1e-8


def test_proxy_coefficients_dimension_guard():
    proxies, _, _, _ = _linear_world(3)
    other, _, _, _ = _linear_world(4, p1=5, p2=3)
    with pytest.raises(IncompatibleError):
        fit_proxy_coefficients([proxies[0], other[0]])
    with pytest.raises(IncompatibleError):
        fit_proxy_coefficients([])
    with pytest.raises(IncompatibleError):
        fit_proxy_coefficients([proxies[0].without_z()])


def test_proxy_coefficients_warn_on_rank_deficient_design():
    proxies, _, _, _ = _linear_world(6, K=2)
    # proxy 2 repeats its first z column: [X | Z] has rank 7 of 8
    pr = proxies[1]
    dup = Dataset(pr.x, pr.y, np.hstack([pr.z, pr.z[:, :1]]))
    full = Dataset(proxies[0].x, proxies[0].y,
                   np.hstack([proxies[0].z, proxies[0].x[:, :1] ** 2]))
    with pytest.warns(UserWarning, match=r"proxy 2 .*rank 7 < 8"):
        omega = fit_proxy_coefficients([full, dup])
    assert np.all(np.isfinite(omega))
    # full-rank designs stay silent, on [X | Z] and on X alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_proxy_coefficients(proxies)
        _proxy_x_coefficients(proxies)
    dup_x = Dataset(np.hstack([pr.x, pr.x[:, :1]]), pr.y, pr.z)
    with pytest.warns(UserWarning, match=r"proxy 1 .*rank 4 < 5"):
        _proxy_x_coefficients([dup_x])


def test_proxy_factor_serves_both_estimators_without_lstsq(monkeypatch):
    proxies, target, _, _ = _linear_world(30)
    factors = _spy(monkeypatch, "qr")
    solves = _spy(monkeypatch, "lstsq")
    fit_htl(proxies, target)
    fit_homogeneous(proxies, target)
    # one factor of [X | Z | y] per proxy, and no least-squares solve
    assert [args[0].shape for args in factors] == [(400, 8), (400, 8)]
    assert solves == []


@pytest.mark.parametrize("p", [3, 20, 120])
def test_proxy_factor_fits_match_ols(p, monkeypatch):
    proxies, _, _, _ = _linear_world(31, K=1, n_p=600, p1=p, p2=p)
    pr = proxies[0]
    with monkeypatch.context() as m:
        solves = _spy(m, "lstsq")
        assert _nested_lstsq(pr)[3:] == (p, 2 * p)
    assert solves == []
    for w, D, Y in ((fit_linear_map(pr).P, pr.x, pr.z),
                    (fit_proxy_coefficients(proxies),
                     np.hstack([pr.x, pr.z]), pr.y),
                    (_proxy_x_coefficients(proxies), pr.x, pr.y)):
        ref = ols(D, Y)
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_short_proxy_falls_back_with_the_same_warnings():
    # fewer rows than columns: each design goes to lstsq as it stands,
    # and each warning names its rank and points at the caller's line
    rng = np.random.default_rng(32)
    short = Dataset(rng.standard_normal((3, 4)), rng.standard_normal(3),
                    rng.standard_normal((3, 3)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno
        model = fit_linear_map(short)
        omega = fit_proxy_coefficients([short])
        omega1 = _proxy_x_coefficients([short])
    assert _nested_lstsq(short)[3:] == (3, 3)
    assert [str(w.message) for w in caught] == [
        "proxy design has rank 3 < 4; minimum-norm map fitted",
        "proxy 1 design has rank 3 < 7; minimum-norm coefficients fitted",
        "proxy 1 design has rank 3 < 4; minimum-norm coefficients fitted"]
    assert [(w.filename, w.lineno) for w in caught] == \
        [(__file__, line + k) for k in (1, 2, 3)]
    assert model.rank_warning
    D = np.hstack([short.x, short.z])
    for w, ref in ((model.P, _lstsq_minnorm(short.x, short.z)[0]),
                   (omega, _lstsq_minnorm(D, short.y)[0]),
                   (omega1, _lstsq_minnorm(short.x, short.y)[0])):
        assert np.array_equal(w, ref)


def test_nearly_dependent_proxy_keeps_lstsq_rank_decision(monkeypatch):
    # [X | Z] with singular values (1, 1, 1, 1, s): lstsq reads full rank
    # for s above its cutoff eps * n, the factor only for s above
    # _RANK_MARGIN times that; in between, lstsq fits as it stands
    solves = _spy(monkeypatch, "lstsq")
    rng = np.random.default_rng(33)
    n = 60
    cutoff = np.finfo(float).eps * n
    U = np.linalg.qr(rng.standard_normal((n, 5)))[0]
    V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    y = rng.standard_normal(n)
    for s, factored in ((4.0 * cutoff, False),
                        (4.0 * _RANK_MARGIN * cutoff, True)):
        D = U @ np.diag([1.0, 1.0, 1.0, 1.0, s]) @ V.T
        pr = Dataset(D[:, :3], y, D[:, 3:])
        assert _lstsq_minnorm(D, y)[1] == 5
        del solves[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            omega = fit_proxy_coefficients([pr])
            P = fit_linear_map(pr).P
        # the fallback fits X -> Z, [X | Z] -> y and X -> y, once each
        assert len(solves) == (0 if factored else 3)
        assert _nested_lstsq(pr)[3:] == (3, 5)
        if not factored:
            assert np.array_equal(omega, _lstsq_minnorm(D, y)[0])
            assert np.array_equal(P, _lstsq_minnorm(pr.x, pr.z)[0])


def test_dependent_proxy_is_refused_before_the_svd(monkeypatch):
    # a repeated column leaves a diagonal entry of R at rounding level,
    # which bounds the smallest singular value: no SVD is needed to refuse
    proxies, _, _, _ = _linear_world(35, K=1)
    pr = proxies[0]
    dup = Dataset(pr.x, pr.y, np.hstack([pr.z, pr.x[:, 1:2]]))
    svds, solves = _spy(monkeypatch, "svd"), _spy(monkeypatch, "lstsq")
    with pytest.warns(UserWarning, match=r"rank 7 < 8"):
        omega = fit_proxy_coefficients([dup])
    assert svds == [] and len(solves) == 3
    assert np.array_equal(
        omega, _lstsq_minnorm(np.hstack([dup.x, dup.z]), dup.y)[0])


def test_proxy_factor_slot_is_private_and_stays_behind():
    proxies, _, _, _ = _linear_world(34, K=1)
    pr = proxies[0]
    fits = _nested_lstsq(pr)
    with pytest.raises(AttributeError):
        pr._lsq = None
    with pytest.raises(AttributeError):
        del pr._lsq
    assert _nested_lstsq(pr) is fits
    with pytest.raises(ValueError):
        fits.omega[0] = 0.0
    # the map a caller gets is its own copy
    fit_linear_map(pr).P[0, 0] = 0.0
    assert fits.P[0, 0] != 0.0
    assert pr.without_z()._lsq is None


def test_htl_degenerate_chain_recovers_truth():
    # no contrasts, no model noise, big lambda: omega_hat is beta_star and
    # the target stage shrinks all the way back onto it
    proxies, target, beta, _ = _linear_world(5, delta_scale=0.0,
                                             model_noise=0.0)
    model = fit_htl(proxies, target, lam=1e12)
    assert np.max(np.abs(model.fit.omega_hat - beta)) < 1e-8
    assert np.array_equal(model.fit.beta_hat, model.fit.omega_hat)


def test_htl_zero_penalty_is_ols_on_imputed_design():
    # a sieve map gives genuinely nonlinear imputed columns, so the
    # stacked design has full rank and the unpenalized fit must agree
    # with plain least squares on it
    rng = np.random.default_rng(6)
    n_p, n_t, p1 = 500, 60, 2
    X_p = rng.uniform(-1.0, 1.0, size=(n_p, p1))
    curve = np.sin(3.0 * X_p[:, 0]) + np.cos(2.0 * X_p[:, 1])
    Z_p = np.column_stack([curve, X_p[:, 0] * X_p[:, 1]]) \
        + 0.05 * rng.standard_normal((n_p, 2))
    y_p = Z_p @ [1.0, -1.0] + X_p @ [0.5, 0.5] \
        + 0.1 * rng.standard_normal(n_p)
    X_t = rng.uniform(-0.9, 0.9, size=(n_t, p1))
    y_t = rng.standard_normal(n_t)
    model = fit_htl([Dataset(X_p, y_p, Z_p)], Dataset(X_t, y_t),
                    map_kind="sieve", lam=0.0, gamma=0.0, budget=12,
                    settings=LassoSettings(tol=1e-12))
    D = np.hstack([X_t, impute(model.map, X_t)])
    ref, rank = _lstsq_minnorm(D, y_t)
    assert rank == D.shape[1]
    assert np.max(np.abs(model.fit.beta_hat - ref)) < 1e-6


def test_htl_sieve_cv_uses_the_fit_folds_and_seed():
    rng = np.random.default_rng(20)
    X_p = rng.uniform(-1.0, 1.0, size=(150, 2))
    Z_p = np.sin(2.0 * X_p) + 0.3 * rng.standard_normal((150, 2))
    proxy = Dataset(X_p, rng.standard_normal(150), Z_p)
    target = Dataset(rng.uniform(-0.8, 0.8, size=(30, 2)),
                     rng.standard_normal(30))
    model = fit_htl([proxy], target, map_kind="sieve", lam=0.2, gamma="cv",
                    budget=10, cv_folds=3, cv_seed=7)
    basis, x_scale = model.map.basis, model.map.x_scale

    def theta(**cv):
        return fit_sieve_map(proxy, basis, "cv", LassoSettings(),
                             x_scale=x_scale, **cv).Theta

    assert np.array_equal(model.map.Theta, theta(cv_folds=3, cv_seed=7))
    # the defaults, 5 folds and seed 0, pick another fit here
    assert not np.array_equal(model.map.Theta, theta())


def _sieve_world(seed, K=2, n_p=400, p1=5):
    """Proxies whose z is a smooth function of x plus noise, and a target
    inside their range. The last proxy's z also has a term of frequency 36
    in x, which only basis functions past the first 101 reach. With p1 = 5
    and n_p = 400 the default truncation cap is p1^3 = 125, so the
    held-out ladder scores 101 and 125."""
    rng = np.random.default_rng(seed)
    proxies = []
    for k in range(K):
        X = rng.uniform(-1.0, 1.0, size=(n_p, p1))
        Z = np.sin(2.0 * X[:, :2]) + 0.3 * rng.standard_normal((n_p, 2))
        if k == K - 1:
            Z += np.cos(36.0 * X[:, :2])
        proxies.append(Dataset(X, rng.standard_normal(n_p), Z))
    target = Dataset(rng.uniform(-0.8, 0.8, size=(30, p1)),
                     rng.standard_normal(30))
    return proxies, target


def _spy_grams(monkeypatch):
    """How ("built" from a design, or "summed" from _block_sums's sums)
    and on how many rows every sieve gram from now on is made."""
    rows = []

    class Spy(penalized_reg._Gram):
        def __init__(self, D, R):
            rows.append(("built", R.shape[0]))
            super().__init__(D, R)

        @classmethod
        def from_sums(cls, A, b, R, **kw):
            rows.append(("summed", R.shape[0]))
            return super().from_sums(A, b, R, **kw)

    monkeypatch.setattr(feature_map, "_Gram", Spy)
    return rows


def _direct_sieve_theta(proxies, model, M):
    # the fit of every proxy at one truncation, averaged: the sieve stage
    # when an explicit budget or a small cap fixes M
    basis = unravel(proxies[0].p1, 1, M)
    return average_maps([
        fit_sieve_map(pr, basis, "auto", LassoSettings(),
                      x_scale=model.map.x_scale)
        for pr in proxies]).Theta


def test_sieve_budget_pins_m_with_no_hold_out(monkeypatch):
    proxies, target = _sieve_world(40)
    rows = _spy_grams(monkeypatch)
    model = fit_htl(proxies, target, map_kind="sieve", lam=0.2, budget=60)
    # one gram per proxy, on all its rows
    assert rows == [("summed", 400)] * 2
    assert np.array_equal(model.map.Theta,
                          _direct_sieve_theta(proxies, model, 60))


def test_sieve_cap_of_101_or_less_is_fit_directly(monkeypatch):
    # n_p = 200 caps M at n_p / 2 = 100: no rung is scored
    proxies, target = _sieve_world(41, n_p=200)
    rows = _spy_grams(monkeypatch)
    model = fit_htl(proxies, target, map_kind="sieve", lam=0.2)
    assert rows == [("summed", 200)] * 2
    assert np.array_equal(model.map.Theta,
                          _direct_sieve_theta(proxies, model, 100))


def test_sieve_default_truncation_is_picked_on_held_out_rows(monkeypatch):
    proxies, target = _sieve_world(42)
    rows = _spy_grams(monkeypatch)
    model = fit_htl(proxies, target, map_kind="sieve", lam=0.2, cv_seed=3)
    # per proxy: rungs 101 and 125 grown on the 320 rows outside fold 0,
    # then the picked rung's gram grown by the held-out rows to all 400;
    # no gram is built from scratch
    assert rows == [("summed", 320), ("summed", 320), ("summed", 400)] * 2
    again = fit_htl(proxies, target, map_kind="sieve", lam=0.2, cv_seed=3)
    assert np.array_equal(model.map.Theta, again.map.Theta)
    assert model.map.basis.to_dict() == again.map.basis.to_dict()
    x_scale = model.map.x_scale
    fits = [fit_sieve_map(pr, unravel(5, 1, 125), x_scale=x_scale,
                          cv_seed=3, ladder=True) for pr in proxies]
    # the proxy with the high-frequency term needs the larger basis, and
    # the other proxy's smaller fit is zero-padded into the average
    picked = [len(f.basis) for f in fits]
    assert picked == [101, 125]
    assert len(model.map.basis) == 125
    assert np.array_equal(model.map.Theta, average_maps(fits).Theta)
    settings = LassoSettings()
    for pr, fit in zip(proxies, fits):
        # the grown gram differs from one built on all rows by rounding,
        # so the fit matches the direct fit closely, not bit for bit, and
        # is certified on the built gram
        direct = fit_sieve_map(pr, fit.basis, "auto", settings,
                               x_scale=x_scale)
        assert np.max(np.abs(fit.Theta - direct.Theta)) <= \
            1e-12 * np.max(np.abs(direct.Theta))
        G = penalized_reg._Gram(expand(pr.x / x_scale, fit.basis), pr.z)
        M = len(fit.basis)
        gammas = np.full(2, np.sqrt(np.log(M) / pr.n))
        assert penalized_reg._certified(fit.Theta, *G.state(fit.Theta),
                                        G.c, gammas, settings.tol).all()


def test_default_sieve_fit_enters_fit_sieve_map_once_per_proxy(
        monkeypatch):
    # every sieve map, the held-out ladder's included, is fit by the one
    # public routine, so a span around it sees the whole sieve stage
    proxies, target = _sieve_world(44)
    calls = []

    def spy(proxy, basis, *args, **kw):
        calls.append((proxy, len(basis), kw["ladder"]))
        return fit_sieve_map(proxy, basis, *args, **kw)

    monkeypatch.setattr(feature_map, "fit_sieve_map", spy)
    monkeypatch.setattr(estimators, "fit_sieve_map", spy)
    fit_htl(proxies, target, map_kind="sieve", lam=0.2)
    assert [(pr, 125, True) for pr in proxies] == calls


def test_sieve_cv_gamma_runs_once_per_proxy_at_the_picked_m(monkeypatch):
    # per proxy the ladder scores rungs 101 and 125 at "auto" on the 266
    # rows outside fold 0, then cross-validates gamma once at the picked
    # rung: fold 0 on the ladder's training sums, folds 1 and 2 on the
    # all-rows sums less their own, picking what the earlier per-fold
    # loop picks on the whole expansion
    proxies, target = _sieve_world(43)
    rows = _spy_grams(monkeypatch)
    solves, prox_grad = [], penalized_reg._prox_grad_columns

    def solve(G, lams, settings):
        solves.append((G.w.size, G.b.ndim, np.array(lams)))
        return prox_grad(G, lams, settings)

    monkeypatch.setattr(feature_map, "_prox_grad_columns", solve)
    model = fit_htl(proxies, target, map_kind="sieve", lam=0.2, gamma="cv",
                    cv_folds=3)
    assert rows == [("summed", 266)] * 3 + [("summed", 267)] * 2 \
        + [("summed", 400)] + [("summed", 266)] * 3 \
        + [("summed", 267)] * 2 + [("summed", 400)]
    # per proxy: two rung solves, one solve per fold and z column at
    # the picked M, and the map
    assert [s[:2] for s in solves] == \
        [(101, 2), (125, 2)] + [(101, 1)] * 6 + [(101, 2)] \
        + [(101, 2), (125, 2)] + [(125, 1)] * 6 + [(125, 2)]
    assert len(model.map.basis) == 125
    for pr, own in zip(proxies, (solves[:9], solves[9:])):
        grids = [lams for _, _, lams in own[2:4]]
        M = own[-1][0]
        Psi = expand(pr.x / model.map.x_scale, unravel(5, 1, M))
        assert np.array_equal(own[-1][2], sieve_cv_picks(
            Psi, pr.z, grids, 3, 0, LassoSettings()))


def test_htl_beats_homogeneous_on_toy_scenario():
    from heterotl.simulation import SimConfig

    config = SimConfig(scenario="linear", K=2, n_p=300, n_t=40, p1=6,
                       p2=6, reps=10, seed=77, n_test=100, tol=1e-7,
                       max_iters=2000)
    wins = 0
    htl_maps, hom_maps = [], []
    for r in range(config.reps):
        scen = gen_linear_scenario(config, 1000 + r)
        settings = LassoSettings(max_iters=2000, tol=1e-7)
        htl = fit_htl(scen.proxies, scen.target, settings=settings,
                      cv_seed=r)
        hom = fit_homogeneous(scen.proxies, scen.target, settings=settings,
                              cv_seed=r)
        m_htl = mean_absolute_prediction_error(
            scen.test.y, predict(htl, scen.test.x))
        m_hom = mean_absolute_prediction_error(
            scen.test.y, predict(hom, scen.test.x))
        htl_maps.append(m_htl)
        hom_maps.append(m_hom)
        wins += m_htl < m_hom
    assert np.median(htl_maps) < np.median(hom_maps)
    assert wins >= 7


def test_htl_pure_transfer_above_null_threshold():
    proxies, target, _, _ = _linear_world(7)
    model = fit_htl(proxies, target, lam=1e12)
    omega = model.fit.omega_hat
    assert np.array_equal(model.fit.beta_hat, omega)
    D = np.hstack([target.x, impute(model.map, target.x)])
    lam_null = null_threshold(D, target.y - D @ omega)
    again = fit_htl(proxies, target, lam=lam_null)
    assert np.array_equal(again.fit.beta_hat, omega)
    preds = predict(again, target.x)
    assert np.max(np.abs(preds - D @ omega)) < 1e-12


def test_htl_duplicate_proxies_match_single():
    proxies, target, _, _ = _linear_world(8, K=1)
    one = fit_htl(proxies, target, lam=0.3)
    two = fit_htl([proxies[0], proxies[0]], target, lam=0.3)
    assert np.array_equal(one.fit.beta_hat, two.fit.beta_hat)
    assert np.array_equal(one.map.P, two.map.P)


def test_htl_dimension_guards():
    proxies, target, _, _ = _linear_world(9)
    narrow = Dataset(target.x[:, :2], target.y)
    with pytest.raises(IncompatibleError):
        fit_htl(proxies, narrow)


def test_htl_sieve_support_violation_at_fit():
    rng = np.random.default_rng(10)
    X_p = rng.uniform(-1.0, 1.0, size=(200, 2))
    Z_p = np.sin(X_p) + 0.1 * rng.standard_normal((200, 2))
    proxy = Dataset(X_p, rng.standard_normal(200), Z_p)
    X_t = rng.uniform(-3.0, 3.0, size=(30, 2))  # far outside proxy range
    target = Dataset(X_t, rng.standard_normal(30))
    with pytest.raises(SupportError):
        fit_htl([proxy], target, map_kind="sieve", lam=0.1)


def test_htl_centering_stored_and_applied():
    proxies, target, _, _ = _linear_world(11)
    model = fit_htl(proxies, target, lam=0.2, center=True)
    D = np.hstack([target.x, impute(model.map, target.x)])
    assert np.max(np.abs(model.centering - D.mean(axis=0))) < 1e-12
    plain = fit_htl(proxies, target, lam=0.2)
    assert plain.centering is None


def test_homogeneous_is_x_only_offset_lasso():
    proxies, target, _, _ = _linear_world(12)
    lam = 0.25
    fit = fit_homogeneous(proxies, target, lam=lam)
    coefs = [ols(pr.x, pr.y) for pr in proxies]
    omega1 = np.mean(coefs, axis=0)
    beta, delta, _ = lasso_with_offset(target.x, target.y, omega1, lam,
                                       LassoSettings(tol=1e-12))
    assert np.max(np.abs(fit.omega_hat - omega1)) \
        <= 1e-12 * np.max(np.abs(omega1))
    for pr in proxies:
        _assert_least_squares(_proxy_x_coefficients([pr]), pr.x, pr.y)
    assert np.max(np.abs(fit.beta_hat - beta)) < 1e-7
    assert fit.method == "homogeneous"


def test_homogeneous_full_shrinkage():
    proxies, target, _, _ = _linear_world(13)
    fit = fit_homogeneous(proxies, target, lam=1e12)
    assert np.array_equal(fit.beta_hat, fit.omega_hat)


def test_target_lasso_null_threshold_zeroes():
    proxies, target, _, _ = _linear_world(14)
    lam = null_threshold(target.x, target.y)
    fit = fit_target_lasso(target, lam=lam)
    assert np.array_equal(fit.beta_hat, np.zeros(target.p1))
    assert np.array_equal(fit.omega_hat, np.zeros(target.p1))


def test_target_lasso_unpenalized_is_ols():
    _, target, _, _ = _linear_world(15, n_t=80)
    fit = fit_target_lasso(target, lam=0.0,
                           settings=LassoSettings(tol=1e-12))
    assert np.max(np.abs(fit.beta_hat - ols(target.x, target.y))) < 1e-6


def test_target_lasso_support_recovery():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        X = rng.standard_normal((150, 20))
        beta = np.zeros(20)
        beta[:4] = [2.0, -2.0, 2.0, -2.0]
        y = X @ beta + 0.5 * rng.standard_normal(150)
        fit = fit_target_lasso(Dataset(X, y), cv_seed=seed)
        if np.all(fit.beta_hat[:4] != 0.0):
            hits += 1
    assert hits >= 15


def test_target_lasso_needs_two_rows():
    from heterotl.core import ConfigError

    with pytest.raises(ConfigError):
        fit_target_lasso(Dataset(np.ones((1, 2)), np.ones(1)))


def test_predict_zero_coefficients():
    fit = TLFit(np.zeros(3), np.zeros(3), 0.0, "target_lasso")
    assert np.array_equal(predict(fit, np.ones((4, 3))), np.zeros(4))


def test_predict_single_row_hand_check():
    P = np.array([[2.0], [0.5]])
    map_model = FeatureMapModel("linear", P=P)
    fit = TLFit(np.array([1.0, -1.0, 0.5]), np.zeros(3), 0.0, "htl")
    model = HtlModel(fit, map_model, "linear")
    x = np.array([[3.0, 4.0]])
    zhat = 3.0 * 2.0 + 4.0 * 0.5
    expected = 3.0 * 1.0 + 4.0 * (-1.0) + zhat * 0.5
    assert abs(predict(model, x)[0] - expected) < 1e-12


def test_predict_true_map_closed_form():
    rng = np.random.default_rng(16)
    p1, p2 = 4, 3
    P = rng.uniform(0.5, 1.5, size=(p1, p2))
    beta = rng.standard_normal(p1 + p2)
    model = HtlModel(TLFit(beta, np.zeros(p1 + p2), 0.0, "htl"),
                     FeatureMapModel("linear", P=P), "linear")
    X = rng.standard_normal((25, p1))
    expected = X @ beta[:p1] + (X @ P) @ beta[p1:]
    assert np.max(np.abs(predict(model, X) - expected)) < 1e-10


def test_predict_guards():
    fit = TLFit(np.zeros(3), np.zeros(3), 0.0, "htl")
    with pytest.raises(IncompatibleError):
        predict(fit, np.ones((2, 3)))  # bare htl fit has no map
    hom = TLFit(np.zeros(3), np.zeros(3), 0.0, "homogeneous")
    with pytest.raises(DimensionError):
        predict(hom, np.ones((2, 4)))
    with pytest.raises(IncompatibleError):
        predict("not a model", np.ones((2, 3)))
    with pytest.raises(DimensionError):
        predict(hom, np.ones(3))


def test_predict_rejects_non_finite_entries():
    hom = TLFit(np.zeros(2), np.zeros(2), 0.0, "homogeneous")
    linear = HtlModel(TLFit(np.ones(3), np.zeros(3), 0.0, "htl"),
                      FeatureMapModel("linear", P=np.ones((2, 1))), "linear")
    sieve = HtlModel(TLFit(np.ones(3), np.zeros(3), 0.0, "htl"),
                     FeatureMapModel("sieve", basis=unravel(2, 1, 5),
                                     Theta=np.ones((5, 1))), "sieve")
    for model in (hom, linear, sieve):
        for bad in (np.nan, -np.inf):
            X = np.array([[0.5, 0.0], [bad, 0.0]])
            with pytest.raises(InvalidValueError,
                               match=r"X_new entry \(1, 0\)"):
                predict(model, X)


def test_oracle_predict_zero_truth():
    assert np.array_equal(
        oracle_predict(np.ones((3, 2)), np.ones((3, 1)), np.zeros(3)),
        np.zeros(3))


def test_oracle_predict_without_z_uses_prefix():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    beta = np.array([1.0, -1.0, 99.0])
    assert np.array_equal(oracle_predict(X, None, beta), X @ beta[:2])


def test_oracle_predict_matches_hand_loop():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((3, 2))
    Z = rng.standard_normal((3, 2))
    beta = rng.standard_normal(4)
    got = oracle_predict(X, Z, beta)
    for i in range(3):
        manual = sum(float(X[i, j]) * beta[j] for j in range(2)) \
            + sum(float(Z[i, j]) * beta[2 + j] for j in range(2))
        assert abs(got[i] - manual) < 1e-12


def test_oracle_predict_dimension_guards():
    with pytest.raises(DimensionError):
        oracle_predict(np.ones((2, 3)), None, np.ones(2))
    with pytest.raises(DimensionError):
        oracle_predict(np.ones((2, 2)), np.ones((3, 1)), np.ones(3))
    with pytest.raises(DimensionError):
        oracle_predict(np.ones((2, 2)), np.ones((2, 1)), np.ones(4))


def test_htl_model_guards():
    fit = TLFit(np.zeros(4), np.zeros(4), 0.0, "htl")
    bad_map = FeatureMapModel("linear", P=np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        HtlModel(fit, bad_map, "linear")


@pytest.mark.parametrize("map_kind", ["linear", "sieve"])
def test_model_save_load_round_trip(tmp_path, map_kind):
    if map_kind == "linear":
        proxies, target, _, _ = _linear_world(18)
        model = fit_htl(proxies, target, lam=0.2)
    else:
        rng = np.random.default_rng(19)
        X_p = rng.uniform(-1.0, 1.0, size=(150, 2))
        Z_p = np.sin(X_p) + 0.1 * rng.standard_normal((150, 2))
        proxy = Dataset(X_p, rng.standard_normal(150), Z_p)
        target = Dataset(rng.uniform(-0.8, 0.8, size=(30, 2)),
                         rng.standard_normal(30))
        model = fit_htl([proxy], target, map_kind="sieve", lam=0.2,
                        budget=10)
    path = tmp_path / "model.json"
    save_model(path, model, manifest={"note": "round trip"})
    back = load_model(path)
    X_new = target.x[:7]
    assert np.array_equal(predict(back, X_new), predict(model, X_new))
    assert np.array_equal(back.fit.beta_hat, model.fit.beta_hat)
    assert back.diagnostics == model.diagnostics


def test_single_fit_save_load_round_trip(tmp_path):
    proxies, target, _, _ = _linear_world(20)
    fit = fit_homogeneous(proxies, target, lam=0.3)
    path = tmp_path / "fit.json"
    save_model(path, fit)
    back = load_model(path)
    assert isinstance(back, TLFit)
    assert np.array_equal(back.beta_hat, fit.beta_hat)
    assert back.method == "homogeneous"
    assert np.array_equal(predict(back, target.x), predict(fit, target.x))

"""Lasso solver, offset form, KKT checks, and lambda selection."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heterotl import penalized_reg
from heterotl.core import ConfigError, DimensionError, InvalidValueError
from heterotl.estimators import fit_proxy_coefficients
from heterotl.feature_map import average_maps, fit_linear_map, impute
from heterotl.penalized_reg import (LassoSettings, _block_sums, _Gram,
                                    _lasso_path, _prox_grad_columns,
                                    cv_lambda, default_grid, kkt_check, lasso,
                                    lasso_with_offset, null_threshold,
                                    objective, soft_threshold, warm_start)
from heterotl.simulation import SimConfig, _one_rep, gen_linear_scenario
from oracles import (RankWarning, certified_masked, offset_objective, ols,
                     pg_lasso, prox_grad_columns_plain)


def _instance(seed, n=60, p=10, sparsity=3, noise=0.3):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:sparsity] = rng.uniform(1.0, 2.0, sparsity) * \
        rng.choice([-1.0, 1.0], sparsity)
    y = D @ beta + noise * rng.standard_normal(n)
    return D, y, beta


def test_ols_orthonormal_projects():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 6)))
    y = rng.standard_normal(30)
    assert np.max(np.abs(ols(Q, y) - Q.T @ y)) < 1e-10


def test_ols_noiseless_recovery():
    D, y, beta = _instance(1, noise=0.0)
    assert np.max(np.abs(ols(D, y) - beta)) < 1e-10


def test_ols_residual_orthogonal():
    D, y, _ = _instance(2, n=200, p=10)
    w = ols(D, y)
    assert np.max(np.abs(D.T @ (y - D @ w))) < 1e-8


def test_ols_rank_deficient_minimum_norm():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(20)
    D = np.column_stack([c, c])
    y = 3.0 * c
    with pytest.warns(RankWarning):
        w = ols(D, y)
    # minimum-norm splits the weight across the duplicated column
    assert np.allclose(w, [1.5, 1.5], atol=1e-10)


def test_soft_threshold_hand_values():
    assert soft_threshold(5.0, 2.0) == 3.0
    assert soft_threshold(-1.0, 2.0) == 0.0
    assert soft_threshold(-4.0, 1.0) == -3.0


def test_soft_threshold_zero_is_identity():
    v = np.array([-2.0, 0.0, 1.5])
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_negative_threshold():
    with pytest.raises(ConfigError):
        soft_threshold(1.0, -0.1)


@given(st.floats(-1e8, 1e8), st.floats(0.0, 1e8))
@settings(max_examples=100, deadline=None)
def test_soft_threshold_properties(v, t):
    out = soft_threshold(v, t)
    assert abs(out) == max(abs(v) - t, 0.0)
    if out != 0.0:
        assert np.sign(out) == np.sign(v)


def test_null_threshold_hand_value():
    D = np.array([[1.0, 0.0], [0.0, 2.0]])
    r = np.array([3.0, 1.0])
    # (2/2) * max(|D'r|) = max(3, 2)
    assert null_threshold(D, r) == 3.0


def test_objective_hand_value():
    D = np.eye(2)
    r = np.array([1.0, 1.0])
    delta = np.array([0.5, 0.0])
    # (1/2)(0.25 + 1) + 0.1 * 0.5
    assert objective(D, r, 0.1, delta) == pytest.approx(0.675, abs=1e-15)


def test_lasso_zero_at_null_threshold():
    D, y, _ = _instance(4)
    lam = null_threshold(D, y)
    delta, diag = lasso(D, y, lam)
    assert np.array_equal(delta, np.zeros(D.shape[1]))
    assert diag.converged
    below, _ = lasso(D, y, 0.99 * lam)
    assert np.any(below != 0.0)


def test_lasso_zero_penalty_matches_ols():
    D, y, _ = _instance(5, n=80, p=8)
    delta, diag = lasso(D, y, 0.0, LassoSettings(tol=1e-12))
    assert np.max(np.abs(delta - ols(D, y))) < 1e-7
    assert diag.converged


def test_lasso_matches_projected_gradient():
    for seed, lam in ((6, 0.05), (7, 0.3), (8, 1.2)):
        D, y, _ = _instance(seed, n=40, p=8)
        delta, _ = lasso(D, y, lam)
        _, obj_ref = pg_lasso(D, y, lam)
        assert objective(D, y, lam, delta) <= obj_ref + 1e-9
        assert abs(objective(D, y, lam, delta) - obj_ref) <= 1e-9


def test_lasso_warm_start_agrees_with_cold():
    D, y, _ = _instance(9)
    lam = 0.2
    cold, _ = lasso(D, y, lam)
    rng = np.random.default_rng(10)
    warm, _ = lasso(D, y, lam, delta0=cold + 0.1 * rng.standard_normal(
        D.shape[1]))
    assert np.max(np.abs(cold - warm)) < 1e-7


def test_lasso_iteration_cap_reports_not_raises():
    D, y, _ = _instance(11)
    delta, diag = lasso(D, y, 0.01, LassoSettings(max_iters=1))
    assert not diag.converged
    assert diag.iterations == 1


def test_lasso_zero_variance_column_pinned():
    D, y, _ = _instance(12, n=30, p=5)
    D = D.copy()
    D[:, 2] = 0.0
    with pytest.warns(UserWarning, match="zero-variance"):
        delta, _ = lasso(D, y, 0.1)
    assert delta[2] == 0.0


def test_lasso_zero_column_warns_only_of_its_pin():
    # a zero gradient entry on the pinned column must not overflow the
    # certificate's dual scaling at a large penalty
    D, y, _ = _instance(12, n=30, p=4)
    D = D.copy()
    D[:, 1] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        delta, diag = lasso(D, y, 5.0)
    assert [w.category for w in caught] == [UserWarning]
    assert "zero-variance" in str(caught[0].message)
    assert diag.converged and delta[1] == 0.0


def test_lasso_fallback_reuses_the_path_gram(monkeypatch):
    # a point the trace stops short of is finished by feature-sign on the
    # same gram: one build and one zero-variance warning
    D, y, _ = _instance(12, n=30, p=4)
    D = D.copy()
    D[:, 1] = 0.0
    inner = penalized_reg._trace
    monkeypatch.setattr(penalized_reg, "_trace",
                        lambda G, lams, cap: inner(G, lams, 1))
    grams = []
    _spy(monkeypatch, "_Gram", grams)
    lam = 0.1 * null_threshold(D, y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        delta, diag = lasso(D, y, lam)
    assert len(grams) == 1
    # the one-event trace does not reach lam, so feature-sign made rounds
    assert diag.iterations > 1
    assert [w.category for w in caught] == [UserWarning]
    assert "zero-variance" in str(caught[0].message)
    assert diag.converged and delta[1] == 0.0
    _, ref = pg_lasso(D, y, lam)
    assert diag.objective <= ref + 1e-9 * float(y @ y) / len(y)


def test_lasso_validation():
    D, y, _ = _instance(13)
    for lam in (-0.5, np.inf, np.nan):
        with pytest.raises(ConfigError, match="lam must be a finite"):
            lasso(D, y, lam)
        with pytest.raises(ConfigError, match="lam must be a finite"):
            lasso_with_offset(D, y, np.zeros(D.shape[1]), lam)
    with pytest.raises(DimensionError):
        lasso(D, y, 0.1, delta0=np.zeros(3))
    with pytest.raises(ConfigError):
        LassoSettings(tol=0.0)
    with pytest.raises(ConfigError):
        LassoSettings(max_iters=0)


def test_lasso_names_non_finite_entry():
    D, y, _ = _instance(13)
    bad_D = D.copy()
    bad_D[2, 1] = np.nan
    with pytest.raises(InvalidValueError, match=r"D entry \(2, 1\) = nan"):
        lasso(bad_D, y, 0.1)
    bad_y = y.copy()
    bad_y[3] = -np.inf
    with pytest.raises(InvalidValueError, match=r"r entry \(3\) = -inf"):
        lasso(D, bad_y, 0.1)


def _degenerate_designs():
    """(name, D, r) on which a naive active set breaks down."""
    rng = np.random.default_rng(15)
    n = 30
    # [X | X P]: rank 6 of 12, column scales from about 1 to about 30
    X = rng.uniform(0.0, np.sqrt(12.0), size=(n, 6))
    collinear = np.hstack([X, X @ (3.0 * rng.standard_normal((6, 6)))])
    base = rng.standard_normal((n, 4))
    duplicated = np.hstack([base, base[:, :2], 2.0 * base[:, 2:3]])
    zero_var = rng.standard_normal((n, 5))
    zero_var[:, 2] = 0.0
    out = []
    for name, D in (("collinear", collinear), ("duplicated", duplicated),
                    ("zero_variance", zero_var)):
        beta = rng.standard_normal(D.shape[1]) * (rng.uniform(
            size=D.shape[1]) < 0.5)
        out.append((name, D, D @ beta + 0.5 * rng.standard_normal(n)))
    # exact fit: r is the rounding left over from y - D omega
    omega = rng.standard_normal(12)
    y = X @ omega[:6] + collinear[:, 6:] @ omega[6:]
    out.append(("exact_fit", collinear, y - collinear @ omega))
    return out


def test_active_set_matches_projected_gradient_on_degenerate_designs():
    for name, D, r in _degenerate_designs():
        lam_max = null_threshold(D, r)
        c = float(r @ r) / len(r)
        assert lam_max > 0.0, name
        for frac in (0.5, 0.1, 0.01, 1e-4):
            lam = frac * lam_max
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                delta, diag = lasso(D, r, lam)
            assert diag.converged, (name, frac)
            _, ref = pg_lasso(D, r, lam)
            # never above the oracle beyond the certificate's 1e-10 of P(0)
            assert diag.objective <= ref + 1e-9 * c, (name, frac)
            assert diag.objective == objective(D, r, lam, delta)
            assert diag.max_kkt_violation <= 1e-9 * lam_max, (name, frac)
        if name == "zero_variance":
            assert delta[2] == 0.0


def test_active_set_certifies_a_penalty_at_rounding_scale():
    # at 1e-12 of the null threshold the gradient's rounding is larger
    # than the slack a plain gap test leaves for dual feasibility, so the
    # certificate must forgive the rounding that the violator test ignores;
    # on the exact-fit design r itself is rounding
    for name, D, r in _degenerate_designs():
        lam_max = null_threshold(D, r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _, diag = lasso(D, r, 1e-12 * lam_max)
        assert diag.converged, name
        assert diag.max_kkt_violation <= 1e-9 * lam_max, name


def test_cv_path_certifies_every_point_on_collinear_design(monkeypatch):
    # a fig1-shaped target design: [X_t | X_t P_hat] has rank 20 of 40
    cfg = SimConfig(scenario="linear", K=2, n_p=2000, n_t=50, p1=20,
                    p2=20, reps=1, seed=0, n_test=10)
    scen = gen_linear_scenario(cfg, 20290)
    maps = average_maps([fit_linear_map(pr) for pr in scen.proxies])
    D = np.hstack([scen.target.x, impute(maps, scen.target.x)])
    assert np.linalg.matrix_rank(D) == 20
    omega = fit_proxy_coefficients(scen.proxies)
    flags = []
    inner = penalized_reg._lasso_path

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        flags.append(out[2])
        return out

    monkeypatch.setattr(penalized_reg, "_lasso_path", spy)
    cv_lambda(D, scen.target.y, omega, folds=5, seed=3)
    assert len(flags) == 5
    assert all(f.shape == (50,) and f.all() for f in flags)


def test_lasso_path_matches_pointwise_solves():
    # walking the grid with warm starts and pattern following reaches the
    # same points as cold single-penalty solves
    D, r = _degenerate_designs()[0][1:]
    lam_max = null_threshold(D, r)
    lams = default_grid(lam_max, num=12)
    Delta, _, conv = _lasso_path(_Gram(D, r), lams, LassoSettings())
    assert conv.all()
    for l, lam in enumerate(lams):
        _, diag = lasso(D, r, lam)
        assert abs(objective(D, r, lam, Delta[:, l]) - diag.objective) \
            <= 1e-12 * float(r @ r)
        assert kkt_check(D, r, lam, Delta[:, l]) <= 1e-9 * lam_max


def test_lasso_path_refuses_points_just_past_a_knot():
    # with D'D / n = I the path is soft-thresholding, delta = soft(b, lam/2)
    # for b = D'r / n, so a coordinate enters or leaves exactly at
    # lam = 2 |b_j|; a grid point a hair past that knot certifies on the
    # old sign pattern, but that point is not the optimum
    rng = np.random.default_rng(45)
    n, p = 40, 5
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    D = np.sqrt(n) * Q
    r = rng.standard_normal(n)
    b = D.T @ r / n
    knots = 2.0 * np.sort(np.abs(b))
    knot = knots[2]
    # no other knot lies between the grid's two points
    assert knots[1] < 0.98 * knot and knots[3] > 1.02 * knot
    # descending: a coordinate joins; ascending: one leaves
    for lams in ([1.02 * knot, knot * (1 - 1e-9)],
                 [0.98 * knot, knot * (1 + 1e-9)]):
        Delta, _, conv = _lasso_path(_Gram(D, r), np.array(lams),
                                     LassoSettings())
        assert conv.all()
        expect = soft_threshold(b, lams[1] / 2.0)
        assert np.max(np.abs(Delta[:, 1] - expect)) <= 1e-12


def _trace_designs():
    """(name, D, r): full rank, [X | X P] of rank p/2 with column scales
    of about 10^2, and a design with a zero-variance column."""
    rng = np.random.default_rng(46)
    n = 40
    full = rng.standard_normal((n, 12))
    X = rng.uniform(0.0, np.sqrt(12.0), size=(n, 8))
    collinear = np.hstack([X, X @ (15.0 * rng.standard_normal((8, 8)))])
    zero_var = rng.standard_normal((n, 9))
    zero_var[:, 4] = 0.0
    out = []
    for name, D in (("full_rank", full), ("collinear", collinear),
                    ("zero_variance", zero_var)):
        beta = rng.standard_normal(D.shape[1]) * (rng.uniform(
            size=D.shape[1]) < 0.5)
        out.append((name, D, D @ beta + 0.5 * rng.standard_normal(n)))
    return out


def _assert_path_matches_pointwise(D, r, lams, name):
    """The path at lams, all certified and each point within the objective
    and KKT tolerances of a cold single-penalty solve; returns it."""
    lam_max = null_threshold(D, r)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        Delta, _, conv = _lasso_path(_Gram(D, r), lams, LassoSettings())
        assert conv.all(), name
        for l, lam in enumerate(lams):
            _, diag = lasso(D, r, lam)
            assert abs(objective(D, r, lam, Delta[:, l]) - diag.objective) \
                <= 1e-12 * float(r @ r), name
            assert kkt_check(D, r, lam, Delta[:, l]) <= 1e-9 * lam_max, name
    return Delta


def test_trace_matches_pointwise_solves_in_any_grid_order():
    # the exact path, visited in descending order whatever the caller's,
    # reaches the optimum at every point of the grid
    order_rng = np.random.default_rng(47)
    for name, D, r in _trace_designs():
        desc = default_grid(null_threshold(D, r), num=25)
        for lams in (desc, desc[::-1], order_rng.permutation(desc)):
            Delta = _assert_path_matches_pointwise(D, r, lams, name)
            if name == "zero_variance":
                assert not Delta[4].any()


def _spy(monkeypatch, name, calls):
    """Replace penalized_reg.name by a wrapper that appends its arguments
    to calls."""
    inner = getattr(penalized_reg, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(penalized_reg, name, spy)


def test_trace_matches_pointwise_solves_on_long_paths(monkeypatch):
    # 200-point grids on [X | X P | 0] (rank 30 of 61, column scales near
    # 10^2, a zero-variance column) with a pure-noise response: coordinates
    # leave and rejoin many times, and the kept inverse must stay good
    # through all those downdates in slot order, with no fallback
    for seed in (72, 73):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 30))
        D = np.hstack([X, X @ (3.0 * rng.standard_normal((30, 30))),
                       np.zeros((60, 1))])
        r = 5.0 * rng.standard_normal(60)
        lams = default_grid(null_threshold(D, r), num=200)
        leaves, fallbacks = [], []
        with monkeypatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            _spy(m, "_swap_delete", leaves)
            _spy(m, "_reduced_step", fallbacks)
            X_traced, _ = penalized_reg._trace(
                penalized_reg._Gram(D, r), lams, LassoSettings().max_iters)
        assert X_traced.shape[1] == lams.size, seed
        assert len(leaves) >= 15 and not fallbacks, seed
        Delta = _assert_path_matches_pointwise(D, r, lams, seed)
        assert not Delta[60].any()


def _near_singular_design(eps):
    """Two columns within eps of the span of others: B_0, and B_1 - 2 B_2."""
    rng = np.random.default_rng(80)
    n = 40
    B = rng.standard_normal((n, 8))
    D = np.hstack([B, B[:, :1] + eps * rng.standard_normal((n, 1)),
                   B[:, 1:2] - 2.0 * B[:, 2:3]
                   + eps * rng.standard_normal((n, 1))])
    r = B[:, :4] @ [2.0, -1.0, 1.0, 1.0] + 0.3 * rng.standard_normal(n)
    return D, r


def test_trace_falls_back_on_near_singular_blocks(monkeypatch):
    # eps = 1e-4: both near copies join, the block's eigenvalue ratio falls
    # to about 4e-9, the kept inverse fails its residual test, and the
    # eigendecomposition takes over and rebuilds it; eps = 1e-6: the second
    # join's Schur complement is about 1e-12, the inverse goes stale, and
    # the null test stops the trace where a trace that takes every
    # direction from _reduced_step stops
    for eps, reach, stale in ((1e-4, 50, False), (1e-6, 9, True)):
        D, r = _near_singular_design(eps)
        lams = default_grid(null_threshold(D, r), num=50)
        fallbacks, inverses = [], []
        inner_bordered = penalized_reg._bordered

        def bordered(*args):
            inverses.append(inner_bordered(*args))
            return inverses[-1]

        with monkeypatch.context() as m:
            _spy(m, "_reduced_step", fallbacks)
            m.setattr(penalized_reg, "_bordered", bordered)
            X, events = penalized_reg._trace(penalized_reg._Gram(D, r), lams,
                                             LassoSettings().max_iters)
        assert fallbacks, eps
        assert any(inv is None for inv in inverses) == stale, eps
        assert X.shape[1] == reach, eps
        with monkeypatch.context() as m:
            m.setattr(penalized_reg, "_unit_solve", lambda *args: None)
            X_eig, events_eig = penalized_reg._trace(
                penalized_reg._Gram(D, r), lams, LassoSettings().max_iters)
        assert (X_eig.shape[1], events_eig) == (reach, events), eps
        _assert_path_matches_pointwise(D, r, lams, eps)


def test_trace_makes_no_eigendecomposition_per_event(monkeypatch):
    # the kept inverse makes an event O(|S|^2); a trace that went back to
    # an eigendecomposition per event would be O(|S|^3) again, which no
    # tier-1 timing would show
    D, y, omega = _fig1_cv_problem()
    eighs, per_path = [], []
    inner_eigh, inner_trace = np.linalg.eigh, penalized_reg._trace

    def eigh(*args, **kwargs):
        eighs.append(1)
        return inner_eigh(*args, **kwargs)

    def trace(*args):
        before = len(eighs)
        X, events = inner_trace(*args)
        per_path.append((len(eighs) - before, events))
        return X, events

    monkeypatch.setattr(penalized_reg.np.linalg, "eigh", eigh)
    monkeypatch.setattr(penalized_reg, "_trace", trace)
    cv_lambda(D, y, omega, folds=5, seed=3)
    assert len(per_path) == 5
    for calls, events in per_path:
        assert events >= 10
        assert 10 * calls <= events


def test_path_finishes_the_points_a_stopped_trace_leaves(monkeypatch):
    # a trace cut short after a few events leaves the rest of the grid to
    # feature-sign, each point warm-started from the one before
    inner = penalized_reg._trace
    monkeypatch.setattr(penalized_reg, "_trace",
                        lambda G, lams, cap: inner(G, lams, 4))
    _, D, r = _trace_designs()[1]
    lams = default_grid(null_threshold(D, r), num=25)
    _assert_path_matches_pointwise(D, r, lams, "collinear")


def test_uncertified_cv_point_leaves_the_cap_to_later_points(monkeypatch):
    # a near-interpolating htl CV fold (nonlinear scenario, master seed 77,
    # replication 0, fold 3): feature-sign leaves its last two grid points
    # uncertified, and each costs its own rounds, not the rest of the cap
    cfg = SimConfig(scenario="nonlinear", K=2, n_p=3000, n_t=50, p1=20,
                    p2=20, reps=1, seed=77, n_test=200, budget=21)
    solves = []
    inner_path = penalized_reg._lasso_path
    inner_trace = penalized_reg._trace
    inner_sign = penalized_reg._feature_sign

    def path(G, lams, settings, x0=None):
        solves.append({"events": 0, "caps": [], "rounds": 0})
        Delta, iters, conv = inner_path(G, lams, settings, x0)
        solves[-1].update(iters=iters, conv=conv)
        return Delta, iters, conv

    def trace(G, lams, cap):
        X, events = inner_trace(G, lams, cap)
        solves[-1]["events"] = events
        return X, events

    def feature_sign(G, lam, x, cap, tol):
        out = inner_sign(G, lam, x, cap, tol)
        solves[-1]["caps"].append(cap)
        solves[-1]["rounds"] += out[1]
        return out

    monkeypatch.setattr(penalized_reg, "_lasso_path", path)
    monkeypatch.setattr(penalized_reg, "_trace", trace)
    monkeypatch.setattr(penalized_reg, "_feature_sign", feature_sign)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, err = _one_rep(cfg, 0)
    assert err is None
    fold = solves[3]
    assert fold["conv"].size == 50 and not fold["conv"][-2:].any()
    for solve in solves:
        assert solve["iters"] == solve["events"] + solve["rounds"]
        assert all(cap > 0 for cap in solve["caps"])


def _fig1_cv_problem():
    cfg = SimConfig(scenario="linear", K=2, n_p=2000, n_t=50, p1=20,
                    p2=20, reps=1, seed=0, n_test=10)
    scen = gen_linear_scenario(cfg, 20290)
    maps = average_maps([fit_linear_map(pr) for pr in scen.proxies])
    D = np.hstack([scen.target.x, impute(maps, scen.target.x)])
    return D, scen.target.y, fit_proxy_coefficients(scen.proxies)


def test_final_solve_from_its_warm_start_makes_no_round(monkeypatch):
    # the fig1 final solve starts from warm_start's exact path point, which
    # already certifies: no feature-sign round, no iteration
    D, y, omega = _fig1_cv_problem()
    lam, _ = cv_lambda(D, y, omega, folds=5, seed=0)
    d0 = warm_start(D, y - D @ omega, lam)
    calls = []
    _spy(monkeypatch, "_feature_sign", calls)
    _, _, diag = lasso_with_offset(D, y, omega, lam, delta0=d0)
    assert not calls
    assert diag.converged and diag.iterations == 0


def test_cv_trace_certifies_most_points_on_its_own(monkeypatch):
    # each _feature_sign call finishes one fold point the trace left
    # uncertified; a trace that gave up everywhere would still certify
    # through it, so count the calls
    D, y, omega = _fig1_cv_problem()
    calls = []
    inner = penalized_reg._feature_sign

    def spy(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(penalized_reg, "_feature_sign", spy)
    cv_lambda(D, y, omega, folds=5, seed=3)
    assert len(calls) <= 0.1 * 5 * 50


def _columns_instance(seed, n, p):
    """A design, three responses, and penalties 0, moderate, and null."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((n, p))
    R = D[:, :3] @ rng.standard_normal((3, 3)) \
        + 0.5 * rng.standard_normal((n, 3))
    lams = np.array([0.0, 0.3 * null_threshold(D, R[:, 1]),
                     null_threshold(D, R[:, 2])])
    return D, R, lams


def _assert_columns_optimal(D, R, lams, Theta):
    for j in range(R.shape[1]):
        _, ref = pg_lasso(D, R[:, j], lams[j])
        obj = objective(D, R[:, j], lams[j], Theta[:, j])
        # a zero optimum (interpolation at lam = 0) has no relative scale
        assert abs(obj - ref) <= 1e-9 * max(abs(ref), 1.0)
    assert np.array_equal(Theta[:, 2], np.zeros(D.shape[1]))


def test_prox_grad_columns_match_projected_gradient():
    # one tall design and one wide (p > 4n)
    for seed, n, p in ((16, 40, 9), (41, 20, 100)):
        D, R, lams = _columns_instance(seed, n, p)
        Theta, it, conv = _prox_grad_columns(_Gram(D, R), lams,
                                             LassoSettings())
        assert conv.all()
        assert 0 < it < LassoSettings().max_iters
        _assert_columns_optimal(D, R, lams, Theta)


def test_prox_grad_columns_recover_from_small_step_estimate(monkeypatch):
    # a step estimate far below the curvature must be corrected, not
    # followed into divergence
    monkeypatch.setattr(penalized_reg, "_LIP_MARGIN", 0.05)
    D, R, lams = _columns_instance(42, 40, 9)
    Theta, _, conv = _prox_grad_columns(_Gram(D, R), lams, LassoSettings())
    assert conv.all()
    _assert_columns_optimal(D, R, lams, Theta)


def test_prox_grad_columns_cap():
    D, R, lams = _columns_instance(43, 20, 100)
    _, it, conv = _prox_grad_columns(_Gram(D, R), lams,
                                     LassoSettings(max_iters=2))
    assert it == 2 and not conv[:2].any()
    # the null column is certified at the zero start, before any step
    assert conv[2]


def _zero_variance_columns_instance():
    D, R, lams = _columns_instance(44, 40, 9)
    D[:, 4] = 0.0
    return D, R, lams


@pytest.mark.parametrize("case", ["tall", "wide", "zero_variance",
                                  "small_step", "capped"])
def test_prox_grad_columns_match_the_plain_iteration_to_the_bit(
        case, monkeypatch):
    # every instance has a lam = 0 column and a null one; the small step
    # estimate makes the iteration back off (lip doubles), and the capped
    # run stops after two iterations with columns still open
    D, R, lams = {"tall": lambda: _columns_instance(16, 40, 9),
                  "wide": lambda: _columns_instance(41, 20, 100),
                  "zero_variance": _zero_variance_columns_instance,
                  "small_step": lambda: _columns_instance(42, 40, 9),
                  "capped": lambda: _columns_instance(43, 20, 100)}[case]()
    if case == "small_step":
        monkeypatch.setattr(penalized_reg, "_LIP_MARGIN", 0.05)
    settings = LassoSettings(max_iters=2 if case == "capped" else 10000)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*zero-variance", UserWarning)
        G = _Gram(D, R)
    Theta, it, conv = _prox_grad_columns(G, lams, settings)
    ref, ref_it, ref_conv = prox_grad_columns_plain(G, lams, settings)
    assert np.array_equal(Theta, ref)
    assert it == ref_it and np.array_equal(conv, ref_conv)
    assert conv.all() != (case == "capped")


def test_certified_gives_the_masked_verdicts_without_warnings():
    D, R, lams = _columns_instance(45, 40, 9)
    G = _Gram(D, R)
    Theta, _, _ = _prox_grad_columns(G, lams, LassoSettings())
    cases = []
    for T in (Theta, 1.01 * Theta, np.zeros_like(Theta)):
        H, mse = G.state(T)
        cases.append((T, H, mse, G.c, lams, 0.0))
        # a zero H: 0/0 in the lam = 0 column, x/0 in the others
        cases.append((T, np.zeros_like(H), mse, G.c, lams, 0.0))
        # the per-row allowance _lasso_path passes, zero in one column
        slack = G.slack(lams)
        slack[:, 0] = 0.0
        cases.append((T, H, mse, G.c, lams, slack))
        cases.append((T, np.zeros_like(H), mse, G.c, lams, slack))
        # one column as a vector, as _feature_sign passes it
        cases.append((T[:, 1], H[:, 1], mse[1], G.c[1], lams[1],
                      G.slack(lams[1])))
        cases.append((T[:, 0], np.zeros_like(H[:, 0]), mse[0], G.c[0], 0.0,
                      0.0))
    verdicts = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for T, H, mse, c, lam, slack in cases:
            got = penalized_reg._certified(T, H, mse, c, lam, 1e-9, slack)
            assert np.array_equal(
                got, certified_masked(T, H, mse, c, lam, 1e-9, slack))
            verdicts.update(np.atleast_1d(got).tolist())
    assert verdicts == {True, False}


def test_gram_streamed_in_row_blocks_matches_one_shot():
    # fewer rows than a block, exactly one block and a short last block,
    # each with fewer columns than a panel and with more
    B, W = penalized_reg._BLOCK_ROWS, penalized_reg._PANEL
    rng = np.random.default_rng(45)
    for n in (B // 4, B, 3 * B + 1):
        for p in (W // 4, 2 * W + 37):
            D = rng.standard_normal((n, p)) + rng.uniform(-2.0, 2.0, p)
            R = rng.standard_normal((n, 3))
            G = _Gram(D, R)
            A, b = D.T @ D / n, D.T @ R / n
            assert np.array_equal(G.A, G.A.T)
            assert np.max(np.abs(G.A - A)) <= 1e-13 * np.max(np.abs(A))
            assert np.max(np.abs(G.b - b)) <= 1e-13 * np.max(np.abs(b))
            # the design's own row blocks, handed over one at a time
            blocks = (D[i:i + B] for i in range(0, n, B))
            S = _Gram(blocks, R)
            assert np.array_equal(S.A, G.A) and np.array_equal(S.b, G.b)


def test_gram_sums_grow_by_bordering_and_by_rows():
    # one growing set of sums: columns 0..m of the first rows, bordered
    # out to all columns, then the last rows added; it matches the gram
    # built at once, and sums built at once give _Gram's own bits
    B, W = penalized_reg._BLOCK_ROWS, penalized_reg._PANEL
    rng = np.random.default_rng(47)
    n, n_new = 2 * B + 9, B + 3
    # one panel; then a border whose first panel lies wholly before
    # start and whose second straddles it
    for m, p in ((W // 4, W // 2), (W + 5, 2 * W + 37)):
        D = rng.standard_normal((n + n_new, p)) + rng.uniform(-2.0, 2.0, p)
        R = rng.standard_normal((n + n_new, 3))
        old, new = D[:n], D[n:]
        A, b, _ = _block_sums((old[i:i + B, :m] for i in range(0, n, B)),
                              R[:n])
        A, b = penalized_reg._widened(A, b, p)
        A, b, blocks = _block_sums((old[i:i + B] for i in range(0, n, B)),
                                   R[:n], A, b, start=m)
        assert blocks == 3
        G = _Gram.from_sums(A, b, R[:n])
        ref = _Gram(old, R[:n])
        assert np.array_equal(G.A, G.A.T)
        assert np.max(np.abs(G.A - ref.A)) <= 1e-13 * np.max(np.abs(ref.A))
        assert np.max(np.abs(G.b - ref.b)) <= 1e-13 * np.max(np.abs(ref.b))
        A, b, _ = _block_sums((new[i:i + B] for i in range(0, n_new, B)),
                              R[n:], A, b)
        G, ref = _Gram.from_sums(A, b, R), _Gram(D, R)
        assert np.max(np.abs(G.A - ref.A)) <= 1e-13 * np.max(np.abs(ref.A))
        assert np.max(np.abs(G.b - ref.b)) <= 1e-13 * np.max(np.abs(ref.b))
        assert np.array_equal(G.c, ref.c)
        A, b, _ = _block_sums((D[i:i + B] for i in range(0, len(D), B)), R)
        G = _Gram.from_sums(A, b, R)
        assert np.array_equal(G.A, ref.A) and np.array_equal(G.b, ref.b)


def test_single_block_gram_is_the_one_shot_product():
    D, y, _ = _instance(46, n=penalized_reg._BLOCK_ROWS, p=30)
    G = _Gram(D, y)
    n = D.shape[0]
    assert np.array_equal(G.A, D.T @ D / n)
    assert np.array_equal(G.b, D.T @ y / n)


def test_lasso_wide_design_uses_certified_solver():
    D, R, lams = _columns_instance(44, 20, 100)
    delta, diag = lasso(D, R[:, 1], lams[1])
    assert diag.converged
    _, ref = pg_lasso(D, R[:, 1], lams[1])
    assert abs(objective(D, R[:, 1], lams[1], delta) - ref) <= 1e-9 * ref
    assert diag.max_kkt_violation <= 1e-6


def test_kkt_exact_on_one_dimensional_solution():
    rng = np.random.default_rng(17)
    d = rng.standard_normal(25)
    y = rng.standard_normal(25)
    n = 25
    lam = 0.3
    rho = d @ y / n
    a = d @ d / n
    delta = np.array([soft_threshold(rho, lam / 2.0) / a])
    assert kkt_check(d[:, None], y, lam, delta) < 1e-12


def test_kkt_zero_vector_above_null():
    D, y, _ = _instance(18)
    lam = null_threshold(D, y)
    assert kkt_check(D, y, lam, np.zeros(D.shape[1])) == 0.0


def test_kkt_flags_perturbation():
    D, y, _ = _instance(19)
    delta, _ = lasso(D, y, 0.1)
    j = int(np.argmax(np.abs(delta)))
    bumped = delta.copy()
    bumped[j] += 1e-3
    assert kkt_check(D, y, 0.1, bumped) > 1e-4


def test_kkt_small_on_converged_solutions():
    settings = LassoSettings()
    for seed in range(20, 30):
        D, y, _ = _instance(seed, n=100, p=12)
        lam = 0.3 * null_threshold(D, y)
        delta, diag = lasso(D, y, lam, settings)
        assert diag.converged
        assert diag.max_kkt_violation <= 10.0 * settings.tol
        assert kkt_check(D, y, lam, delta) == diag.max_kkt_violation


def test_offset_huge_lambda_returns_reference():
    D, y, _ = _instance(30)
    omega = np.full(D.shape[1], 0.7)
    beta, delta, diag = lasso_with_offset(D, y, omega, 1e12)
    assert np.array_equal(beta, omega)
    assert np.array_equal(delta, np.zeros(D.shape[1]))
    assert diag.converged


def test_offset_zero_reference_is_plain_lasso():
    D, y, _ = _instance(31)
    zero = np.zeros(D.shape[1])
    beta, delta, _ = lasso_with_offset(D, y, zero, 0.2)
    plain, _ = lasso(D, y, 0.2)
    assert np.array_equal(delta, plain)
    assert np.array_equal(beta, plain)


def test_offset_objective_equivalence():
    D, y, _ = _instance(32)
    omega = np.linspace(-1.0, 1.0, D.shape[1])
    lam = 0.15
    beta, delta, _ = lasso_with_offset(D, y, omega, lam)
    direct = offset_objective(D, y, omega, beta, lam)
    reduced = objective(D, y - D @ omega, lam, delta)
    assert direct == pytest.approx(reduced, abs=1e-10)
    # and the fit can never do worse than staying at the reference
    assert direct <= offset_objective(D, y, omega, omega, lam) + 1e-12


@pytest.mark.parametrize("c", [2.0, 3.7])
def test_offset_scaling_homogeneity(c):
    D, y, _ = _instance(33)
    omega = np.linspace(0.5, -0.5, D.shape[1])
    lam = 0.2
    tight = LassoSettings(tol=1e-12)
    _, delta, _ = lasso_with_offset(D, y, omega, lam, tight)
    _, scaled, _ = lasso_with_offset(D, c * y, c * omega, c * lam, tight)
    assert np.max(np.abs(scaled - c * delta)) < 1e-10


def test_default_grid_shape():
    grid = default_grid(2.0)
    assert grid.shape == (50,)
    assert grid[0] == 2.0
    assert grid[-1] == pytest.approx(2e-4, rel=1e-12)
    assert np.all(np.diff(grid) < 0)
    assert np.array_equal(default_grid(0.0), [0.0])


def test_cv_single_value_grid():
    D, y, _ = _instance(34)
    omega = np.zeros(D.shape[1])
    best, path = cv_lambda(D, y, omega, grid=[0.25])
    assert best == 0.25
    assert path.shape == (1, 2)


def test_cv_duplicate_grid_deduplicated():
    D, y, _ = _instance(35)
    omega = np.zeros(D.shape[1])
    best_a, path_a = cv_lambda(D, y, omega, grid=[0.1, 0.3, 0.2])
    best_b, path_b = cv_lambda(D, y, omega, grid=[0.3, 0.1, 0.2, 0.3, 0.1])
    assert best_a == best_b
    assert np.array_equal(path_a, path_b)
    assert np.all(np.diff(path_a[:, 0]) < 0)


def test_cv_tie_prefers_larger_lambda():
    # a zero response makes every candidate score identically
    rng = np.random.default_rng(36)
    D = rng.standard_normal((40, 5))
    y = np.zeros(40)
    best, path = cv_lambda(D, y, np.zeros(5), grid=[0.4, 0.1, 0.2])
    assert best == 0.4


def test_cv_validation():
    D, y, _ = _instance(37)
    omega = np.zeros(D.shape[1])
    with pytest.raises(ConfigError):
        cv_lambda(D, y, omega, folds=1)
    with pytest.raises(ConfigError):
        cv_lambda(D[:3], y[:3], omega, folds=5)
    with pytest.raises(ConfigError):
        cv_lambda(D, y, omega, grid=[])
    with pytest.raises(ConfigError):
        cv_lambda(D, y, omega, grid=[0.1, -0.2])
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            cv_lambda(D, y, omega, grid=[0.1, bad])
    with pytest.raises(DimensionError, match="omega_hat must have length 10"):
        cv_lambda(D, y, omega[:-1])


def test_cv_deterministic():
    D, y, _ = _instance(38)
    omega = np.zeros(D.shape[1])
    a = cv_lambda(D, y, omega, seed=5)
    b = cv_lambda(D, y, omega, seed=5)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_cv_choice_beats_grid_endpoints():
    wins = 0
    for seed in range(20):
        D, y, _ = _instance(100 + seed, n=100, p=20, sparsity=4, noise=1.0)
        omega = np.zeros(D.shape[1])
        best, path = cv_lambda(D, y, omega, seed=seed)
        errs = path[:, 1]
        k = int(np.flatnonzero(path[:, 0] == best)[0])
        if errs[k] < errs[0] and errs[k] < errs[-1]:
            wins += 1
    assert wins >= 16


def test_warm_start_contract():
    D, y, _ = _instance(39)
    lam_max = null_threshold(D, y)
    assert warm_start(D, y, lam_max) is None
    assert warm_start(D, y, 2.0 * lam_max) is None
    # wider than its rows (p > 4n): still the exact solution
    rng = np.random.default_rng(40)
    wide, r = rng.standard_normal((5, 30)), rng.standard_normal(5)
    cold, _ = lasso(wide, r, 1e-6)
    assert abs(objective(wide, r, 1e-6, warm_start(wide, r, 1e-6))
               - objective(wide, r, 1e-6, cold)) < 1e-8
    lam = 0.2 * lam_max
    d0 = warm_start(D, y, lam)
    warm, _ = lasso(D, y, lam, delta0=d0)
    cold, _ = lasso(D, y, lam)
    assert abs(objective(D, y, lam, warm)
               - objective(D, y, lam, cold)) < 1e-8

"""Feature map fitting, averaging, imputation, and discrepancy."""

import tracemalloc

import numpy as np
import pytest

from heterotl import feature_map, penalized_reg
from heterotl.core import (ConfigError, ConvergenceError, Dataset,
                           DimensionError, IncompatibleError,
                           InvalidValueError, SupportError)
from heterotl.feature_map import (FeatureMapModel, average_maps,
                                  fit_linear_map, fit_sieve_map, impute,
                                  map_discrepancy)
from heterotl.estimators import _fit_maps
from heterotl.penalized_reg import (LassoSettings, _folds,
                                    _prox_grad_columns, default_grid,
                                    null_threshold, objective)
from heterotl.sieve_basis import expand, unravel
from oracles import (padded_average, pg_lasso, sieve_cv_picks,
                     spectral_norm_svd)


def _linear_proxy(seed, n=500, p1=10, p2=5, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p1))
    P = 10.0 * rng.beta(10.0, 10.0, size=(p1, p2))
    Z = X @ P + noise * rng.standard_normal((n, p2))
    y = rng.standard_normal(n)
    return Dataset(X, y, Z), P


def test_linear_map_noiseless_recovery():
    proxy, P = _linear_proxy(0)
    model = fit_linear_map(proxy)
    assert np.linalg.norm(model.P - P) <= 1e-8
    # and the imputation chain reproduces X P
    rng = np.random.default_rng(1)
    X_t = rng.standard_normal((40, 10))
    assert np.max(np.abs(impute(model, X_t) - X_t @ P)) <= 1e-8


def test_linear_map_orthonormal_design():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((50, 8)))
    P = rng.standard_normal((8, 3))
    Z = Q @ P
    model = fit_linear_map(Dataset(Q, np.zeros(50), Z))
    assert np.max(np.abs(model.P - Q.T @ Z)) < 1e-10


def test_linear_map_error_shrinks_with_n():
    ratios = []
    for seed in range(20):
        errs = []
        for n in (2000, 4000):
            proxy, P = _linear_proxy(300 + seed, n=n, p1=10, p2=5,
                                     noise=1.0)
            errs.append(np.linalg.norm(fit_linear_map(proxy).P - P))
        ratios.append(errs[0] / errs[1])
    assert 1.25 <= np.mean(ratios) <= 1.6


def test_linear_map_residual_orthogonality():
    proxy, _ = _linear_proxy(3, noise=0.7)
    model = fit_linear_map(proxy)
    R = proxy.z - proxy.x @ model.P
    assert np.max(np.abs(proxy.x.T @ R)) < 1e-8


def test_linear_map_ridge_normal_equations():
    proxy, _ = _linear_proxy(4, n=100, noise=0.5)
    tau = 2.5
    model = fit_linear_map(proxy, tau=tau)
    lhs = (proxy.x.T @ proxy.x + tau * np.eye(10)) @ model.P
    assert np.max(np.abs(lhs - proxy.x.T @ proxy.z)) < 1e-8
    assert model.ridge_tau == tau
    huge = fit_linear_map(proxy, tau=1e12)
    assert np.max(np.abs(huge.P)) < 1e-6


def test_linear_map_rank_deficient_flagged():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 10))  # n < p1
    Z = rng.standard_normal((5, 2))
    with pytest.warns(UserWarning, match="rank"):
        model = fit_linear_map(Dataset(X, np.zeros(5), Z))
    assert model.rank_warning


def test_linear_map_validation():
    proxy, _ = _linear_proxy(6, n=30)
    with pytest.raises(IncompatibleError):
        fit_linear_map(proxy.without_z())
    with pytest.raises(ConfigError):
        fit_linear_map(proxy, tau=-1.0)


def _sieve_proxy(seed, n, basis, sparsity=3, p2=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, basis.p1))
    Theta = np.zeros((len(basis), p2))
    for j in range(p2):
        rows = rng.choice(len(basis), size=sparsity, replace=False)
        Theta[rows, j] = rng.uniform(0.5, 1.5, sparsity) * \
            rng.choice([-1.0, 1.0], sparsity)
    Z = expand(X, basis) @ Theta
    return Dataset(X, rng.standard_normal(n), Z), Theta


def test_sieve_map_support_recovery():
    basis = unravel(2, 1, 12)
    hits = 0
    for seed in range(20):
        proxy, Theta = _sieve_proxy(seed, 4000, basis)
        model = fit_sieve_map(proxy, basis)
        if np.all((Theta != 0.0) <= (model.Theta != 0.0)):
            hits += 1
    assert hits >= 18


def test_sieve_map_full_shrinkage():
    basis = unravel(2, 1, 8)
    proxy, _ = _sieve_proxy(7, 200, basis)
    model = fit_sieve_map(proxy, basis, gamma=1e12)
    assert np.array_equal(model.Theta, np.zeros((8, 2)))


def test_sieve_map_unpenalized_matches_least_squares():
    basis = unravel(2, 1, 8)
    proxy, _ = _sieve_proxy(8, 200, basis)
    model = fit_sieve_map(proxy, basis, gamma=0.0,
                          settings=LassoSettings(tol=1e-12))
    Psi = expand(proxy.x, basis)
    ref, *_ = np.linalg.lstsq(Psi, proxy.z, rcond=None)
    assert np.max(np.abs(model.Theta - ref)) < 1e-8


def test_sieve_map_columns_match_projected_gradient():
    basis = unravel(2, 1, 10)
    proxy, _ = _sieve_proxy(21, 150, basis, p2=3)
    rng = np.random.default_rng(22)
    proxy = Dataset(proxy.x, proxy.y,
                    proxy.z + 0.3 * rng.standard_normal(proxy.z.shape))
    Psi = expand(proxy.x, basis)
    top = max(null_threshold(Psi, z) for z in proxy.z.T)
    for gamma in (0.0, 0.05, top):
        model = fit_sieve_map(proxy, basis, gamma=gamma)
        for j, z in enumerate(proxy.z.T):
            _, ref = pg_lasso(Psi, z, gamma)
            obj = objective(Psi, z, gamma, model.Theta[:, j])
            assert abs(obj - ref) <= 1e-9 * ref
    # at the largest null threshold every column is exactly zero
    assert np.array_equal(model.Theta, np.zeros((10, 3)))


def test_sieve_map_cv_gamma_runs(monkeypatch):
    # the sieve stage keeps FISTA for its folds too; only target solves
    # trace the exact path
    def refuse(*args):
        raise AssertionError("a sieve CV fold traced the exact path")

    monkeypatch.setattr(penalized_reg, "_trace", refuse)
    basis = unravel(2, 1, 6)
    proxy, _ = _sieve_proxy(9, 60, basis)
    model = fit_sieve_map(proxy, basis, gamma="cv", cv_folds=3)
    assert model.Theta.shape == (6, 2)
    assert np.all(np.isfinite(model.Theta))


def _spy_solves(monkeypatch):
    """(gram, penalties) of every sieve solve from now on; the last is the
    map's."""
    solves = []

    def solve(G, lams, settings):
        solves.append((G, np.array(lams)))
        return _prox_grad_columns(G, lams, settings)

    monkeypatch.setattr(feature_map, "_prox_grad_columns", solve)
    return solves


def _spy_grams(monkeypatch):
    """How ("built" from a design, or "summed" from _block_sums's sums)
    and on how many rows and responses every gram from now on is made."""
    grams = []

    class Spy(penalized_reg._Gram):
        def __init__(self, D, R):
            grams.append(("built", R.shape))
            super().__init__(D, R)

        @classmethod
        def from_sums(cls, A, b, R, **kw):
            grams.append(("summed", R.shape))
            return super().from_sums(A, b, R, **kw)

    monkeypatch.setattr(penalized_reg, "_Gram", Spy)
    monkeypatch.setattr(feature_map, "_Gram", Spy)
    return grams


def test_sieve_map_cv_gamma_builds_one_gram_per_fold(monkeypatch):
    # every z column reads its fold gram off one gram of the fold's
    # training rows, the all-rows sums less the fold's own, and picks the
    # gamma that the earlier per-fold loop picks on the whole expansion,
    # with grids from the all-rows sums
    basis = unravel(2, 1, 12)
    proxy, _ = _sieve_proxy(25, 90, basis, p2=4)
    rng = np.random.default_rng(26)
    proxy = Dataset(proxy.x, proxy.y,
                    proxy.z + 0.3 * rng.standard_normal(proxy.z.shape))
    with monkeypatch.context() as m:
        grams, solves = _spy_grams(m), _spy_solves(m)
        fit_sieve_map(proxy, basis, gamma="cv", cv_folds=3, cv_seed=4)
    assert grams == [("summed", (60, 4))] * 3 + [("summed", (90, 4))]
    # per fold one single-response solve per column, then the map
    assert [(G.w.size, G.b.ndim) for G, _ in solves] == \
        [(12, 1)] * 12 + [(12, 2)]
    grids = [lams for _, lams in solves[:4]]
    for k, (_, lams) in enumerate(solves[:-1]):
        assert np.array_equal(lams, grids[k % 4])
    Psi = expand(proxy.x, basis)
    for grid, z in zip(grids, proxy.z.T):
        assert _close(grid, default_grid(null_threshold(Psi, z)), 1e-13)
    assert np.array_equal(solves[-1][1], sieve_cv_picks(
        Psi, proxy.z, grids, 3, 4, LassoSettings()))


def test_sieve_map_expands_one_block_at_a_time(monkeypatch):
    basis = unravel(2, 1, 10)
    B = penalized_reg._BLOCK_ROWS
    n = 2 * B + 7
    proxy, _ = _sieve_proxy(23, n, basis)
    rows = []

    def spy(X, basis):
        rows.append(X.shape[0])
        return expand(X, basis)

    monkeypatch.setattr(feature_map, "expand", spy)
    model = fit_sieve_map(proxy, basis, gamma=0.01)
    assert rows == [B, B, 7]
    # the streamed fit solves the same problem as one on the whole design
    Psi = expand(proxy.x, basis)
    for j, z in enumerate(proxy.z.T):
        _, ref = pg_lasso(Psi, z, 0.01)
        obj = objective(Psi, z, 0.01, model.Theta[:, j])
        assert abs(obj - ref) <= 1e-9 * ref


def test_sieve_map_support_error_names_its_row_in_x():
    basis = unravel(2, 1, 6)
    B = penalized_reg._BLOCK_ROWS
    proxy, _ = _sieve_proxy(24, B + 100, basis)
    X = proxy.x.copy()
    X[B + 3, 1] = 1.5
    with pytest.raises(SupportError, match=rf"\({B + 3}, 1\)"):
        fit_sieve_map(Dataset(X, proxy.y, proxy.z), basis)


def _peak_bytes(f, *args):
    """f(*args) and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_sieve_map_peak_memory_is_far_below_its_design(monkeypatch):
    # n_p x M = 6000 x 1261 floats would be a 60 MB design; the fit holds
    # the 12.7 MB gram, one 5.2 MB block and a panel of its update
    n, M = 6000, 1261
    B = penalized_reg._BLOCK_ROWS
    basis = unravel(20, 1, M)
    proxy, _ = _sieve_proxy(25, n, basis)
    model, peak = _peak_bytes(fit_sieve_map, proxy, basis)
    assert model.Theta.shape == (M, 2)
    assert peak <= 8 * M * (M + 2 * B)
    # the default path scores rungs up to 401 of the 1261 cap here: it
    # holds the top rung's gram, one block and a few copies of the n x 20
    # inputs (folds, scaling), never the 19 MB n x 401 expansion
    proxy, _ = _sieve_proxy(25, n, unravel(20, 1, 201))
    rungs, rung_error = [], feature_map._rung_error

    def spy(train, X_held, Z_held, basis, *args):
        rungs.append(len(basis))
        return rung_error(train, X_held, Z_held, basis, *args)

    monkeypatch.setattr(feature_map, "_rung_error", spy)
    model, peak = _peak_bytes(_fit_maps, [proxy], "sieve", 0.0, "auto", 1.0,
                              1, None, 64, LassoSettings(), 5, 0)
    assert rungs == [101, 201, 401]
    assert model.Theta.shape == (201, 2)
    top = rungs[-1]
    assert peak <= 8 * (top * (top + 2 * B) + 4 * n * 20)


def test_sieve_map_cv_gamma_peak_memory_is_far_below_its_design():
    # gamma="cv" used to expand every row for its folds: 6000 x 201
    # floats, a 9.6 MB design, with a 7.7 MB copy of its training rows
    # per fold. It now holds the all-rows sums and one fold's, one block
    # and a panel of its update, a fold's held-out predictions over a
    # 50-point grid and a couple of copies of the n x 20 inputs
    n, M, L = 6000, 201, 50
    B = penalized_reg._BLOCK_ROWS
    basis = unravel(20, 1, M)
    proxy, _ = _sieve_proxy(25, n, basis)
    model, peak = _peak_bytes(fit_sieve_map, proxy, basis, "cv")
    assert model.Theta.shape == (M, 2)
    assert peak <= 8 * (2 * M * M + 2 * B * M + n // 5 * L + 2 * n * 20)
    assert peak <= n * M * 8 / 2


def test_ladder_rungs_double_up_to_the_cap():
    assert feature_map._ladder(50) == [50]
    assert feature_map._ladder(101) == [101]
    assert feature_map._ladder(102) == [101, 102]
    assert feature_map._ladder(1261) == [101, 201, 401, 801, 1261]
    assert feature_map._ladder(1601) == [101, 201, 401, 801, 1601]


def test_leading_block_is_the_smaller_truncation():
    for p1_prime in (1, 2):
        basis = unravel(20, p1_prime, 1261)
        for M in (101, 201, 1261):
            assert feature_map._leading(basis, M).to_dict() == \
                unravel(20, p1_prime, M).to_dict()


def _scripted_ladder(monkeypatch, errors):
    """The rungs scored and the truncation picked under the 1261 cap when
    the k-th rung scored has held-out error errors[k]."""
    scored = []

    def script(train, X_held, Z_held, basis, *args):
        scored.append(len(basis))
        return errors[len(scored) - 1]

    monkeypatch.setattr(feature_map, "_rung_error", script)
    proxy, _ = _sieve_proxy(30, 300, unravel(20, 1, 10))
    model = fit_sieve_map(proxy, unravel(20, 1, 1261), ladder=True)
    return scored, len(model.basis)


@pytest.mark.parametrize("errors, scored, picked", [
    ([3.0, 2.0, 2.5, 1.0, 0.5], [101, 201, 401], 201),
    ([3.0, 2.0, 2.0, 1.0, 0.5], [101, 201, 401], 201),
    ([3.0, 4.0, 1.0, 0.5, 0.1], [101, 201], 101),
    ([5.0, 4.0, 3.0, 2.0, 1.0], [101, 201, 401, 801, 1261], 1261),
])
def test_ladder_stops_at_the_first_rung_that_does_not_improve(
        monkeypatch, errors, scored, picked):
    assert _scripted_ladder(monkeypatch, errors) == (scored, picked)


def _close(a, b, rel):
    """Entries of a within rel of b's largest entry."""
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def _gram_close(G, ref, rel=1e-13):
    return (_close(G.A, ref.A, rel) and _close(G.b, ref.b, rel)
            and _close(G.c, ref.c, rel) and np.array_equal(G.A, G.A.T))


def test_ladder_fits_without_fold_zero_and_scores_on_it(monkeypatch):
    basis = unravel(5, 1, 125)
    proxy, _ = _sieve_proxy(31, 400, unravel(5, 1, 30))
    x_scale = np.full(5, 1.25)
    calls, rung_error = [], feature_map._rung_error

    def spy(G, X_held, Z_held, basis, *args):
        calls.append((G, X_held, Z_held, basis))
        return rung_error(G, X_held, Z_held, basis, *args)

    monkeypatch.setattr(feature_map, "_rung_error", spy)
    solves = _spy_solves(monkeypatch)
    model = fit_sieve_map(proxy, basis, x_scale=x_scale, cv_folds=4,
                          cv_seed=9, ladder=True)
    picked, G_all = model.basis, solves[-1][0]
    held = _folds(400, 4, 9)[0]
    rest = np.setdiff1d(np.arange(400), held)
    assert [len(c[3]) for c in calls] == [101, 125]
    X = proxy.x / x_scale
    for G, X_held, Z_held, rung in calls:
        # each rung's grown gram is its training rows' gram, rows in
        # order and scaled by x_scale once
        assert _gram_close(G, penalized_reg._Gram(expand(X[rest], rung),
                                                  proxy.z[rest]))
        assert np.array_equal(X_held, X[held])
        assert np.array_equal(Z_held, proxy.z[held])
    assert len(picked) in (101, 125)
    # the picked rung's training sums plus the held-out rows' give the
    # gram of every row
    assert _gram_close(G_all, penalized_reg._Gram(expand(X, picked),
                                                  proxy.z))


@pytest.mark.parametrize("errors, picked", [([2.0, 1.0, 1.5], 201),
                                            ([2.0, 1.0, 0.5], 401)])
def test_ladder_grows_one_gram_over_every_rung(monkeypatch, errors,
                                               picked):
    # the 600 training rows are a full block and a short one, and rung
    # 401 straddles the second panel: each rung's grown gram and the
    # picked rung's all-rows gram match grams built from scratch
    basis = unravel(20, 1, 401)
    proxy, _ = _sieve_proxy(34, 750, unravel(20, 1, 40))
    held = _folds(750, 5, 0)[0]
    rest = np.setdiff1d(np.arange(750), held)
    grams = []

    def script(G, X_held, Z_held, rung, *args):
        grams.append((G, rung))
        return errors[len(grams) - 1]

    monkeypatch.setattr(feature_map, "_rung_error", script)
    solves = _spy_solves(monkeypatch)
    rung = fit_sieve_map(proxy, basis, ladder=True).basis
    (G_all, _), = solves
    assert [len(r) for _, r in grams] == [101, 201, 401]
    for G, r in grams:
        assert _gram_close(G, penalized_reg._Gram(expand(proxy.x[rest], r),
                                                  proxy.z[rest]))
    assert len(rung) == picked
    assert _gram_close(G_all, penalized_reg._Gram(expand(proxy.x, rung),
                                                  proxy.z))


def test_ladder_never_expands_more_than_a_block(monkeypatch):
    # every expansion any sieve fit makes, the ladder's and the cv folds'
    # held-out scoring included, is one row block
    proxy, _ = _sieve_proxy(35, 1400, unravel(20, 1, 40))
    rows = []

    def spy(X, basis):
        rows.append(X.shape[0])
        return expand(X, basis)

    monkeypatch.setattr(feature_map, "expand", spy)
    for gamma, ladder in (("auto", True), ("cv", True), (0.01, False),
                          ("cv", False)):
        rows.clear()
        model = fit_sieve_map(proxy, unravel(20, 1, 401), gamma,
                              ladder=ladder)
        # gamma="cv" last: per fold of 280 rows, their sums (but for fold
        # 0 after the ladder, whose training sums the ladder leaves) and
        # the scoring of each column's grid
        folds = [280] * 15 if gamma == "cv" else []
        if gamma == "cv" and ladder:
            folds = folds[1:]
        head = rows[:len(rows) - len(folds)]
        assert rows[len(head):] == folds
        if ladder:
            # per rung scored, the 1120 training rows in blocks of 512 and
            # the 280 held-out rows; then the held-out rows once more at
            # the pick
            k = len(head) // 4
            assert k >= 2 and head == [512, 512, 96, 280] * k + [280]
        else:
            # the sums over all rows
            assert head == [512, 512, 376]
        assert model.Theta.shape == (len(model.basis), 2)


def test_ladder_leaves_a_cap_of_101_unfit(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rung was fit under a cap of 101")

    monkeypatch.setattr(feature_map, "_rung_error", refuse)
    proxy, _ = _sieve_proxy(32, 300, unravel(20, 1, 10))
    for M in (10, 101):
        basis = unravel(20, 1, M)
        model = fit_sieve_map(proxy, basis, ladder=True)
        assert model.basis is basis
        assert np.array_equal(model.Theta, fit_sieve_map(proxy, basis).Theta)


def test_ladder_support_error_names_its_row_in_x():
    basis = unravel(5, 1, 125)
    proxy, _ = _sieve_proxy(33, 300, unravel(5, 1, 10))
    X = proxy.x.copy()
    X[257, 3] = 1.5
    with pytest.raises(SupportError, match=r"\(257, 3\)"):
        fit_sieve_map(Dataset(X, proxy.y, proxy.z), basis, ladder=True)


@pytest.mark.parametrize("x_scale, error", [
    (np.ones(3), DimensionError),
    (np.ones(1), DimensionError),
    (np.ones((1, 2)), DimensionError),
    ([0.0, 1.0], InvalidValueError),
    ([-1.0, 1.0], InvalidValueError),
    ([np.nan, 1.0], InvalidValueError),
    ([np.inf, 1.0], InvalidValueError),
])
def test_sieve_map_checks_x_scale_before_any_fit(monkeypatch, x_scale,
                                                 error):
    def refuse(*args):
        raise AssertionError("a sieve map was fit with a bad x_scale")

    monkeypatch.setattr(feature_map, "_prox_grad_columns", refuse)
    proxy, _ = _sieve_proxy(36, 300, unravel(2, 1, 6))
    for gamma, basis, ladder in (("auto", unravel(2, 1, 6), False),
                                 ("cv", unravel(2, 1, 6), False),
                                 ("auto", unravel(2, 2, 130), True)):
        with pytest.raises(error, match="x_scale"):
            fit_sieve_map(proxy, basis, gamma, x_scale=x_scale,
                          ladder=ladder)
    with pytest.raises(error, match="x_scale"):
        FeatureMapModel("sieve", basis=unravel(2, 1, 6),
                        Theta=np.zeros((6, 2)), x_scale=x_scale)


def test_sieve_map_non_convergence_names_column():
    basis = unravel(2, 1, 8)
    rng = np.random.default_rng(10)
    X = rng.uniform(-1.0, 1.0, size=(100, 2))
    base = rng.standard_normal(100)
    # nearly duplicated responses on a correlated expansion need more
    # than one sweep
    Z = np.column_stack([base, base + 0.6 * rng.standard_normal(100)])
    proxy = Dataset(X, np.zeros(100), Z)
    with pytest.raises(ConvergenceError, match="column"):
        fit_sieve_map(proxy, basis, gamma=0.0,
                      settings=LassoSettings(max_iters=1))


def test_sieve_map_needs_z():
    basis = unravel(2, 1, 4)
    with pytest.raises(IncompatibleError):
        fit_sieve_map(Dataset(np.zeros((4, 2)), np.zeros(4)), basis)
    with pytest.raises(ConfigError):
        proxy, _ = _sieve_proxy(11, 50, basis)
        fit_sieve_map(proxy, basis, gamma=-0.5)


def test_average_single_map_identity():
    proxy, _ = _linear_proxy(12, n=50)
    model = fit_linear_map(proxy)
    avg = average_maps([model])
    assert np.array_equal(avg.P, model.P)
    assert avg.fitted_on == 1


def test_average_opposite_maps_cancel():
    P = np.arange(6.0).reshape(3, 2)
    a = FeatureMapModel("linear", P=P)
    b = FeatureMapModel("linear", P=-P)
    assert np.array_equal(average_maps([a, b]).P, np.zeros((3, 2)))


def test_average_sieve_padding_matches_loop_oracle():
    rng = np.random.default_rng(13)
    sizes = (5, 8, 8)
    maps = []
    for M in sizes:
        basis = unravel(2, 1, M)
        Theta = rng.standard_normal((M, 3))
        maps.append(FeatureMapModel("sieve", basis=basis, Theta=Theta))
    avg = average_maps(maps)
    assert avg.Theta.shape == (8, 3)
    expected = padded_average([m.Theta for m in maps], 8)
    assert np.max(np.abs(avg.Theta - expected)) < 1e-12
    assert avg.fitted_on == 3


def test_average_incompatible_maps():
    lin = FeatureMapModel("linear", P=np.zeros((2, 2)))
    basis = unravel(2, 1, 4)
    sv = FeatureMapModel("sieve", basis=basis, Theta=np.zeros((4, 2)))
    with pytest.raises(IncompatibleError):
        average_maps([lin, sv])
    with pytest.raises(IncompatibleError):
        average_maps([lin, FeatureMapModel("linear", P=np.zeros((2, 3)))])
    other = unravel(2, 1, 4, a=2.0)
    with pytest.raises(IncompatibleError):
        average_maps([sv, FeatureMapModel("sieve", basis=other,
                                          Theta=np.zeros((4, 2)))])
    with pytest.raises(IncompatibleError):
        average_maps([])


def test_impute_zero_map():
    model = FeatureMapModel("linear", P=np.zeros((3, 2)))
    out = impute(model, np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_impute_constant_sieve_rows():
    basis = unravel(2, 1, 6)
    Theta = np.zeros((6, 3))
    Theta[0] = [1.0, -2.0, 0.5]
    model = FeatureMapModel("sieve", basis=basis, Theta=Theta)
    rng = np.random.default_rng(14)
    out = impute(model, rng.uniform(-1.0, 1.0, size=(9, 2)))
    assert np.max(np.abs(out - Theta[0])) < 1e-12


def test_impute_sieve_in_blocks_matches_one_shot():
    basis = unravel(3, 2, 40)
    rng = np.random.default_rng(26)
    Theta = rng.standard_normal((40, 3))
    model = FeatureMapModel("sieve", basis=basis, Theta=Theta,
                            x_scale=[2.0, 2.0, 2.0])
    B = penalized_reg._BLOCK_ROWS
    for n in (0, 5, B, 3 * B + 1):
        X = rng.uniform(-2.0, 2.0, size=(n, 3))
        out = impute(model, X)
        ref = expand(X / 2.0, basis) @ Theta
        assert out.shape == (n, 3)
        assert np.max(np.abs(out - ref), initial=0.0) \
            <= 1e-12 * np.max(np.abs(ref), initial=0.0)


def test_impute_linear_in_coefficients():
    proxy_a, _ = _linear_proxy(15, n=60)
    proxy_b, _ = _linear_proxy(16, n=60)
    a = fit_linear_map(proxy_a)
    b = fit_linear_map(proxy_b)
    rng = np.random.default_rng(17)
    X = rng.standard_normal((12, 10))
    mixed = impute(average_maps([a, b]), X)
    parts = 0.5 * (impute(a, X) + impute(b, X))
    assert np.max(np.abs(mixed - parts)) < 1e-12


def test_impute_errors_and_clamping():
    basis = unravel(2, 1, 5)
    model = FeatureMapModel("sieve", basis=basis, Theta=np.ones((5, 1)))
    with pytest.raises(DimensionError):
        impute(model, np.zeros((4, 3)))
    with pytest.raises(SupportError):
        impute(model, np.array([[1.2, 0.0]]))
    X = np.array([[1.005, 0.0]])
    with pytest.warns(UserWarning, match="clamp"):
        out = impute(model, X, clamp_tol=0.01)
    clipped = impute(model, np.array([[1.0, 0.0]]))
    assert np.array_equal(out, clipped)
    with pytest.raises(SupportError):
        impute(model, np.array([[1.05, 0.0]]), clamp_tol=0.01)


def test_impute_rejects_non_finite_entries():
    linear = FeatureMapModel("linear", P=np.ones((2, 1)))
    # x_scale 10 would bring 5.0 inside the support; the NaN is named first
    sieve = FeatureMapModel("sieve", basis=unravel(2, 1, 5),
                            Theta=np.ones((5, 1)), x_scale=[10.0, 10.0])
    for model in (linear, sieve):
        for bad in (np.nan, np.inf):
            X = np.array([[5.0, 0.0], [0.0, bad]])
            with pytest.raises(InvalidValueError, match=r"\(1, 1\)"):
                impute(model, X)
    with pytest.raises(InvalidValueError, match=r"\(0, 0\)"):
        impute(FeatureMapModel("sieve", basis=unravel(2, 1, 5),
                               Theta=np.ones((5, 1))),
               np.array([[np.nan, 5.0]]))


def test_discrepancy_identical_is_zero():
    model = FeatureMapModel("linear", P=np.ones((4, 2)))
    assert map_discrepancy(model, model) == 0.0


def test_discrepancy_diagonal():
    a = FeatureMapModel("linear", P=np.diag([3.0, 1.0]))
    b = FeatureMapModel("linear", P=np.zeros((2, 2)))
    assert map_discrepancy(a, b) == pytest.approx(3.0, abs=1e-10)


def test_discrepancy_matches_svd_oracle():
    rng = np.random.default_rng(18)
    Pa = rng.standard_normal((10, 6))
    Pb = rng.standard_normal((10, 6))
    a = FeatureMapModel("linear", P=Pa)
    b = FeatureMapModel("linear", P=Pb)
    assert map_discrepancy(a, b) == pytest.approx(
        spectral_norm_svd(Pa - Pb), abs=1e-8)


def test_discrepancy_pads_sieve_truncations():
    rng = np.random.default_rng(19)
    small = unravel(2, 1, 5)
    big = unravel(2, 1, 9)
    Ta = rng.standard_normal((5, 2))
    Tb = rng.standard_normal((9, 2))
    a = FeatureMapModel("sieve", basis=small, Theta=Ta)
    b = FeatureMapModel("sieve", basis=big, Theta=Tb)
    padded = np.zeros((9, 2))
    padded[:5] = Ta
    assert map_discrepancy(a, b) == pytest.approx(
        spectral_norm_svd(padded - Tb), abs=1e-8)


def test_discrepancy_incompatible():
    lin = FeatureMapModel("linear", P=np.zeros((2, 2)))
    basis = unravel(2, 1, 4)
    sv = FeatureMapModel("sieve", basis=basis, Theta=np.zeros((4, 2)))
    with pytest.raises(IncompatibleError):
        map_discrepancy(lin, sv)
    with pytest.raises(IncompatibleError):
        map_discrepancy(lin, FeatureMapModel("linear", P=np.zeros((2, 3))))


def test_feature_map_dict_round_trip():
    proxy, _ = _linear_proxy(20, n=40)
    lin = fit_linear_map(proxy)
    back = FeatureMapModel.from_dict(lin.to_dict())
    assert np.array_equal(back.P, lin.P)
    assert back.kind == "linear"

    basis = unravel(2, 1, 6)
    sv = FeatureMapModel("sieve", basis=basis,
                         Theta=np.arange(12.0).reshape(6, 2),
                         x_scale=np.array([2.0, 3.0]))
    back = FeatureMapModel.from_dict(sv.to_dict())
    assert np.array_equal(back.Theta, sv.Theta)
    assert np.array_equal(back.x_scale, sv.x_scale)
    assert back.basis.multi_indices == basis.multi_indices

"""Acceptance gate: one test per release criterion, budgets included.

The Monte-Carlo fixtures are module-scoped because two criteria read the
same replication runs. Budgets are wall-clock on a single worker.
"""

import time

import numpy as np
import pytest

from heterotl.cli import main as cli_main
from heterotl.core import Dataset
from heterotl.feature_map import (average_maps, fit_linear_map,
                                  map_discrepancy)
from heterotl.penalized_reg import (LassoSettings, kkt_check, lasso,
                                    lasso_with_offset, null_threshold,
                                    objective)
from heterotl.sieve_basis import expand, unravel
from heterotl.simulation import (SimConfig, gen_linear_scenario,
                                 run_replications)
from oracles import offset_objective, pg_lasso, pg_objective


def _timed(config):
    start = time.perf_counter()
    report = run_replications(config)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig1_runs():
    runs = {}
    for n_t in (30, 50, 100):
        cfg = SimConfig(scenario="linear", K=2, n_p=2000, n_t=n_t,
                        p1=20, p2=20, reps=50, seed=20240 + n_t,
                        n_test=200)
        runs[n_t] = _timed(cfg)
    return runs


@pytest.fixture(scope="module")
def fig5_run():
    cfg = SimConfig(scenario="nonlinear", K=2, n_p=3000, n_t=50,
                    p1=20, p2=20, reps=50, seed=77, n_test=200)
    return _timed(cfg)


def test_criterion_1_solver_matches_long_run_reference():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    sizes = (4, 6, 8)
    levels = (0.05, 0.2, 1.0)
    tight = LassoSettings(tol=1e-12)
    for i in range(30):
        p = sizes[i % 3]
        lam = levels[(i // 3) % 3]
        D = rng.standard_normal((20, p))
        beta = np.zeros(p)
        beta[:2] = rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
        y = D @ beta + 0.5 * rng.standard_normal(20)
        delta, _ = lasso(D, y, lam, tight)
        ref_delta, _ = pg_lasso(D, y, lam)
        gap = abs(objective(D, y, lam, delta) -
                  pg_objective(D, y, lam, ref_delta))
        assert gap <= 1e-9
        assert kkt_check(D, y, lam, delta) <= 1e-8
    assert time.perf_counter() - start < 10.0


def test_criterion_2_offset_never_worse_than_reference():
    rng = np.random.default_rng(22)
    start = time.perf_counter()
    for _ in range(10):
        D = rng.standard_normal((40, 12))
        y = rng.standard_normal(40)
        omega = rng.standard_normal(12)
        lam = float(rng.uniform(0.01, 0.5))
        beta, _, _ = lasso_with_offset(D, y, omega, lam)
        assert offset_objective(D, y, omega, beta, lam) <= \
            offset_objective(D, y, omega, omega, lam) + 1e-12
        bar = null_threshold(D, y - D @ omega)
        frozen, _, _ = lasso_with_offset(D, y, omega, bar)
        assert np.array_equal(frozen, omega)
    assert time.perf_counter() - start < 1.0


def test_criterion_3_basis_gram_is_near_identity():
    start = time.perf_counter()
    basis = unravel(2, 2, 10)
    X = np.random.default_rng(33).uniform(-1.0, 1.0, size=(200_000, 2))
    Psi = expand(X, basis)
    G = Psi.T @ Psi / X.shape[0]
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) <= 0.02
    assert np.max(np.abs(np.diag(G) - 1.0)) <= 0.02
    assert time.perf_counter() - start < 5.0


def test_criterion_4_linear_map_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    X = rng.standard_normal((500, 10))
    P = rng.standard_normal((10, 5))
    fitted = fit_linear_map(Dataset(X, np.zeros(500), X @ P))
    assert np.linalg.norm(fitted.P - P) <= 1e-8

    wins = 0
    for seed in range(20):
        r2 = np.random.default_rng(100 + seed)
        P2 = r2.standard_normal((10, 5))
        errs = []
        for n in (1000, 4000):
            Xn = r2.standard_normal((n, 10))
            Zn = Xn @ P2 + r2.standard_normal((n, 5))
            model = fit_linear_map(Dataset(Xn, np.zeros(n), Zn))
            errs.append(np.linalg.norm(model.P - P2))
        wins += errs[1] < errs[0]
    assert wins >= 19
    assert time.perf_counter() - start < 10.0


def test_criterion_5_linear_scenario_trend(fig1_runs):
    med = {}
    for n_t, (report, _) in fig1_runs.items():
        assert report.failures == []
        med[n_t] = {m: report.aggregates[m]["map"]["median"]
                    for m in ("htl", "homogeneous", "target_lasso")}
    assert med[50]["htl"] < med[50]["homogeneous"] < med[50]["target_lasso"]
    assert med[100]["htl"] < med[50]["htl"] < med[30]["htl"]
    assert sum(t for _, t in fig1_runs.values()) < 300.0


def test_criterion_6_nonlinear_scenario_trend(fig5_run):
    report, elapsed = fig5_run
    assert report.failures == []
    htl = report.aggregates["htl"]["map"]["median"]
    hom = report.aggregates["homogeneous"]["map"]["median"]
    las = report.aggregates["target_lasso"]["map"]["median"]
    assert htl <= 0.8 * hom
    assert abs(hom - las) <= 0.15 * las
    assert elapsed < 600.0


def test_criterion_7_per_replication_estimation_error(fig1_runs, fig5_run):
    for report in (fig1_runs[50][0], fig5_run[0]):
        htl = np.array(report.method_values("htl", "l1_err_beta1"))
        hom = np.array(report.method_values("homogeneous", "l1_err_beta1"))
        assert htl.shape == hom.shape == (50,)
        assert np.mean(htl < hom) >= 0.9


def test_criterion_8_degenerate_transfer_is_exact():
    # with every contrast and noise knob at zero the proxy designs are
    # exactly collinear, so the reference fit leans on the minimum-norm
    # solution; predictions must still match the truth
    cfg = SimConfig(scenario="linear", K=2, n_p=200, n_t=40, p1=6, p2=5,
                    reps=3, seed=8, n_test=100, delta_scale=0.0,
                    map_perturb_scale=0.0, map_noise_scale=0.0,
                    model_noise_scale=0.0)
    report = run_replications(cfg)
    assert report.failures == []
    assert max(report.method_values("htl", "map")) <= 1e-6


def test_criterion_9_simulate_is_byte_deterministic(tmp_path):
    args = ["simulate", "--scenario", "linear", "--K", "2", "--n-p", "120",
            "--n-t", "30", "--n-test", "50", "--p1", "5", "--p2", "4",
            "--reps", "3", "--seed", "314"]
    for sub in ("a", "b"):
        assert cli_main(args + ["--out", str(tmp_path / sub)]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()


def test_htl_error_rises_with_map_and_contrast_gaps():
    # the abstract's dependencies at fig1 scale, on the fig1 fixture's
    # master seed: htl error rises as the proxies' maps drift from the
    # target's and as the proxies' coefficients do, and the maps' drift
    # eats htl's edge over the homogeneous baseline
    start = time.perf_counter()
    fig1 = dict(scenario="linear", K=2, n_p=2000, n_t=50, p1=20, p2=20,
                n_test=200, reps=20, seed=20290)

    def medians(**level):
        report = run_replications(SimConfig(**fig1, **level))
        assert report.failures == []
        return {m: report.aggregates[m]["map"]["median"]
                for m in ("htl", "homogeneous")}

    near, far = medians(map_perturb_scale=0.0), medians(map_perturb_scale=4.0)
    assert far["htl"] > near["htl"]
    assert far["homogeneous"] - far["htl"] < \
        near["homogeneous"] - near["htl"]
    assert medians(delta_scale=3.0)["htl"] > medians(delta_scale=0.0)["htl"]

    gaps = []
    for level in (0.0, 1.0, 4.0):
        scen = gen_linear_scenario(
            SimConfig(**fig1, map_perturb_scale=level), 7)
        fitted = average_maps([fit_linear_map(pr) for pr in scen.proxies])
        gaps.append(map_discrepancy(fitted, scen.truth.true_map_target))
    assert gaps[0] < gaps[1] < gaps[2]
    assert time.perf_counter() - start < 60.0


def test_htl_estimation_error_falls_with_proxy_sample_size():
    # the abstract's dependence on proxy sample size, at fig1 scale on the
    # fig1 fixture's master seed: the paper bounds estimation error, and
    # htl's median l1 error on beta_1 falls as n_p grows (MAPE sits on the
    # test-noise floor and cannot show it)
    start = time.perf_counter()
    fig1 = dict(scenario="linear", K=2, n_t=50, p1=20, p2=20, n_test=200,
                reps=20, seed=20290)
    medians = []
    for n_p in (60, 200, 800, 3200):
        report = run_replications(SimConfig(**fig1, n_p=n_p))
        assert report.failures == []
        medians.append(report.aggregates["htl"]["l1_err_beta1"]["median"])
    assert all(a > b for a, b in zip(medians, medians[1:])), medians
    assert time.perf_counter() - start < 60.0

"""Scenario generators and the replication harness."""

import numpy as np
import pytest

from heterotl.core import ConfigError
from heterotl.simulation import (MetricsReport, SimConfig, _h_values,
                                 gen_beta_star, gen_delta_star,
                                 gen_linear_scenario, gen_nonlinear_scenario,
                                 rep_seed_for, run_replications)
from oracles import block_positions, h_reference


def _toy_linear(**overrides):
    base = dict(scenario="linear", K=1, n_p=60, n_t=20, p1=4, p2=4,
                reps=2, seed=123, n_test=30, lambda_policy="fixed",
                lambda_value=0.5)
    base.update(overrides)
    return SimConfig(**base)


def test_beta_star_single_block():
    assert np.array_equal(gen_beta_star(8, "linear"),
                          [1.0, 0, 0, 0, 0, 0, 0, 0])


def test_beta_star_linear_count():
    v = gen_beta_star(100, "linear")
    assert int(v.sum()) == 12
    assert set(np.unique(v)) <= {0.0, 1.0}


def test_beta_star_nonlinear_tiling():
    v = gen_beta_star(40, "nonlinear")
    assert int(v.sum()) == 6
    assert list(np.flatnonzero(v)) == block_positions(40, 6)


def test_beta_star_block_count_guard():
    with pytest.raises(ConfigError):
        gen_beta_star(1, "linear")


def test_delta_star_sparsity_counts():
    assert np.count_nonzero(gen_delta_star(2, True, 0)) == 1
    assert np.count_nonzero(gen_delta_star(50, True, 1)) == 5


def test_delta_star_dense_variance():
    v = gen_delta_star(100_000, False, 2)
    assert np.var(v) == pytest.approx(1.0 / 16.0, rel=0.05)


def test_delta_star_seeded():
    assert np.array_equal(gen_delta_star(30, True, 9),
                          gen_delta_star(30, True, 9))
    assert not np.array_equal(gen_delta_star(30, True, 9),
                              gen_delta_star(30, True, 10))


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        _toy_linear(scenario="cubic")
    with pytest.raises(ConfigError):
        _toy_linear(n_t=0)
    with pytest.raises(ConfigError):
        _toy_linear(reps=-1)
    with pytest.raises(ConfigError):
        _toy_linear(lambda_policy="fixed", lambda_value=None)
    with pytest.raises(ConfigError):
        _toy_linear(lambda_policy="oracle")
    with pytest.raises(ConfigError):
        _toy_linear(p1=1, p2=1)  # block count rounds to zero
    with pytest.raises(ConfigError):
        _toy_linear(scenario="nonlinear", p1=4, p2=8)
    with pytest.raises(ConfigError):
        _toy_linear(delta_scale=-0.5)
    with pytest.raises(ConfigError):
        _toy_linear(tol=0.0)
    with pytest.raises(ConfigError):
        _toy_linear(max_iters=0)
    with pytest.raises(ConfigError):
        _toy_linear(map_kind="quadratic")


def test_effective_map_kind():
    assert _toy_linear().effective_map_kind == "linear"
    nl = _toy_linear(scenario="nonlinear", p1=5, p2=3)
    assert nl.effective_map_kind == "sieve"
    assert _toy_linear(map_kind="sieve").effective_map_kind == "sieve"


def test_linear_scenario_deterministic():
    config = _toy_linear()
    a = gen_linear_scenario(config, 42)
    b = gen_linear_scenario(config, 42)
    assert np.array_equal(a.proxies[0].x, b.proxies[0].x)
    assert np.array_equal(a.proxies[0].z, b.proxies[0].z)
    assert np.array_equal(a.target.y, b.target.y)
    assert np.array_equal(a.test.x, b.test.x)
    assert np.array_equal(a.truth.beta_star, b.truth.beta_star)
    assert np.array_equal(a.truth.z_test, b.truth.z_test)
    c = gen_linear_scenario(config, 43)
    assert not np.array_equal(a.target.y, c.target.y)


def test_linear_scenario_withholds_z():
    scen = gen_linear_scenario(_toy_linear(), 7)
    assert scen.target.z is None
    assert scen.test.z is None
    assert scen.proxies[0].z.shape == (60, 4)
    assert scen.truth.z_target.shape == (20, 4)
    assert scen.truth.z_test.shape == (30, 4)
    assert len(scen.truth.delta_star_per_proxy) == 1


def test_linear_scenario_map_moments():
    config = _toy_linear(K=1, n_p=10, n_t=10, n_test=5, p1=100, p2=100)
    scen = gen_linear_scenario(config, 11)
    P = scen.truth.true_map_target.P
    assert P.shape == (100, 100)
    assert np.mean(P) == pytest.approx(5.0, rel=0.02)


def test_linear_scenario_target_x_moments():
    config = _toy_linear(K=1, n_p=10, n_t=1000, n_test=5, p1=100, p2=100)
    scen = gen_linear_scenario(config, 12)
    X = scen.target.x
    assert X.size == 100_000
    assert np.var(X) == pytest.approx(1.0, rel=0.05)
    assert np.min(X) >= 0.0
    assert np.max(X) <= np.sqrt(12.0)


def test_linear_scenario_noiseless_responses():
    config = _toy_linear(delta_scale=0.0, model_noise_scale=0.0)
    scen = gen_linear_scenario(config, 13)
    beta = scen.truth.beta_star
    y_t = scen.target.x @ beta[:4] + scen.truth.z_target @ beta[4:]
    assert np.array_equal(scen.target.y, y_t)
    pr = scen.proxies[0]
    y_p = pr.x @ beta[:4] + pr.z @ beta[4:]
    assert np.array_equal(pr.y, y_p)


def test_h_values_formula():
    assert np.array_equal(_h_values(np.zeros((3, 5))), np.full(3, 2.0))
    rng = np.random.default_rng(14)
    X = rng.uniform(-2.0, 2.0, size=(20, 7))
    got = _h_values(X)
    for i in range(20):
        assert got[i] == pytest.approx(h_reference(X[i]), abs=1e-12)


def test_nonlinear_scenario_shared_columns_and_oscillation():
    config = SimConfig(scenario="nonlinear", K=1, n_p=40, n_t=15, p1=5,
                       p2=3, reps=1, seed=5, n_test=10,
                       lambda_policy="fixed", lambda_value=0.5,
                       map_noise_scale=0.0)
    scen = gen_nonlinear_scenario(config, 21)
    z_t = scen.truth.z_target
    # every mismatched column shares the same conditional mean
    assert np.array_equal(z_t[:, 0], z_t[:, 1])
    assert np.array_equal(z_t[:, 0], z_t[:, 2])
    for i in range(15):
        assert z_t[i, 0] == pytest.approx(h_reference(scen.target.x[i]),
                                          abs=1e-12)
    # proxies see the oscillated map h + sin(h)
    h = _h_values(scen.proxies[0].x)
    assert np.array_equal(scen.proxies[0].z,
                          np.repeat((h + np.sin(h))[:, None], 3, axis=1))


def test_rep_seed_spread():
    seeds = {rep_seed_for(123, r) for r in range(100)}
    assert len(seeds) == 100
    assert rep_seed_for(123, 7) == rep_seed_for(123, 7)
    assert rep_seed_for(123, 7) != rep_seed_for(124, 7)


def test_single_replication_report():
    report = run_replications(_toy_linear(reps=1))
    assert len(report.rows) == 4
    methods = [row[1] for row in report.rows]
    assert methods == ["htl", "homogeneous", "target_lasso", "oracle"]
    for method in methods:
        stats = report.aggregates[method]
        value = report.method_values(method, "map")[0]
        assert stats["map"]["median"] == value
        assert stats["map"]["sd"] == 0.0
        assert stats["n"] == 1
    assert report.failures == []


def test_harness_deterministic():
    config = _toy_linear(reps=3)
    a = run_replications(config)
    b = run_replications(config)
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_dict() == b.to_dict()


def test_harness_records_failures():
    # five folds cannot split four target rows: every replication fails
    config = _toy_linear(reps=2, n_t=4, lambda_policy="cv",
                         lambda_value=None)
    report = run_replications(config)
    assert len(report.failures) == 2
    assert report.rows == []
    assert "ConfigError" in report.failures[0][1]
    assert report.aggregates["htl"] == {"n": 0}


def test_harness_records_uncertified_target_solve():
    # one active-set round cannot certify the target solve at a small
    # penalty, so every replication's fit raises and is recorded
    report = run_replications(_toy_linear(reps=2, lambda_value=0.01,
                                          max_iters=1))
    assert len(report.failures) == 2
    assert report.rows == []
    assert "ConvergenceError" in report.failures[0][1]
    assert "did not converge" in report.failures[0][1]


def test_aggregates_match_manual_stats():
    report = run_replications(_toy_linear(reps=4))
    vals = report.method_values("htl", "rmse")
    stats = report.aggregates["htl"]["rmse"]
    assert stats["mean"] == pytest.approx(np.mean(vals), abs=1e-15)
    assert stats["median"] == pytest.approx(np.median(vals), abs=1e-15)
    assert stats["sd"] == pytest.approx(np.std(vals, ddof=1), abs=1e-15)
    assert report.aggregates["htl"]["n"] == 4


def test_csv_text_round_trips_floats():
    report = run_replications(_toy_linear(reps=1))
    lines = report.to_csv_text().splitlines()
    assert lines[0] == "rep,method,map,rmse,l1_err_beta1"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[2]) == report.rows[0][2]


def test_report_to_dict_structure():
    report = run_replications(_toy_linear(reps=1))
    d = report.to_dict()
    assert set(d) == {"config", "rows", "aggregates", "failures"}
    assert d["rows"][0]["method"] == "htl"
    assert d["config"]["scenario"] == "linear"
    assert isinstance(report, MetricsReport)

"""The names the benchmark's tracer and workloads look up in heterotl.

perfbench/spans.py wraps each function of its TRACED table under the
name heterotl.<layer>.<func>; a name that disappears silently drops its
per-layer metrics from a traced run. It binds each lasso_with_offset
call's arguments by name and reads the SolveDiagnostics at index 2 of
the result into a JSON line that must not hold NaN or Infinity.
The sieve fit's expand calls are wrapped through feature_map's
module-level binding, and their counter reads the shape of the (n, M)
result. perfbench/workload.py times fits by replacing
simulation.fit_htl. The table is read from the source, without importing
the benchmark.

perfbench/workload.py also builds its inputs from the simulation module
(gen_linear_scenario, rep_seed_for, SimConfig keywords), reads
MetricsReport rows, failures and CSV text, and reads a saved model's
JSON. Its output digests hold only while the scenarios' draw order holds.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np

import heterotl.feature_map
import heterotl.sieve_basis
import heterotl.simulation
from heterotl import cli, penalized_reg
from heterotl.core import Dataset, write_dataset_csv
from heterotl.penalized_reg import LassoSettings, SolveDiagnostics
from heterotl.simulation import (SimConfig, _streams, gen_linear_scenario,
                                 gen_nonlinear_scenario, rep_seed_for,
                                 run_replications)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_table():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_every_traced_function_exists_under_its_name():
    table = _traced_table()
    assert table
    missing = [f"{layer}.{func}" for layer, funcs in table.items()
               for func in funcs
               if not callable(getattr(importlib.import_module(
                   f"heterotl.{layer}"), func, None))]
    assert missing == []


def test_simulation_binds_fit_htl():
    assert heterotl.simulation.fit_htl is heterotl.fit_htl


def test_feature_map_binds_expand():
    # the tracer reaches the sieve fit's expansion only through this
    # module-level binding, and counts cells from a 2-d (n, M) result
    assert heterotl.feature_map.expand is heterotl.sieve_basis.expand
    basis = heterotl.sieve_basis.unravel(3, 1, 7)
    out = heterotl.sieve_basis.expand(np.zeros((4, 3)), basis)
    assert out.shape == (4, 7)


def test_target_solve_hooks_keep_their_names():
    for name in ("cv_lambda", "warm_start", "lasso_with_offset"):
        assert callable(getattr(penalized_reg, name, None)), name
    params = inspect.signature(penalized_reg.lasso_with_offset).parameters
    assert list(params)[:4] == ["D", "y", "omega_hat", "lam"]


def test_lasso_with_offset_diagnostics_serialize_strictly():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((30, 6))
    y = D[:, :2] @ [1.0, -1.0] + 0.3 * rng.standard_normal(30)
    omega = np.full(6, 0.2)
    # a certified solve and one stopped at the cap
    for settings in (LassoSettings(), LassoSettings(max_iters=1)):
        diag = penalized_reg.lasso_with_offset(D, y, omega, 0.01,
                                               settings)[2]
        assert isinstance(diag, SolveDiagnostics)
        assert type(diag.iterations) is int
        assert type(diag.converged) is bool
        assert np.isfinite([diag.max_kkt_violation, diag.objective]).all()
        json.dumps(diag.to_dict(), allow_nan=False)


# the SimConfig keywords perfbench/workload.py passes, at small sizes
_WORKLOAD_CONFIG = dict(scenario="linear", K=2, n_p=100, n_t=20, p1=5,
                        p2=5, n_test=20, reps=1, seed=0, max_iters=100,
                        lambda_policy="fixed", lambda_value=0.5)


def test_workload_scenario_inputs():
    seed = rep_seed_for(20290, 3) ^ rep_seed_for(0, 0)
    assert isinstance(seed, int) and 0 <= seed < 2 ** 64
    config = SimConfig(**_WORKLOAD_CONFIG)
    scen = gen_linear_scenario(config, 2)
    assert len(scen.proxies) == 2
    for pr in scen.proxies:
        assert isinstance(pr, Dataset)
        assert (pr.x.shape, pr.z.shape, pr.y.shape) == \
            ((100, 5), (100, 5), (100,))
    assert scen.target.x.shape == (20, 5)
    assert scen.target.y.shape == (20,)
    assert scen.test.x.shape == (20, 5)


def test_workload_report_layout():
    report = run_replications(SimConfig(**_WORKLOAD_CONFIG))
    assert report.failures == []
    assert [row[1] for row in report.rows] == \
        ["htl", "homogeneous", "target_lasso", "oracle"]
    for rep, method, mape, rmse, l1 in report.rows:
        assert rep == 0 and isinstance(method, str)
        assert 0.0 <= mape <= rmse and l1 >= 0.0
    lines = report.to_csv_text().splitlines()
    assert lines[0] == "rep,method,map,rmse,l1_err_beta1"
    assert len(lines) == 1 + len(report.rows)


def test_workload_model_json_keys(tmp_path):
    scen = gen_linear_scenario(SimConfig(**_WORKLOAD_CONFIG), 2)
    proxy, target = tmp_path / "p.csv", tmp_path / "t.csv"
    write_dataset_csv(str(proxy), scen.proxies[0])
    write_dataset_csv(str(target), scen.target)
    out = tmp_path / "m.json"
    assert cli.main(["fit", "--proxy", str(proxy), "--target", str(target),
                     "--lambda", "cv", "--out", str(out)]) == 0
    model = json.loads(out.read_text())
    fit = model["fit"]
    assert len(fit["beta_hat"]) == len(fit["omega_hat"]) == 10
    assert isinstance(fit["lambda"], float)
    assert np.array(model["map"]["P"]).shape == (5, 5)
    assert model["diagnostics"]["converged"] is True


def test_scenario_draw_order():
    # per domain stream the matched rows come first; the streams run
    # truth, proxies, target, test
    def normal(rng, n):
        return rng.standard_normal((n, 5))

    def shifted(rng, n):
        return rng.uniform(0.0, np.sqrt(12.0), size=(n, 5))

    def centred(rng, n):
        return rng.uniform(-2.0, 2.0, size=(n, 5))

    for scenario, gen, proxy_x, target_x in (
            ("linear", gen_linear_scenario, normal, shifted),
            ("nonlinear", gen_nonlinear_scenario, centred, centred)):
        config = SimConfig(**dict(_WORKLOAD_CONFIG, scenario=scenario))
        scen = gen(config, 77)
        rngs = _streams(77, config.K)
        for k, pr in enumerate(scen.proxies):
            assert np.array_equal(proxy_x(rngs[1 + k], 100), pr.x)
        assert np.array_equal(target_x(rngs[3], 20), scen.target.x)
        assert np.array_equal(target_x(rngs[4], 20), scen.test.x)

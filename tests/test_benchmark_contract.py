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
from heterotl import penalized_reg
from heterotl.penalized_reg import LassoSettings, SolveDiagnostics

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

"""The names the benchmark's tracer and workloads look up in heterotl.

perfbench/spans.py wraps each function of its TRACED table under the
name heterotl.<layer>.<func>; a name that disappears silently drops its
per-layer metrics from a traced run. perfbench/workload.py times fits by
replacing simulation.fit_htl. The table is read from the source, without
importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import heterotl.simulation

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

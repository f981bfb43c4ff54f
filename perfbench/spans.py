"""Spans around heterotl's public functions, recorded from outside the program.

Each traced function is replaced, in every heterotl module that binds it,
by a wrapper that records a span: name, start, end, the span that was open
when it was called, and counters read from the call's result. Calls of
lasso_with_offset also keep their inputs and solution for the optimality
check after the run. Modules import functions by name (estimators binds
cv_lambda, warm_start and lasso_with_offset; feature_map binds expand), so
patching only the defining module would miss most calls. Spans stay in
memory until the run writes them out. A function that no longer exists is
skipped; its metrics are then absent from the output.
"""

import inspect
import json
import sys
import time

import numpy as np

# layer -> public functions whose calls are spans
TRACED = {
    "core": ("read_dataset_csv",),
    "sieve_basis": ("expand", "unravel"),
    "penalized_reg": ("cv_lambda", "warm_start", "lasso_with_offset"),
    "feature_map": ("fit_linear_map", "fit_sieve_map", "impute"),
    "estimators": ("fit_proxy_coefficients", "fit_htl", "fit_homogeneous",
                   "fit_target_lasso", "save_model", "predict"),
    "simulation": ("gen_scenario", "run_replications"),
    "cli": ("bootstrap_refit",),
}


def _expand_counts(out):
    return {"cells": int(out.shape[0] * out.shape[1])}


def _csv_counts(out):
    return {"rows": int(out.n)}


def _solve_counts(out):
    diag = out[2]
    return {"passes": int(diag.iterations),
            "capped": int(not diag.converged),
            "kkt_max": float(diag.max_kkt_violation)}


COUNTERS = {
    "sieve_basis.expand": _expand_counts,
    "core.read_dataset_csv": _csv_counts,
    "penalized_reg.lasso_with_offset": _solve_counts,
}

# counters combined by maximum instead of by sum
MAX_COUNTERS = {"kkt_max"}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solves = []
        self.recording = False
        self.installed = []

    def install(self):
        """Wrap every traced function that exists."""
        modules = [m for name, m in sys.modules.items()
                   if (name == "heterotl" or name.startswith("heterotl."))
                   and m is not None]
        for layer, funcs in TRACED.items():
            home = sys.modules.get(f"heterotl.{layer}")
            for fname in funcs:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                self.installed.append(f"{layer}.{fname}")

    def _wrap(self, name, orig):
        counter = COUNTERS.get(name)
        is_solve = name == "penalized_reg.lasso_with_offset"
        signature = inspect.signature(orig)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return orig(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = {"name": name, "parent": parent}
            tracer.spans.append(span)
            tracer.stack.append(index)
            span["start"] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            if counter is not None:
                span["counts"] = counter(out)
            if is_solve:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                tracer.solves.append({
                    "D": np.array(a["D"], dtype=float),
                    "y": np.array(a["y"], dtype=float),
                    "omega_hat": np.array(a["omega_hat"], dtype=float),
                    "lam": float(a["lam"]),
                    "beta_hat": np.array(out[0], dtype=float)})
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def layer_totals(self, passes):
        """Per function and per pass: calls, total span time, self time and
        counters; kkt_max is the maximum over all calls instead."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.installed}
        for i, span in enumerate(self.spans):
            agg = out[span["name"]]
            dur = span["end"] - span["start"]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[i]
            for key, value in span.get("counts", {}).items():
                if key in MAX_COUNTERS:
                    agg[key] = max(agg.get(key, 0.0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        for agg in out.values():
            for key in agg:
                if key not in MAX_COUNTERS:
                    agg[key] /= passes
        return out

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)

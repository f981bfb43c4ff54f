"""Command-line front end.

Subcommands: fit (train a transfer model from proxy and target CSVs),
predict (apply a saved model to new matched covariates), simulate (run
the benchmark scenarios), bootstrap (resample the target sample and refit
while the proxy side stays fixed). Every flag has a config-file
equivalent: --config names a JSON object whose keys are the long flag
names, each value parsed by its flag's rule; explicit flags win over the
file, the file wins over presets and built-in defaults. Exit codes: 0
success, 2 bad arguments, 3 data error, 4 solver non-convergence.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .core import (CapacityError, ConfigError, ConvergenceError, DataError,
                   DimensionError, IncompatibleError, InvalidValueError,
                   SupportError, read_dataset_csv, read_x_csv, write_atomic)
from .estimators import (bootstrap_refit, fit_htl, load_model, predict,
                         save_model)
from .penalized_reg import LassoSettings
from .simulation import SimConfig, run_replications

_DATA_ERRORS = (DataError, DimensionError, SupportError, InvalidValueError,
                IncompatibleError, CapacityError)

_PRESETS = {
    "fig1": {"scenario": "linear", "K": 2, "n_p": 2000, "n_t": 50,
             "p1": 20, "p2": 20, "reps": 50, "delta_sparse": True},
    "fig5": {"scenario": "nonlinear", "K": 2, "n_p": 3000, "n_t": 50,
             "p1": 20, "p2": 20, "reps": 50, "delta_sparse": True},
    "custom": {},
}

_FIT_DEFAULTS = {
    "proxy": None, "target": None, "out": None, "map": "linear",
    "lam": "cv", "ridge": 0.0, "gamma": "auto", "c_gamma": 1.0,
    "p1_prime": 1, "budget": None, "d_cap": 64, "clamp_tol": 0.01,
    "center": False, "folds": 5, "cv_seed": 0, "tol": 1e-9,
    "max_iters": 10000,
}

_SIM_DEFAULTS = {
    "scenario": None, "preset": "custom", "out": None, "K": 2,
    "n_p": 1000, "n_t": 50, "n_test": 200, "p1": 20, "p2": 20,
    "reps": 10, "seed": 0, "delta_sparse": True, "sparse_total": False,
    "lambda_policy": "cv", "lambda_value": None, "map": None,
    "delta_scale": 1.0, "map_noise": 1.0, "model_noise": 1.0,
    "map_perturb": 1.0, "ridge": 0.0, "gamma": "auto", "c_gamma": 1.0,
    "p1_prime": 1, "budget": None, "d_cap": 64, "clamp_tol": 0.01,
    "folds": 5, "tol": 1e-7, "max_iters": 3000,
}

_BOOT_DEFAULTS = dict(_FIT_DEFAULTS, B=None, seed=0)


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest(command, config, seed, input_paths, timings):
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "input_digests": {p: _sha256_file(p) for p in input_paths},
        "timings": timings,
    }


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _config_value(key, action, value):
    """A config-file value read by its flag's rule: a switch takes true
    or false, any other flag the text of a string or number, converted by
    the flag's type and checked against its choices."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false, "
                              f"got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"config key {key!r} must be a string or a "
                          f"number, got {value!r}")
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        out = text if action.type is None else action.type(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} must be of type "
                          f"{action.type.__name__}, got {value!r}")
    if action.choices is not None and out not in action.choices:
        raise ConfigError(f"config key {key!r} must be one of "
                          f"{', '.join(action.choices)}, got {value!r}")
    return out


def _config_file_options(args, defaults):
    """The --config file's values by option name.

    A key is a long flag name or the name of the option it sets (lam,
    delta-sparse), spelled with - or _. A null leaves the option unset.
    A switch named by its flag sets the value the flag sets when true
    (dense-delta: true turns delta_sparse off).
    """
    actions = args.parser._actions
    by_flag = {s[2:]: a for a in actions for s in a.option_strings}
    by_dest = {a.dest: a for a in actions}
    out = {}
    for key, value in _load_config_file(args.config).items():
        action = by_flag.get(key.replace("_", "-"))
        named_flag = action is not None
        if not named_flag:
            action = by_dest.get(key.replace("-", "_"))
        if action is None or action.dest not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            continue
        if isinstance(action, argparse._AppendAction):
            # one path, not a sequence of characters, or a list of them
            if not isinstance(value, list):
                value = [value]
            value = [_config_value(key, action, v) for v in value]
        else:
            value = _config_value(key, action, value)
            if named_flag and action.const is False:
                value = not value
        out[action.dest] = value
    return out


def _merged_options(args, defaults, presets=None):
    """Explicit flags over the config file over the preset (named by
    flag or file) over built-in defaults."""
    from_file = _config_file_options(args, defaults) if args.config else {}
    flags = {attr: getattr(args, attr) for attr in defaults
             if getattr(args, attr, None) is not None}
    out = dict(defaults)
    if presets is not None:
        out.update(presets[flags.get("preset",
                                     from_file.get("preset", "custom"))])
    out.update(from_file)
    out.update(flags)
    return out


def _require(opts, keys):
    for key in keys:
        if opts.get(key) is None:
            flag = "--" + {"lam": "lambda"}.get(key, key.replace("_", "-"))
            raise ConfigError(f"missing required argument {flag}")


def _parse_lambda(value):
    if value == "cv":
        return "cv"
    try:
        lam = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"--lambda must be 'cv' or a number, "
                          f"got {value!r}")
    if lam < 0:
        raise ConfigError(f"--lambda must be >= 0, got {lam}")
    return lam


def _parse_gamma(value):
    if value in ("auto", "cv"):
        return value
    try:
        gamma = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"--gamma must be 'auto', 'cv' or a number, "
                          f"got {value!r}")
    if gamma < 0:
        raise ConfigError(f"--gamma must be >= 0, got {gamma}")
    return gamma


def _load_training_data(opts):
    proxies = [read_dataset_csv(path) for path in opts["proxy"]]
    target = read_dataset_csv(opts["target"])
    if target.z is not None:
        target = target.without_z()
    return proxies, target


def _fit_kwargs(opts):
    settings = LassoSettings(max_iters=opts["max_iters"], tol=opts["tol"])
    return {
        "map_kind": opts["map"], "lam": _parse_lambda(opts["lam"]),
        "settings": settings, "ridge_tau": opts["ridge"],
        "gamma": _parse_gamma(opts["gamma"]), "c_gamma": opts["c_gamma"],
        "p1_prime": opts["p1_prime"], "budget": opts["budget"],
        "d_cap": opts["d_cap"], "clamp_tol": opts["clamp_tol"],
        "center": opts["center"], "cv_folds": opts["folds"],
        "cv_seed": opts["cv_seed"],
    }


def cmd_fit(args):
    opts = _merged_options(args, _FIT_DEFAULTS)
    _require(opts, ("proxy", "target", "out"))
    started = time.perf_counter()
    proxies, target = _load_training_data(opts)
    model = fit_htl(proxies, target, **_fit_kwargs(opts))
    elapsed = time.perf_counter() - started
    snapshot = {k: opts[k] for k in _FIT_DEFAULTS}
    manifest = _manifest("fit", snapshot, opts["cv_seed"],
                         list(opts["proxy"]) + [opts["target"]],
                         {"total_s": elapsed})
    save_model(opts["out"], model, manifest)
    print(f"wrote {opts['out']}")
    return 0


def cmd_predict(args):
    opts = _merged_options(args, {"model": None, "data": None, "out": None,
                                  "config": None})
    _require(opts, ("model", "data", "out"))
    started = time.perf_counter()
    try:
        model = load_model(opts["model"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"model file {opts['model']} is malformed: {exc}")
    X = read_x_csv(opts["data"])
    yhat = predict(model, X)
    lines = ["yhat"] + [repr(float(v)) for v in yhat]
    write_atomic(opts["out"], "\n".join(lines) + "\n")
    manifest = _manifest("predict", {k: opts[k] for k in
                                     ("model", "data", "out")}, None,
                         [opts["model"], opts["data"]],
                         {"total_s": time.perf_counter() - started})
    write_atomic(opts["out"] + ".manifest.json",
                 json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {opts['out']}")
    return 0


def _sim_config(opts):
    return SimConfig(
        scenario=opts["scenario"], K=opts["K"], n_p=opts["n_p"],
        n_t=opts["n_t"], p1=opts["p1"], p2=opts["p2"], reps=opts["reps"],
        seed=opts["seed"], n_test=opts["n_test"],
        delta_sparse=opts["delta_sparse"],
        sparse_total=opts["sparse_total"],
        lambda_policy=opts["lambda_policy"],
        lambda_value=opts["lambda_value"], map_kind=opts["map"],
        delta_scale=opts["delta_scale"], map_noise_scale=opts["map_noise"],
        model_noise_scale=opts["model_noise"],
        map_perturb_scale=opts["map_perturb"], ridge_tau=opts["ridge"],
        gamma=_parse_gamma(opts["gamma"]), c_gamma=opts["c_gamma"],
        p1_prime=opts["p1_prime"], budget=opts["budget"],
        d_cap=opts["d_cap"], clamp_tol=opts["clamp_tol"],
        cv_folds=opts["folds"], tol=opts["tol"],
        max_iters=opts["max_iters"])


def cmd_simulate(args):
    opts = _merged_options(args, _SIM_DEFAULTS, _PRESETS)
    _require(opts, ("scenario", "out"))
    config = _sim_config(opts)
    started = time.perf_counter()
    report = run_replications(config)
    elapsed = time.perf_counter() - started
    os.makedirs(opts["out"], exist_ok=True)
    write_atomic(os.path.join(opts["out"], "metrics.csv"),
                 report.to_csv_text())
    write_atomic(os.path.join(opts["out"], "metrics.json"),
                 json.dumps(report.to_dict(), indent=2) + "\n")
    manifest = _manifest("simulate", config.to_dict(), config.seed, [],
                         {"total_s": elapsed})
    write_atomic(os.path.join(opts["out"], "manifest.json"),
                 json.dumps(manifest, indent=2) + "\n")
    for method, stats in report.aggregates.items():
        if stats.get("n"):
            print(f"{method}: median map "
                  f"{stats['map']['median']:.6g} over {stats['n']} reps")
    if report.failures:
        print(f"{len(report.failures)} replication(s) failed",
              file=sys.stderr)
    print(f"wrote {opts['out']}")
    return 0


def cmd_bootstrap(args):
    opts = _merged_options(args, _BOOT_DEFAULTS)
    _require(opts, ("proxy", "target", "out", "B"))
    B = opts["B"]
    if B < 1:
        raise ConfigError(f"--B must be >= 1, got {B}")
    started = time.perf_counter()
    proxies, target = _load_training_data(opts)
    draws = bootstrap_refit(proxies, target, B, opts["seed"],
                            **_fit_kwargs(opts))
    p1 = proxies[0].p1
    lines = ["b,coef,value"]
    for b in range(B):
        for j, value in enumerate(draws[b]):
            name = f"x{j + 1}" if j < p1 else f"z{j - p1 + 1}"
            lines.append(f"{b},{name},{repr(float(value))}")
    write_atomic(opts["out"], "\n".join(lines) + "\n")
    snapshot = {k: opts[k] for k in _BOOT_DEFAULTS}
    manifest = _manifest("bootstrap", snapshot, opts["seed"],
                         list(opts["proxy"]) + [opts["target"]],
                         {"total_s": time.perf_counter() - started})
    write_atomic(opts["out"] + ".manifest.json",
                 json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {opts['out']}")
    return 0


def _add_fit_options(sub):
    sub.add_argument("--proxy", action="append",
                     help="proxy CSV, repeat once per proxy dataset")
    sub.add_argument("--target", help="target CSV (x columns and y)")
    sub.add_argument("--map", choices=("linear", "sieve"))
    sub.add_argument("--lambda", dest="lam",
                     help="penalty level: 'cv' or a number")
    sub.add_argument("--ridge", type=float,
                     help="ridge level for the linear map fit")
    sub.add_argument("--gamma", help="sieve penalty: 'auto', 'cv' or a "
                     "number")
    sub.add_argument("--c-gamma", type=float)
    sub.add_argument("--p1-prime", type=int,
                     help="interaction order of the sieve basis")
    sub.add_argument("--budget", type=int,
                     help="cap on the number of basis functions")
    sub.add_argument("--d-cap", type=int)
    sub.add_argument("--clamp-tol", type=float,
                     help="allowed relative overshoot outside the "
                     "training support")
    sub.add_argument("--center", action="store_true", default=None)
    sub.add_argument("--folds", type=int)
    sub.add_argument("--cv-seed", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--max-iters", type=int)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="heterotl",
        description="Transfer learning for regression with "
                    "block-mismatched covariates.")
    parser.add_argument("--version", action="version",
                        version=f"heterotl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="train a transfer model")
    _add_fit_options(fit)
    fit.add_argument("--out", help="output model JSON path")
    fit.add_argument("--config", help="JSON file with flag defaults")
    fit.set_defaults(func=cmd_fit, parser=fit)

    pred = subs.add_parser("predict", help="apply a saved model")
    pred.add_argument("--model", help="model JSON path")
    pred.add_argument("--data", help="CSV with x columns only")
    pred.add_argument("--out", help="output predictions CSV")
    pred.add_argument("--config", help="JSON file with flag defaults")
    pred.set_defaults(func=cmd_predict, parser=pred)

    sim = subs.add_parser("simulate", help="run benchmark scenarios")
    sim.add_argument("--scenario", choices=("linear", "nonlinear"))
    sim.add_argument("--preset", choices=tuple(_PRESETS))
    sim.add_argument("--K", type=int)
    sim.add_argument("--n-p", type=int)
    sim.add_argument("--n-t", type=int)
    sim.add_argument("--n-test", type=int)
    sim.add_argument("--p1", type=int)
    sim.add_argument("--p2", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--dense-delta", dest="delta_sparse",
                     action="store_false", default=None,
                     help="draw non-sparse proxy contrasts")
    sim.add_argument("--sparse-total", action="store_true", default=None,
                     help="one sparse draw over all p coordinates instead "
                     "of per block")
    sim.add_argument("--lambda-policy", choices=("cv", "fixed"))
    sim.add_argument("--lambda-value", type=float)
    sim.add_argument("--map", choices=("linear", "sieve"))
    sim.add_argument("--delta-scale", type=float)
    sim.add_argument("--map-noise", type=float)
    sim.add_argument("--model-noise", type=float)
    sim.add_argument("--map-perturb", type=float)
    sim.add_argument("--ridge", type=float)
    sim.add_argument("--gamma")
    sim.add_argument("--c-gamma", type=float)
    sim.add_argument("--p1-prime", type=int)
    sim.add_argument("--budget", type=int)
    sim.add_argument("--d-cap", type=int)
    sim.add_argument("--clamp-tol", type=float)
    sim.add_argument("--folds", type=int)
    sim.add_argument("--tol", type=float)
    sim.add_argument("--max-iters", type=int)
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--config", help="JSON file with flag defaults")
    sim.set_defaults(func=cmd_simulate, parser=sim)

    boot = subs.add_parser("bootstrap",
                           help="bootstrap the target-stage coefficients")
    _add_fit_options(boot)
    boot.add_argument("--B", type=int, help="number of bootstrap draws")
    boot.add_argument("--seed", type=int)
    boot.add_argument("--out", help="output samples CSV")
    boot.add_argument("--config", help="JSON file with flag defaults")
    boot.set_defaults(func=cmd_bootstrap, parser=boot)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ConfigError as exc:
        sub = getattr(args, "parser", parser)
        sub.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

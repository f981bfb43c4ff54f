"""Command-line front end, a thin shell over the library.

Subcommands: fit (train a transfer model from proxy and target CSVs),
predict (apply a saved model to new matched covariates), simulate (run
the benchmark scenarios), bootstrap (resample the target sample and refit
while the proxy side stays fixed). Each option is stored under the name
of the library keyword it sets (--map sets map_kind, --folds cv_folds),
an option left unset takes that keyword's default (fit_htl's and
LassoSettings' for fit and bootstrap, SimConfig's for simulate), and the
library checks every value. Every flag has a config-file equivalent:
--config names a JSON object whose keys are long flag names or option
names, each value parsed by its flag's rule; explicit flags win over the
file, the file wins over presets and the library's defaults. A switch
can be set both ways (--center, --no-center). Exit codes: 0 success,
2 bad arguments, 3 data error, 4 solver non-convergence.
"""

import argparse
import hashlib
import inspect
import json
import os
import sys
import time

from . import __version__
from .core import (CapacityError, ConfigError, ConvergenceError, DataError,
                   DimensionError, IncompatibleError, InvalidValueError,
                   SupportError, _dataset_header, _utf8_error,
                   read_dataset_csv, read_x_csv, write_atomic)
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {_utf8_error(path, exc)}")
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


def _config_file_options(args, names):
    """The --config file's values by option name.

    A key is a long flag name or the name of the option it sets (lam,
    map_kind), spelled with - or _. A null leaves the option unset. A
    switch named by one of its flags takes, when true, the value that
    flag sets, and the other value when false: dense-delta and no-center
    set to true both turn their option off.
    """
    actions = args.parser._actions
    by_flag = {s[2:]: (a, s) for a in actions for s in a.option_strings}
    by_dest = {a.dest: (a, None) for a in actions}
    out = {}
    for key, value in _load_config_file(args.config).items():
        action, flag = by_flag.get(key.replace("_", "-")) or by_dest.get(
            key.replace("-", "_"), (None, None))
        if action is None or action.dest not in names:
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
            if flag is not None and action.nargs == 0:
                sets = (not flag.startswith("--no-")
                        if isinstance(action, argparse.BooleanOptionalAction)
                        else action.const)
                value = value == sets
        out[action.dest] = value
    return out


def _keyword_defaults(call):
    """The keyword parameters of a function, or the fields of a
    dataclass, that have a default, with that default."""
    return {name: p.default
            for name, p in inspect.signature(call).parameters.items()
            if p.default is not p.empty}


def _keywords(call, opts):
    """The options that set a keyword of call, by name."""
    return {name: opts[name] for name in _keyword_defaults(call)
            if name in opts}


def _options(args, *library, presets=None):
    """Every option of the subcommand by name: explicit flags over the
    config file over the preset (named by flag or file) over the defaults
    of the library calls' keywords, None for an option no call takes."""
    defaults = {}
    for call in library:
        defaults.update(_keyword_defaults(call))
    out = {a.dest: defaults.get(a.dest) for a in args.parser._actions
           if a.dest not in ("help", "config")}
    from_file = _config_file_options(args, out) if args.config else {}
    flags = {name: getattr(args, name) for name in out
             if getattr(args, name) is not None}
    if presets is not None:
        out.update(presets[flags.get("preset",
                                     from_file.get("preset", "custom"))])
    out.update(from_file)
    out.update(flags)
    return out


def _require(args, opts, names):
    for name in names:
        if opts[name] is None or opts[name] == []:
            flag = next(a.option_strings[0] for a in args.parser._actions
                        if a.dest == name)
            raise ConfigError(f"missing required argument {flag}")


def _load_training_data(opts):
    proxies = [read_dataset_csv(path) for path in opts["proxy"]]
    target = read_dataset_csv(opts["target"])
    if target.z is not None:
        target = target.without_z()
    return proxies, target


def _fit_kwargs(opts):
    return dict(_keywords(fit_htl, opts),
                settings=LassoSettings(**_keywords(LassoSettings, opts)))


def cmd_fit(args):
    opts = _options(args, fit_htl, LassoSettings)
    _require(args, opts, ("proxy", "target", "out"))
    started = time.perf_counter()
    proxies, target = _load_training_data(opts)
    model = fit_htl(proxies, target, **_fit_kwargs(opts))
    elapsed = time.perf_counter() - started
    manifest = _manifest("fit", opts, opts["cv_seed"],
                         list(opts["proxy"]) + [opts["target"]],
                         {"total_s": elapsed})
    save_model(opts["out"], model, manifest)
    print(f"wrote {opts['out']}")
    return 0


def cmd_predict(args):
    opts = _options(args)
    _require(args, opts, ("model", "data", "out"))
    started = time.perf_counter()
    try:
        model = load_model(opts["model"])
    except (ValueError, KeyError, TypeError) as exc:
        # ValueError covers bad JSON and a non-number where one is read
        raise DataError(f"model file {opts['model']} is malformed: {exc}")
    X = read_x_csv(opts["data"])
    yhat = predict(model, X)
    lines = ["yhat"] + [repr(float(v)) for v in yhat]
    write_atomic(opts["out"], "\n".join(lines) + "\n")
    manifest = _manifest("predict", opts, None,
                         [opts["model"], opts["data"]],
                         {"total_s": time.perf_counter() - started})
    write_atomic(opts["out"] + ".manifest.json",
                 json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {opts['out']}")
    return 0


def cmd_simulate(args):
    opts = _options(args, SimConfig, presets=_PRESETS)
    _require(args, opts, ("scenario", "out"))
    config = SimConfig(opts["scenario"], **_keywords(SimConfig, opts))
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
    opts = _options(args, fit_htl, LassoSettings, bootstrap_refit)
    _require(args, opts, ("proxy", "target", "out", "B"))
    started = time.perf_counter()
    proxies, target = _load_training_data(opts)
    draws = bootstrap_refit(proxies, target, opts["B"], opts["seed"],
                            **_fit_kwargs(opts))
    names = _dataset_header(proxies[0].p1, proxies[0].p2)[:-1]
    lines = ["b,coef,value"] + [f"{b},{name},{repr(float(value))}"
                                for b, row in enumerate(draws)
                                for name, value in zip(names, row)]
    write_atomic(opts["out"], "\n".join(lines) + "\n")
    manifest = _manifest("bootstrap", opts, opts["seed"],
                         list(opts["proxy"]) + [opts["target"]],
                         {"total_s": time.perf_counter() - started})
    write_atomic(opts["out"] + ".manifest.json",
                 json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {opts['out']}")
    return 0


def _add_model_options(sub):
    """The feature-map and solver flags of fit, bootstrap and simulate."""
    sub.add_argument("--map", dest="map_kind", choices=("linear", "sieve"))
    sub.add_argument("--ridge", dest="ridge_tau", type=float,
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
    sub.add_argument("--folds", dest="cv_folds", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--max-iters", type=int)


def _add_fit_options(sub):
    sub.add_argument("--proxy", action="append",
                     help="proxy CSV, repeat once per proxy dataset")
    sub.add_argument("--target", help="target CSV (x columns and y)")
    sub.add_argument("--lambda", dest="lam",
                     help="penalty level: 'cv' or a number")
    sub.add_argument("--center", action=argparse.BooleanOptionalAction)
    sub.add_argument("--cv-seed", type=int)
    _add_model_options(sub)


def _finish_subcommand(sub, func, out_help):
    sub.add_argument("--out", help=out_help)
    sub.add_argument("--config", help="JSON file with flag defaults")
    sub.set_defaults(func=func, parser=sub)


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
    _finish_subcommand(fit, cmd_fit, "output model JSON path")

    pred = subs.add_parser("predict", help="apply a saved model")
    pred.add_argument("--model", help="model JSON path")
    pred.add_argument("--data", help="CSV with x columns only")
    _finish_subcommand(pred, cmd_predict, "output predictions CSV")

    sim = subs.add_parser("simulate", help="run benchmark scenarios")
    sim.add_argument("--scenario", choices=("linear", "nonlinear"))
    sim.add_argument("--preset", choices=tuple(_PRESETS))
    for flag in ("--K", "--n-p", "--n-t", "--n-test", "--p1", "--p2",
                 "--reps", "--seed"):
        sim.add_argument(flag, type=int)
    sim.add_argument("--delta-sparse", action=argparse.BooleanOptionalAction,
                     help="draw sparse proxy contrasts (the default)")
    sim.add_argument("--dense-delta", dest="delta_sparse",
                     action="store_false", default=None,
                     help="draw non-sparse proxy contrasts")
    sim.add_argument("--sparse-total", action=argparse.BooleanOptionalAction,
                     help="one sparse draw over all p coordinates instead "
                     "of per block")
    sim.add_argument("--lambda-policy", choices=("cv", "fixed"))
    sim.add_argument("--lambda-value", type=float)
    sim.add_argument("--delta-scale", type=float)
    sim.add_argument("--map-noise", dest="map_noise_scale", type=float)
    sim.add_argument("--model-noise", dest="model_noise_scale", type=float)
    sim.add_argument("--map-perturb", dest="map_perturb_scale", type=float)
    _add_model_options(sim)
    _finish_subcommand(sim, cmd_simulate, "output directory")

    boot = subs.add_parser("bootstrap",
                           help="bootstrap the target-stage coefficients")
    _add_fit_options(boot)
    boot.add_argument("--B", type=int, help="number of bootstrap draws")
    boot.add_argument("--seed", type=int)
    _finish_subcommand(boot, cmd_bootstrap, "output samples CSV")
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

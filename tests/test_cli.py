"""Command line behavior: exit codes, file outputs, option precedence."""

import argparse
import inspect
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from heterotl import cli
from heterotl.cli import bootstrap_refit
from heterotl.core import (ConfigError, Dataset, read_dataset_csv,
                           write_dataset_csv)
from heterotl.estimators import fit_htl, load_model, model_to_dict, predict
from heterotl.penalized_reg import LassoSettings
from heterotl.simulation import SimConfig


def _toy_files(tmp_path, seed=3, n_p=80, n_t=25, p1=3, p2=2):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(p1, p2))
    beta1 = np.array([1.5, 0.0, -1.0])
    beta2 = np.array([0.8, -0.6])

    def make(n):
        X = rng.uniform(-1.0, 1.0, size=(n, p1))
        Z = X @ P + 0.1 * rng.normal(size=(n, p2))
        y = X @ beta1 + Z @ beta2 + 0.2 * rng.normal(size=n)
        return X, Z, y

    Xp, Zp, yp = make(n_p)
    Xt, _, yt = make(n_t)
    proxy = str(tmp_path / "proxy.csv")
    target = str(tmp_path / "target.csv")
    write_dataset_csv(proxy, Dataset(Xp, yp, Zp))
    write_dataset_csv(target, Dataset(Xt, yt))
    return proxy, target


def _write_x_csv(path, X):
    lines = [",".join(f"x{j + 1}" for j in range(X.shape[1]))]
    for row in X:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_missing_target_is_usage_error(tmp_path, capsys):
    proxy, _ = _toy_files(tmp_path)
    rc = cli.main(["fit", "--proxy", proxy,
                   "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage:" in err
    assert "--target" in err


def test_fit_predict_round_trip(tmp_path):
    proxy, target = _toy_files(tmp_path)
    model_path = str(tmp_path / "model.json")
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--out", model_path, "--lambda", "0.5"]) == 0
    model = load_model(model_path)

    X_new = np.random.default_rng(8).uniform(-1.0, 1.0, size=(7, 3))
    data_path = tmp_path / "new.csv"
    _write_x_csv(data_path, X_new)
    pred_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", model_path,
                     "--data", str(data_path),
                     "--out", str(pred_path)]) == 0

    lines = pred_path.read_text().splitlines()
    assert lines[0] == "yhat"
    got = np.array([float(v) for v in lines[1:]])
    assert np.array_equal(got, predict(model, X_new))
    manifest = json.loads((tmp_path / "pred.csv.manifest.json").read_text())
    assert manifest["command"] == "predict"


def test_legacy_model_file_with_standardize_loads(tmp_path):
    # model files written while LassoSettings had a standardize field
    # carry it in their settings
    proxy, target = _toy_files(tmp_path)
    model = fit_htl([read_dataset_csv(proxy)], read_dataset_csv(target),
                    lam=0.5)
    payload = model_to_dict(model)
    payload["settings"]["standardize"] = False
    model_path = tmp_path / "legacy.json"
    model_path.write_text(json.dumps(payload, indent=2))
    X_new = np.random.default_rng(8).uniform(-1.0, 1.0, size=(7, 3))
    expect = predict(model, X_new)
    assert np.array_equal(predict(load_model(model_path), X_new), expect)

    data_path = tmp_path / "new.csv"
    _write_x_csv(data_path, X_new)
    pred_path = tmp_path / "pred.csv"
    assert cli.main(["predict", "--model", str(model_path),
                     "--data", str(data_path),
                     "--out", str(pred_path)]) == 0
    lines = pred_path.read_text().splitlines()
    assert np.array_equal([float(v) for v in lines[1:]], expect)


def test_huge_penalty_keeps_reference(tmp_path):
    proxy, target = _toy_files(tmp_path)
    model_path = str(tmp_path / "model.json")
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--out", model_path, "--lambda", "1e12"]) == 0
    model = load_model(model_path)
    assert np.array_equal(model.fit.beta_hat, model.fit.omega_hat)
    payload = json.loads(open(model_path).read())
    assert payload["manifest"]["config"]["lam"] == "1e12"


def test_zero_response_predicts_zero(tmp_path):
    rng = np.random.default_rng(4)
    Xp = rng.uniform(-1.0, 1.0, size=(40, 2))
    Zp = Xp @ rng.normal(size=(2, 2))
    Xt = rng.uniform(-1.0, 1.0, size=(15, 2))
    proxy = str(tmp_path / "p.csv")
    target = str(tmp_path / "t.csv")
    write_dataset_csv(proxy, Dataset(Xp, np.zeros(40), Zp))
    write_dataset_csv(target, Dataset(Xt, np.zeros(15)))
    model_path = str(tmp_path / "m.json")
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--out", model_path, "--lambda", "0.5"]) == 0
    data_path = tmp_path / "x.csv"
    _write_x_csv(data_path, Xt[:4])
    out = tmp_path / "yhat.csv"
    assert cli.main(["predict", "--model", model_path,
                     "--data", str(data_path), "--out", str(out)]) == 0
    vals = [float(v) for v in out.read_text().splitlines()[1:]]
    assert vals == [0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("key", ["centering", "clamp_tol"])
def test_predict_model_with_non_number_is_malformed(tmp_path, capsys, key):
    proxy, target = _toy_files(tmp_path)
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--out", str(model_path), "--lambda", "0.5"]) == 0
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    payload[key] = "abc"
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    data_path = tmp_path / "new.csv"
    _write_x_csv(data_path, np.zeros((2, 3)))
    capsys.readouterr()
    rc = cli.main(["predict", "--model", str(model_path),
                   "--data", str(data_path), "--out",
                   str(tmp_path / "yhat.csv")])
    assert rc == 3
    assert f"model file {model_path} is malformed" in capsys.readouterr().err


def test_malformed_cell_names_row(tmp_path, capsys):
    proxy, target = _toy_files(tmp_path)
    lines = open(target).read().splitlines()
    parts = lines[2].split(",")
    parts[1] = "abc"
    lines[2] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    rc = cli.main(["fit", "--proxy", proxy, "--target", str(bad),
                   "--out", str(tmp_path / "m.json"), "--lambda", "0.5"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "row 3" in err and "abc" in err


def test_missing_input_file(tmp_path, capsys):
    _, target = _toy_files(tmp_path)
    rc = cli.main(["fit", "--proxy", str(tmp_path / "nope.csv"),
                   "--target", target, "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def _simulate_args(out_dir):
    return ["simulate", "--scenario", "linear", "--K", "1",
            "--n-p", "50", "--n-t", "20", "--n-test", "20",
            "--p1", "4", "--p2", "4", "--reps", "2", "--seed", "9",
            "--lambda-policy", "fixed", "--lambda-value", "0.5",
            "--out", out_dir]


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    out1 = str(tmp_path / "runs" / "a")
    out2 = str(tmp_path / "runs" / "b")
    assert cli.main(_simulate_args(out1)) == 0
    assert "htl: median map" in capsys.readouterr().out
    assert cli.main(_simulate_args(out2)) == 0
    csv1 = open(f"{out1}/metrics.csv", "rb").read()
    csv2 = open(f"{out2}/metrics.csv", "rb").read()
    assert csv1 == csv2
    report = json.loads(open(f"{out1}/metrics.json").read())
    assert len(report["rows"]) == 8
    manifest = json.loads(open(f"{out1}/manifest.json").read())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 9


def test_simulate_rejects_narrow_nonlinear(tmp_path, capsys):
    rc = cli.main(["simulate", "--scenario", "nonlinear", "--p1", "3",
                   "--p2", "8", "--reps", "1",
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage:" in err


def test_unknown_preset(tmp_path, capsys):
    rc = cli.main(["simulate", "--preset", "fig9",
                   "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert rc == 2


def test_bootstrap_rejects_zero_draws(tmp_path, capsys):
    proxy, target = _toy_files(tmp_path)
    rc = cli.main(["bootstrap", "--proxy", proxy, "--target", target,
                   "--B", "0", "--out", str(tmp_path / "b.csv"),
                   "--lambda", "0.5"])
    capsys.readouterr()
    assert rc == 2


def test_bootstrap_identity_resample_matches_fit(tmp_path):
    proxy, target = _toy_files(tmp_path)
    proxies = [read_dataset_csv(proxy)]
    target_ds = read_dataset_csv(target)
    draws = bootstrap_refit(proxies, target_ds, 1, 0,
                            sampler=lambda rng, n: np.arange(n), lam=0.5)
    base = fit_htl(proxies, target_ds, lam=0.5)
    assert draws.shape == (1, 5)
    assert np.array_equal(draws[0], base.fit.beta_hat)


def test_bootstrap_csv_layout(tmp_path):
    proxy, target = _toy_files(tmp_path)
    out = tmp_path / "boot.csv"
    assert cli.main(["bootstrap", "--proxy", proxy, "--target", target,
                     "--B", "2", "--seed", "5", "--out", str(out),
                     "--lambda", "0.5"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "b,coef,value"
    assert len(lines) == 1 + 2 * 5
    names = [line.split(",")[1] for line in lines[1:6]]
    assert names == ["x1", "x2", "x3", "z1", "z2"]
    assert [line.split(",")[0] for line in lines[6:]] == ["1"] * 5
    manifest = json.loads((tmp_path / "boot.csv.manifest.json").read_text())
    assert manifest["command"] == "bootstrap"


def test_config_file_beats_defaults_flags_beat_file(tmp_path):
    proxy, target = _toy_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": 1e12, "max-iters": 5000}))

    from_file = str(tmp_path / "m1.json")
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--out", from_file, "--config", str(cfg)]) == 0
    model = load_model(from_file)
    assert np.array_equal(model.fit.beta_hat, model.fit.omega_hat)

    # 0.001 sits below the null threshold for this data, so the
    # correction stage actually moves when the flag wins
    from_flag = str(tmp_path / "m2.json")
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--out", from_flag, "--config", str(cfg),
                     "--lambda", "0.001"]) == 0
    model = load_model(from_flag)
    assert not np.array_equal(model.fit.beta_hat, model.fit.omega_hat)
    payload = json.loads(open(from_flag).read())
    assert payload["manifest"]["config"]["lam"] == "0.001"
    assert payload["manifest"]["config"]["max_iters"] == 5000


def test_unknown_config_key(tmp_path, capsys):
    proxy, target = _toy_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"widget": 1}))
    rc = cli.main(["fit", "--proxy", proxy, "--target", target,
                   "--out", str(tmp_path / "m.json"),
                   "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "widget" in err


def test_nonconvergence_exit_code(tmp_path, capsys):
    proxy, target = _toy_files(tmp_path)
    rc = cli.main(["fit", "--proxy", proxy, "--target", target,
                   "--out", str(tmp_path / "m.json"), "--map", "sieve",
                   "--gamma", "0", "--max-iters", "1", "--tol", "1e-12",
                   "--lambda", "0.5"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "converge" in err


def test_linear_fit_nonconvergence_writes_no_model(tmp_path, capsys):
    proxy, target = _toy_files(tmp_path)
    out = tmp_path / "m.json"
    args = ["fit", "--proxy", proxy, "--target", target, "--out", str(out),
            "--lambda", "0.001"]
    rc = cli.main(args + ["--max-iters", "1"])
    assert rc == 4
    assert "converge" in capsys.readouterr().err
    assert list(tmp_path.glob("m.json*")) == []
    # the same fit with the default budget certifies and saves
    assert cli.main(args) == 0
    assert json.loads(out.read_text())["diagnostics"]["converged"]


def test_version_exits_clean(capsys):
    rc = cli.main(["--version"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "heterotl" in out


def _fit_with_config(tmp_path, config, flags=()):
    proxy, target = _toy_files(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "m.json"
    rc = cli.main(["fit", "--target", target, "--out", str(out),
                   "--config", str(cfg)] + list(flags)
                  + ([] if "proxy" in config else ["--proxy", proxy]))
    return rc, out, proxy


@pytest.mark.parametrize("config,key", [
    ({"ridge": "abc"}, "ridge"),
    ({"folds": "x"}, "folds"),
    ({"max-iters": 2.5}, "max-iters"),
    ({"max-iters": True}, "max-iters"),
    ({"center": "false"}, "center"),
    ({"center": 1}, "center"),
    ({"map": "cubic"}, "map"),
    ({"target": ["t.csv"]}, "target"),
])
def test_config_value_parsed_like_its_flag(tmp_path, capsys, config, key):
    rc, out, _ = _fit_with_config(tmp_path, dict(config, lam=0.5))
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage:" in err
    assert repr(key) in err
    assert not out.exists()


def test_simulate_config_value_parsed_like_its_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_p": "abc"}))
    rc = cli.main(_simulate_args(str(tmp_path / "o"))
                  + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'n_p'" in err
    assert not (tmp_path / "o").exists()


def test_config_values_take_flag_types(tmp_path):
    # text a flag would accept, JSON switches, and null for "unset"
    rc, out, _ = _fit_with_config(tmp_path, {
        "lambda": "0.5", "max-iters": "5000", "tol": 1e-9,
        "center": False, "budget": None})
    assert rc == 0
    config = json.loads(out.read_text())["manifest"]["config"]
    assert config["max_iters"] == 5000
    assert config["tol"] == 1e-9
    assert config["center"] is False
    assert config["budget"] is None
    rc, out, _ = _fit_with_config(tmp_path, {"lam": 0.5, "center": True})
    assert rc == 0
    assert json.loads(out.read_text())["manifest"]["config"]["center"]


def test_config_proxy_string_is_one_path(tmp_path):
    proxy, _ = _toy_files(tmp_path)
    for value in (proxy, [proxy]):
        rc, out, _ = _fit_with_config(tmp_path, {"proxy": value, "lam": 0.5})
        assert rc == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["config"]["proxy"] == [proxy]
        assert list(manifest["input_digests"])[0] == proxy


def _simulate_with_config(tmp_path, config, flags=()):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)]
                  + list(flags))
    if rc != 0:
        return rc, None
    return rc, json.loads((out / "manifest.json").read_text())["config"]


_SMALL_SIM = {"K": 1, "n-p": 60, "n-t": 20, "n-test": 20, "p1": 5,
              "p2": 4, "reps": 1, "lambda-policy": "fixed",
              "lambda-value": 0.5}


def test_config_switch_keys(tmp_path):
    for key, value, sparse in (("dense-delta", True, False),
                               ("dense_delta", False, True),
                               ("delta-sparse", False, False),
                               ("delta_sparse", True, True)):
        rc, config = _simulate_with_config(
            tmp_path, dict(_SMALL_SIM, scenario="linear", **{key: value}))
        assert rc == 0
        assert config["delta_sparse"] is sparse
    # the flag still wins over the file
    rc, config = _simulate_with_config(
        tmp_path, dict(_SMALL_SIM, scenario="linear", delta_sparse=True),
        ["--dense-delta"])
    assert rc == 0
    assert config["delta_sparse"] is False


def test_config_preset_applies_like_the_flag(tmp_path, capsys):
    rc, config = _simulate_with_config(tmp_path,
                                       dict(_SMALL_SIM, preset="fig5"))
    assert rc == 0
    assert config["scenario"] == "nonlinear"
    assert config["n_p"] == 60
    rc, config = _simulate_with_config(
        tmp_path, dict(_SMALL_SIM, preset="fig5"), ["--preset", "fig1"])
    assert rc == 0
    assert config["scenario"] == "linear"
    capsys.readouterr()
    rc, _ = _simulate_with_config(tmp_path, dict(_SMALL_SIM, preset="fig9"))
    err = capsys.readouterr().err
    assert rc == 2
    assert "'preset'" in err


def _subparser(command):
    subs = next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return subs.choices[command]


# options only the command line reads: inputs, outputs, the config file,
# the preset, and the bootstrap's draw count and seed
_CLI_ONLY = {"proxy", "target", "out", "config", "preset", "model", "data"}


@pytest.mark.parametrize("command,library,cli_only", [
    ("fit", (fit_htl, LassoSettings), set()),
    ("bootstrap", (fit_htl, LassoSettings), {"B", "seed"}),
    ("simulate", (SimConfig,), set()),
    ("predict", (), set()),
])
def test_every_option_is_a_library_keyword(command, library, cli_only):
    keywords = {name for call in library
                for name in inspect.signature(call).parameters}
    dests = {a.dest for a in _subparser(command)._actions
             if not isinstance(a, argparse._HelpAction)}
    assert dests - keywords - _CLI_ONLY - cli_only == set()


def test_unset_options_reach_the_manifest_with_library_defaults(tmp_path):
    proxy, target = _toy_files(tmp_path)
    fit_defaults = {name: p.default for call in (fit_htl, LassoSettings)
                    for name, p in inspect.signature(call).parameters.items()
                    if p.default is not p.empty and name != "settings"}
    out = tmp_path / "m.json"
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--out", str(out)]) == 0
    config = json.loads(out.read_text())["manifest"]["config"]
    assert {k: config[k] for k in fit_defaults} == fit_defaults

    out = tmp_path / "b.csv"
    assert cli.main(["bootstrap", "--proxy", proxy, "--target", target,
                     "--B", "1", "--lambda", "0.5", "--out", str(out)]) == 0
    config = json.loads((tmp_path / "b.csv.manifest.json").read_text())[
        "config"]
    assert {k: config[k] for k in fit_defaults} == dict(fit_defaults,
                                                         lam="0.5")
    assert config["seed"] == 0

    small = dict(K=1, n_p=50, n_t=20, n_test=20, p1=4, p2=4, reps=1,
                 lambda_policy="fixed", lambda_value=0.5)
    argv = ["simulate", "--scenario", "linear", "--out", str(tmp_path / "o")]
    for name, value in small.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"] == asdict(SimConfig("linear", **small))


def test_switches_set_both_ways_over_the_config_file(tmp_path):
    for config, flags, center in (({"center": True}, ["--no-center"], False),
                                  ({"center": False}, ["--center"], True),
                                  ({"no-center": True}, [], False),
                                  ({"no_center": False}, [], True)):
        rc, out, _ = _fit_with_config(tmp_path, dict(config, lam=0.5), flags)
        assert rc == 0
        assert json.loads(out.read_text())["manifest"]["config"][
            "center"] is center
    for config, flags, sparse, total in (
            ({"dense-delta": True}, ["--delta-sparse"], True, False),
            ({"delta-sparse": True}, ["--no-delta-sparse"], False, False),
            ({"no-delta-sparse": True}, [], False, False),
            ({"sparse-total": True}, ["--no-sparse-total"], True, False),
            ({"no-sparse-total": False}, [], True, True)):
        rc, got = _simulate_with_config(
            tmp_path, dict(_SMALL_SIM, scenario="linear", **config), flags)
        assert rc == 0
        assert (got["delta_sparse"], got["sparse_total"]) == (sparse, total)


def test_bad_seed_or_empty_proxy_list_is_a_usage_error(tmp_path, capsys):
    proxy, target = _toy_files(tmp_path)
    data = ["--proxy", proxy, "--target", target, "--lambda", "0.5"]
    out = tmp_path / "b.csv"
    boot = ["bootstrap"] + data + ["--B", "2", "--out", str(out)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    fit = ["fit"] + data + ["--out", str(tmp_path / "m.json"),
                            "--lambda", "cv", "--cv-seed", "-1"]
    for argv, name in ((boot + ["--seed", "-1"], "seed"),
                       (boot + ["--config", str(cfg)], "seed"),
                       (fit, "cv_seed")):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert "usage:" in err and f"{name} must be" in err
    assert not out.exists()
    rc, out, _ = _fit_with_config(tmp_path, {"proxy": [], "lam": 0.5})
    err = capsys.readouterr().err
    assert rc == 2
    assert "missing required argument --proxy" in err
    assert not out.exists()


_BAD_VALUE_BASE = {
    "fit": {"lambda": "0.5", "map": "sieve"},
    "bootstrap": {"lambda": "0.5", "B": "1"},
    "simulate": {"scenario": "linear", "K": "1", "n-p": "50", "n-t": "20",
                 "n-test": "20", "p1": "5", "p2": "4", "reps": "1",
                 "lambda-policy": "fixed", "lambda-value": "0.5"},
}


@pytest.mark.parametrize("command,key,value,name", [
    ("fit", "tol", "nan", "tol"),
    ("fit", "tol", "inf", "tol"),
    ("fit", "lambda", "inf", "lam"),
    ("fit", "gamma", "inf", "gamma"),
    ("fit", "c-gamma", "nan", "c_gamma"),
    ("fit", "ridge", "nan", "ridge_tau"),
    ("fit", "clamp-tol", "-1", "clamp_tol"),
    ("bootstrap", "clamp-tol", "nan", "clamp_tol"),
    ("simulate", "delta-scale", "nan", "delta_scale"),
    ("simulate", "lambda-value", "nan", "lambda_value"),
    ("simulate", "map-noise", "inf", "map_noise_scale"),
    ("simulate", "c-gamma", "nan", "c_gamma"),
    ("simulate", "clamp-tol", "-1", "clamp_tol"),
    ("simulate", "gamma", "inf", "gamma"),
])
def test_non_finite_or_negative_values_are_usage_errors(
        tmp_path, capsys, command, key, value, name):
    _assert_usage_error_everywhere(tmp_path, capsys, command, key, value,
                                   name, float(value))


@pytest.mark.parametrize("command,key,value,name", [
    ("fit", "folds", "1", "cv_folds"),
    ("fit", "p1-prime", "0", "p1_prime"),
    ("fit", "d-cap", "1", "d_cap"),
    ("fit", "budget", "0", "budget"),
    ("bootstrap", "folds", "0", "cv_folds"),
    ("simulate", "folds", "1", "cv_folds"),
    ("simulate", "budget", "0", "budget"),
    ("simulate", "p1-prime", "0", "p1_prime"),
    ("simulate", "d-cap", "1", "d_cap"),
])
def test_integer_options_out_of_range_are_usage_errors(
        tmp_path, capsys, command, key, value, name):
    _assert_usage_error_everywhere(tmp_path, capsys, command, key, value,
                                   name, int(value))


def _assert_usage_error_everywhere(tmp_path, capsys, command, key, value,
                                   name, api_value):
    # one rule per value, whether it comes from a flag, a config file or
    # the Python API
    proxy, target = _toy_files(tmp_path)
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command != "simulate":
        argv += ["--proxy", proxy, "--target", target]
    opts = dict(_BAD_VALUE_BASE[command], **{key: value})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(opts))
    for extra in ([f for k, v in opts.items() for f in ("--" + k, v)],
                  ["--config", str(cfg)]):
        rc = cli.main(argv + extra)
        err = capsys.readouterr().err
        assert rc == 2
        assert "usage:" in err and f"error: {name} must be" in err
        assert not out.exists()
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        if command == "simulate":
            SimConfig("linear", **{name: api_value})
        elif name == "tol":
            LassoSettings(tol=api_value)
        else:
            fit_htl([read_dataset_csv(proxy)], read_dataset_csv(target),
                    **{"lam": 0.5, "map_kind": "sieve", name: api_value})


@pytest.mark.parametrize("command,file_arg,exit_code,message", [
    ("fit", "--proxy", 3, "{path}: not UTF-8"),
    ("predict", "--data", 3, "{path}: not UTF-8"),
    ("predict", "--model", 3, "{path}: not UTF-8"),
    ("fit", "--config", 2, "config file {path}: not UTF-8"),
])
def test_non_utf8_input_is_a_clean_error(tmp_path, capsys, command,
                                         file_arg, exit_code, message):
    proxy, target = _toy_files(tmp_path)
    model = tmp_path / "model.json"
    assert cli.main(["fit", "--proxy", proxy, "--target", target,
                     "--lambda", "0.5", "--out", str(model)]) == 0
    data = tmp_path / "x.csv"
    _write_x_csv(data, np.zeros((2, 3)))
    config = tmp_path / "cfg.json"
    config.write_text('{"lambda": 0.5}')
    args = {"fit": {"--proxy": proxy, "--target": target,
                    "--config": str(config)},
            "predict": {"--model": str(model), "--data": str(data)}}[command]
    bad = tmp_path / "bad"
    bad.write_bytes(open(args[file_arg], "rb").read() + b"\xff\n")
    args[file_arg] = str(bad)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = cli.main([command, "--out", str(out)]
                  + [a for kv in args.items() for a in kv])
    err = capsys.readouterr().err
    assert rc == exit_code
    assert "error: " + message.format(path=bad) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_reads_csv_files_led_by_a_byte_order_mark(tmp_path):
    # spreadsheet programs write "CSV UTF-8" with a BOM before the header;
    # the model is the one fitted from the same files without it, while
    # the manifest's input digests still hash the raw bytes
    proxy, target = _toy_files(tmp_path)
    boms = []
    for path in (proxy, target):
        bom = tmp_path / ("bom-" + os.path.basename(path))
        bom.write_bytes(b"\xef\xbb\xbf" + open(path, "rb").read())
        boms.append(str(bom))
    payloads = []
    for (p, t), name in (((proxy, target), "plain.json"), (boms, "bom.json")):
        out = tmp_path / name
        assert cli.main(["fit", "--proxy", p, "--target", t,
                         "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    plain, bom = payloads
    assert {k: v for k, v in plain.items() if k != "manifest"} == \
        {k: v for k, v in bom.items() if k != "manifest"}
    assert list(bom["manifest"]["input_digests"].values()) != \
        list(plain["manifest"]["input_digests"].values())


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "heterotl", "--version"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("heterotl ")

"""Synthetic benchmark scenarios and the replication harness.

Two designs. In the linear one the mismatched features are a noisy linear
function of the matched ones, with each proxy's map perturbed around the
target map and each proxy's coefficients offset by a contrast vector. In
the nonlinear one the map is a fixed tent-plus-exponential function of the
first five matched features, with proxies seeing an oscillated version.
The harness runs seeded replications, fits the three estimators plus the
oracle arm, and aggregates test-set metrics per method.
"""

import csv
import io
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import (METHOD_TAGS, ConfigError, Dataset, HeterotlError,
                   TruthRecord, _check_fit_counts, _check_nonnegative,
                   _check_penalty, l1_estimation_error,
                   mean_absolute_prediction_error, rmse)
from .penalized_reg import LassoSettings
from .estimators import (fit_homogeneous, fit_htl, fit_target_lasso,
                         oracle_predict, predict)
from .feature_map import FeatureMapModel

_MASK64 = (1 << 64) - 1


def _hash64(v):
    # splitmix64 finalizer: well-mixed 64-bit hash of the replication index
    v = (v + 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (v ^ (v >> 31)) & _MASK64


def rep_seed_for(seed, r):
    return (seed & _MASK64) ^ _hash64(r)


def _m_for(p, scenario):
    rate = 0.12 if scenario == "linear" else 0.15
    return int(round(rate * p))


@dataclass(frozen=True)
class SimConfig:
    """One `heterotl simulate` run: every field but scenario defaults to
    the value the command uses when its flag is left unset."""

    scenario: str
    K: int = 2
    n_p: int = 1000
    n_t: int = 50
    p1: int = 20
    p2: int = 20
    reps: int = 10
    seed: int = 0
    n_test: int = 200
    delta_sparse: bool = True
    sparse_total: bool = False
    lambda_policy: str = "cv"
    lambda_value: float = None
    map_kind: str = None
    delta_scale: float = 1.0
    map_noise_scale: float = 1.0
    model_noise_scale: float = 1.0
    map_perturb_scale: float = 1.0
    ridge_tau: float = 0.0
    gamma: str = "auto"
    c_gamma: float = 1.0
    p1_prime: int = 1
    budget: int = None
    d_cap: int = 64
    clamp_tol: float = 0.01
    cv_folds: int = 5
    tol: float = 1e-7
    max_iters: int = 3000

    def __post_init__(self):
        if self.scenario not in ("linear", "nonlinear"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name in ("K", "n_p", "n_t", "n_test", "p1", "p2", "reps"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, "
                                  f"got {v!r}")
        if self.lambda_policy not in ("fixed", "cv"):
            raise ConfigError(
                f"lambda_policy must be fixed or cv, got "
                f"{self.lambda_policy!r}")
        if self.lambda_policy == "fixed" and self.lambda_value is None:
            raise ConfigError("fixed lambda policy needs lambda_value >= 0")
        if self.lambda_value is not None:
            _check_nonnegative("lambda_value", self.lambda_value)
        if self.map_kind not in (None, "linear", "sieve"):
            raise ConfigError(f"unknown map kind {self.map_kind!r}")
        if _m_for(self.p1 + self.p2, self.scenario) < 1:
            raise ConfigError(
                f"p1 + p2 = {self.p1 + self.p2} is too small: the "
                "repeating-block count rounds to zero")
        if self.scenario == "nonlinear" and self.p1 < 5:
            raise ConfigError(
                f"nonlinear scenario needs p1 >= 5 active features, "
                f"got p1={self.p1}")
        for name in ("delta_scale", "map_noise_scale", "model_noise_scale",
                     "map_perturb_scale", "ridge_tau", "c_gamma",
                     "clamp_tol"):
            _check_nonnegative(name, getattr(self, name))
        _check_fit_counts(self.cv_folds, self.p1_prime, self.d_cap,
                          self.budget)
        # the command line gives gamma as text
        object.__setattr__(self, "gamma", _check_penalty(
            "gamma", self.gamma, ("auto", "cv")))
        # constructing settings validates tol and max_iters
        LassoSettings(max_iters=self.max_iters, tol=self.tol)

    @property
    def effective_map_kind(self):
        if self.map_kind is not None:
            return self.map_kind
        return "linear" if self.scenario == "linear" else "sieve"

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class SimScenario:
    proxies: list
    target: Dataset
    test: Dataset
    truth: TruthRecord


def gen_beta_star(p, scenario):
    """Repeating-block coefficient vector: m ones at stride ceil(p/m)."""
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    m = _m_for(p, scenario)
    if m < 1:
        raise ConfigError(f"block count m = round({p} * rate) is zero")
    block = -(-p // m)
    v = np.zeros(p)
    v[0::block] = 1.0
    return v


def _delta_draw(rng, p, sparse):
    # values drawn for every slot, then masked; keeps the draw order fixed
    values = rng.normal(0.0, 0.25, size=p)
    if not sparse:
        return values
    s0 = int(np.floor(np.sqrt(p / 2.0)))
    keep = rng.choice(p, size=s0, replace=False)
    out = np.zeros(p)
    out[keep] = values[keep]
    return out


def _delta_blocks(rng, p1, p2, sparse, sparse_total):
    if sparse_total and sparse:
        return _delta_draw(rng, p1 + p2, True)
    return np.concatenate([_delta_draw(rng, p1, sparse),
                           _delta_draw(rng, p2, sparse)])


def gen_delta_star(p, sparse, seed):
    """Contrast vector: floor(sqrt(p/2)) nonzeros N(0, 1/16), or all slots."""
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    return _delta_draw(np.random.default_rng(seed), p, sparse)


def _streams(rep_seed, K):
    # fixed spawn order truth, proxies, target, test: growing n_test must
    # not perturb the training draws
    children = np.random.SeedSequence(rep_seed).spawn(K + 3)
    return [np.random.default_rng(c) for c in children]


def _bivariate(rng, n, scale):
    # correlation 0.5 via the Cholesky factor of [[1, .5], [.5, 1]]
    z = rng.standard_normal((n, 2))
    chol = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
    return scale * (z @ chol.T)


def _draw_scenario(config, rep_seed, proxy_x, target_x, draw_maps):
    """One replication from its seeded streams, the same way for both designs.

    proxy_x and target_x draw (n, p1) matched rows from a stream; the
    target's law also serves the test set. draw_maps takes the truth
    stream and returns the target's map mean, the K proxies' map means
    (each a function of X, broadcast against the (n, p2) map noise) and
    the true target map for the truth record. The contrasts follow on the
    truth stream. In each domain's stream X comes first, then the map
    noise, then the bivariate errors: proxies take their second marginal,
    target and test the first. Target and test Z are withheld to the
    truth record.
    """
    p1, p2 = config.p1, config.p2
    rngs = _streams(rep_seed, config.K)
    target_mean, proxy_means, true_map = draw_maps(rngs[0])
    beta_star = gen_beta_star(p1 + p2, config.scenario)
    deltas = [config.delta_scale
              * _delta_blocks(rngs[0], p1, p2, config.delta_sparse,
                              config.sparse_total)
              for _ in range(config.K)]

    def domain(rng, n, draw_x, mean, coef, eps_col):
        X = draw_x(rng, n)
        Z = mean(X) + config.map_noise_scale * rng.standard_normal((n, p2))
        eps = _bivariate(rng, n, config.model_noise_scale)[:, eps_col]
        return X, X @ coef[:p1] + Z @ coef[p1:] + eps, Z

    proxies = [Dataset(*domain(rngs[1 + k], config.n_p, proxy_x,
                               proxy_means[k], beta_star - deltas[k], 1))
               for k in range(config.K)]
    X_t, y_t, Z_t = domain(rngs[config.K + 1], config.n_t, target_x,
                           target_mean, beta_star, 0)
    X_te, y_te, Z_te = domain(rngs[config.K + 2], config.n_test, target_x,
                              target_mean, beta_star, 0)
    truth = TruthRecord(beta_star, deltas, true_map_target=true_map,
                        z_target=Z_t, z_test=Z_te)
    return SimScenario(proxies, Dataset(X_t, y_t), Dataset(X_te, y_te),
                       truth)


def gen_linear_scenario(config, rep_seed):
    """One replication of the linear design.

    Proxy X rows are standard normal; target and test X entries are
    Uniform(0, sqrt(12)) so each coordinate has unit variance but a
    shifted support. The target map P_t has 10*Beta(10,10) entries and
    each proxy uses P_t plus (Beta(4,4) - 1/2)/3 perturbations. Errors
    are bivariate normal with correlation 0.5; the target and test draws
    take the first marginal, proxies the second. Target and test Z are
    generated but withheld to the truth record.
    """
    p1, p2 = config.p1, config.p2

    def draw_maps(rng):
        P_t = 10.0 * rng.beta(10.0, 10.0, size=(p1, p2))
        P_k = [P_t + config.map_perturb_scale
               * ((rng.beta(4.0, 4.0, size=(p1, p2)) - 0.5) / 3.0)
               for _ in range(config.K)]
        return (lambda X: X @ P_t, [lambda X, P=P: X @ P for P in P_k],
                FeatureMapModel("linear", P=P_t))

    width = np.sqrt(12.0)
    return _draw_scenario(
        config, rep_seed, lambda rng, n: rng.standard_normal((n, p1)),
        lambda rng, n: rng.uniform(0.0, width, size=(n, p1)), draw_maps)


def _h_values(X):
    # first five features active; 1-based odd ones contribute the tent
    # 0.5 - |x - 0.5|, even ones contribute exp(-x); free of the output
    # column index
    active = X[:, :5]
    odd = active[:, 0::2]
    even = active[:, 1::2]
    return (np.sum(0.5 - np.abs(odd - 0.5), axis=1)
            + np.sum(np.exp(-even), axis=1))


def gen_nonlinear_scenario(config, rep_seed):
    """One replication of the nonlinear design.

    All X entries are Uniform(-2, 2). Every mismatched feature shares the
    same conditional mean h; proxies see the oscillated h + sin(h). The
    rest matches the linear design: contrasts on proxy coefficients,
    bivariate errors, withheld target and test Z.
    """
    def target_mean(X):
        return _h_values(X)[:, None]

    def proxy_mean(X):
        h = _h_values(X)
        return (h + config.map_perturb_scale * np.sin(h))[:, None]

    def draw_x(rng, n):
        return rng.uniform(-2.0, 2.0, size=(n, config.p1))

    return _draw_scenario(
        config, rep_seed, draw_x, draw_x,
        lambda rng: (target_mean, [proxy_mean] * config.K, None))


def gen_scenario(config, rep_seed):
    if config.scenario == "linear":
        return gen_linear_scenario(config, rep_seed)
    return gen_nonlinear_scenario(config, rep_seed)


def _one_rep(config, r):
    rep_seed = rep_seed_for(config.seed, r)
    scen = gen_scenario(config, rep_seed)
    lam = "cv" if config.lambda_policy == "cv" else config.lambda_value
    cv_seed = _hash64(rep_seed)
    p1 = config.p1
    settings = LassoSettings(max_iters=config.max_iters, tol=config.tol)
    try:
        htl = fit_htl(scen.proxies, scen.target,
                      map_kind=config.effective_map_kind, lam=lam,
                      settings=settings, ridge_tau=config.ridge_tau,
                      gamma=config.gamma, c_gamma=config.c_gamma,
                      p1_prime=config.p1_prime, budget=config.budget,
                      d_cap=config.d_cap, clamp_tol=config.clamp_tol,
                      cv_folds=config.cv_folds, cv_seed=cv_seed)
        hom = fit_homogeneous(scen.proxies, scen.target, lam=lam,
                              settings=settings, cv_folds=config.cv_folds,
                              cv_seed=cv_seed)
        las = fit_target_lasso(scen.target, lam=lam, settings=settings,
                               cv_folds=config.cv_folds, cv_seed=cv_seed)
        fitted = (("htl", htl.fit.beta_hat, predict(htl, scen.test.x)),
                  ("homogeneous", hom.beta_hat, predict(hom, scen.test.x)),
                  ("target_lasso", las.beta_hat, predict(las, scen.test.x)))
    except HeterotlError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    beta1_star = scen.truth.beta_star[:p1]
    rows = []
    for method, beta_hat, yhat in fitted:
        rows.append((r, method,
                     mean_absolute_prediction_error(scen.test.y, yhat),
                     rmse(scen.test.y, yhat),
                     l1_estimation_error(beta_hat[:p1], beta1_star)))
    # with the withheld test Z the oracle residual is exactly the test
    # noise, the floor the other methods are compared against
    yhat = oracle_predict(scen.test.x, scen.truth.z_test,
                          scen.truth.beta_star)
    rows.append((r, "oracle",
                 mean_absolute_prediction_error(scen.test.y, yhat),
                 rmse(scen.test.y, yhat), 0.0))
    return rows, None


def _aggregate(rows):
    out = {}
    for method in METHOD_TAGS:
        cols = [(row[2], row[3], row[4]) for row in rows
                if row[1] == method]
        if not cols:
            out[method] = {"n": 0}
            continue
        arr = np.array(cols)
        stats = {}
        for j, name in enumerate(("map", "rmse", "l1_err_beta1")):
            v = arr[:, j]
            stats[name] = {
                "mean": float(np.mean(v)),
                "median": float(np.median(v)),
                "sd": float(np.std(v, ddof=1)) if v.size > 1 else 0.0,
            }
        stats["n"] = int(arr.shape[0])
        out[method] = stats
    return out


@dataclass(frozen=True)
class MetricsReport:
    """Replication-level metric rows plus per-method aggregates."""

    config: dict
    rows: list
    aggregates: dict
    failures: list = field(default_factory=list)

    def method_values(self, method, metric):
        idx = {"map": 2, "rmse": 3, "l1_err_beta1": 4}[metric]
        return np.array([row[idx] for row in self.rows
                         if row[1] == method])

    def to_dict(self):
        return {
            "config": self.config,
            "rows": [{"rep": r, "method": m, "map": a, "rmse": b,
                      "l1_err_beta1": c} for r, m, a, b, c in self.rows],
            "aggregates": self.aggregates,
            "failures": [{"rep": r, "error": e} for r, e in self.failures],
        }

    def to_csv_text(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["rep", "method", "map", "rmse", "l1_err_beta1"])
        for r, m, a, b, c in self.rows:
            writer.writerow([r, m, repr(float(a)), repr(float(b)),
                             repr(float(c))])
        return buf.getvalue()


def run_replications(config):
    """Run config.reps seeded replications in order and collect metrics.

    Each replication derives its own seed from the master seed and the
    index, so its results do not depend on which other replications run.
    A replication that raises a library error is dropped whole and
    recorded under failures.
    """
    rows, failures = [], []
    for r in range(config.reps):
        rep_rows, err = _one_rep(config, r)
        if err is not None:
            failures.append((r, err))
        else:
            rows.extend(rep_rows)
    return MetricsReport(config.to_dict(), rows, _aggregate(rows), failures)

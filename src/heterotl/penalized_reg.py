"""Convex solvers for the transfer objective.

The generic problem is

    min_delta (1/n) ||r - D delta||_2^2 + lam ||delta||_1,

solved by cyclic coordinate descent in gram form on small target designs,
and by an accelerated proximal-gradient matrix solver for many responses
on one design (the sieve map) or designs too wide for the gram form. Under
this (1/n) convention the smallest lam with an all-zero solution is the
null threshold (2/n) ||D' r||_inf. The offset form shrinks beta toward a
reference vector omega_hat through the substitution delta = beta - omega_hat.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DimensionError, InvalidValueError


_GAP_TOL = 1e-10  # relative duality gap that certifies a prox-grad column
_POWER_ITERS = 30  # power-iteration steps for the top gram eigenvalue
_LIP_MARGIN = 1.05  # safety margin on that estimate


class RankWarning(UserWarning):
    """Design matrix is rank deficient; a minimum-norm solution was used."""


@dataclass(frozen=True)
class LassoSettings:
    max_iters: int = 10000
    tol: float = 1e-9

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    converged: bool
    max_kkt_violation: float
    objective: float

    def to_dict(self):
        return {"iterations": self.iterations, "converged": self.converged,
                "max_kkt_violation": self.max_kkt_violation,
                "objective": self.objective}


def _check_design(D, v, dname="D", vname="r"):
    D = np.asarray(D, dtype=float)
    v = np.asarray(v, dtype=float)
    if D.ndim != 2:
        raise DimensionError(f"{dname} must be 2-d, got ndim={D.ndim}")
    if v.ndim != 1 or v.shape[0] != D.shape[0]:
        raise DimensionError(
            f"{vname} must be 1-d with {D.shape[0]} entries")
    if not np.all(np.isfinite(D)):
        raise InvalidValueError(f"{dname} contains non-finite values")
    if not np.all(np.isfinite(v)):
        raise InvalidValueError(f"{vname} contains non-finite values")
    return D, v


def _lstsq_minnorm(D, y):
    """Minimum-norm least squares solution and the design rank."""
    w, _, rank, _ = np.linalg.lstsq(D, y, rcond=None)
    return w, rank


def ols(D, y):
    """Least-squares coefficients of y on D.

    Rank-deficient designs fall back to the minimum-norm solution and emit
    a RankWarning.
    """
    D, y = _check_design(D, y, "D", "y")
    w, rank = _lstsq_minnorm(D, y)
    if rank < D.shape[1]:
        warnings.warn(
            f"design has rank {rank} < {D.shape[1]}; "
            "returning the minimum-norm solution", RankWarning, stacklevel=2)
    return w


def soft_threshold(v, t):
    """sign(v) * max(|v| - t, 0); v may be a scalar or an array."""
    if np.any(np.asarray(t) < 0):
        raise ConfigError("threshold must be nonnegative")
    out = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def null_threshold(D, r):
    """Smallest lam at which the lasso solution is identically zero."""
    D, r = _check_design(D, r)
    n = D.shape[0]
    return float(2.0 / n * np.max(np.abs(D.T @ r))) if D.size else 0.0


def objective(D, r, lam, delta):
    """(1/n) ||r - D delta||^2 + lam ||delta||_1."""
    e = r - D @ delta
    return float(np.mean(e * e) + lam * np.sum(np.abs(delta)))


def offset_objective(D, y, omega_hat, beta, lam):
    """(1/n) ||y - D beta||^2 + lam ||beta - omega_hat||_1."""
    e = y - D @ beta
    return float(np.mean(e * e) + lam * np.sum(np.abs(beta - omega_hat)))


def kkt_check(D, r, lam, delta_hat):
    """Maximum violation of the stationarity conditions at delta_hat.

    With g = (2/n) D'(D delta_hat - r), a nonzero coordinate must satisfy
    g_j + lam sign(delta_j) = 0 and a zero coordinate |g_j| <= lam.
    """
    D, r = _check_design(D, r)
    delta_hat = np.asarray(delta_hat, dtype=float)
    n = D.shape[0]
    g = (2.0 / n) * (D.T @ (D @ delta_hat - r))
    nz = delta_hat != 0.0
    viol = np.where(nz,
                    np.abs(g + lam * np.sign(delta_hat)),
                    np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(viol)) if viol.size else 0.0


def _pin_zero_variance(nsq):
    """Flag zero-variance columns and give them a harmless curvature.

    Their coefficients stay pinned at zero; the 1.0 substitute only keeps
    the update formula well defined.
    """
    zero_var = nsq == 0.0
    if np.any(zero_var):
        warnings.warn(
            f"{int(zero_var.sum())} zero-variance column(s) pinned to 0",
            UserWarning)
        nsq = np.where(zero_var, 1.0, nsq)
    return nsq, zero_var


def _gram_pass(A, b, d, q, nsq, half, idx):
    """One pass of exact coordinate updates in the gram form.

    q tracks A @ d, so an update touches one row of A instead of the
    residual vector. Returns the largest absolute step of the pass and
    the accumulated sum of nsq_j * step_j^2, which lower-bounds the
    objective decrease by coordinatewise strong convexity.
    """
    biggest = 0.0
    moved = 0.0
    for j in idx:
        old = d[j]
        rho = b[j] - q[j].item() + nsq[j] * old
        if rho > half:
            new = (rho - half) / nsq[j]
        elif rho < -half:
            new = (rho + half) / nsq[j]
        else:
            new = 0.0
        step = new - old
        if step != 0.0:
            d[j] = new
            q += A[j] * step
            moved += nsq[j] * step * step
            if step < 0.0:
                step = -step
            if step > biggest:
                biggest = step
    return biggest, moved


def _gram_solve(A, b, d, q, nsq, half, order, tol, cap, stall=None):
    """Run passes until a full pass moves every coordinate by less than tol.

    Between full passes the active set is swept on its own, the usual
    refinement. stall, when set, exits a fit whose per-pass objective
    decrease has fallen below that bound; near-flat directions can keep
    the coordinates drifting long after the objective has settled, and
    ranking fits do not need to wait that out. A stall exit does not
    count as converged. Returns (passes taken, converged flag).
    """
    it = 0
    while it < cap:
        it += 1
        big, moved = _gram_pass(A, b, d, q, nsq, half, order)
        if big < tol:
            return it, True
        if stall is not None and moved < stall:
            return it, False
        active = [j for j in order if d[j] != 0.0]
        if active and len(active) < len(order):
            while it < cap:
                it += 1
                big, moved = _gram_pass(A, b, d, q, nsq, half, active)
                if big < tol:
                    break
                if stall is not None and moved < stall:
                    return it, False
    return it, False


def _warm_path(D, r, lams, settings, delta0=None, stall_tol=None):
    """Solve a descending penalty sequence with warm starts.

    The gram matrix is formed once, each value starts from the previous
    solution, and q = A @ d is refreshed from scratch per value so no
    update drift carries across the path. stall_tol, when set, enables
    the objective-stall exit at stall_tol times the response scale.
    Returns (Delta with one column per value, total passes, per-value
    convergence flags).
    """
    n, p = D.shape
    A = D.T @ D / n
    b = list(D.T @ r / n)
    nsq, zero_var = _pin_zero_variance(np.diagonal(A).copy())
    nsq = list(nsq)
    order = [j for j in range(p) if not zero_var[j]]
    if delta0 is None:
        d = [0.0] * p
    else:
        d = [0.0 if zero_var[j] else float(delta0[j]) for j in range(p)]
    stall = None
    if stall_tol is not None:
        stall = stall_tol * max(1.0, float(r @ r) / n)
    L = len(lams)
    Delta = np.empty((p, L))
    conv = np.zeros(L, dtype=bool)
    iters = 0
    for l in range(L):
        q = A @ d
        it, ok = _gram_solve(A, b, d, q, nsq, lams[l] / 2.0, order,
                             settings.tol, settings.max_iters, stall)
        iters += it
        conv[l] = ok
        Delta[:, l] = d
    return Delta, iters, conv


def _gram_ok(n, p):
    """Whether the gram form pays for itself on an (n, p) design."""
    return p * p <= 50_000_000 and p <= 4 * n


def _coldot(X, Y):
    """Column-wise inner products of two equally shaped matrices."""
    return np.einsum("ij,ij->j", X, Y)


def _top_eigenvalue(apply_A, p, max_iters=_POWER_ITERS, tol=0.0):
    """Top eigenvalue of a PSD operator by power iteration, from below.

    Stops after max_iters steps or once the Rayleigh quotient moves by at
    most tol relative.
    """
    v = np.random.default_rng(0).standard_normal(p)
    v /= np.linalg.norm(v)
    top = 0.0
    for _ in range(max_iters):
        w = apply_A(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        new, v = float(v @ w), w / norm
        if abs(new - top) <= tol * max(1.0, abs(new)):
            return new
        top = new
    return top


def _certified(T, H, mse, lams, tol):
    """Per-column stop test, given H = D'(R - D T) / n and the mean squares.

    Penalized: relative duality gap <= _GAP_TOL at the residual scaled by
    s = min(1, lam / (2 |H|_inf)); as e'r / n = mse + T'H, the gap is
    (1 - s)^2 mse - 2 s T'H + lam |T|_1. Unpenalized: |2 H|_inf <= tol.
    """
    hmax = np.max(np.abs(H), axis=0, initial=0.0)
    s = np.minimum(1.0, lams / np.maximum(2.0 * hmax, np.finfo(float).tiny))
    pen = lams * np.sum(np.abs(T), axis=0)
    gap = (1.0 - s) ** 2 * mse - 2.0 * s * _coldot(T, H) + pen
    return np.where(lams > 0.0, gap <= _GAP_TOL * (mse + pen),
                    2.0 * hmax <= tol)


def _prox_grad_columns(D, R, lams, settings, Theta0=None):
    """Accelerated proximal gradient run jointly over the columns of R.

    Column l solves the lasso with response R[:, l] and penalty lams[l],
    and all columns share each matrix product: FISTA (Beck & Teboulle
    2009) with gradient restart (O'Donoghue & Candes 2015). The step is
    1 / lip, lip from a power-iteration estimate of the gram's top
    eigenvalue, doubled whenever a step meets more curvature than it
    allows. A column freezes once _certified passes; settings.max_iters
    caps the iterations. Returns (Theta, iterations, per-column flags).
    """
    n, p = D.shape
    lams = np.asarray(lams, dtype=float)
    _, zero_var = _pin_zero_variance(_coldot(D, D) / n)
    Theta = np.zeros((p, R.shape[1])) if Theta0 is None \
        else np.array(Theta0, dtype=float)
    Theta[zero_var] = 0.0
    if _gram_ok(n, p):
        A = D.T @ D / n
        B = D.T @ R / n
        c = _coldot(R, R) / n

        def state(T):
            H = B - A @ T
            return H, c - _coldot(T, B + H)

        top = _top_eigenvalue(A.__matmul__, p)
    else:
        def state(T):
            E = R - D @ T
            return D.T @ E / n, _coldot(E, E) / n

        top = _top_eigenvalue(lambda v: D.T @ (D @ v) / n, p)
    # the gradient of the mean squares is -2 H, Lipschitz with 2 * top
    lip = 2.0 * _LIP_MARGIN * top
    H, mse = state(Theta)
    # H is affine in T, so the extrapolated point's HY costs no product
    Y, HY, t = Theta, H, np.ones_like(lams)
    conv = np.zeros(lams.shape, dtype=bool)
    it = 0
    while True:
        conv |= _certified(Theta, H, mse, lams, settings.tol)
        if conv.all() or it == settings.max_iters:
            return Theta, it, conv
        it += 1
        Z = Y + (2.0 / lip) * HY
        T = np.where(conv, Theta, soft_threshold(Z, lams / lip))
        H_new, mse_new = state(T)
        step = T - Y
        if np.any(_coldot(step, HY - H_new)
                  > 0.5 * lip * _coldot(step, step)):
            # step'A step broke the bound, so lip was too small
            lip *= 2.0
            Y, HY, t = Theta, H, np.ones_like(lams)
            continue
        restart = _coldot(Y - T, T - Theta) > 0.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = np.where(restart, 0.0, (t - 1.0) / t_new)
        t = np.where(restart, 1.0, t_new)
        Y = T + mom * (T - Theta)
        HY = H_new + mom * (H_new - H)
        Theta, H, mse = T, H_new, mse_new


def lasso(D, r, lam, settings=None, delta0=None):
    """Solve the l1-penalized least squares problem.

    Coordinate descent in gram form, stopping once a full pass moves no
    coordinate by settings.tol; _prox_grad_columns on wider D (p > 4n).

    Parameters
    ----------
    D : (n, p) design matrix.
    r : (n,) response (already residualized in the offset form).
    lam : nonnegative penalty level under the (1/n) objective convention.
    settings : LassoSettings or None for defaults.
    delta0 : optional warm start.

    Returns (delta_hat, SolveDiagnostics). Non-convergence is reported via
    diagnostics.converged, never raised here.
    """
    D, r = _check_design(D, r)
    if not (lam >= 0):
        raise ConfigError(f"lam must be >= 0, got {lam}")
    if settings is None:
        settings = LassoSettings()
    if delta0 is not None:
        delta0 = np.asarray(delta0, dtype=float)
        if delta0.shape != (D.shape[1],):
            raise DimensionError("delta0 length does not match D columns")
    if _gram_ok(*D.shape):
        Delta, it, conv = _warm_path(D, r, [lam], settings, delta0=delta0)
    else:
        Delta, it, conv = _prox_grad_columns(
            D, r[:, None], [lam], settings,
            None if delta0 is None else delta0[:, None])
    delta = Delta[:, 0]
    diag = SolveDiagnostics(it, bool(conv[0]), kkt_check(D, r, lam, delta),
                            objective(D, r, lam, delta))
    return delta, diag


def lasso_with_offset(D, y, omega_hat, lam, settings=None, delta0=None):
    """Shrink toward omega_hat: solve for delta on the residual y - D omega_hat.

    Returns (beta_hat, delta_hat, SolveDiagnostics) with
    beta_hat = omega_hat + delta_hat.
    """
    D, y = _check_design(D, y, "D", "y")
    omega_hat = np.asarray(omega_hat, dtype=float)
    if omega_hat.shape != (D.shape[1],):
        raise DimensionError(
            f"omega_hat must have length {D.shape[1]}, got {omega_hat.shape}")
    r = y - D @ omega_hat
    delta, diag = lasso(D, r, lam, settings, delta0)
    return omega_hat + delta, delta, diag


def default_grid(lam_max, num=50, decay=1e-4):
    """Log-spaced descending path from lam_max down to lam_max * decay."""
    if lam_max <= 0:
        return np.array([0.0])
    return np.geomspace(lam_max, lam_max * decay, num)


def _path_settings(settings):
    """Relaxed settings for fits that only need to rank or warm start."""
    return LassoSettings(max_iters=min(settings.max_iters, 250),
                         tol=max(settings.tol, 1e-5))


def warm_start(D, r, lam, settings=None):
    """Warm start for a full-tolerance solve at lam.

    Descends the default path from the null threshold down to lam at the
    relaxed path tolerance and returns the endpoint. Returns None when
    lam is at or above the null threshold, where the zero start is
    already exact, or when the gram form would be oversized.
    """
    D, r = _check_design(D, r)
    if settings is None:
        settings = LassoSettings()
    if not _gram_ok(*D.shape):
        return None
    lam_max = null_threshold(D, r)
    if not 0 < lam < lam_max:
        return None
    grid = default_grid(lam_max)
    lams = np.append(grid[grid > lam], lam)
    Delta, _, _ = _warm_path(D, r, lams, _path_settings(settings),
                             stall_tol=1e-7)
    return Delta[:, -1]


def cv_lambda(D, y, omega_hat, folds=5, grid=None, seed=0, settings=None):
    """Pick lam by K-fold cross-validation of held-out mean absolute error.

    Fold assignment is a seeded permutation split into contiguous blocks.
    Each fold fits the whole grid as one warm-started descending path;
    these path fits only rank the candidates, so they use a relaxed
    tolerance and a sweep cap, and the caller refits at the returned
    value. Ties in the mean error go to the larger lam (more shrinkage
    toward omega_hat).
    Returns (best_lam, path) where path is a (L, 2) array of (lam, mean
    held-out error) rows over the deduplicated descending grid.
    """
    D, y = _check_design(D, y, "D", "y")
    omega_hat = np.asarray(omega_hat, dtype=float)
    n = D.shape[0]
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise ConfigError(f"need n >= folds, got n={n}, folds={folds}")
    if grid is None:
        grid = default_grid(null_threshold(D, y - D @ omega_hat))
    grid = np.unique(np.asarray(grid, dtype=float))[::-1]
    if grid.size == 0:
        raise ConfigError("lambda grid is empty")
    if np.any(grid < 0):
        raise ConfigError("lambda grid must be nonnegative")
    if settings is None:
        settings = LassoSettings()
    path_settings = _path_settings(settings)
    perm = np.random.default_rng(seed).permutation(n)
    blocks = np.array_split(perm, folds)
    errs = np.zeros((grid.size, folds))
    for f, val_idx in enumerate(blocks):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        D_tr, y_tr = D[mask], y[mask]
        D_val, y_val = D[val_idx], y[val_idx]
        r_tr = y_tr - D_tr @ omega_hat
        Delta, _, _ = _warm_path(D_tr, r_tr, grid, path_settings,
                                 stall_tol=1e-7)
        preds = D_val @ (omega_hat[:, None] + Delta)
        errs[:, f] = np.mean(np.abs(preds - y_val[:, None]), axis=0)
    mean_errs = errs.mean(axis=1)
    best = int(np.argmin(mean_errs))  # first hit is the largest lam
    return float(grid[best]), np.column_stack([grid, mean_errs])

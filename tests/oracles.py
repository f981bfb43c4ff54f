"""Independent reference implementations that pin expected test values.

Everything here is deliberately naive: plain loops, brute-force
enumeration, dense SVD, trapezoid quadrature, and a projected-gradient
solver. The package must agree with these, never the other way around.
The last section keeps earlier, plainer forms of three sieve kernels (the
FISTA loop, its stop test and the basis expansion), which the package's
leaner forms must match to the bit, and the sieve's earlier per-fold
cross-validation loop, whose picks the package's must match.
"""

import itertools
import warnings

import numpy as np

from heterotl import penalized_reg as pr
from heterotl.sieve_basis import _check_input

# np.trapz was retired in favor of np.trapezoid
_trapezoid = getattr(np, "trapezoid", None)
if _trapezoid is None:
    _trapezoid = np.trapz


def map_loop(y, yhat):
    total = 0.0
    for a, b in zip(y, yhat):
        total += abs(float(a) - float(b))
    return total / len(y)


def l1_loop(a, b):
    total = 0.0
    for u, v in zip(a, b):
        total += abs(float(u) - float(v))
    return total


def rmse_loop(y, yhat):
    total = 0.0
    for a, b in zip(y, yhat):
        total += (float(a) - float(b)) ** 2
    return (total / len(y)) ** 0.5


def cosine_quadrature(q, r, a, points=1_000_001):
    """Trapezoid integral of the product of two basis functions on [-a, a]."""
    x = np.linspace(-a, a, points)

    def f(order):
        if order == 1:
            return np.ones_like(x)
        return np.sqrt(2.0) * np.cos((order - 1) * np.pi * (x + a) / (2 * a))

    return float(_trapezoid(f(q) * f(r), x))


def brute_force_indices(p1, p1_prime, d_cap):
    """Every admissible multi-index in sorted order, by exhaustive search.

    Walks the full degree box, so only usable at toy sizes.
    """
    out = []
    for q in itertools.product(range(1, d_cap + 1), repeat=p1):
        if sum(1 for d in q if d > 1) <= p1_prime:
            out.append(q)

    def key(q):
        prod = 1
        for d in q:
            prod *= d
        return prod, sum(q), tuple(-d for d in q)

    out.sort(key=key)
    return out


def spectral_norm_svd(A):
    return float(np.linalg.svd(np.asarray(A, dtype=float),
                               compute_uv=False)[0])


def padded_average(thetas, M):
    """Entrywise mean of coefficient matrices zero-padded to M rows."""
    K = len(thetas)
    p2 = thetas[0].shape[1]
    out = np.zeros((M, p2))
    for i in range(M):
        for j in range(p2):
            acc = 0.0
            for Th in thetas:
                if i < Th.shape[0]:
                    acc += Th[i, j]
            out[i, j] = acc / K
    return out


def block_positions(p, m):
    """Indices set to one by the repeating-block coefficient pattern."""
    b = (p + m - 1) // m
    return list(range(0, p, b))


def h_reference(row):
    """Conditional-mean value for one covariate row of the nonlinear design."""
    total = 0.0
    for k in range(5):
        v = float(row[k])
        if k % 2 == 0:
            total += 0.5 - abs(v - 0.5)
        else:
            total += np.exp(-v)
    return total


def pg_objective(D, r, lam, delta):
    e = r - D @ delta
    return float(e @ e / len(r) + lam * np.sum(np.abs(delta)))


def pg_lasso(D, r, lam, max_iters=1_000_000, calm=300):
    """Projected-gradient reference for the l1 problem, run to stagnation.

    Splits delta into nonnegative parts u - v, which turns the objective
    into a smooth quadratic over the nonnegative orthant, and runs
    accelerated projected gradient, restarting the momentum whenever the
    objective rises. The best point ever visited is tracked; the loop
    stops once `calm` consecutive iterations fail to improve on it, then
    a polish solves the reduced normal equations on the identified
    support (kept only when it helps), which pins the returned objective
    to machine precision whenever the signs check out.
    Returns (delta, objective value).
    """
    D = np.asarray(D, dtype=float)
    r = np.asarray(r, dtype=float)
    n, p = D.shape
    lip = 4.0 * np.linalg.norm(D, 2) ** 2 / n
    if lip == 0.0:
        return np.zeros(p), pg_objective(D, r, lam, np.zeros(p))
    step = 1.0 / lip
    u = np.zeros(p)
    v = np.zeros(p)
    yu, yv = u.copy(), v.copy()
    t = 1.0
    prev = pg_objective(D, r, lam, np.zeros(p))
    best = prev
    best_u, best_v = u.copy(), v.copy()
    since_improve = 0
    for _ in range(max_iters):
        g = 2.0 / n * (D.T @ (r - D @ (yu - yv)))
        u_new = np.maximum(yu + step * (g - lam), 0.0)
        v_new = np.maximum(yv - step * (g + lam), 0.0)
        cur = pg_objective(D, r, lam, u_new - v_new)
        if cur > prev:
            yu, yv = u_new.copy(), v_new.copy()
            t = 1.0
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            mom = (t - 1.0) / t_new
            yu = u_new + mom * (u_new - u)
            yv = v_new + mom * (v_new - v)
            t = t_new
        u, v, prev = u_new, v_new, cur
        if cur < best - 1e-13 * max(1.0, abs(best)):
            best = cur
            best_u, best_v = u.copy(), v.copy()
            since_improve = 0
        else:
            if cur < best:
                best = cur
                best_u, best_v = u.copy(), v.copy()
            since_improve += 1
            if since_improve >= calm:
                break
    delta = best_u - best_v
    best = pg_objective(D, r, lam, delta)
    support = np.abs(delta) > 1e-10 * max(1.0, np.max(np.abs(delta)))
    if np.any(support):
        Ds = D[:, support]
        signs = np.sign(delta[support])
        try:
            polished = np.linalg.solve(
                Ds.T @ Ds, Ds.T @ r - 0.5 * n * lam * signs)
        except np.linalg.LinAlgError:
            polished = None
        if polished is not None and np.all(np.sign(polished) == signs):
            cand = np.zeros(p)
            cand[support] = polished
            cand_obj = pg_objective(D, r, lam, cand)
            if cand_obj < best:
                delta, best = cand, cand_obj
    return delta, best


class RankWarning(UserWarning):
    """Design matrix is rank deficient; a minimum-norm solution was used."""


def ols(D, y):
    """Least-squares coefficients of y on D.

    Rank-deficient designs fall back to the minimum-norm solution and emit
    a RankWarning.
    """
    D = np.asarray(D, dtype=float)
    w, _, rank, _ = np.linalg.lstsq(D, np.asarray(y, dtype=float),
                                    rcond=None)
    if rank < D.shape[1]:
        warnings.warn(
            f"design has rank {rank} < {D.shape[1]}; "
            "returning the minimum-norm solution", RankWarning, stacklevel=2)
    return w


def offset_objective(D, y, omega_hat, beta, lam):
    """(1/n) ||y - D beta||^2 + lam ||beta - omega_hat||_1."""
    e = y - D @ beta
    return float(np.mean(e * e) + lam * np.sum(np.abs(beta - omega_hat)))


# -- earlier forms of the sieve kernels, for bit-identity tests ----------

def certified_masked(T, H, mse, c, lams, tol, slack=0.0):
    """The stop test of penalized_reg._certified with s taken over the
    entries whose quotient is below 1 only, each masked in a full array."""
    absH = np.abs(H)
    num, absH2 = lams + slack, 2.0 * absH
    room = np.divide(num, absH2, out=np.full(absH.shape, np.inf),
                     where=absH2 > num)
    s = np.minimum(1.0, room.min(axis=0, initial=1.0))
    pen = lams * np.abs(T).sum(axis=0)
    gap = (1.0 - s) ** 2 * mse - 2.0 * s * (T * H).sum(axis=0) + pen
    hmax = absH.max(axis=0, initial=0.0)
    return np.where(lams > 0.0, gap <= pr._GAP_TOL * c, 2.0 * hmax <= tol)


def prox_grad_columns_plain(G, lams, settings):
    """penalized_reg._prox_grad_columns written one whole-array expression
    per quantity: soft_threshold, a where for frozen columns, and the
    restart test on Y - T, with certified_masked as its stop test."""
    lams = np.asarray(lams, dtype=float)
    Theta = np.zeros((G.w.size, lams.size))
    lip = 2.0 * pr._LIP_MARGIN * pr._top_eigenvalue(G.A)
    H, mse = G.state(Theta)
    Y, HY, t = Theta, H, np.ones_like(lams)
    conv = np.zeros(lams.shape, dtype=bool)
    it = 0
    while True:
        conv |= certified_masked(Theta, H, mse, G.c, lams, settings.tol)
        if conv.all() or it == settings.max_iters:
            return Theta, it, conv
        it += 1
        Z = Y + (2.0 / lip) * HY
        T = np.where(conv, Theta, pr.soft_threshold(Z, lams / lip))
        H_new, mse_new = G.state(T)
        step = T - Y
        if np.any(pr._coldot(step, HY - H_new)
                  > 0.5 * lip * pr._coldot(step, step)):
            lip *= 2.0
            Y, HY, t = Theta, H, np.ones_like(lams)
            continue
        restart = pr._coldot(Y - T, T - Theta) > 0.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = np.where(restart, 0.0, (t - 1.0) / t_new)
        t = np.where(restart, 1.0, t_new)
        Y = T + mom * (T - Theta)
        HY = H_new + mom * (H_new - H)
        Theta, H, mse = T, H_new, mse_new


def expand_by_masks(X, basis):
    """sieve_basis.expand as a buffer of ones that each degree's factors
    are multiplied into, one slot at a time, rows picked by masks."""
    X = _check_input(X, basis)
    a = basis.a
    orders = basis.orders
    used = orders > 1
    rows, coords = np.nonzero(used)
    degrees = orders[rows, coords]
    slots = np.cumsum(used, axis=1)[rows, coords]
    n_slots = int(slots.max(initial=0))
    out = np.ones((len(basis), X.shape[0]))
    e = np.exp(1j * np.pi / (2.0 * a) * (X.T + a))
    power = np.ones_like(e)
    for d in range(2, int(degrees.max(initial=1)) + 1):
        power *= e
        factor = np.sqrt(2.0) * power.real
        for s in range(1, n_slots + 1):
            sel = (degrees == d) & (slots == s)
            out[rows[sel]] *= factor[coords[sel]]
    return out.T


def sieve_cv_picks(Psi, Z, grids, folds, seed, settings):
    """The penalty of each z column that the sieve's gamma="cv" picks, by
    its earlier per-fold loop on the whole expansion Psi: each fold's
    training gram built from scratch on its training rows, each column's
    descending grid solved by penalized_reg._prox_grad_columns on its
    column of that gram, and the grid point of lowest mean held-out
    absolute error taken, the first (largest) of a tie."""
    n = Psi.shape[0]
    errs = [np.zeros((len(grid), folds)) for grid in grids]
    for f, held in enumerate(pr._folds(n, folds, seed)):
        train = np.setdiff1d(np.arange(n), held)
        G = pr._Gram(Psi[train], Z[train])
        for j, grid in enumerate(grids):
            Delta, _, _ = pr._prox_grad_columns(G.column(j), grid, settings)
            errs[j][:, f] = np.mean(
                np.abs(Psi[held] @ Delta - Z[held, j, None]), axis=0)
    picks = []
    for grid, err in zip(grids, errs):
        best = 0
        for i in range(1, len(grid)):
            if err[i].mean() < err[best].mean():
                best = i
        picks.append(float(grid[best]))
    return np.array(picks)

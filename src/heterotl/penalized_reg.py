"""Convex solvers for the transfer objective.

The generic problem is

    min_delta P(delta) = (1/n) ||r - D delta||_2^2 + lam ||delta||_1 .

Under this (1/n) convention the smallest lam with an all-zero solution is
the null threshold (2/n) ||D' r||_inf. The offset form shrinks beta toward
a reference vector omega_hat through the substitution delta = beta - omega_hat.

Every solver reads one gram per design, _Gram: A = D'D / n with D'r / n
and r'r / n for one response or several, built once for a target solve,
a cross-validation fold or a sieve map fit (p^2 floats for p columns).
It is summed over row blocks of the design, which a caller may hand over
one at a time: the sieve map fit streams its basis expansion that way,
so it never holds the n x M design. The same block sums grow by columns
(a bordered gram) and by rows, which the sieve's hold-out ladder uses to
build one gram per proxy across its rungs and its final fit, and shrink
by rows: a sieve cross-validation fold's are the all-rows sums less its
own.

The solver is chosen by stage, not by width. Every single-response solve
(the target stage: one penalty, a warm start or a cross-validation grid)
is traced exactly on its gram, at any width: the lasso path is piecewise
linear in lam, and a homotopy follows it from the null threshold one
kink to the next, reading off each penalty on the way. It keeps the
inverse of the active block across kinks, so a kink costs O(k^2) for k
active columns; an eigendecomposition takes over wherever that inverse
cannot vouch for its own direction, and decides where a singular block
stops the trace. One product certifies all traced points, or a given
warm start. A point that does not certify is finished by an exact
active-set method (feature-sign search) on the same gram, and is
returned as it stands, flagged, if that does not certify it either.
The sieve stage has its own solver: an accelerated proximal-gradient
matrix solver fits the sieve map's many responses, and each of its
cross-validation folds' grids as columns of one solve. At sieve sizes an
iteration's cost is mostly whole-array passes over the M x columns
iterate, not its one matrix product, so the iteration and the certificate
make as few passes as the same arithmetic allows. Both certify a
solve by a duality gap of at most 1e-10 of P(0) = ||r||^2 / n, not of
P(delta): at small lam on ill-conditioned designs exact optima sit near
1e-10 of the primal in floating point. A zero penalty is certified by a
gradient within settings.tol instead.

Cross-validation solves each fold's grid on one gram of its training
rows, and one rule, _cv_pick, picks for both stages; a sieve fold's gram
carries every z column as a response, and each column's grid is solved
on its own column of it. The unpenalized proxy fits (a linear map, and the
reference coefficients on [X | Z] and on X) are read off one Householder
factor of the proxy's [X | Z | y], with lstsq kept for the designs that
factor cannot vouch for.
"""

import copy
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .core import (ConfigError, DimensionError, _check_nonnegative,
                   _require_finite)


_GAP_TOL = 1e-10  # duality gap that certifies a solve, relative to P(0)
_ROUND_TOL = 1e-13  # relative level below which a KKT violation is rounding
_RCOND = 1e-10  # relative eigenvalue below which an active gram is singular
_POWER_ITERS = 30  # power-iteration steps for the top gram eigenvalue
_LIP_MARGIN = 1.05  # safety margin on that estimate
_BLOCK_ROWS = 512  # rows per block a gram is accumulated from
_PANEL = 256  # rows of one panel of a later block's gram update
# a proxy design whose smallest singular value is within this factor of
# lstsq's rank cutoff is left to lstsq to judge: the factor's singular
# values and lstsq's differ by rounding, which must not flip the rank
_RANK_MARGIN = 16.0


@dataclass(frozen=True)
class LassoSettings:
    max_iters: int = 10000
    tol: float = 1e-9

    def __post_init__(self):
        _check_nonnegative("tol", self.tol, positive=True)
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    converged: bool
    max_kkt_violation: float
    objective: float

    def to_dict(self):
        return asdict(self)


def _check_design(D, v, dname="D", vname="r"):
    D = np.asarray(D, dtype=float)
    v = np.asarray(v, dtype=float)
    if D.ndim != 2:
        raise DimensionError(f"{dname} must be 2-d, got ndim={D.ndim}")
    if v.ndim != 1 or v.shape[0] != D.shape[0]:
        raise DimensionError(
            f"{vname} must be 1-d with {D.shape[0]} entries")
    _require_finite(D, dname)
    _require_finite(v, vname)
    return D, v


def _check_offset(D, omega_hat):
    """omega_hat as a float vector with one entry per column of D."""
    omega_hat = np.asarray(omega_hat, dtype=float)
    if omega_hat.shape != (D.shape[1],):
        raise DimensionError(
            f"omega_hat must have length {D.shape[1]}, got {omega_hat.shape}")
    return omega_hat


def _lstsq_minnorm(D, y):
    """Minimum-norm least squares solution and the design rank."""
    w, _, rank, _ = np.linalg.lstsq(D, y, rcond=None)
    return w, rank


class _NestedFits(NamedTuple):
    """A proxy's least-squares fits on its nested designs, and their ranks."""
    P: np.ndarray  # Z on X
    omega: np.ndarray  # y on [X | Z]
    omega_x: np.ndarray  # y on X
    rank_x: int  # rank of X
    rank: int  # rank of [X | Z]


def _nested_lstsq(proxy):
    """The _NestedFits of a proxy Dataset, computed on first use and kept
    on the (immutable) proxy, so that every fit on it shares them.

    One Householder factor R of [X | Z | y] (Bjorck 1996, Numerical
    Methods for Least Squares Problems) gives all three fits:
    P = R11^-1 R12 and the X-only coefficients R11^-1 r1 from one solve
    on R11, then [X | Z]'s coefficients w_z = R22^-1 r2 and w_x = R11^-1
    r1 - P w_z, which is back substitution on R's leading p x p block.

    The factor serves only where it vouches for full rank: at least
    p = p1 + p2 rows, and a smallest singular value of R's leading block
    (those of [X | Z]) more than _RANK_MARGIN times lstsq's cutoff
    eps max(n, p) sigma_max. X, whose columns are among [X | Z]'s, then
    has full rank too. Any other proxy keeps lstsq's own rank decision:
    _lstsq_minnorm fits each design as it stands.
    """
    if proxy._lsq is None:
        X, Z, y = proxy.x, proxy.z, proxy.y
        fits = _factor_fits(X, Z, y)
        if fits is None:
            P, rank_x = _lstsq_minnorm(X, Z)
            omega, rank = _lstsq_minnorm(np.hstack([X, Z]), y)
            fits = _NestedFits(P, omega, _lstsq_minnorm(X, y)[0], rank_x,
                               rank)
        for a in fits[:3]:
            a.flags.writeable = False
        object.__setattr__(proxy, "_lsq", fits)
    return proxy._lsq


def _factor_fits(X, Z, y):
    n, p1 = X.shape
    p = p1 + Z.shape[1]
    if n < p:
        return None
    R = np.linalg.qr(np.column_stack([X, Z, y]), mode="r")
    cut = _RANK_MARGIN * np.finfo(float).eps * n
    # the diagonal holds the eigenvalues of the triangular block, which lie
    # between its extreme singular values: a short one refuses the proxy
    # without the SVD
    d = np.abs(np.diag(R)[:p])
    if not d.min() > cut * d.max():
        return None
    sv = np.linalg.svd(R[:p, :p], compute_uv=False)
    if not sv[-1] > cut * sv[0]:
        return None
    # R's blocks are triangular and nonsingular, so solve's LU pivots on
    # the diagonal and reduces to back substitution
    Pw = np.linalg.solve(R[:p1, :p1], R[:p1, p1:])
    P, omega_x = Pw[:, :-1], Pw[:, -1]
    w_z = np.linalg.solve(R[p1:p, p1:p], R[p1:p, p])
    return _NestedFits(P, np.concatenate([omega_x - P @ w_z, w_z]), omega_x,
                       p1, p)


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


def kkt_check(D, r, lam, delta_hat):
    """Maximum violation of the stationarity conditions at delta_hat.

    With g = (2/n) D'(D delta_hat - r), a nonzero coordinate must satisfy
    g_j + lam sign(delta_j) = 0 and a zero coordinate |g_j| <= lam.
    """
    D, r = _check_design(D, r)
    delta_hat = np.asarray(delta_hat, dtype=float)
    g = (2.0 / D.shape[0]) * (D.T @ (D @ delta_hat - r))
    viol = np.where(delta_hat != 0.0, np.abs(g + lam * np.sign(delta_hat)),
                    np.maximum(np.abs(g) - lam, 0.0))
    return float(np.max(viol)) if viol.size else 0.0


def _pin_zero_variance(nsq):
    """Flag zero-variance columns, pinned at zero, and give them scale 1."""
    zero_var = nsq == 0.0
    if np.any(zero_var):
        warnings.warn(
            f"{int(zero_var.sum())} zero-variance column(s) pinned to 0",
            UserWarning)
        nsq = np.where(zero_var, 1.0, nsq)
    return nsq, zero_var


def _coldot(X, Y):
    """Column-wise inner products of two equally shaped matrices or vectors."""
    return np.einsum("i...,i...->...", X, Y)


def _top_eigenvalue(A):
    """Top eigenvalue of a PSD matrix by power iteration, from below;
    stops after _POWER_ITERS steps or once an estimate repeats exactly."""
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    top = 0.0
    for _ in range(_POWER_ITERS):
        w = A @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        new, v = float(v @ w), w / norm
        if new == top:
            return new
        top = new
    return top


class _Gram:
    """The gram of a design D and one response or several (columns of R):
    A = D'D / n, b = D'R / n, c = R'R / n, the column scales w and b_unit =
    max |b_j| / w_j. The unit-scaled gram, on which rank is judged, is
    built when the active-set code first reads it.

    D is the design or an iterable of its row blocks, in row order; an
    array is read in blocks of _BLOCK_ROWS rows. The sums are
    _block_sums's: a design of at most _BLOCK_ROWS rows gives D'D bit for
    bit, and a longer one is summed on and above the diagonal and mirrored
    once at the end. A sieve fit sums its basis expansion itself, a row
    block at a time, and reads its grams through from_sums."""

    def __init__(self, D, R):
        n = R.shape[0]
        if isinstance(D, np.ndarray):
            D = [D[rows] for rows in _row_blocks(n)]
        A, b, blocks = _block_sums(D, R)
        if blocks > 1:
            _mirror_upper(A)
        A /= n
        b /= n
        self._normalized(A, b, R)

    @classmethod
    def from_sums(cls, A, b, R, in_place=False):
        """The gram of the sums A (on and above the diagonal) and b that
        _block_sums gave over the rows of R; in_place=True normalizes the
        sums in place into the gram's own, else they are left as they are."""
        G = object.__new__(cls)
        n = R.shape[0]
        A = np.divide(A, n, out=A if in_place else None)
        b = np.divide(b, n, out=b if in_place else None)
        _mirror_upper(A)
        G._normalized(A, b, R)
        return G

    def _normalized(self, A, b, R):
        n = R.shape[0]
        self.A, self.b = A, b
        self.c = float(R @ R) / n if R.ndim == 1 else _coldot(R, R) / n
        nsq, self.zero_var = _pin_zero_variance(np.diagonal(self.A).copy())
        self.w = np.sqrt(nsq)
        self.b_unit = float(np.max(np.abs(self.b).T / self.w, initial=0.0))
        self._unit = None
        self.key = self.eig = None  # the last active set and its factors

    @property
    def unit(self):
        if self._unit is None:
            self._unit = self.A / np.outer(self.w, self.w)
        return self._unit

    def state(self, T):
        """H = b - A T and the mean squares c - T'(b + H), per column of T
        (each against the one response) or for a vector T."""
        b = self.b if T.ndim == self.b.ndim else self.b[:, None]
        # A is exactly symmetric, and T'A runs faster than A T for a
        # matrix T of few columns
        AT = self.A @ T if T.ndim == 1 else (T.T @ self.A).T
        H = b - AT
        return H, self.c - _coldot(T, b + H)

    def column(self, j):
        """The single-response gram of response j, sharing A and the
        column scales; a single-response gram is its own column 0."""
        if self.b.ndim == 1:
            return self
        G = copy.copy(self)
        G.b, G.c = self.b[:, j].copy(), float(self.c[j])
        G.b_unit = float(np.max(np.abs(G.b) / G.w, initial=0.0))
        return G

    def slack(self, lams):
        """Per column (and penalty), the |2 H_j| - lam that is rounding."""
        return _ROUND_TOL * np.add.outer(2.0 * self.b_unit * self.w, lams)


def _row_blocks(n):
    """Slices of n rows in blocks of _BLOCK_ROWS (one empty one if n = 0)."""
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, max(n, 1),
                                                     _BLOCK_ROWS)]


def _block_sums(D, R, A=None, b=None, start=0):
    """Unnormalized gram sums over the row blocks C of a design D, in row
    order, R's rows matching theirs: C'C on and above the diagonal, and
    C'R. Returns (A, b, number of blocks).

    Without A the sums begin at the first block, whose products are
    assigned. Given A and b, sized for the blocks' columns, each block
    adds what involves its columns from start on. With start = 0 the
    blocks are rows not yet summed. With start = m they are the rows
    whose sums over their first m columns A and b already hold, and each
    block adds only the border: the cross block C[:, :m]'C[:, m:],
    C[:, m:]'C[:, m:] and C[:, m:]'R (the bordered gram of Golub & Van
    Loan, Matrix Computations, section 6.5)."""
    s = blocks = 0
    for C in D:
        Rb = R[s:s + C.shape[0]]
        if A is None:
            A, b = C.T @ C, C.T @ Rb
        else:
            _add_upper(A, C, start)
            b[start:] += C[:, start:].T @ Rb
        s += C.shape[0]
        blocks += 1
        del C  # let the block go before the next one is made
    return A, b, blocks


def _widened(A, b, M):
    """Sums for M columns with A and b as their leading block and zeros
    in the border, for _block_sums to fill."""
    m = A.shape[0]
    A_new = np.zeros((M, M))
    A_new[:m, :m] = A
    b_new = np.zeros((M,) + b.shape[1:])
    b_new[:m] = b
    return A_new, b_new


def _add_upper(A, C, start=0):
    """A += C'C on and above the diagonal, in the columns from start on,
    one panel of rows at a time."""
    for j in range(0, A.shape[0], _PANEL):
        k, first = j + _PANEL, max(j, start)
        A[j:k, first:] += C[:, j:k].T @ C[:, first:]


def _mirror_upper(A):
    """Copy A's upper triangle onto its lower one, one panel at a time."""
    for j in range(0, A.shape[0], _PANEL):
        k = j + _PANEL
        A[k:, j:k] = A[j:k, k:].T
        block = A[j:k, j:k]
        lower = np.tril_indices(block.shape[0], -1)
        block[lower] = block.T[lower]


def _certified(T, H, mse, c, lams, tol, slack=0.0):
    """Stop test per column of T (or for a vector T), given H = D'(R - DT)/n,
    the mean squares and c = R'R / n, the objective at T = 0.

    Penalized: duality gap <= _GAP_TOL * c at the residual scaled by
    s = min(1, min_j (lam + slack_j) / |2 H_j|), dual feasible up to the
    rounding allowance slack: (1 - s)^2 mse - 2 s T'H + lam |T|_1, as
    e'r / n = mse + T'H. Unpenalized: |2 H|_inf <= tol.

    A scalar slack gives one allowance per column, and s then comes from
    the column maximum of |H| alone: rounding is monotone, so the smallest
    quotient is the one at the largest |H_j|. A per-row slack divides
    every entry; an entry whose quotient is at least 1 cannot lower s.
    Either way s is the same to the bit. A zero H (0/0 at lam = 0) gives
    s = nan only where the verdict is the gradient test.
    """
    absH = np.abs(H)
    hmax = absH.max(axis=0, initial=0.0)
    num = lams + slack
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if np.ndim(slack) == 0:
            s = np.minimum(1.0, num / (2.0 * hmax))
        else:
            absH *= 2.0
            s = np.minimum(1.0, np.divide(num, absH, out=absH).min(
                axis=0, initial=1.0))
    pen = lams * np.abs(T).sum(axis=0)
    gap = (1.0 - s) ** 2 * mse - 2.0 * s * (T * H).sum(axis=0) + pen
    return np.where(lams > 0.0, gap <= _GAP_TOL * c, 2.0 * hmax <= tol)


def _prox_grad_columns(G, lams, settings):
    """The sieve stage's accelerated proximal gradient, jointly over lams.

    Column l solves the lasso with penalty lams[l] and response l of G
    (or G's one response), and all columns share each matrix product:
    FISTA (Beck & Teboulle 2009) with gradient restart (O'Donoghue &
    Candes 2015). The step is 1 / lip, lip from a power-iteration estimate
    of the gram's top eigenvalue, doubled whenever a step meets more
    curvature than it allows. A column freezes once _certified passes;
    settings.max_iters caps the iterations. Returns (Theta, iterations,
    per-column flags).

    Each iteration gives the bits of the textbook form, one expression per
    quantity (the tests keep it as their reference), in fewer whole-array
    passes: the soft threshold is Z - clip(Z, -t, t), which differs only
    in that an entry it zeroes is +0.0; the restart test reuses the step
    T - Y and the difference T - Theta the iteration needs anyway; the
    momentum updates run in place; frozen columns are copied back only
    when there are some.
    """
    lams = np.asarray(lams, dtype=float)
    # from zero: a zero-variance column's rows of A and b are exactly 0,
    # so its row of Theta stays at 0 without a pin
    Theta = np.zeros((G.w.size, lams.size))
    # the gradient of the mean squares is -2 H, Lipschitz with 2 * top
    lip = 2.0 * _LIP_MARGIN * _top_eigenvalue(G.A)
    H, mse = G.state(Theta)
    # H is affine in T, so the extrapolated point's HY costs no product
    Y, HY, t = Theta, H, np.ones_like(lams)
    conv = np.zeros(lams.shape, dtype=bool)
    it = 0
    while True:
        conv |= _certified(Theta, H, mse, G.c, lams, settings.tol)
        if conv.all() or it == settings.max_iters:
            return Theta, it, conv
        it += 1
        thr = lams / lip
        T = HY * (2.0 / lip)
        T += Y
        # sign(Z) max(|Z| - thr, 0), to the bit but for the sign of a zero
        T -= np.clip(T, -thr, thr)
        if conv.any():
            T[:, conv] = Theta[:, conv]
        H_new, mse_new = G.state(T)
        step = T - Y
        if np.any(_coldot(step, HY - H_new)
                  > 0.5 * lip * _coldot(step, step)):
            # step'A step broke the bound, so lip was too small
            lip *= 2.0
            Y, HY, t = Theta, H, np.ones_like(lams)
            continue
        diff = T - Theta
        # (Y - T)'(T - Theta) > 0, the gradient restart test
        restart = _coldot(step, diff) < 0.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mom = np.where(restart, 0.0, (t - 1.0) / t_new)
        t = np.where(restart, 1.0, t_new)
        diff *= mom
        diff += T
        Y = diff
        HY = H_new - H
        HY *= mom
        HY += H_new
        Theta, H, mse = T, H_new, mse_new


def _reduced_step(G, S, rhs, floor):
    """(z, True) for the least-norm z with A_SS z = rhs, solved on unit
    scale; or, if A_SS is singular and rhs reaches its null space beyond
    floor, (that null component, False): the quadratic falls along it."""
    w_S = G.w[S]
    if S.tobytes() != G.key:
        G.key, G.eig = S.tobytes(), np.linalg.eigh(G.unit[S][:, S])
    ev, U = G.eig
    coef = U.T @ (rhs / w_S)
    null = ev <= _RCOND * ev[-1]
    if np.abs(coef[null]).max(initial=0.0) > floor:
        return U[:, null] @ coef[null] / w_S, False
    return U[:, ~null] @ (coef[~null] / ev[~null]) / w_S, True


def _feature_sign(G, lam, x, cap, tol):
    """Feature-sign search (Lee et al. 2007) from x at one penalty.

    A round solves A_SS z = b_S - lam s / 2 on the active set S with signs
    s and moves toward z, stopping at the first sign change (ratio test);
    that coordinate leaves S. Once a round reaches z, the worst violator
    of |2 (A x - b)_j| <= lam joins S. If A_SS is singular and the right
    side reaches its null space, the round moves along that null direction
    to the first sign change, which the l1 term guarantees. Returns (x,
    rounds, certified) once no violator exceeds rounding, once a round
    finds no descent, or after cap rounds.
    """
    w = G.w
    x = x.copy()
    slack = G.slack(lam)
    rounds, stationary = 0, False

    def done():
        return x, rounds, bool(_certified(x, H, mse, G.c, lam, tol, slack))

    while True:
        H, mse = G.state(x)
        pattern = np.sign(x)
        if stationary or not pattern.any():
            excess = (2.0 * np.abs(H) - lam - slack) / w
            excess[pattern != 0.0] = -np.inf
            j = int(excess.argmax())
            if not excess[j] > 0.0:
                return done()
            pattern[j] = np.sign(H[j])
        if rounds == cap:
            return done()
        rounds += 1
        S = pattern.nonzero()[0]
        signs = pattern[S]
        step, bounded = _reduced_step(G, S, H[S] - 0.5 * lam * signs,
                                      _RCOND * (G.b_unit + lam / w[S].min()))
        t = 1.0 if bounded else np.inf
        ratios = np.divide(-x[S], step, out=np.full(S.size, np.inf),
                           where=signs * step < 0.0)
        k = int(ratios.argmin())
        stationary, t = not ratios[k] < t, min(t, ratios[k])
        if not 0.0 < t < np.inf:  # no descent: return x as it stands
            return done()
        x[S] += t * step
        if not stationary:
            x[S[k]] = 0.0


def _unit_solve(B, inv, r):
    """B v = r from inv, an inverse of B kept across events, refined once
    against B; None unless the refined residual is within _RCOND of r."""
    v = inv @ r
    v += inv @ (r - B @ v)
    if np.abs(r - B @ v).max() <= _RCOND * np.abs(r).max():
        return v
    return None


def _bordered(inv, c, d):
    """The inverse of [[B, c], [c', d]] from inv = B^-1; None (stale) if inv
    is, or if the Schur complement d - c' B^-1 c is not above _RCOND."""
    if inv is None:
        return None
    u = inv @ c
    s = d - c @ u
    if not s > _RCOND:
        return None
    k = c.size
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = inv + u[:, None] * (u / s)
    out[k, :k] = out[:k, k] = -u / s
    out[k, k] = 1.0 / s
    return out


def _swap_delete(inv, m):
    """The inverse of B without row and column m, from inv = B^-1 (a Schur
    complement downdate), with the last slot moved into slot m."""
    if inv is None:
        return None
    f = inv[:, m]
    out = inv - f[:, None] * (f / f[m])
    out[m] = out[-1]
    out[:, m] = out[:, -1]
    return out[:-1, :-1]


def _trace(G, lams, cap):
    """The exact lasso path (homotopy: Osborne, Presnell & Turlach 2000;
    Efron et al. 2004) at the descending penalties lams.

    From x = 0 at the null threshold, each segment keeps the active set S
    and its signs s, so x_S(l) = x_S + (lam - l) v with A_SS v = s / 2,
    and ends at the next event: an inactive coordinate reaching
    |2 H_j| = l or an active one reaching zero. The coordinate that just
    left may not rejoin on its side at the same penalty; pinned columns
    never join. Returns (X, events) with X holding the leading lams that
    were reached.

    An event costs O(|S|^2). The trace keeps the inverse of the
    unit-scaled block A_SS in slot order: a join is a bordered update, and
    a leave a Schur complement downdate that moves the last slot into the
    leaver's. Each direction is refined once against the block, and the
    doubled gradient moves by the rates the event has already computed.
    The inverse must vouch for its direction: one whose refined residual
    exceeds _RCOND of the right side comes from _reduced_step instead, and
    so does every direction while the inverse is stale (from a join whose
    Schur complement is not above _RCOND until a rebuild). _reduced_step's
    eigenvalues rebuild the inverse unless its test finds the block
    singular. The trace stops after cap events, or where _reduced_step
    finds the right side in A_SS's null space.
    """
    p, L = G.b.size, lams.size
    X = np.zeros((p, L))
    lam = 2.0 * float(np.max(np.abs(G.b), initial=0.0))
    k = int(np.searchsorted(-lams, -lam, side="right"))  # x = 0 up to lam
    if k == L:
        return X, 0
    # entry j (or p + j) of the doubled system reads s 2 H_j for s = 1 (-1)
    g = 2.0 * np.concatenate([G.b, -G.b])
    x, pattern = np.zeros(p), np.zeros(p)
    j = int(np.abs(G.b).argmax())
    pattern[j] = np.sign(G.b[j])
    avail = ~np.concatenate([G.zero_var, G.zero_var])  # sides that may join
    avail[j] = avail[p + j] = False
    neg, t_join = -lams, np.empty(2 * p)
    unit = G.unit  # a local: each read of the property costs a call
    slots, inv = np.array([j]), 1.0 / unit[[j]][:, [j]]
    events, left = 1, None
    while events < cap:
        w_S, s_S = G.w[slots], pattern[slots]
        v = None if inv is None else _unit_solve(
            unit[slots][:, slots], inv, 0.5 * s_S / w_S)
        if v is None:
            slots = pattern.nonzero()[0]
            s_S = pattern[slots]
            v, bounded = _reduced_step(G, slots, 0.5 * s_S,
                                       _RCOND * 0.5 / G.w[slots].min())
            if not bounded:
                break
            ev, U = G.eig
            inv = (U / ev) @ U.T if ev[0] > _RCOND * ev[-1] else None
        else:
            v /= w_S
        step = np.zeros(p)
        step[slots] = v
        # s 2 H_j = g - t s u_j, u = 2 A step, meets the penalty lam - t
        # at t = (lam - g) / (1 - s u_j) if it closes the gap (rate > 0)
        u = 2.0 * (G.A @ step)
        u = np.concatenate([u, -u])
        rate = 1.0 - u
        open_ = avail & (rate > 0.0)
        if left is not None:
            open_[left] = False
        t_join.fill(np.inf)
        np.divide(np.maximum(lam - g, 0.0), rate, out=t_join, where=open_)
        i = int(t_join.argmin())
        t, j = t_join[i], i % p
        shrinking = (s_S * v < 0.0).nonzero()[0]
        if shrinking.size:
            t_leave = -x[slots[shrinking]] / v[shrinking]
            m = int(t_leave.argmin())
            if t_leave[m] <= t:
                t, m, i = t_leave[m], shrinking[m], -1
                j = slots[m]
        # lams[:k] lie at or above lam, so all count when t >= 0
        n = max(int(neg.searchsorted(t - lam, side="right")) - k, 0)
        if n:
            X[:, k:k + n] = x[:, None] + step[:, None] * (lam - lams[k:k + n])
            k += n
        if k == L:
            break
        x += t * step
        lam -= t
        g -= t * u
        events += 1
        if i >= 0:  # j joins with the sign of the side it reached
            pattern[j], left = (1.0 if i < p else -1.0), None
            avail[j] = avail[p + j] = False
            inv = _bordered(inv, unit[slots, j], unit[j, j])
            slots = np.concatenate([slots, [j]])
        else:
            left = j if pattern[j] > 0.0 else p + j
            x[j] = pattern[j] = 0.0
            avail[j] = avail[p + j] = True
            inv = _swap_delete(inv, m)
            slots[m] = slots[-1]
            slots = slots[:-1]
    return X[:, :k], events


def _lasso_path(G, lams, settings, x0=None):
    """Solve the lasso at each penalty of lams, in the caller's order, by
    the active set on the single-response gram G, at any width.

    Without x0 the penalties are traced exactly by _trace, in descending
    order (one penalty is a one-point trace); with x0 the largest penalty
    starts from x0 instead. One product certifies the traced points, or
    x0. Each point left uncertified, or that the trace stopped short of,
    runs _feature_sign from its traced value (or from the previous
    point's solution); a point that still does not certify is returned as
    it stands, flagged False. settings.max_iters caps the trace's events
    and the rounds of the whole call together. Returns (Delta, events
    plus rounds, flags).
    """
    p = G.w.size
    lams = np.asarray(lams, dtype=float)
    order = np.argsort(-lams, kind="stable")
    if x0 is None:
        X, iters = _trace(G, lams[order], settings.max_iters)
    else:
        X, iters = np.where(G.zero_var, 0.0, x0)[:, None], 0
    traced = lams[order[:X.shape[1]]]
    H, mse = G.state(X)
    ok = _certified(X, H, mse, G.c, traced, settings.tol, G.slack(traced))
    Delta = np.empty((p, lams.size))
    conv = np.zeros(lams.size, dtype=bool)
    x = np.zeros(p)
    for i, l in enumerate(order):
        if i < ok.size:
            x, conv[l] = X[:, i], ok[i]
        if not conv[l]:
            x, it, conv[l] = _feature_sign(G, lams[l], x,
                                           settings.max_iters - iters,
                                           settings.tol)
            iters += it
        Delta[:, l] = x
    return Delta, iters, conv


def lasso(D, r, lam, settings=None, delta0=None):
    """Solve the l1-penalized least squares problem for delta.

    D is the (n, p) design, r the (n,) response (residualized in the
    offset form), lam >= 0 the penalty under the (1/n) convention, delta0
    an optional warm start. The solve is exact at any width: a one-point
    path trace, or delta0 if it certifies, finished by the active set (see
    _lasso_path). The solve has converged once certified;
    settings.max_iters caps trace events and active-set rounds together.

    Returns (delta_hat, SolveDiagnostics). Non-convergence is reported via
    diagnostics.converged, never raised here.
    """
    D, r = _check_design(D, r)
    _check_nonnegative("lam", lam)
    if settings is None:
        settings = LassoSettings()
    if delta0 is not None:
        delta0 = np.asarray(delta0, dtype=float)
        if delta0.shape != (D.shape[1],):
            raise DimensionError("delta0 length does not match D columns")
    Delta, it, conv = _lasso_path(_Gram(D, r), [lam], settings, delta0)
    delta = Delta[:, 0]
    diag = SolveDiagnostics(int(it), bool(conv[0]),
                            kkt_check(D, r, lam, delta),
                            objective(D, r, lam, delta))
    return delta, diag


def lasso_with_offset(D, y, omega_hat, lam, settings=None, delta0=None):
    """Shrink toward omega_hat: solve for delta on the residual y - D omega_hat.

    Returns (beta_hat, delta_hat, SolveDiagnostics) with
    beta_hat = omega_hat + delta_hat.
    """
    D, y = _check_design(D, y, "D", "y")
    omega_hat = _check_offset(D, omega_hat)
    r = y - D @ omega_hat
    delta, diag = lasso(D, r, lam, settings, delta0)
    return omega_hat + delta, delta, diag


def default_grid(lam_max, num=50, decay=1e-4):
    """Log-spaced descending path from lam_max down to lam_max * decay."""
    if lam_max <= 0:
        return np.array([0.0])
    return np.geomspace(lam_max, lam_max * decay, num)


def warm_start(D, r, lam, settings=None):
    """Warm start for the final solve at lam: the exact path's solution
    there, so that the final solve only confirms its certificate. None
    when lam is at or above the null threshold, where the zero start is
    exact.
    """
    D, r = _check_design(D, r)
    if not 0 < lam < null_threshold(D, r):
        return None
    return _lasso_path(_Gram(D, r), [lam],
                       settings or LassoSettings())[0][:, 0]


def cv_lambda(D, y, omega_hat, folds=5, grid=None, seed=0, settings=None):
    """Pick lam by K-fold cross-validation of held-out mean absolute error.

    Fold assignment is a seeded permutation split into contiguous blocks.
    Each fold builds the _Gram of its training rows once and solves the
    whole grid on it in one _lasso_path call, at any width: one exact path
    trace, certified at every point, with feature-sign finishing any point
    it leaves uncertified (a point still uncertified is used as it
    stands). The pick is _cv_pick's. omega_hat must have one entry per
    column of D. Returns (best_lam, path) where path is a (L, 2) array of
    (lam, mean held-out error) rows over the deduplicated descending grid.
    """
    D, y = _check_design(D, y, "D", "y")
    omega_hat = _check_offset(D, omega_hat)
    if grid is None:
        grid = default_grid(null_threshold(D, y - D @ omega_hat))
    n = D.shape[0]
    blocks = _folds(n, folds, seed)
    grid = np.unique(np.asarray(grid, dtype=float))[::-1]
    if grid.size == 0:
        raise ConfigError("lambda grid is empty")
    if not (np.isfinite(grid).all() and grid.min() >= 0):
        raise ConfigError("lambda grid must be finite and nonnegative")
    settings = settings or LassoSettings()
    errs = np.zeros((grid.size, folds))
    for f, val_idx in enumerate(blocks):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        D_tr, D_val = D[mask], D[val_idx]
        Delta, _, _ = _lasso_path(_Gram(D_tr, y[mask] - D_tr @ omega_hat),
                                  grid, settings)
        preds = D_val @ (omega_hat[:, None] + Delta)
        errs[:, f] = np.mean(np.abs(preds - y[val_idx, None]), axis=0)
    return _cv_pick(grid, errs)


def _folds(n, folds, seed):
    """The row indices of each of folds folds of n rows: a permutation
    drawn with seed, split into contiguous blocks."""
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise ConfigError(f"need n >= folds, got n={n}, folds={folds}")
    return np.array_split(np.random.default_rng(seed).permutation(n), folds)


def _cv_pick(grid, errs):
    """The cross-validation pick of every solver: the penalty of the
    descending grid with the lowest mean of its row of errs (held-out
    mean absolute errors, one column per fold), ties to the larger
    penalty, and the (L, 2) path of (lam, mean error) rows."""
    mean_errs = errs.mean(axis=1)
    best = int(np.argmin(mean_errs))  # first hit is the largest lam
    return float(grid[best]), np.column_stack([grid, mean_errs])

"""Certified optimum of the lasso objective, computed apart from heterotl.

The problem is

    min_d  P(d) = (1/n) ||r - D d||^2 + lam ||d||_1 .

The solver works on unit-norm columns (a weighted lasso), which removes the
column-scale part of the conditioning, runs accelerated proximal gradient
with adaptive restart, and after every chunk of iterations tries a support
polish: it moves the iterate the least distance onto the solution set of the
reduced stationarity equations on its sign pattern. Whatever point is
returned carries its own duality gap. The dual point is the residual scaled
until it is feasible, theta = s * (r - D d) with ||(2/n) D' theta||_inf <= lam,
and the dual objective is (1/n) (2 theta'r - theta'theta). The gap
P(d) - dual(theta) bounds the distance of P(d) from the true optimum.
"""

import numpy as np


def duality_gap(D, r, lam, d):
    """(primal value, dual value) at d, from the scaled-residual dual point."""
    n = len(r)
    e = r - D @ d
    corr = np.max(np.abs(D.T @ e)) * 2.0 / n if D.shape[1] else 0.0
    s = 1.0 if corr <= lam else lam / corr
    theta = s * e
    p = float(e @ e / n + lam * np.sum(np.abs(d)))
    dual = float((2.0 * (theta @ r) - theta @ theta) / n)
    return p, dual


def _polish(G, b, lam_w, u, rounds=50):
    """Active-set refinement of u on the reduced stationarity equations.

    On the sign pattern of u it makes the least-distance move onto the
    solutions of G_SS x = b_S - (lam_w/2) s_S. A coordinate whose sign
    flips leaves the set; otherwise the worst outside coordinate that
    breaks |2 (G x - b)_j| <= lam_w_j joins it. Returns the first point
    that breaks neither rule, or None.
    """
    x = u.copy()
    for _ in range(rounds):
        S = np.flatnonzero(x)
        signs = np.sign(x[S])
        G_SS = G[np.ix_(S, S)]
        res = b[S] - 0.5 * lam_w[S] * signs - G_SS @ x[S]
        cand = np.zeros_like(x)
        cand[S] = x[S] + np.linalg.pinv(G_SS, rcond=1e-12,
                                        hermitian=True) @ res
        flipped = np.sign(cand[S]) != signs
        if np.any(flipped):
            cand[S[flipped]] = 0.0
            x = cand
            continue
        grad = 2.0 * (G @ cand - b)
        excess = np.abs(grad) - lam_w * (1.0 + 1e-9)
        excess[S] = -np.inf
        j = int(np.argmax(excess))
        if excess[j] <= 0.0:
            return cand
        # a tiny step in the descent direction enters j into the set
        cand[j] = -np.sign(grad[j]) * 1e-12 * max(1.0, np.max(np.abs(cand)))
        x = cand
    return None


def lasso_optimum(D, r, lam, rel_gap=1e-11, chunk=200, max_iters=400_000):
    """Solve the lasso to a certified relative duality gap.

    Returns (d, primal value, relative gap), where the gap is the returned
    primal value minus the best dual value seen, so a caller can tell a
    certified optimum (relative gap <= rel_gap) from a best effort.
    """
    D = np.asarray(D, dtype=float)
    r = np.asarray(r, dtype=float)
    n, p = D.shape
    w = np.sqrt(np.einsum("ij,ij->j", D, D) / n)
    w = np.where(w > 0, w, 1.0)
    Dw = D / w
    G = Dw.T @ Dw / n
    b = Dw.T @ r / n
    lam_w = lam / w
    step = 1.0 / (2.0 * max(np.linalg.eigvalsh(G)[-1], 1e-300))

    u = np.zeros(p)
    best_d, best_p, best_dual = u.copy(), *duality_gap(D, r, lam, u)

    def rel(p_val, dual):
        return (p_val - dual) / max(abs(p_val), 1e-300)

    y = u.copy()
    t = 1.0
    done = 0
    while rel(best_p, best_dual) > rel_gap and done < max_iters:
        for _ in range(chunk):
            g = 2.0 * (G @ y - b)
            z = y - step * g
            u_new = np.sign(z) * np.maximum(np.abs(z) - step * lam_w, 0.0)
            if (y - u_new) @ (u_new - u) > 0.0:
                t = 1.0
                y = u_new
            else:
                t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
                y = u_new + ((t - 1.0) / t_new) * (u_new - u)
                t = t_new
            u = u_new
        done += chunk
        for cand in (u, _polish(G, b, lam_w, u)):
            if cand is None:
                continue
            d = cand / w
            p_val, dual = duality_gap(D, r, lam, d)
            if p_val < best_p:
                best_d, best_p = d, p_val
            best_dual = max(best_dual, dual)
    return best_d, best_p, rel(best_p, best_dual)

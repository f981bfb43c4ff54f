"""Cosine tensor-product basis for nonparametric feature maps.

Univariate basis on [-a, a]:

    phi_1(x) = 1,   phi_q(x) = sqrt(2) * cos((q-1) pi (x+a) / (2a)),  q >= 2,

which is orthogonal with int phi_q phi_r = 0 for q != r and = 2a for q = r,
so the basis is orthonormal under Uniform(-a, a). Multivariate functions use
tensor products psi_q(x) = prod_k phi_{q_k}(x_k) indexed by integer vectors
q in N^{p1} with q_k >= 1. A multi-index is admissible when at most p1_prime
coordinates exceed 1 (an interaction cap) and every coordinate is at most
d_cap. The unraveling enumerates admissible indices sorted ascending by
prod_k q_k, ties broken by sum_k q_k, then by descending lexicographic
order, and truncates at M. The ordering is a pure function of its inputs,
so two index sets with the same parameters agree on their common prefix.

Design matrices are built without a cosine per order: phi_q(x) is
sqrt(2) times the real part of e^(q-1) with e = exp(i pi (x+a) / (2a)), so
expand raises e to one degree after the other and multiplies each degree's
factors into the basis columns that use it. The result is an (n, M)
Fortran-ordered array (the transpose of the (M, n) buffer it fills).
"""

from math import comb
from itertools import combinations

import numpy as np

from .core import (CapacityError, ConfigError, DimensionError, SupportError,
                   _require_finite)


def phi(q, x, a):
    """Evaluate the univariate basis function of order q at x, support [-a, a].

    x may be a scalar or an array; values outside the support raise
    SupportError.
    """
    if q < 1 or q != int(q):
        raise ConfigError(f"q must be an integer >= 1, got {q}")
    if a <= 0:
        raise ConfigError(f"a must be positive, got {a}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > a):
        raise SupportError(f"input outside support [-{a}, {a}]")
    if q == 1:
        out = np.ones_like(x)
    else:
        out = np.sqrt(2.0) * np.cos((q - 1) * np.pi * (x + a) / (2.0 * a))
    return float(out) if out.ndim == 0 else out


def admissible_count(p1, p1_prime, d_cap=64):
    """Number of admissible multi-indices for the given caps."""
    return sum(comb(p1, j) * (d_cap - 1) ** j for j in range(p1_prime + 1))


def _sort_key(idx):
    # ascending product, then ascending sum, then descending lexicographic
    prod = 1
    for q in idx:
        prod *= q
    return (prod, sum(idx), tuple(-q for q in idx))


def _enumerate_up_to(p1, p1_prime, d_cap, w):
    """All admissible indices with product weight <= w."""
    out = [(1,) * p1]
    for j in range(1, p1_prime + 1):
        if 2 ** j > w:
            break
        for coords in combinations(range(p1), j):
            stack = [((), w)]
            for pos in range(j):
                nxt = []
                for prefix, room in stack:
                    dmax = min(d_cap, room // (2 ** (j - pos - 1)))
                    for d in range(2, dmax + 1):
                        nxt.append((prefix + (d,), room // d))
                stack = nxt
            for degrees, _ in stack:
                idx = [1] * p1
                for c, d in zip(coords, degrees):
                    idx[c] = d
                out.append(tuple(idx))
    return out


class BasisIndexSet:
    """An ordered, truncated set of tensor-product multi-indices."""

    __slots__ = ("p1", "p1_prime", "a", "d_cap", "multi_indices")

    def __init__(self, p1, p1_prime, a, multi_indices, d_cap=64):
        object.__setattr__(self, "p1", int(p1))
        object.__setattr__(self, "p1_prime", int(p1_prime))
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "d_cap", int(d_cap))
        object.__setattr__(self, "multi_indices",
                           tuple(tuple(int(q) for q in m) for m in multi_indices))

    def __setattr__(self, name, value):
        raise AttributeError("BasisIndexSet is immutable")

    def __len__(self):
        return len(self.multi_indices)

    @property
    def M(self):
        return len(self.multi_indices)

    def to_dict(self):
        return {"p1": self.p1, "p1_prime": self.p1_prime, "a": self.a,
                "d_cap": self.d_cap,
                "indices": [list(m) for m in self.multi_indices]}

    @classmethod
    def from_dict(cls, d):
        return cls(d["p1"], d["p1_prime"], d["a"], d["indices"],
                   d.get("d_cap", 64))


def unravel(p1, p1_prime, M, a=1.0, d_cap=64):
    """First M admissible multi-indices under the deterministic ordering.

    Raises CapacityError when M exceeds the count of indices reachable with
    per-coordinate degree at most d_cap.
    """
    if M < 1:
        raise ConfigError(f"M must be >= 1, got {M}")
    if not (1 <= p1_prime <= p1):
        raise ConfigError(
            f"need 1 <= p1_prime <= p1, got p1_prime={p1_prime}, p1={p1}")
    if d_cap < 2:
        raise ConfigError(f"d_cap must be >= 2, got {d_cap}")
    total = admissible_count(p1, p1_prime, d_cap)
    if M > total:
        raise CapacityError(
            f"M={M} exceeds the {total} admissible indices under degree cap "
            f"d_cap={d_cap} with p1={p1}, p1_prime={p1_prime}")
    w = 2
    w_max = d_cap ** p1_prime
    while True:
        found = _enumerate_up_to(p1, p1_prime, d_cap, w)
        if len(found) >= M or w >= w_max:
            break
        w *= 2
    found.sort(key=_sort_key)
    return BasisIndexSet(p1, p1_prime, a, found[:M], d_cap)


def default_truncation(p, n_p, budget=None, p1_prime=1, d_cap=64):
    """Default number of basis functions: min(p^3, budget, admissible count).

    budget defaults to floor(n_p / 2) so the per-column penalized design
    stays comfortably sized at desk scale.
    """
    if p < 1 or n_p < 1:
        raise ConfigError("p and n_p must be >= 1")
    if budget is None:
        budget = max(1, n_p // 2)
    if budget < 1:
        raise ConfigError(f"budget must be >= 1, got {budget}")
    return int(min(p ** 3, budget, admissible_count(p, p1_prime, d_cap)))


def _check_input(X, basis):
    """X as a float array, once it is (n, p1), finite and within the
    support; the error names the first offending entry."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != basis.p1:
        raise DimensionError(
            f"X must be (n, {basis.p1}), got shape {X.shape}")
    _require_finite(X, "X")
    a = basis.a
    over = np.abs(X) > a
    if np.any(over):
        i, k = np.argwhere(over)[0]
        raise SupportError(
            f"entry ({i}, {k}) = {X[i, k]} outside support [-{a}, {a}]")
    return X


def expand(X, basis):
    """Tensor-product design matrix: entry (i, m) = prod_k phi_{q_mk}(X_ik).

    X must be (n, p1) with every entry finite and in [-a, a]; column 0 of
    the result is all ones (the constant index comes first).

    No cosine is evaluated per order: with e = exp(i pi (x + a) / (2a)),
    phi_q(x) = sqrt(2) * Re(e^(q-1)), so one complex multiply per degree
    gives every coordinate's factor of that degree, which is multiplied
    straight into the rows of an (M, n) array whose indices use it. The
    result is the transpose of that array: an (n, M) Fortran-ordered view.
    """
    X = _check_input(X, basis)
    a = basis.a
    orders = np.array(basis.multi_indices).reshape(len(basis), basis.p1)
    used = orders > 1
    rows, coords = np.nonzero(used)
    degrees = orders[rows, coords]
    # factor slot within its index (1..p1_prime): a row holds each slot
    # once, so one slot's rows can be updated by a single fancy index
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

"""Cosine basis, multi-index enumeration, and design expansion."""

import json
import tracemalloc

import numpy as np
import pytest

from heterotl.core import (CapacityError, ConfigError, DimensionError,
                           InvalidValueError, SupportError)
from heterotl.sieve_basis import (BasisIndexSet, admissible_count,
                                  default_truncation, expand, phi, unravel)
from oracles import (brute_force_indices, cosine_quadrature,
                     expand_by_masks)


def test_phi_constant_first():
    for x in (-1.0, 0.0, 0.7):
        assert phi(1, x, 1.0) == 1.0


def test_phi_left_endpoint():
    # cos(0) = 1, so the order-2 function starts at sqrt(2)
    assert phi(2, -1.0, 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert phi(2, -2.5, 2.5) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_phi_vectorized():
    x = np.linspace(-1.0, 1.0, 9)
    vals = phi(3, x, 1.0)
    assert vals.shape == x.shape
    assert vals[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_phi_outside_support():
    with pytest.raises(SupportError):
        phi(2, 1.0001, 1.0)
    with pytest.raises(SupportError):
        phi(1, np.array([0.0, -3.0]), 2.0)


def test_phi_validation():
    with pytest.raises(ConfigError):
        phi(0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        phi(1.5, 0.0, 1.0)
    with pytest.raises(ConfigError):
        phi(2, 0.0, 0.0)


@pytest.mark.parametrize("a", [1.0, 2.5])
def test_phi_quadrature_orthogonality(a):
    assert abs(cosine_quadrature(2, 3, a)) <= 1e-6
    assert abs(cosine_quadrature(1, 4, a)) <= 1e-6
    assert cosine_quadrature(2, 2, a) == pytest.approx(2.0 * a, abs=1e-6)
    assert cosine_quadrature(1, 1, a) == pytest.approx(2.0 * a, abs=1e-6)


def test_unravel_univariate_prefix():
    assert unravel(1, 1, 3).multi_indices == ((1,), (2,), (3,))


def test_unravel_bivariate_order():
    got = unravel(2, 1, 5).multi_indices
    assert got == ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3))


def test_unravel_matches_brute_force():
    for p1, p1_prime, d_cap in ((2, 1, 6), (3, 2, 4), (2, 2, 5)):
        expected = brute_force_indices(p1, p1_prime, d_cap)
        got = unravel(p1, p1_prime, len(expected), d_cap=d_cap)
        assert got.multi_indices == tuple(expected)
        assert admissible_count(p1, p1_prime, d_cap) == len(expected)


def test_unravel_invariants():
    basis = unravel(4, 2, 60)
    idx = basis.multi_indices
    assert idx[0] == (1, 1, 1, 1)
    assert len(set(idx)) == len(idx)
    assert all(sum(1 for q in m if q > 1) <= 2 for m in idx)
    # deterministic, and longer truncations extend shorter ones
    assert unravel(4, 2, 60).multi_indices == idx
    assert unravel(4, 2, 25).multi_indices == idx[:25]


@pytest.mark.parametrize("p1_prime", [1, 2])
@pytest.mark.parametrize("d_cap", [8, 64])
def test_unravel_truncations_are_prefixes(p1_prime, d_cap):
    # the held-out ladder reads a smaller truncation as the leading block
    # of a larger one, at the fig5 input dimension
    M_max = min(1261, admissible_count(20, p1_prime, d_cap))
    full = unravel(20, p1_prime, M_max, d_cap=d_cap).multi_indices
    for M in (1, 21, 101, 140, 141, 201, 401, 801, M_max):
        if M <= M_max:
            got = unravel(20, p1_prime, M, d_cap=d_cap).multi_indices
            assert got == full[:M], M


def test_unravel_capacity():
    # p1=2, p1_prime=1, d_cap=3 admits exactly 5 indices
    assert admissible_count(2, 1, 3) == 5
    assert len(unravel(2, 1, 5, d_cap=3)) == 5
    with pytest.raises(CapacityError, match="5"):
        unravel(2, 1, 6, d_cap=3)


def test_unravel_validation():
    with pytest.raises(ConfigError):
        unravel(2, 1, 0)
    with pytest.raises(ConfigError):
        unravel(2, 3, 4)
    with pytest.raises(ConfigError):
        unravel(2, 0, 4)
    with pytest.raises(ConfigError):
        unravel(2, 1, 4, d_cap=1)


def test_basis_index_set_json_round_trip():
    basis = unravel(3, 2, 15, a=2.0, d_cap=7)
    back = BasisIndexSet.from_dict(json.loads(json.dumps(basis.to_dict())))
    assert back.multi_indices == basis.multi_indices
    assert (back.p1, back.p1_prime, back.a, back.d_cap) == (3, 2, 2.0, 7)
    assert back.M == 15
    with pytest.raises(AttributeError):
        basis.a = 3.0


def test_expand_constant_only():
    basis = unravel(2, 1, 1)
    out = expand(np.zeros((1, 2)), basis)
    assert np.array_equal(out, [[1.0]])


def test_expand_endpoint_value():
    basis = unravel(2, 1, 5)
    out = expand(np.array([[-1.0, 0.3]]), basis)
    # second index is (2, 1): phi_2 at the left endpoint times 1
    assert out[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_expand_matches_phi_products():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(7, 3))
    basis = unravel(3, 2, 12)
    out = expand(X, basis)
    for m, idx in enumerate(basis.multi_indices):
        col = np.ones(7)
        for k, q in enumerate(idx):
            col = col * phi(q, X[:, k], 1.0)
        assert np.max(np.abs(out[:, m] - col)) < 1e-12


def test_expand_shape_and_bounds():
    rng = np.random.default_rng(6)
    X = rng.uniform(-2.0, 2.0, size=(50, 2))
    basis = unravel(2, 2, 20, a=2.0)
    out = expand(X, basis)
    assert out.shape == (50, 20)
    assert np.array_equal(out[:, 0], np.ones(50))
    assert np.max(np.abs(out)) <= 2.0 + 1e-12  # (sqrt 2)^p1_prime


def test_expand_rows_independent():
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.0, 1.0, size=(10, 2))
    basis = unravel(2, 1, 8)
    whole = expand(X, basis)
    stacked = np.vstack([expand(X[:4], basis), expand(X[4:], basis)])
    assert np.array_equal(whole, stacked)


@pytest.mark.parametrize("p1, p1_prime, M", [(20, 1, 150), (5, 2, 203),
                                             (4, 3, 307), (3, 1, 1)])
def test_expand_matches_the_masked_products_to_the_bit(p1, p1_prime, M):
    # each M ends partway through a degree
    X = np.random.default_rng(12).uniform(-1.0, 1.0, size=(37, p1))
    basis = unravel(p1, p1_prime, M)
    assert np.array_equal(expand(X, basis), expand_by_masks(X, basis))


@pytest.mark.parametrize("p1_prime, M", [(1, 150), (2, 203), (3, 307)])
def test_expand_any_index_order_matches_the_masked_products(p1_prime, M):
    # a loaded set may list its indices in any order, so a degree's rows
    # need not be one run: expand must find out, not assume
    basis = unravel(4 if p1_prime == 3 else 20, p1_prime, M).to_dict()
    order = np.random.default_rng(13).permutation(M)
    basis["indices"] = [basis["indices"][i] for i in order]
    basis = BasisIndexSet.from_dict(basis)
    X = np.random.default_rng(14).uniform(-1.0, 1.0, size=(37, basis.p1))
    assert np.array_equal(expand(X, basis), expand_by_masks(X, basis))


def test_unravel_is_memoised():
    basis = unravel(6, 2, 40, a=1.5, d_cap=9)
    assert unravel(6, 2, 40, a=1.5, d_cap=9) is basis
    for other in (unravel(6, 2, 40, a=2.0, d_cap=9),
                  unravel(6, 2, 40, a=1.5, d_cap=10)):
        assert other is not basis and other.to_dict() != basis.to_dict()


def test_expand_errors():
    basis = unravel(2, 1, 3)
    with pytest.raises(DimensionError):
        expand(np.zeros((4, 3)), basis)
    with pytest.raises(SupportError, match=r"\(1, 0\)"):
        expand(np.array([[0.0, 0.0], [1.5, 0.0]]), basis)


def _phi_products(X, basis):
    out = np.ones((X.shape[0], len(basis)))
    for m, idx in enumerate(basis.multi_indices):
        for k, q in enumerate(idx):
            out[:, m] *= phi(q, X[:, k], basis.a)
    return out


@pytest.mark.parametrize("p1, p1_prime, M", [(2, 1, 127), (2, 2, 4096),
                                              (3, 3, 800)])
def test_expand_matches_phi_products_up_to_degree_cap(p1, p1_prime, M):
    # the powers of e^{i theta} run up to degree 64, where their rounding
    # error is largest
    basis = unravel(p1, p1_prime, M, a=1.5, d_cap=64)
    assert max(max(m) for m in basis.multi_indices) == 64
    rng = np.random.default_rng(8)
    X = np.vstack([rng.uniform(-1.5, 1.5, size=(40, p1)),
                   np.full((1, p1), -1.5), np.full((1, p1), 1.5),
                   np.full((1, p1), 1.5 - 1e-12)])
    assert np.max(np.abs(expand(X, basis) - _phi_products(X, basis))) \
        <= 1e-12


def test_expand_exact_at_support_ends():
    a = 2.5
    basis = unravel(2, 2, 4096, a=a)
    X = np.array([[-a, -a], [a, a], [-a, a]])
    out = expand(X, basis)
    assert np.array_equal(out, _phi_products(X, basis))
    # univariate indices (q, 1): sqrt(2) at -a and sqrt(2) (-1)^(q-1) at a
    q = np.array([m[0] for m in basis.multi_indices])
    uni = np.array([m[0] > 1 and m[1] == 1 for m in basis.multi_indices])
    assert np.array_equal(out[0, uni], np.full(uni.sum(), np.sqrt(2.0)))
    assert np.array_equal(out[1, uni], np.sqrt(2.0) * (-1.0) ** (q[uni] - 1))


def test_expand_peak_memory_is_about_its_result():
    n, M = 3000, 1261
    X = np.random.default_rng(9).uniform(-1.0, 1.0, size=(n, 20))
    basis = unravel(20, 1, M)
    tracemalloc.start()
    try:
        out = expand(X, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, M)
    assert peak <= 1.25 * n * M * 8


def test_expand_rejects_non_finite_before_support():
    basis = unravel(2, 1, 3)
    for bad in (np.nan, np.inf, -np.inf):
        # row 0 is outside the support, but the non-finite entry is named
        X = np.array([[5.0, 0.0], [0.0, bad]])
        with pytest.raises(InvalidValueError, match=r"\(1, 1\)"):
            expand(X, basis)


def test_default_truncation_cube_rule():
    assert default_truncation(3, 1_000_000) == 27


def test_default_truncation_budget_binds():
    assert default_truncation(10, 40) == 20
    assert default_truncation(10, 40, budget=7) == 7


def test_default_truncation_capacity_binds():
    # degree cap 3 admits only 5 bivariate indices
    assert default_truncation(2, 1000, d_cap=3) == 5


def test_default_truncation_validation():
    with pytest.raises(ConfigError):
        default_truncation(0, 10)
    with pytest.raises(ConfigError):
        default_truncation(2, 0)
    with pytest.raises(ConfigError):
        default_truncation(2, 10, budget=0)

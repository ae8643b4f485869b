"""Truncated Taylor arithmetic: closed-form series and algebraic identities."""

import math

import numpy as np
import pytest

import _taylor

X = np.array([0.5, 1.25, 3.0])


def _series(f):
    return np.array([f(k) for k in range(5)])


def test_table_sizes():
    assert _taylor.n_monomials(4, 4) == 70
    assert _taylor.n_pairs(4, 4) == 495
    assert _taylor.n_pairs(2, 2) == 15


def test_univariate_closed_forms():
    t = _taylor.variables(X[:, None], 4)[0]
    # c_k = f^(k)(x) / k!
    assert np.allclose((t ** 3).c, _series(lambda k: math.comb(3, k) * X ** (3 - k)),
                       rtol=1e-15, atol=0)
    assert np.allclose((1.0 / t).c, _series(lambda k: (-1.0) ** k / X ** (k + 1)),
                       rtol=1e-14, atol=0)
    assert np.allclose((t ** -2).c, _series(lambda k: (-1.0) ** k * (k + 1) / X ** (k + 2)),
                       rtol=1e-14, atol=0)
    log = _series(lambda k: np.log(X) if k == 0 else (-1.0) ** (k + 1) / (k * X ** k))
    assert np.allclose(np.log(t).c, log, rtol=1e-14, atol=0)
    assert np.array_equal((t ** 0).c, _series(lambda k: np.full(X.shape, float(k == 0))))


def test_multivariate_identities():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 0.8, size=(7, 4))
    v = _taylor.variables(x, 4)
    f = 1.0 + np.sum(v ** 2) - 0.5 * v[0] * v[3]
    g = 2.0 - v[1] * v[2] + v[0] / (1.0 + v[3])
    one = f * f.reciprocal()
    assert np.allclose(one.c[0], 1.0, rtol=0, atol=1e-15)
    assert np.max(np.abs(one.c[1:])) <= 1e-14
    assert np.max(np.abs((np.log(f * g) - np.log(f) - np.log(g)).c)) <= 1e-14
    # Leibniz rule at degree 3, and derivatives commute
    k3 = _taylor.n_monomials(4, 3)
    for a in range(4):
        lhs = (f * g).diff(a)
        rhs = (f.diff(a) * _taylor.Taylor(g.c[:k3], 4, 3)
               + _taylor.Taylor(f.c[:k3], 4, 3) * g.diff(a))
        assert np.max(np.abs(lhs.c - rhs.c)) <= 1e-13 * np.max(np.abs(lhs.c))
        for b in range(4):
            assert np.allclose(f.diff(a).diff(b).c, f.diff(b).diff(a).c, rtol=1e-15, atol=0)


def test_mixed_degree_and_non_integer_power_rejected():
    x = np.zeros((1, 2))
    with pytest.raises(ValueError):
        _taylor.variables(x, 2)[0] + _taylor.variables(x, 3)[0]
    with pytest.raises(TypeError):
        _taylor.variables(x, 2)[0] ** 0.5


def test_degree_bounds_propagate():
    x = np.full((3, 2), 0.25)
    v = _taylor.variables(x, 4)
    assert [t.q for t in v] == [1, 1]
    assert (v[0] * v[1]).q == 2
    assert (v[0] * v[0] * v[1]).q == 3
    assert (v[0] ** 5).q == 4                  # capped at the degree
    assert (v[0] + v[1] * v[1]).q == 2
    assert (2.0 * (v[0] * v[1]) - 1.0).q == 2
    assert (-(v[0] * v[1]) / 3.0).q == 2
    assert (v[0] * v[0] * v[1]).diff(0).q == 2
    assert (1.0 + v[0]).log().q == 4           # from its Horner products
    assert (1.0 + v[0]).reciprocal().q == 4
    # the rows past the bound are exact zeros
    sq = v[0] * v[0]
    assert np.all(sq.c[_taylor.n_monomials(2, 2):] == 0.0)


@pytest.mark.parametrize("batch", [1, 7, 529])
def test_bounded_products_match_the_full_table(batch):
    # a product that leaves out the pairs and rows that are exact zeros
    # against the full table, for factors with exact zero tails: the rows
    # past degree min(p, qa + qb) are zeros in both, and the others differ
    # by no more than the order in which the 0/1 matrix product sums a
    # row's pairs can move them (BLAS's order depends on the inner
    # dimension and the batch size; a batch of one goes through gemv)
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for d in range(1, 5):
        for p in range(1, 5):
            k = _taylor.n_monomials(d, p)
            for qa in range(p + 1):
                for qb in range(p + 1):
                    ca = rng.standard_normal((k, batch))
                    cb = rng.standard_normal((k, batch))
                    ca[_taylor.n_monomials(d, qa):] = 0.0
                    cb[_taylor.n_monomials(d, qb):] = 0.0
                    got = _taylor.Taylor(ca, d, p, qa) * _taylor.Taylor(cb, d, p, qb)
                    full = _taylor.Taylor(ca, d, p) * _taylor.Taylor(cb, d, p)
                    # sum over each row of |a_i b_j|, pairs at most 2^4
                    scale = (_taylor.Taylor(np.abs(ca), d, p)
                             * _taylor.Taylor(np.abs(cb), d, p)).c
                    q = min(p, qa + qb)
                    assert got.q == q and got.c.shape == full.c.shape
                    tail = _taylor.n_monomials(d, q)
                    assert np.all(got.c[tail:] == 0.0) and np.all(full.c[tail:] == 0.0)
                    assert np.all(np.abs(got.c - full.c) <= 32.0 * eps * scale), (d, p, qa, qb)

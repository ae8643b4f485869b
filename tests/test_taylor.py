"""Truncated Taylor arithmetic: closed-form series and algebraic identities."""

import math

import numpy as np
import pytest

from trgeo import _taylor

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

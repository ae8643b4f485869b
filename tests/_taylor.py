"""Truncated multivariate Taylor arithmetic (forward mode, exact derivatives).

The derivative engine of the chart-kernel oracle in taylor_oracle.py.

A `Taylor` holds the Taylor coefficients c_alpha = d^alpha f(x) / alpha! of a
function of d <= 4 variables t about a batch of base points, up to total
degree p <= 4. Its coefficient array has shape (K,) + batch, with the K
monomials in graded order: the constant, then t_0 .. t_{d-1}, then the
degree-2 monomials, and so on. Truncating to a lower degree keeps a prefix.

Arithmetic is the truncated Cauchy product (Neidinger, SIAM Rev. 52, 2010;
Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13): the product of
two series is one 0/1 matrix times the products of all coefficient pairs
whose degrees add up to at most p. Reciprocal and log use their series in
the nilpotent part u = (f - f(x)) / f(x), which vanishes beyond degree p.

Each series also carries a bound q <= p on the degree of its nonzero
coefficients: 1 for a variable, the larger bound for + and -, unchanged by
negation and by scalar * and /, min(p, qa + qb) for a product and q - 1 for
a derivative (reciprocal and log follow from their products). A product
forms only the pairs whose factors can both be nonzero and only its rows of
degree <= min(p, qa + qb). The pairs and rows it leaves out are exact zeros,
so it is the full-table product up to the order in which the matrix product
sums a row's pairs, which BLAS picks by the shapes (a few ulp). The squares
of a coordinate, for one, cost a handful of pairs instead of the full table.
Objects in a NumPy object array take part in `np.asarray`, `**`, `np.sum`
and `np.log` (NumPy calls the element methods), so a potential written for
arrays of coordinates runs unchanged on an array of Taylor variables.

Monomial tables are built on first use for each (d, p) and then kept.
"""

from functools import lru_cache
from itertools import combinations_with_replacement
from numbers import Integral, Number

import numpy as np

MAX_VARS = 4
MAX_DEGREE = 4


@lru_cache(maxsize=None)
def _exponents(d, p):
    """Exponent vectors of the monomials of degree <= p in graded order."""
    out = []
    for k in range(p + 1):
        for combo in combinations_with_replacement(range(d), k):
            out.append(tuple(combo.count(a) for a in range(d)))
    return tuple(out)


@lru_cache(maxsize=None)
def _product_table(d, p, qa, qb):
    """Pair blocks and the 0/1 matrix of the truncated product of a factor
    of degree <= qa with one of degree <= qb.

    In graded order the partners j of a monomial i with deg i + deg j <= p
    are the first K(d, p - deg i) monomials, and of those the second factor
    can be nonzero only in the first K(d, min(qb, p - deg i)). So the pairs
    come in one block per degree k <= qa of i: the degree-k rows of one
    factor times the leading K(d, min(qb, p - k)) rows of the other. The
    matrix has one row per monomial of degree <= min(p, qa + qb), the rows
    the product can hold.
    """
    exps = _exponents(d, p)
    index = {e: k for k, e in enumerate(exps)}
    blocks, target = [], []
    for k in range(min(p, qa) + 1):
        lo, hi = n_monomials(d, k - 1), n_monomials(d, k)
        m = n_monomials(d, min(qb, p - k))
        blocks.append((lo, hi, m))
        for a in exps[lo:hi]:
            for b in exps[:m]:
                target.append(index[tuple(x + y for x, y in zip(a, b))])
    scatter = np.zeros((n_monomials(d, min(p, qa + qb)), len(target)))
    scatter[target, np.arange(len(target))] = 1.0
    return tuple(blocks), scatter


@lru_cache(maxsize=None)
def _derivative_table(d, p, a):
    """Source indices and factors alpha_a + 1 of d/dt_a, degree p -> p - 1."""
    exps = _exponents(d, p)
    index = {e: k for k, e in enumerate(exps)}
    src, factor = [], []
    for e in _exponents(d, p - 1):
        up = e[:a] + (e[a] + 1,) + e[a + 1:]
        src.append(index[up])
        factor.append(float(up[a]))
    return np.array(src), np.array(factor)


def n_monomials(d, p):
    return len(_exponents(d, p))


def n_pairs(d, p):
    """Pairs of the full table: the product of two series of degree p."""
    return _product_table(d, p, p, p)[1].shape[1]


def variables(x, p):
    """Object array of the d Taylor variables x_a + t_a at base points x.

    x has shape batch + (d,); every variable has batch shape batch.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if not 1 <= d <= MAX_VARS or not 1 <= p <= MAX_DEGREE:
        raise ValueError(f"Taylor arithmetic needs d <= {MAX_VARS}, p <= {MAX_DEGREE}")
    out = np.empty(d, dtype=object)
    for a in range(d):
        c = np.zeros((n_monomials(d, p),) + x.shape[:-1])
        c[0] = x[..., a]
        c[1 + a] = 1.0
        out[a] = Taylor(c, d, p, 1)
    return out


class Taylor:
    """Truncated Taylor series in d variables, total degree p, over a batch;
    its coefficients past degree q (p when not given) are zero."""

    __slots__ = ("c", "d", "p", "q")

    def __init__(self, c, d, p, q=None):
        self.c = c
        self.d = d
        self.p = p
        self.q = p if q is None else q

    def _new(self, c, q=None):
        return Taylor(c, self.d, self.p, self.q if q is None else q)

    def _check(self, other):
        """True for a series like self; False for a number or a numeric array
        over the batch (a constant series); None for anything else."""
        if isinstance(other, Taylor):
            if (other.d, other.p) != (self.d, self.p):
                raise ValueError("Taylor operands differ in variables or degree")
            return True
        if isinstance(other, Number) or (isinstance(other, np.ndarray)
                                         and other.dtype != object):
            return False
        return None

    def __add__(self, other):
        kind = self._check(other)
        if kind is None:
            return NotImplemented
        if kind:
            return self._new(self.c + other.c, max(self.q, other.q))
        c = self.c.copy()
        c[0] = c[0] + other
        return self._new(c)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.c)

    def __sub__(self, other):
        kind = self._check(other)
        if kind is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        kind = self._check(other)
        if kind is None:
            return NotImplemented
        if not kind:
            return self._new(self.c * other)
        blocks, scatter = _product_table(self.d, self.p, self.q, other.q)
        batch = self.c.shape[1:]
        a = self.c.reshape(len(self.c), 1, -1)
        b = other.c.reshape(1, len(other.c), -1)
        pairs = np.empty((scatter.shape[1], a.shape[-1]), np.result_type(a, b))
        s = 0
        for lo, hi, m in blocks:
            n = (hi - lo) * m
            np.multiply(a[lo:hi], b[:, :m], out=pairs[s:s + n].reshape(hi - lo, m, -1))
            s += n
        rows = scatter @ pairs
        q = min(self.p, self.q + other.q)
        if len(rows) < len(self.c):
            # the rows past degree q are exact zeros
            full = np.zeros((len(self.c),) + rows.shape[1:], rows.dtype)
            full[:len(rows)] = rows
            rows = full
        return self._new(rows.reshape((-1,) + batch), q)

    __rmul__ = __mul__

    def _nilpotent(self):
        """(c0, u) with self = c0 (1 + u) and u without constant term."""
        c0 = self.c[0]
        u = self.c / c0
        u[0] = 0.0
        return c0, self._new(u)

    def reciprocal(self):
        # 1 / (1 + u) = sum_k (-u)^k, k <= p, by Horner
        c0, u = self._nilpotent()
        r = 1.0 - u
        for _ in range(self.p - 1):
            r = 1.0 - u * r
        return r * (1.0 / c0)

    def __truediv__(self, other):
        kind = self._check(other)
        if kind is None:
            return NotImplemented
        if kind:
            return self * other.reciprocal()
        return self._new(self.c / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if not isinstance(k, Integral):
            raise TypeError(f"Taylor powers must be integers, got {k!r}")
        if k == 0:
            return self * 0.0 + 1.0
        base = self if k > 0 else self.reciprocal()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def log(self):
        # log c0 + sum_{k=1}^p (-1)^(k+1) u^k / k, by Horner in u
        c0, u = self._nilpotent()
        r = u * ((-1.0) ** (self.p + 1) / self.p)
        for k in range(self.p - 1, 0, -1):
            r = u * ((-1.0) ** (k + 1) / k + r)
        return r + np.log(c0)

    def diff(self, a):
        """d/dt_a, a Taylor series of degree p - 1."""
        src, factor = _derivative_table(self.d, self.p, a)
        shape = (-1,) + (1,) * (self.c.ndim - 1)
        return Taylor(self.c[src] * factor.reshape(shape), self.d, self.p - 1,
                      max(0, self.q - 1))

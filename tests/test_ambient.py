"""Chart kernel tests: metric, compatibility, Christoffel symbols, curvature."""

import numpy as np
import pytest

from fd_oracle import fd_christoffel, fd_metric, fd_ricci
from trgeo import ambient
from trgeo.errors import MetricNotPositiveDefinite, PointOutsideDomain, ValidationError


def poincare_lambda(x, y):
    return 4.0 / (1.0 - x * x - y * y) ** 2


def hessian_fd(phi, p, h=1e-5):
    """Plain real central second differences; independent of the package path."""
    p = np.asarray(p, dtype=float)
    d = p.size
    H = np.zeros((d, d))
    f0 = phi(p)
    for a in range(d):
        ea = np.zeros(d); ea[a] = h
        H[a, a] = (phi(p + ea) - 2 * f0 + phi(p - ea)) / h ** 2
        for b in range(a + 1, d):
            eb = np.zeros(d); eb[b] = h
            m = (phi(p + ea + eb) - phi(p + ea - eb)
                 - phi(p - ea + eb) + phi(p - ea - eb)) / (4 * h * h)
            H[a, b] = H[b, a] = m
    return H


def test_flat_metric_identity():
    for n in (1, 2):
        ch = ambient.flat_chart(n)
        md = ambient.metric_at(ch, np.zeros(2 * n))
        assert np.array_equal(md.g, np.eye(2 * n))
        J = ch.J
        assert np.allclose(md.omega, J.T @ np.eye(2 * n))
        assert np.array_equal(ambient.christoffels_at(ch, np.zeros(2 * n)),
                              np.zeros((2 * n,) * 3))
        assert np.array_equal(ambient.ricci_at(ch, np.zeros(2 * n)),
                              np.zeros((2 * n, 2 * n)))


def test_flat_metric_many_read_only_views():
    ch = ambient.flat_chart(2)
    g, omega = ch.metric_many(np.zeros((5, 3, 4)))
    assert g.shape == omega.shape == (5, 3, 4, 4)
    assert not g.flags.writeable and not omega.flags.writeable
    assert np.array_equal(g, np.broadcast_to(np.eye(4), g.shape))
    assert np.array_equal(omega, np.broadcast_to(ch.J.T, g.shape))


def test_j_squares_to_minus_identity():
    for n in (1, 2):
        J = ambient.standard_j(n)
        assert np.array_equal(J @ J, -np.eye(2 * n))


def test_poincare_metric_at_origin_and_half():
    pd = ambient.poincare_disk()
    g0 = ambient.metric_at(pd, [0.0, 0.0]).g
    assert np.allclose(g0, 4.0 * np.eye(2), atol=1e-9)
    g5 = ambient.metric_at(pd, [0.5, 0.0]).g
    assert np.allclose(g5, poincare_lambda(0.5, 0.0) * np.eye(2), atol=1e-8)


def test_poincare_metric_matches_fd_oracle():
    # oracle: plain second differences of the potential, assembled by hand
    pd = ambient.poincare_disk()
    phi = lambda p: -2.0 * np.log(1.0 - p[0] ** 2 - p[1] ** 2)
    for pt in ([0.0, 0.0], [0.5, 0.0], [0.2, 0.3]):
        H = hessian_fd(phi, pt)
        # conformal: g = (1/2) trace(H) * I for n = 1 potentials
        lam = 0.5 * (H[0, 0] + H[1, 1])
        g = ambient.metric_at(pd, pt).g
        assert np.allclose(g, lam * np.eye(2), atol=5e-5 * lam)


@pytest.mark.parametrize("pt", [[0.1, 0.2], [0.4, 0.1], [0.0, 0.5]])
def test_compatibility_invariants(pt):
    pd = ambient.poincare_disk()
    md = ambient.metric_at(pd, pt)
    J = pd.J
    # omega(v, w) = g(Jv, w)
    assert np.max(np.abs(md.omega - J.T @ md.g)) <= 1e-8
    # g(Jv, Jw) = g(v, w)
    assert np.max(np.abs(J.T @ md.g @ J - md.g)) <= 1e-8
    assert np.max(np.abs(md.omega + md.omega.T)) <= 1e-12


def test_ch2_compatibility():
    ch = ambient.complex_hyperbolic_ball()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.3, 0.3, size=(6, 4))
    g, omega = ch.metric_many(pts)
    J = ch.J
    assert np.max(np.abs(omega - np.einsum("ab,...bc->...ac", J.T, g))) <= 1e-8
    assert np.max(np.abs(np.einsum("ba,...bc,cd->...ad", J, g, J) - g)) <= 1e-8


def test_poincare_christoffels_center_vanish():
    pd = ambient.poincare_disk()
    G = ambient.christoffels_at(pd, [0.0, 0.0])
    assert np.max(np.abs(G)) < 1e-10


def test_poincare_christoffels_conformal_oracle():
    # Gamma for g = lambda I: G^x_xx = lx/(2l), G^x_xy = ly/(2l), G^x_yy = -lx/(2l)
    pd = ambient.poincare_disk()
    p = np.array([0.3, 0.0])
    G = ambient.christoffels_at(pd, p)
    h = 1e-6
    lam = poincare_lambda
    lx = (lam(p[0] + h, p[1]) - lam(p[0] - h, p[1])) / (2 * h)
    ly = (lam(p[0], p[1] + h) - lam(p[0], p[1] - h)) / (2 * h)
    l0 = lam(*p)
    expect = np.zeros((2, 2, 2))
    expect[0, 0, 0] = lx / (2 * l0)
    expect[0, 0, 1] = expect[0, 1, 0] = ly / (2 * l0)
    expect[0, 1, 1] = -lx / (2 * l0)
    expect[1, 1, 1] = ly / (2 * l0)
    expect[1, 0, 1] = expect[1, 1, 0] = lx / (2 * l0)
    expect[1, 0, 0] = -ly / (2 * l0)
    assert np.max(np.abs(G - expect)) < 1e-6


def test_christoffels_symmetric_lower_indices():
    pd = ambient.poincare_disk()
    G = ambient.christoffels_at(pd, [0.25, 0.35])
    assert np.array_equal(G, np.swapaxes(G, 1, 2))


def test_poincare_ricci_einstein():
    pd = ambient.poincare_disk()
    R0 = ambient.ricci_at(pd, [0.0, 0.0])
    assert np.allclose(R0, -4.0 * np.eye(2), atol=1e-7)
    p = np.array([0.4, 0.2])
    Rp = ambient.ricci_at(pd, p)
    gp = ambient.metric_at(pd, p).g
    assert np.max(np.abs(Rp + gp)) <= 1e-6


def test_ricci_richardson_consistency():
    # FD oracle: halving its step must reduce the worst curvature residual by >= 3
    pts = np.array([[0.4, 0.2], [0.5, 0.1], [0.45, -0.3], [-0.35, 0.4]])
    pd = ambient.poincare_disk()

    def residual(step):
        worst = 0.0
        for p in pts:
            err = np.max(np.abs(fd_ricci(pd, p[None, :], step)[0]
                                + fd_metric(pd, p[None, :], step)[0]))
            worst = max(worst, float(err))
        return worst

    r_full = residual(1e-4)
    r_half = residual(0.5e-4)
    assert r_full <= 1e-6
    assert r_full / r_half >= 3.0


def _quartic(z):
    s = np.sum(np.asarray(z) ** 2, axis=-1)
    return s * s


_ORACLE_CASES = [
    (ambient.complex_hyperbolic_ball(), (-0.3, 0.3), 4),
    (ambient.poincare_disk(), (-0.45, 0.45), 2),
    (ambient.potential_chart(2, _quartic, radius=2.0, name="quartic"), (0.4, 0.8), 4),
]


@pytest.mark.parametrize("chart,box,dim", _ORACLE_CASES, ids=["ball", "disk", "quartic"])
def test_exact_kernels_match_fd_oracle(chart, box, dim):
    # bounds are the oracle's own truncation error (about 1e-12, 1e-9, 3e-8)
    pts = np.random.default_rng(11).uniform(*box, size=(12, dim))
    for exact, oracle, tol in ((chart.metric_many(pts)[0], fd_metric(chart, pts), 1e-10),
                               (chart.christoffel_many(pts), fd_christoffel(chart, pts), 1e-8),
                               (chart.ricci_many(pts), fd_ricci(chart, pts), 1e-6)):
        assert exact.shape == oracle.shape
        assert np.max(np.abs(exact - oracle)) <= tol * np.max(np.abs(exact))


def test_exact_curvature_closed_forms():
    # Ric = -(3/2) g on the C^2 ball and Ric = -g on the disk, to round-off
    rng = np.random.default_rng(12)
    for chart, c, dim in ((ambient.complex_hyperbolic_ball(), -1.5, 4),
                          (ambient.poincare_disk(), -1.0, 2)):
        pts = rng.uniform(-0.6, 0.6, size=(2000, dim)) / np.sqrt(dim)
        ric = chart.ricci_many(pts)
        g, _ = chart.metric_many(pts)
        assert np.max(np.abs(ric - c * g)) <= 1e-12
        assert np.array_equal(ric, np.swapaxes(ric, -1, -2))
    # and the conformal Christoffel symbols of the disk, lambda = 4 / (1 - r^2)^2
    pd = ambient.poincare_disk()
    p = np.array([[0.3, -0.2], [0.0, 0.55], [-0.6, 0.1]])
    dlog = 2.0 * p / (1.0 - np.sum(p * p, axis=-1, keepdims=True))   # d log(lambda) / 2
    G = pd.christoffel_many(p)
    assert np.max(np.abs(G[:, 0, 0, 0] - dlog[:, 0])) <= 1e-13
    assert np.max(np.abs(G[:, 0, 1, 1] + dlog[:, 0])) <= 1e-13
    assert np.max(np.abs(G[:, 1, 0, 1] - dlog[:, 0])) <= 1e-13
    assert np.max(np.abs(G[:, 1, 1, 1] - dlog[:, 1])) <= 1e-13


def test_verify_flat_einstein():
    ch = ambient.flat_chart(2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(10, 4))
    rep = ambient.verify_kahler_einstein(ch, pts)
    assert rep["einstein_constant"] == 0.0
    assert rep["max_nabla_j"] < 1e-12
    assert rep["max_einstein_residual"] < 1e-12


def test_verify_poincare_einstein():
    pd = ambient.poincare_disk()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.4, 0.4, size=(10, 2))
    rep = ambient.verify_kahler_einstein(pd, pts)
    assert abs(rep["einstein_constant"] + 1.0) < 1e-6
    assert rep["max_nabla_j"] < 1e-6
    assert rep["max_einstein_residual"] < 1e-6


def test_verify_quartic_not_einstein():
    def quartic(z):
        s = np.sum(np.asarray(z) ** 2, axis=-1)
        return s * s

    qc = ambient.potential_chart(2, quartic, radius=2.0, name="quartic")
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.4, 0.8, size=(10, 4))
    rep = ambient.verify_kahler_einstein(qc, pts)
    assert rep["max_nabla_j"] < 1e-6          # still Kahler: J is parallel
    assert rep["max_einstein_residual"] > 1e-2  # but nowhere near Einstein


def test_verify_needs_enough_points():
    with pytest.raises(ValidationError):
        ambient.verify_kahler_einstein(ambient.flat_chart(1), np.zeros((4, 2)))


def test_point_outside_domain():
    pd = ambient.poincare_disk()
    with pytest.raises(PointOutsideDomain):
        ambient.metric_at(pd, [0.9999, 0.0])
    with pytest.raises(PointOutsideDomain):
        ambient.ricci_at(pd, [0.999, 0.0])


def test_degenerate_potential_rejected():
    def quartic(z):
        s = np.sum(np.asarray(z) ** 2, axis=-1)
        return s * s

    qc = ambient.potential_chart(2, quartic, radius=2.0)
    with pytest.raises(MetricNotPositiveDefinite):
        ambient.metric_at(qc, np.zeros(4))


@pytest.mark.parametrize("kernel", ["metric_many", "christoffel_many", "ricci_many"])
def test_unsupported_potential_operation_is_named(kernel):
    chart = ambient.potential_chart(
        1, lambda z: np.exp(np.sum(np.asarray(z) ** 2, axis=-1)), radius=1.0,
        name="exp_potential")
    with pytest.raises(ValidationError, match=r"'exp_potential'.*\bexp\b"):
        getattr(chart, kernel)(np.array([[0.1, 0.2]]))


def test_christoffel_evaluates_the_potential_once(monkeypatch):
    # g comes from the same degree-3 evaluation as its derivatives
    ball = ambient.complex_hyperbolic_ball()
    pts = np.random.default_rng(3).uniform(-0.3, 0.3, size=(64, 4))
    expected = ball.christoffel_many(pts)
    calls = []
    on_blocks = ambient.AmbientChart._on_blocks

    def counting(self, pts, degree, kernel, shape):
        calls.append(degree)
        return on_blocks(self, pts, degree, kernel, shape)

    monkeypatch.setattr(ambient.AmbientChart, "_on_blocks", counting)
    assert np.array_equal(ball.christoffel_many(pts), expected)
    assert calls == [3]


def test_christoffel_rejects_degenerate_metric():
    def quartic(z):
        s = np.sum(np.asarray(z) ** 2, axis=-1)
        return s * s

    qc = ambient.potential_chart(2, quartic, radius=2.0, name="quartic")
    with pytest.raises(MetricNotPositiveDefinite, match="'quartic'"):
        ambient.christoffels_at(qc, np.zeros(4))


def test_verify_evaluates_the_potential_once(monkeypatch):
    # g, dg and the Ricci tensor come from one degree-4 evaluation
    ball = ambient.complex_hyperbolic_ball()
    pts = np.random.default_rng(4).uniform(-0.3, 0.3, size=(1500, 4))
    g, _ = ball.metric_many(pts)
    gamma, ric = ball.christoffel_many(pts), ball.ricci_many(pts)
    calls = []
    on_blocks = ambient.AmbientChart._on_blocks

    def counting(self, pts, degree, kernel, shape):
        calls.append(degree)
        return on_blocks(self, pts, degree, kernel, shape)

    monkeypatch.setattr(ambient.AmbientChart, "_on_blocks", counting)
    rep = ambient.verify_kahler_einstein(ball, pts)
    assert calls == [4]
    g4, gamma4, ric4 = ball._einstein_data(pts)
    assert np.array_equal(g4, g) and np.array_equal(ric4, ric)
    assert np.max(np.abs(gamma4 - gamma)) <= 1e-15
    c = float(np.sum(ric * g) / np.sum(g * g))
    assert rep["einstein_constant"] == c
    assert rep["max_einstein_residual"] == float(np.max(np.abs(ric - c * g)))


def test_verify_keeps_the_kernels_error_order():
    # a metric that is not positive definite is reported as christoffel_many
    # reports it, before the Ricci tensor's degenerate-Hessian check
    def quartic(z):
        s = np.sum(np.asarray(z) ** 2, axis=-1)
        return s * s

    qc = ambient.potential_chart(2, quartic, radius=2.0, name="quartic")
    pts = np.zeros((8, 4))
    with pytest.raises(MetricNotPositiveDefinite) as ref:
        qc.christoffel_many(pts)
    with pytest.raises(MetricNotPositiveDefinite) as got:
        ambient.verify_kahler_einstein(qc, pts)
    assert str(got.value) == str(ref.value)
    assert "not positive definite" in str(got.value)

"""Chart kernel tests: metric, compatibility, Christoffel symbols, curvature."""

import numpy as np
import pytest

from fd_oracle import fd_christoffel, fd_metric, fd_ricci
from taylor_oracle import TaylorChart, potential_chart, taylor_twin
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


def at(p):
    """One chart point as the batch of one that the *_many kernels take."""
    return np.asarray(p, dtype=float)[None, :]


def test_flat_metric_identity():
    for n in (1, 2):
        ch = ambient.flat_chart(n)
        g, omega = ch.metric_many(at(np.zeros(2 * n)))
        assert np.array_equal(g[0], np.eye(2 * n))
        J = ch.J
        assert np.allclose(omega[0], J.T @ np.eye(2 * n))
        assert np.array_equal(ch.christoffel_many(at(np.zeros(2 * n)))[0],
                              np.zeros((2 * n,) * 3))
        assert np.array_equal(ch.ricci_many(at(np.zeros(2 * n)))[0],
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
    g0 = pd.metric_many(at([0.0, 0.0]))[0][0]
    assert np.allclose(g0, 4.0 * np.eye(2), atol=1e-9)
    g5 = pd.metric_many(at([0.5, 0.0]))[0][0]
    assert np.allclose(g5, poincare_lambda(0.5, 0.0) * np.eye(2), atol=1e-8)


def test_poincare_metric_matches_fd_oracle():
    # oracle: plain second differences of the potential, assembled by hand
    pd = ambient.poincare_disk()
    phi = lambda p: -2.0 * np.log(1.0 - p[0] ** 2 - p[1] ** 2)
    for pt in ([0.0, 0.0], [0.5, 0.0], [0.2, 0.3]):
        H = hessian_fd(phi, pt)
        # conformal: g = (1/2) trace(H) * I for n = 1 potentials
        lam = 0.5 * (H[0, 0] + H[1, 1])
        g = pd.metric_many(at(pt))[0][0]
        assert np.allclose(g, lam * np.eye(2), atol=5e-5 * lam)


@pytest.mark.parametrize("pt", [[0.1, 0.2], [0.4, 0.1], [0.0, 0.5]])
def test_compatibility_invariants(pt):
    pd = ambient.poincare_disk()
    (g,), (omega,) = pd.metric_many(at(pt))
    J = pd.J
    # omega(v, w) = g(Jv, w)
    assert np.max(np.abs(omega - J.T @ g)) <= 1e-8
    # g(Jv, Jw) = g(v, w)
    assert np.max(np.abs(J.T @ g @ J - g)) <= 1e-8
    assert np.max(np.abs(omega + omega.T)) <= 1e-12


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
    G = pd.christoffel_many(at([0.0, 0.0]))[0]
    assert np.max(np.abs(G)) < 1e-10


def test_poincare_christoffels_conformal_oracle():
    # Gamma for g = lambda I: G^x_xx = lx/(2l), G^x_xy = ly/(2l), G^x_yy = -lx/(2l)
    pd = ambient.poincare_disk()
    p = np.array([0.3, 0.0])
    G = pd.christoffel_many(at(p))[0]
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
    G = pd.christoffel_many(at([0.25, 0.35]))[0]
    assert np.array_equal(G, np.swapaxes(G, 1, 2))


def test_poincare_ricci_einstein():
    pd = ambient.poincare_disk()
    R0 = pd.ricci_many(at([0.0, 0.0]))[0]
    assert np.allclose(R0, -4.0 * np.eye(2), atol=1e-7)
    p = np.array([0.4, 0.2])
    Rp = pd.ricci_many(at(p))[0]
    gp = pd.metric_many(at(p))[0][0]
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
    (potential_chart(2, _quartic, radius=2.0, name="quartic"), (0.4, 0.8), 4),
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

    qc = potential_chart(2, quartic, radius=2.0, name="quartic")
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
        pd.metric_many(at([0.9999, 0.0]))
    with pytest.raises(PointOutsideDomain):
        pd.ricci_many(at([0.999, 0.0]))


def test_degenerate_potential_rejected():
    def quartic(z):
        s = np.sum(np.asarray(z) ** 2, axis=-1)
        return s * s

    qc = potential_chart(2, quartic, radius=2.0)
    with pytest.raises(MetricNotPositiveDefinite):
        qc.metric_many(at(np.zeros(4)))


@pytest.mark.parametrize("kernel", ["metric_many", "christoffel_many", "ricci_many"])
def test_unsupported_potential_operation_is_named(kernel):
    chart = potential_chart(
        1, lambda z: np.exp(np.sum(np.asarray(z) ** 2, axis=-1)), radius=1.0,
        name="exp_potential")
    with pytest.raises(ValidationError, match=r"'exp_potential'.*\bexp\b"):
        getattr(chart, kernel)(np.array([[0.1, 0.2]]))


def test_christoffel_evaluates_the_potential_once(monkeypatch):
    # Taylor oracle: g comes from the same degree-3 evaluation as its derivatives
    ball = taylor_twin(ambient.complex_hyperbolic_ball())
    pts = np.random.default_rng(3).uniform(-0.3, 0.3, size=(64, 4))
    expected = ball.christoffel_many(pts)
    calls = []
    on_blocks = TaylorChart._on_blocks

    def counting(self, pts, degree, kernel, shape):
        calls.append(degree)
        return on_blocks(self, pts, degree, kernel, shape)

    monkeypatch.setattr(TaylorChart, "_on_blocks", counting)
    assert np.array_equal(ball.christoffel_many(pts), expected)
    assert calls == [3]


def test_christoffel_rejects_degenerate_metric():
    def quartic(z):
        s = np.sum(np.asarray(z) ** 2, axis=-1)
        return s * s

    qc = potential_chart(2, quartic, radius=2.0, name="quartic")
    with pytest.raises(MetricNotPositiveDefinite, match="'quartic'"):
        qc.christoffel_many(at(np.zeros(4)))


@pytest.mark.parametrize("twin", [False, True], ids=["ball", "taylor"])
def test_verify_reports_the_three_kernels(twin):
    # the report's constant and residual are <Ric, g> / <g, g> and
    # max |Ric - c g| of the metric and Ricci kernels at the samples, over
    # three blocks of points on the closed-form kernel
    ball = ambient.complex_hyperbolic_ball()
    if twin:
        ball = taylor_twin(ball)
    pts = np.random.default_rng(4).uniform(-0.3, 0.3, size=(1500, 4))
    g, _ = ball.metric_many(pts)
    ric = ball.ricci_many(pts)
    rep = ambient.verify_kahler_einstein(ball, pts)
    c = float(np.sum(ric * g) / np.sum(g * g))
    assert rep["einstein_constant"] == c
    assert rep["max_einstein_residual"] == float(np.max(np.abs(ric - c * g)))
    assert abs(c + 1.5) <= 1e-13


def test_verify_keeps_the_kernels_error_order():
    # a metric that is not positive definite is reported as christoffel_many
    # reports it, before the Ricci tensor's degenerate-Hessian check
    def quartic(z):
        s = np.sum(np.asarray(z) ** 2, axis=-1)
        return s * s

    qc = potential_chart(2, quartic, radius=2.0, name="quartic")
    pts = np.zeros((8, 4))
    with pytest.raises(MetricNotPositiveDefinite) as ref:
        qc.christoffel_many(pts)
    with pytest.raises(MetricNotPositiveDefinite) as got:
        ambient.verify_kahler_einstein(qc, pts)
    assert str(got.value) == str(ref.value)
    assert "not positive definite" in str(got.value)


def _ball_points(rng, count, dim, radius):
    """count points of the open ball of the given radius, radii spread out."""
    p = rng.standard_normal((count, dim))
    return p / np.linalg.norm(p, axis=1, keepdims=True) * radius * rng.uniform(
        0.0, 1.0, size=(count, 1)) ** (1.0 / dim)


@pytest.mark.parametrize("chart", [ambient.poincare_disk(), ambient.complex_hyperbolic_ball()],
                         ids=["disk", "ball"])
def test_inverse_metric_matches_lapack(chart):
    # the closed form through the Hermitian block H, over the whole domain
    # the metric accepts; toward its edge g grows ill-conditioned (cond g
    # about 1 / (1 - |p|^2) on the ball) and LAPACK's inverse with it, so
    # the bound scales with cond g, which is below 1.6 for |p| <= 0.6
    pts = _ball_points(np.random.default_rng(13), 2048, chart.dim, 1.0 - 2.0 * 1e-4)
    g, _ = chart.metric_many(pts)
    got = chart.inverse_metric(g)
    ref = np.linalg.inv(g)
    err = np.max(np.abs(got - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert np.all(err <= 1e-15 * np.linalg.cond(g))
    inner = np.linalg.norm(pts, axis=-1) <= 0.6
    assert np.max(err[inner]) <= 1e-15


@pytest.mark.parametrize("chart", [ambient.flat_chart(1), ambient.flat_chart(2),
                                   ambient.flat_quotient_chart(2)],
                         ids=["c1", "c2", "quotient"])
def test_inverse_metric_of_a_flat_chart_is_the_identity_view(chart):
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(5, 3, chart.dim))
    g, _ = chart.metric_many(pts)
    inv = chart.inverse_metric(g)
    assert inv.shape == g.shape and not inv.flags.writeable
    assert np.array_equal(inv, np.broadcast_to(np.eye(chart.dim), g.shape))


# --- the radial kernel against the Taylor oracle, and its failure path -------------

@pytest.mark.parametrize("chart", [ambient.poincare_disk(), ambient.complex_hyperbolic_ball()],
                         ids=["disk", "ball"])
def test_radial_kernel_matches_the_taylor_oracle(chart):
    # in the box [-0.4, 0.4]^2n within 1e-15 cond g (largest ratio measured
    # 0.82). Over the whole domain of the Christoffel symbols both kernels'
    # rounding of 1 - |p|^2 is amplified by 1 / (1 - |p|^2), which is cond g
    # on the ball; the disk's g is conformal (cond g = 1) but takes the same
    # amplification, so the bound there is 1e-15 / (1 - |p|^2) (largest
    # ratio 0.88)
    twin = taylor_twin(chart)
    rng = np.random.default_rng(14)
    box = rng.uniform(-0.4, 0.4, size=(4096, chart.dim))
    domain = _ball_points(rng, 4096, chart.dim, 1.0 - 2.0 * 130e-4)
    for pts in (box, domain):
        g_ref, _ = twin.metric_many(pts)
        if pts is box:
            bound = 1e-15 * np.linalg.cond(g_ref)
        else:
            bound = 1e-15 / (1.0 - np.sum(pts * pts, axis=-1))
        for got, ref in ((chart.metric_many(pts)[0], g_ref),
                         (chart.christoffel_many(pts), twin.christoffel_many(pts)),
                         (chart.ricci_many(pts), twin.ricci_many(pts))):
            axes = tuple(range(1, got.ndim))
            err = np.max(np.abs(got - ref), axis=axes) / np.max(np.abs(ref), axis=axes)
            assert np.all(err <= bound)


def _polynomial_chart(n, c1, c2, name):
    """Radial chart of phi = c1 s + c2 s^2 on the unit ball, s = |p|^2."""
    def phi(p):
        s = np.sum(np.asarray(p) ** 2, axis=-1)
        return c1 * s + c2 * s * s

    def dphi(s):
        zero = np.zeros_like(s)
        return c1 + 2.0 * c2 * s, 2.0 * c2 + zero, zero, zero

    return ambient.AmbientChart(n=n, kind="radial", phi=phi, dphi=dphi, radius=1.0,
                                name=name)


def _at_radius(r, dim):
    return np.full(dim, r / np.sqrt(dim))


# (chart, a point where g is not positive definite, a point where it is):
# phi = s^2 - s has phi' = 2s - 1 < 0 < u = phi' + s phi'' = 4s - 1 at
# s = 0.36; phi = s - s^2 / 2 has u = 1 - 2s < 0 < phi' = 1 - s at s = 0.64
# (for n = 1, H = u alone)
_NOT_POSITIVE = [
    (_polynomial_chart(2, -1.0, 1.0, "phi_prime_negative"), 0.6, 0.85),
    (_polynomial_chart(2, 1.0, -0.5, "u_negative_ball"), 0.8, 0.3),
    (_polynomial_chart(1, 1.0, -0.5, "u_negative_disk"), 0.8, 0.3),
]
_NOT_POSITIVE_IDS = [chart.name for chart, _, _ in _NOT_POSITIVE]
_ENTRY_POINTS = {
    "metric_many": lambda chart, pts: chart.metric_many(pts),
    "christoffel_many": lambda chart, pts: chart.christoffel_many(pts),
    "ricci_many": lambda chart, pts: chart.ricci_many(pts),
    "verify_kahler_einstein": ambient.verify_kahler_einstein,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("chart,bad,good", _NOT_POSITIVE, ids=_NOT_POSITIVE_IDS)
def test_radial_kernels_refuse_a_metric_that_is_not_positive_definite(chart, bad, good, entry):
    # one bad point behind a block of good ones; the message names the chart
    # and g's least eigenvalue, as the Taylor oracle's Cholesky test does
    call = _ENTRY_POINTS[entry]
    pts = np.array([_at_radius(good, chart.dim)] * 600 + [_at_radius(bad, chart.dim)])
    call(chart, pts[:600])
    with pytest.raises(MetricNotPositiveDefinite, match=f"'{chart.name}'") as got:
        call(chart, pts)
    if entry != "ricci_many":
        # the oracle's Ricci tensor names the Hermitian Hessian instead
        with pytest.raises(MetricNotPositiveDefinite) as ref:
            call(taylor_twin(chart), pts)
        assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("chart,bad,good", _NOT_POSITIVE, ids=_NOT_POSITIVE_IDS)
def test_domain_check_comes_before_positivity(chart, bad, good, entry):
    # a point past the domain margin, in a batch that also holds a point
    # where g is not positive definite (and is itself one for u_negative)
    margin = 2e-4 if entry == "metric_many" else 2.6e-2
    edge = _at_radius(1.0 - 0.5 * margin, chart.dim)
    pts = np.array([_at_radius(bad, chart.dim)] * 8 + [edge])
    with pytest.raises(PointOutsideDomain, match=f"'{chart.name}'"):
        _ENTRY_POINTS[entry](chart, pts)


def test_charts_are_named_by_their_table():
    # one table backs chart_from_descriptor and the schema's chart.name;
    # each built-in chart carries the name it is looked up by
    for name in ambient.CHARTS:
        assert ambient.chart_from_descriptor({"name": name}).name == name
    # the undocumented aliases of flat_c1 and flat_quotient_c2 are gone
    for name in ("flat", "flat_quotient", None):
        with pytest.raises(ValidationError, match=f"^name: unknown chart {name!r}"):
            ambient.chart_from_descriptor({"name": name})

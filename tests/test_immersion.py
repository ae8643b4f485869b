"""Immersion tests: frames, rho_J, volumes, projections, H_J, serialization."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from trgeo import ambient
from trgeo import immersion as imm
from trgeo.errors import NotImmersed, NotTotallyReal, ValidationError


@pytest.fixture
def flat1():
    return ambient.flat_chart(1)


@pytest.fixture
def flat2():
    return ambient.flat_chart(2)


@pytest.fixture
def circle(flat1):
    return imm.build_immersion(imm.GridTorus((64,)), flat1, "circle", r=1.0)


@pytest.fixture
def torus12(flat2):
    return imm.build_immersion(imm.GridTorus((32, 32)), flat2, "product_torus",
                               r1=1.0, r2=2.0)


def test_grid_validation():
    with pytest.raises(ValidationError):
        imm.GridTorus((12,))
    with pytest.raises(ValidationError):
        imm.GridTorus((48,))
    with pytest.raises(ValidationError):
        imm.GridTorus((16, 16, 16))


def test_circle_points_trivial(circle):
    theta = circle.grid.thetas(0)
    assert np.allclose(circle.points[:, 0], np.cos(theta))
    assert np.allclose(circle.points[:, 1], np.sin(theta))


def test_tangent_frame_circle(circle):
    vs, es = imm.tangent_frame(circle, (0,))
    assert np.allclose(vs[0], [0.0, 1.0], atol=1e-12)
    assert np.allclose(es[0], [0.0, 1.0], atol=1e-12)


def test_tangent_frame_ellipse(flat1):
    ell = imm.build_immersion(imm.GridTorus((64,)), flat1, "ellipse", a=2.0, b=1.0)
    vs, es = imm.tangent_frame(ell, (0,))
    # d/dtheta (2 cos, sin) at 0 = (0, 1)
    assert np.allclose(vs[0], [0.0, 1.0], atol=1e-12)
    assert np.allclose(es[0], [0.0, 1.0], atol=1e-12)


def test_gram_schmidt_contract(flat2):
    t23 = imm.build_immersion(imm.GridTorus((32, 32)), flat2, "product_torus",
                              r1=2.0, r2=3.0)
    fr = imm.frames(t23)
    g = fr.g_ambient
    for i in range(2):
        norms = np.einsum("...i,...ij,...j->...", fr.frame[i], g, fr.frame[i])
        assert np.max(np.abs(norms - 1.0)) < 1e-12
    cross = np.einsum("...i,...ij,...j->...", fr.frame[0], g, fr.frame[1])
    assert np.max(np.abs(cross)) < 1e-12


def test_rho_lagrangian_is_one(circle, torus12):
    for im in (circle, torus12):
        dens = imm.density(im)
        assert np.max(np.abs(dens.rho - 1.0)) <= 1e-10
        assert dens.formula_gap <= 1e-9


def test_rho_static_plane_family(flat2):
    # pi_alpha = span{dx1, cos a dx2 + sin a dy1}: rho_J = cos(alpha)
    J = flat2.J
    g = np.eye(4)[None, :, :]
    om = (J.T @ np.eye(4))[None, :, :]
    for alpha in (0.0, np.pi / 6, np.pi / 4, np.pi / 3):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, np.cos(alpha), np.sin(alpha), 0.0])
        fv = np.stack([e1[None, :], e2[None, :]])
        rho_h, rho_vol = imm.rho_of_frame(fv, g, om, J)
        assert abs(rho_h[0] - np.cos(alpha)) <= 1e-12
        assert abs(rho_vol[0] - np.cos(alpha)) <= 1e-12


def test_rho_node_accessor(circle):
    assert imm.rho_j(circle, (5,)) == pytest.approx(1.0, abs=1e-12)


def test_total_volumes_product_torus(torus12):
    vols = imm.total_volumes(torus12)
    expect = 4.0 * np.pi ** 2 * 1.0 * 2.0
    assert abs(vols["vol_j"] - expect) <= 1e-9 * expect
    assert abs(vols["vol_g"] - expect) <= 1e-9 * expect


def test_total_volumes_hyperbolic_circle():
    pd = ambient.poincare_disk()
    hc = imm.build_immersion(imm.GridTorus((64,)), pd, "circle", r=0.5)
    vols = imm.total_volumes(hc)
    expect = 4.0 * np.pi * 0.5 / (1.0 - 0.25)
    assert abs(vols["vol_j"] - expect) <= 1e-8 * expect


def test_perturbed_torus_j_volume_strictly_below(flat2):
    gp = imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.5, mode=(1, 0))
    dens = imm.density(gp)
    assert np.min(dens.rho) < 1.0
    vols = imm.total_volumes(gp)
    assert vols["vol_j"] < vols["vol_g"]
    assert imm.lagrangian_defect(gp) > 0.01


def test_lagrangian_defect_trivial_cases(circle, torus12):
    assert imm.lagrangian_defect(circle) == 0.0
    assert imm.lagrangian_defect(torus12) < 1e-12


def test_projection_algebra(torus12, flat2):
    pr = imm.frames(torus12)
    J = flat2.J
    eye = np.eye(4)
    assert np.max(np.abs(pr.pi_l @ pr.pi_l - pr.pi_l)) <= 1e-10
    assert np.max(np.abs(pr.pi_j @ pr.pi_j - pr.pi_j)) <= 1e-10
    assert np.max(np.abs(pr.pi_l + pr.pi_j - eye)) <= 1e-10
    assert np.max(np.abs(pr.pi_l @ J - J @ pr.pi_j)) <= 1e-10
    assert np.max(np.abs(pr.pi_j @ J - J @ pr.pi_l)) <= 1e-10


def test_projection_lagrangian_node_is_orthogonal(torus12):
    # on a Lagrangian, J(TL) is the normal space: pi_J = pi_perp = Id - pi_T
    pr = imm.frames(torus12)
    assert np.max(np.abs(pr.pi_j - (np.eye(4) - pr.pi_t))) <= 1e-10


def test_projection_mixed_identity_on_tilted_plane(flat2):
    # direct 4-dim check of pi_L(J e1) = J pi_J(e1) on pi_{pi/4}
    gp = imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                             "graph_perturbed_torus", r1=1.0, r2=1.0,
                             amplitude=0.4, mode=(1, 1))
    pr = imm.frames(gp)
    J = flat2.J
    rng = np.random.default_rng(0)
    v = rng.normal(size=4)
    lhs = np.einsum("...ij,jk,k->...i", pr.pi_l, J, v)
    rhs = np.einsum("ij,...jk,k->...i", J, pr.pi_j, v)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_h_j_circle_inward_unit(circle):
    field = imm.h_j_field(circle)
    theta = circle.grid.thetas(0)
    expect = -np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    assert np.max(np.abs(field.values - expect)) <= 1e-10
    assert field.max_tangential_leak <= 1e-10


def test_h_j_product_torus_magnitude(flat2):
    for r1, r2 in ((1.0, 2.0), (1.0, 1.0), (0.5, 2.0)):
        pt = imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                                 "product_torus", r1=r1, r2=r2)
        field = imm.h_j_field(pt)
        mags = np.sqrt(np.sum(field.values ** 2, axis=-1))
        expect = math.sqrt(1.0 / r1 ** 2 + 1.0 / r2 ** 2)
        assert np.max(np.abs(mags - expect)) <= 1e-9


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_h_j_circle_scaling(flat1, r):
    im = imm.build_immersion(imm.GridTorus((64,)), flat1, "circle", r=r)
    field = imm.h_j_field(im)
    mags = np.sqrt(np.sum(field.values ** 2, axis=-1))
    assert np.max(np.abs(mags - 1.0 / r)) <= 1e-9


def test_rank_drop_rejected(flat2):
    # amplitude 1 collapses the theta_2 circle at theta_1 = pi: not immersed
    with pytest.raises(NotImmersed):
        imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                            "graph_perturbed_torus", r1=1.0, r2=1.0,
                            amplitude=1.0, mode=(1, 0))


def test_totally_real_floor():
    # tilted straight torus span{dx1, cos a dx2 + sin a dy1}: rho = cos a;
    # near a = pi/2 the plane is full rank but partially complex to precision
    qc = ambient.flat_quotient_chart(2)
    alpha = np.pi / 2 - 1e-7
    winding = np.array([[1.0, 0.0], [0.0, np.cos(alpha)],
                        [0.0, np.sin(alpha)], [0.0, 0.0]])
    with pytest.raises(NotTotallyReal):
        imm.build_immersion(imm.GridTorus((32, 32)), qc, "straight_torus",
                            winding=winding)


def test_vol_j_bounded_by_vol_g_randomized(flat2):
    rng = np.random.default_rng(42)
    grid = imm.GridTorus((32, 32))
    for _ in range(25):
        amp = rng.uniform(0.05, 0.45)
        mode = (int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        gp = imm.build_immersion(grid, flat2, "graph_perturbed_torus",
                                 r1=1.0, r2=1.0, amplitude=amp, mode=mode)
        vols = imm.total_volumes(gp)
        assert vols["vol_j"] <= vols["vol_g"] + 1e-10


def test_reparametrization_invariance(flat2, torus12):
    vols = imm.total_volumes(torus12)
    # integer grid shift: exact node permutation
    shifted = imm.reparametrized(torus12, (2 * np.pi * 3 / 32, 0.0))
    vols_s = imm.total_volumes(shifted)
    assert abs(vols_s["vol_j"] - vols["vol_j"]) <= 1e-10 * vols["vol_j"]
    # non-grid shift: spectral resampling
    shifted2 = imm.reparametrized(torus12, (0.1234, -0.4321))
    vols_s2 = imm.total_volumes(shifted2)
    assert abs(vols_s2["vol_j"] - vols["vol_j"]) <= 1e-10 * vols["vol_j"]


def test_serialization_round_trip(torus12, tmp_path):
    path = tmp_path / "torus.json"
    imm.save_immersion(torus12, path)
    back = imm.load_immersion(path)
    assert back.grid.sizes == torus12.grid.sizes
    assert np.allclose(back.points, torus12.points, atol=1e-15)
    assert back.chart.name == torus12.chart.name


def test_density_csv_export(circle, tmp_path):
    path = tmp_path / "density.csv"
    imm.export_density_csv(imm.density(circle), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i0,rho,volg_density,volj_density"
    assert len(lines) == 65
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_density_csv_bytes_match_per_value_formatting(tmp_path, shape):
    # reference: one format(float(x), ".17g") per value in a per-node loop
    rng = np.random.default_rng(4)
    vals = [rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            for _ in range(3)]
    vals[0].flat[0] = -0.0
    vals[1].flat[1] = 1.0 / 3.0
    vals[2].flat[2] = 5e-324
    dens = SimpleNamespace(rho=vals[0], volg_density=vals[1], volj_density=vals[2])
    path = tmp_path / "density.csv"
    imm.export_density_csv(dens, path)
    header = [f"i{k}" for k in range(len(shape))] + ["rho", "volg_density", "volj_density"]
    expect = ",".join(header) + "\n" + "".join(
        ",".join([str(i) for i in idx] + [format(float(a[idx]), ".17g") for a in vals]) + "\n"
        for idx in np.ndindex(*shape))
    assert path.read_bytes() == expect.encode()


def test_straight_torus_quotient_chart():
    qc = ambient.flat_quotient_chart(2)
    st = imm.build_immersion(imm.GridTorus((32, 32)), qc, "straight_torus")
    vols = imm.total_volumes(st)
    assert vols["vol_j"] == pytest.approx(4.0 * np.pi ** 2, rel=1e-12)
    field = imm.h_j_field(st)
    assert np.max(np.abs(field.values)) <= 1e-12
    assert imm.lagrangian_defect(st) <= 1e-12


def test_winding_requires_quotient_chart(flat2):
    with pytest.raises(ValidationError):
        imm.Immersion(grid=imm.GridTorus((32, 32)), chart=flat2,
                      points=np.zeros((32, 32, 4)),
                      winding=np.eye(4, 2))


def test_rho_formula_agreement_all_builtins(flat1, flat2):
    cases = [
        imm.build_immersion(imm.GridTorus((64,)), flat1, "circle", r=1.0),
        imm.build_immersion(imm.GridTorus((64,)), flat1, "ellipse", a=2.0, b=1.0),
        imm.build_immersion(imm.GridTorus((64,)), flat1, "fourier_curve",
                            coeffs={1: 1.0, 3: 0.2}),
        imm.build_immersion(imm.GridTorus((32, 32)), flat2, "product_torus",
                            r1=1.0, r2=2.0),
        imm.build_immersion(imm.GridTorus((32, 32)), flat2,
                            "graph_perturbed_torus", r1=1.0, r2=1.0,
                            amplitude=0.5, mode=(1, 0)),
        imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(),
                            "circle", r=0.5),
        imm.build_immersion(imm.GridTorus((32, 32)),
                            ambient.flat_quotient_chart(2), "straight_torus"),
    ]
    for im in cases:
        dens = imm.density(im)
        assert dens.formula_gap <= 1e-9
        assert np.max(dens.rho) <= 1.0 + 1e-10


def _density_cases(flat1, flat2):
    grid2 = imm.GridTorus((16, 32))
    return [
        imm.build_immersion(imm.GridTorus((64,)), flat1, "ellipse", a=2.0, b=1.0),
        imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(),
                            "circle", r=0.5),
        imm.build_immersion(grid2, flat2, "graph_perturbed_torus", r1=1.0,
                            r2=1.2, amplitude=0.4, mode=(1, 1)),
        imm.build_immersion(grid2, ambient.complex_hyperbolic_ball(),
                            "graph_perturbed_torus", r1=0.3, r2=0.35,
                            amplitude=0.05, mode=(1, 0)),
        imm.build_immersion(grid2, ambient.flat_quotient_chart(2), "straight_torus",
                            winding=[[1.0, 0.0], [0.0, 0.8], [0.0, 0.6], [0.0, 0.0]]),
    ]


def test_is_totally_real_returns_the_density(flat1, flat2):
    for im in _density_cases(flat1, flat2):
        got = imm.is_totally_real(im)
        ref = imm.density(im)
        for name in ("rho", "volg_density", "volj_density"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))


def test_lazy_formula_gap_matches_eager_rho_of_frame(flat1, flat2):
    for im in _density_cases(flat1, flat2):
        dens = imm.density(im)
        assert "rho_vol" not in vars(dens) and "formula_gap" not in vars(dens)
        fr = imm.frames(im)
        rho_h, rho_vol = imm.rho_of_frame(fr.frame, fr.g_ambient,
                                          fr.omega_ambient, im.chart.J)
        assert np.array_equal(dens.rho, rho_h)
        assert dens.formula_gap == float(np.max(np.abs(rho_h - rho_vol)))
        assert np.array_equal(dens.rho_vol, rho_vol)


def test_lagrangian_rho_pinned_to_one(flat2):
    # lagrangian_defect < 1e-10 forces |rho - 1| <= 1e-8 nodewise
    for formula, kwargs in (("product_torus", {"r1": 1.3, "r2": 0.8}),
                            ("product_torus", {"r1": 1.0, "r2": 1.0})):
        im = imm.build_immersion(imm.GridTorus((32, 32)), flat2, formula, **kwargs)
        assert imm.lagrangian_defect(im) < 1e-10
        dens = imm.density(im)
        assert np.max(np.abs(dens.rho - 1.0)) <= 1e-8


def test_build_immersion_outside_domain():
    pd = ambient.poincare_disk()
    from trgeo.errors import PointOutsideDomain
    with pytest.raises(PointOutsideDomain):
        imm.build_immersion(imm.GridTorus((64,)), pd, "circle", r=1.5)


# --- stacks: one frame build for many immersions ------------------------------------

def _torus_points(grid, r1=1.0, r2=1.0, amplitude=0.0, mode=(1, 1)):
    """Points of graph_perturbed_torus without its validation."""
    t1, t2 = grid.mesh()
    z1 = r1 * np.exp(1j * t1)
    z2 = (r2 + amplitude * np.cos(mode[0] * t1 + mode[1] * t2)) * np.exp(1j * t2)
    return np.stack([z1.real, z2.real, z1.imag, z2.imag], axis=-1)


def _stack_cases():
    g32, g16 = imm.GridTorus((32, 32)), imm.GridTorus((16, 16))
    flat = ambient.flat_chart(2)
    yield "perturbed torus", g32, flat, [
        _torus_points(g32, 1.0, 2.0, a, (1, 1)) for a in (0.1, 0.2, 0.3, 0.4)], None
    qc = ambient.flat_quotient_chart(2)
    winding = np.array([[1.0, 0.3], [0.0, 1.0], [0.2, 0.0], [0.0, 0.5]])
    t1, t2 = g32.mesh()
    bump = np.stack([0.1 * np.sin(t1 + t2), 0.05 * np.cos(t2), 0.1 * np.cos(t1),
                     0.05 * np.sin(2.0 * t1 - t2)], axis=-1)
    yield "wound quotient torus", g32, qc, [
        0.1 + s * bump for s in (0.0, 0.5, 1.0)], winding
    yield "ball product torus", g16, ambient.complex_hyperbolic_ball(), [
        _torus_points(g16, 0.3, r2) for r2 in (0.2, 0.3, 0.45)], None
    theta = imm.GridTorus((64,)).thetas(0)
    yield "curve", imm.GridTorus((64,)), ambient.poincare_disk(), [
        np.stack([c + r * np.cos(theta), r * 0.8 * np.sin(theta)], axis=-1)
        for c, r in ((0.0, 0.3), (0.1, 0.5), (-0.2, 0.4))], None


@pytest.mark.parametrize("case", list(_stack_cases()), ids=lambda c: c[0])
def test_stacked_frame_fields_equal_each_member(case):
    _, grid, chart, members, winding = case
    pts = np.stack(members)
    # the builder's stack layout: components first, (2n, B) + grid sizes
    ahead = np.ascontiguousarray(np.moveaxis(pts, -1, 0))
    vs = imm._coordinate_vectors(grid, ahead, winding)
    frame, coeffs, g, omega, vol, degenerate = imm._frame_fields(
        grid, chart, vs, imm._positions(grid, pts, winding))
    assert coeffs.shape == (grid.n, grid.n) + pts.shape[:-1]
    assert not np.any(degenerate)
    for b, p in enumerate(members):
        fr = imm.frames(imm.Immersion(grid=grid, chart=chart, points=p,
                                      winding=winding))
        assert np.array_equal(np.moveaxis(vs[:, :, b], 1, -1), fr.vectors)
        assert np.array_equal(np.moveaxis(frame[:, :, b], 1, -1), fr.frame)
        assert np.array_equal(coeffs[:, :, b], fr.coeffs)
        assert np.array_equal(g[b], fr.g_ambient)
        assert np.array_equal(omega[b], fr.omega_ambient)
        assert np.array_equal(vol[b], fr.induced_vol)


def _raised(check):
    try:
        check()
    except Exception as e:      # the type and message are what is compared
        return type(e), str(e)
    return None


def _family_errors(grid, chart, family, block=8):
    """(member-by-member loop, stacked blocks of `block`) outcomes."""
    def loop():
        for p in family:
            imm.is_totally_real(imm.Immersion(grid=grid, chart=chart, points=p))

    def blocks():
        # stacks are (B, 2n) + grid sizes
        ahead = np.moveaxis(family, -1, 1)
        for s in range(0, len(family), block):
            imm.is_totally_real_stack(grid, chart, ahead[s:s + block])

    return _raised(loop), _raised(blocks)


def _with_nan(points):
    points = points.copy()
    points[3, 5, 1] = np.nan
    return points


_GRID16 = imm.GridTorus((16, 16))
_BAD_MEMBERS = {
    # r1 = 0: d/dtheta_1 vanishes, the frame check fails
    "degenerate": (_torus_points(_GRID16, 0.0, 1.0, 0.1), NotImmersed, "degenerate"),
    # full rank to 1e-12 but |v_1 ^ v_2| = 1e-11: the volume check fails
    "volume": (_torus_points(_GRID16, 1e-11, 1.0), NotImmersed, "drops rank"),
    # the most perturbed member is the only one below the rho floor set below
    "rho": (_torus_points(_GRID16, 1.0, 1.0, 0.6), NotTotallyReal, "rho_J reaches"),
    "nan": (_with_nan(_torus_points(_GRID16, 1.0, 1.0, 0.1)), NotImmersed, "not finite"),
}


# (kinds, positions) of bad members in a 12-member family checked in blocks of
# 8: the middle of the first block, the second block, and two bad members
_BAD_FAMILIES = ([((kind,), (k,)) for kind in _BAD_MEMBERS for k in (3, 10)]
                 + [(("rho", "degenerate"), (3, 10)), (("degenerate", "volume"), (10, 11)),
                    (("volume", "nan"), (4, 5))])


@pytest.mark.parametrize("kinds, where", _BAD_FAMILIES)
def test_stacked_check_raises_what_the_member_loop_raises(kinds, where, monkeypatch):
    family = np.stack([_torus_points(_GRID16, 1.0, 1.0, a)
                       for a in np.linspace(0.05, 0.3, 12)])
    flat = ambient.flat_chart(2)
    # between the rho floors of the good members and of the "rho" member
    good = min(float(np.min(imm.is_totally_real(
        imm.Immersion(grid=_GRID16, chart=flat, points=p)).rho)) for p in family)
    bad = float(np.min(imm.density(imm.Immersion(
        grid=_GRID16, chart=flat, points=_BAD_MEMBERS["rho"][0])).rho))
    assert bad < good
    monkeypatch.setattr(imm, "RHO_MIN", 0.5 * (good + bad))
    assert _family_errors(_GRID16, flat, family) == (None, None)
    for kind, k in zip(kinds, where):
        family[k] = _BAD_MEMBERS[kind][0]
    loop, blocks = _family_errors(_GRID16, flat, family)
    _, error, text = _BAD_MEMBERS[kinds[0]]
    assert loop is not None and loop[0] is error and text in loop[1]
    assert blocks == loop


def test_nan_node_fails_validation(flat2):
    im = imm.build_immersion(imm.GridTorus((32, 32)), flat2, "graph_perturbed_torus",
                             r1=1.0, r2=2.0, amplitude=0.2)
    pts = im.points.copy()
    pts[7, 11, 2] = np.nan
    bad = imm.Immersion(grid=im.grid, chart=flat2, points=pts)
    with pytest.raises(NotImmersed, match="not finite"):
        imm.is_totally_real(bad)
    with pytest.raises(NotImmersed, match="not finite"):
        imm.total_volumes(bad)
    with pytest.raises(NotImmersed, match="not finite"):
        imm.is_totally_real_stack(im.grid, flat2,
                                  np.moveaxis(np.stack([im.points, pts]), -1, 1))


@pytest.mark.parametrize("bad", [{10: 0.99}, {3: 0.0, 10: 0.99}, {4: 0.99, 5: 0.0}])
def test_stacked_check_hands_domain_failures_to_the_loop(bad):
    # r2 = 0.99 leaves the ball (PointOutsideDomain for the whole stack);
    # r1 = 0 makes a member's frame degenerate inside the ball
    ball = ambient.complex_hyperbolic_ball()
    members = [(0.3, r2) for r2 in np.linspace(0.2, 0.4, 12)]
    for k, r in bad.items():
        members[k] = (0.3, r) if r > 0.5 else (0.0, 0.3)
    family = np.stack([_torus_points(_GRID16, r1, r2) for r1, r2 in members])
    loop, blocks = _family_errors(_GRID16, ball, family)
    assert loop is not None and blocks == loop

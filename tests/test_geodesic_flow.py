"""Flow tests: spectral continuation, guarded stepping, BVP, uniqueness."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from trgeo import ambient, curve_lab as cl, geodesic_flow as gf
from trgeo import immersion as imm
from trgeo.errors import (AmplificationExceeded, BadArgument, BlowUpDetected, NotFinite, NotNested,
                          PointOutsideDomain, StepTooLarge, UnsupportedField,
                          ValidationError)

from flow_oracle import (commutator_check, continued_points, flow_timestep_full_spectrum,
                         geodesic_defect, mode_growth_guard, perturbed_torus, wound_torus)


@pytest.fixture
def circle():
    return imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                               "circle", r=1.0).im


def curve_immersion(curve, M=1024):
    samples = cl.synthesize(curve, M=M)
    return imm.Immersion(grid=imm.GridTorus((M,)), chart=ambient.flat_chart(1),
                         points=np.stack([samples.real, samples.imag], axis=-1))


def test_spectral_circle_exact(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, [0.5])
    theta = circle.grid.thetas(0)
    z = flow.immersions[0].points[:, 0] + 1j * flow.immersions[0].points[:, 1]
    assert np.max(np.abs(z - math.exp(-0.5) * np.exp(1j * theta))) < 1e-13


def test_spectral_torus_componentwise():
    grid = imm.GridTorus((32, 32))
    pt = imm.build_immersion(grid, ambient.flat_chart(2), "product_torus",
                             r1=1.0, r2=2.0).im
    flow = gf.flow_spectral(pt, imm.coordinate_field(grid, 0), [0.3])
    p = flow.immersions[0].points
    t1, t2 = grid.mesh()
    z1 = p[..., 0] + 1j * p[..., 2]
    z2 = p[..., 1] + 1j * p[..., 3]
    assert np.max(np.abs(z1 - math.exp(-0.3) * np.exp(1j * t1))) < 1e-13
    assert np.max(np.abs(z2 - 2.0 * np.exp(1j * t2))) < 1e-13


def test_spectral_group_property(circle):
    X = imm.coordinate_field(circle.grid, 0)
    two_leg = gf.flow_spectral(
        gf.flow_spectral(circle, X, [0.2]).immersions[0], X, [0.3])
    one_leg = gf.flow_spectral(circle, X, [0.5])
    gap = np.max(np.abs(two_leg.immersions[0].points
                        - one_leg.immersions[0].points))
    assert gap <= 1e-10


def test_spectral_time_reversal(circle):
    X = imm.coordinate_field(circle.grid, 0)
    fwd = gf.flow_spectral(circle, X, [0.2]).immersions[0]
    back = gf.flow_spectral(fwd, X, [-0.2]).immersions[0]
    assert np.max(np.abs(back.points - circle.points)) <= 1e-8


def test_spectral_rejects_general_field(circle):
    # f changes sign: its integral curves do not go round the axis circle
    X = cosine_axis_field(circle.grid, 0, base=0.2, amplitude=0.5)
    with pytest.raises(UnsupportedField, match="needs f > 0 everywhere$"):
        gf.flow_spectral(circle, X, [0.1])
    # f depends on both angles
    pt = _product_torus_32()
    t1, t2 = pt.grid.mesh()
    comp = np.stack([1.0 + 0.2 * np.cos(t1 + t2), np.zeros(pt.grid.sizes)])
    X = imm.VectorFieldOnL(grid=pt.grid, components=comp)
    with pytest.raises(UnsupportedField, match=r"needs X = f\(theta_k\) d/dtheta_k$"):
        gf.flow_spectral(pt, X, [0.1])


def _disk_circle():
    return imm.build_immersion(imm.GridTorus((64,)), ambient.poincare_disk(), "circle",
                               r=0.5).im


def _ball_torus():
    return imm.build_immersion(imm.GridTorus((32, 32)), ambient.complex_hyperbolic_ball(),
                               "graph_perturbed_torus", r1=0.3, r2=0.35, amplitude=0.05,
                               mode=[1, 1]).im


@pytest.mark.parametrize("t", [0.3, -0.5])
def test_spectral_disk_circle_closed_form(t):
    # the geodesics use J alone, so the disk circle r = 0.5 flows as in C:
    # to 0.5 e^{-t} e^{i theta} (measured 2.0e-16 at t = 0.3, 4.5e-16 at -0.5)
    hc = _disk_circle()
    p = gf.flow_spectral(hc, imm.coordinate_field(hc.grid, 0), [t]).immersions[0].points
    theta = hc.grid.thetas(0)
    assert np.max(np.abs(p[:, 0] + 1j * p[:, 1]
                         - 0.5 * math.exp(-t) * np.exp(1j * theta))) <= 1e-13


def test_spectral_family_leaving_the_disk_is_refused():
    # at t = -0.8 the circle has radius 0.5 e^{0.8} = 1.113
    hc = _disk_circle()
    with pytest.raises(PointOutsideDomain, match="radius 1.11"):
        gf.flow_spectral(hc, imm.coordinate_field(hc.grid, 0), [0.1, -0.8])


@pytest.mark.parametrize("case,axis", [("disk circle", 0), ("ball torus", 0),
                                       ("ball torus", 1)])
def test_uniqueness_on_curved_charts(case, axis):
    # the RK4 stepper meets the continuation (measured 6.7e-16 on the disk
    # and on ball axis 0, 7.2e-16 on ball axis 1)
    im = _disk_circle() if case == "disk circle" else _ball_torus()
    assert gf.uniqueness_compare(im, imm.coordinate_field(im.grid, axis), 0.1) <= 1e-13


def _shear_family():
    """The convexity experiment's quotient_torus_shear family at 32 x 32: the
    straight torus and (1 + 0.3 cos theta_0) d/dtheta_0."""
    im = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_quotient_chart(2),
                             "straight_torus").im
    return im, cosine_axis_field(im.grid, 0)


@pytest.mark.parametrize("case", ["ball torus", "disk circle", "quotient shear"])
def test_family_volumes_are_the_volume_of_each_continued_member(case):
    # the oracle is the computation the variation checks made before: each
    # member of the continued grid (the constant-speed grid of the shear
    # family's axis) validated alone, its Vol_J by Geometry.volumes
    if case == "quotient shear":
        im, Y = _shear_family()
    else:
        im = _ball_torus() if case == "ball torus" else _disk_circle()
        Y = imm.coordinate_field(im.grid, 0, 0.5)
    ts = [-0.1, 0.0, 0.1, 0.2]
    vol_j = gf.family_volumes(im, Y, ts)
    axis, f = gf._axis_profile(Y)
    cont, c = im, float(f[0])
    if case == "quotient shear":
        # the axis resampled at constant speed, as _spectral_family does
        theta, _, c = gf._constant_speed(f)
        w = None if im.winding is None else im.winding[:, axis]
        cont = imm.Immersion(grid=im.grid, chart=im.chart, winding=im.winding,
                             points=gf._resample_axis(im.points, axis, theta, w))
    members = [m for pts, _ in gf._continued_blocks(cont, gf._present_spectrum(cont),
                                                    axis, c, ts)
               for m in gf._members(cont, pts)]
    want = [imm.is_totally_real(m).volumes()["vol_j"] for m in members]
    assert len(vol_j) == len(want) == len(ts)
    for got, ref in zip(vol_j, want):
        assert abs(got - ref) <= 1e-14 * abs(ref)
    if case != "quotient shear":
        # a coordinate field's frames are the continued members themselves
        for frame, member in zip(gf.flow_spectral(im, Y, ts).immersions, members):
            assert np.array_equal(frame.points, member.points)


def test_no_ray_direction_refused_any_positive_time():
    im = curve_immersion(cl.family_coefficients("no_ray", N=256))
    X = imm.coordinate_field(im.grid, 0)
    for t in (0.01, 0.05, 0.1):
        with pytest.raises(AmplificationExceeded):
            gf.flow_spectral(im, X, [t])


def test_ray_only_flows_inward_not_outward():
    im = curve_immersion(cl.family_coefficients("ray_only", N=256))
    X = imm.coordinate_field(im.grid, 0)
    flow = gf.flow_spectral(im, X, [0.05])
    assert flow.amplification < gf.AMP_MAX
    with pytest.raises(AmplificationExceeded):
        gf.flow_spectral(im, X, [-0.05])


def test_amplification_cap():
    # geometric negative tail with the full spectrum populated: amp = e^{|m| t}
    N = 256
    n = np.arange(1, N + 1)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1] = 1.0
    coeffs[N - 1::-1] = 0.5 * 0.9 ** n
    im = curve_immersion(cl.FourierCurve(coeffs=coeffs))
    X = imm.coordinate_field(im.grid, 0)
    with pytest.raises(AmplificationExceeded):
        gf.flow_spectral(im, X, [0.2])   # e^{256 * 0.2} >> 1e6


@pytest.mark.parametrize("scale,t", [(1.0, 1e300), (1e300, 0.1)])
def test_factors_past_the_float_range_are_refused_unformed(circle, scale, t):
    # the circle holds mode 1 alone, which decays inward, but the factors of
    # the absent modes down to -32 overflowed when formed (a RuntimeWarning)
    X = imm.coordinate_field(circle.grid, 0, scale)
    with pytest.raises(AmplificationExceeded, match="past the float range"):
        gf.flow_spectral(circle, X, [t])


def test_absent_modes_may_grow_within_the_float_range(circle):
    # mode -32 would grow by e^{32 * 14} = 1.6e194, but it is absent: the
    # cap counts present modes only
    X = imm.coordinate_field(circle.grid, 0)
    assert gf.flow_spectral(circle, X, [14.0]).amplification == 1.0


def test_timestep_matches_spectral(circle):
    X = imm.coordinate_field(circle.grid, 0)
    gap = gf.uniqueness_compare(circle, X, 0.1)
    assert gap <= 1e-6


def test_uniqueness_ellipse_and_torus():
    ell = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                              "ellipse", a=2.0, b=1.0).im
    assert gf.uniqueness_compare(ell, imm.coordinate_field(ell.grid, 0), 0.05) <= 1e-5
    grid = imm.GridTorus((32, 32))
    pt = imm.build_immersion(grid, ambient.flat_chart(2), "product_torus",
                             r1=1.0, r2=2.0).im
    assert gf.uniqueness_compare(pt, imm.coordinate_field(grid, 0), 0.1) <= 1e-6


def test_timestep_matches_reparametrized_pipeline(circle):
    # flow_spectral continues (1 + 0.3 cos theta) d/dtheta on the grid of
    # constant speed and maps its frames back to the theta grid, where the
    # stepper's frames live
    X = cosine_axis_field(circle.grid, 0)
    stepped = gf.flow_timestep(circle, X, 0.05, 5e-4)
    spectral = gf.flow_spectral(circle, X, [0.05])
    assert spectral.immersions[0].grid == circle.grid
    # measured 1.6e-15
    assert np.max(np.abs(stepped.immersions[-1].points
                         - spectral.immersions[0].points)) <= 1e-14


def test_axis_one_family_is_the_transposed_axis_zero_family():
    theta = perturbed_torus().grid.thetas(1)
    _check_axis_one_family(1.0 + 0.3 * np.cos(theta))


def test_axis_one_family_with_nyquist_content_is_accepted():
    # reparametrizing this profile leaves Nyquist coefficients of about 1e-8
    # on the flow axis, which the continuation carries like any other mode
    theta = perturbed_torus().grid.thetas(1)
    _check_axis_one_family(1.0 + 0.3 * np.cos(theta) + 0.1 * np.sin(2.0 * theta))


def _check_axis_one_family(f):
    im = perturbed_torus()
    comp = np.zeros((2, 32, 32))
    comp[1] = f[None, :]
    Y1 = imm.VectorFieldOnL(grid=im.grid, components=comp)
    # the same surface with the grid axes swapped carries the field on axis 0
    imT = imm.Immersion(grid=im.grid, chart=im.chart,
                        points=np.swapaxes(im.points, 0, 1))
    Y0 = imm.VectorFieldOnL(grid=im.grid, components=np.swapaxes(comp[::-1], 1, 2))
    ts = [-0.1, 0.05, 0.1]
    fam1 = gf.flow_spectral(im, Y1, ts).immersions
    fam0 = gf.flow_spectral(imT, Y0, ts).immersions
    for a, b in zip(fam1, fam0):
        assert np.max(np.abs(a.points - np.swapaxes(b.points, 0, 1))) <= 1e-13
        # the family moves the torus (it is no identity map)
        assert np.max(np.abs(a.points - im.points)) >= 1e-3


def test_timestep_step_too_large(circle):
    X = imm.coordinate_field(circle.grid, 0)
    with pytest.raises(StepTooLarge):
        gf.flow_timestep(circle, X, 0.5, 0.25)


@pytest.mark.parametrize("store_every,kept", [(5, 3), (4, 4), (10, 2), (3, 5)])
def test_the_kept_frames_are_bounded_before_any_step(circle, monkeypatch, store_every, kept):
    # ten steps keep the states 0, store_every, 2 store_every, .. and the
    # last; three frames of the 128 numbers of a 64-node circle fit the bound
    monkeypatch.setattr(gf, "MAX_KEPT_NUMBERS", 3 * 128)
    X = imm.coordinate_field(circle.grid, 0)
    if kept <= 3:
        assert len(gf.flow_timestep(circle, X, 0.1, 0.01, store_every).immersions) == kept
    else:
        monkeypatch.setattr(gf, "_rk4_states", lambda *a: ([0.01 * k for k in range(11)], None))
        with pytest.raises(BadArgument, match=rf"^store_every: {kept} frames of 128 numbers"):
            gf.flow_timestep(circle, X, 0.1, 0.01, store_every)
    # flow_spectral keeps what it is asked for; the bound is its callers'
    assert len(gf.flow_spectral(circle, X, [0.0, 0.1, 0.2, 0.3]).immersions) == 4
    gf.require_kept(3, circle.points.size, "times")
    with pytest.raises(BadArgument, match=r"^times: 4 frames of 128 numbers are more than "
                                          r"the 384 numbers a flow keeps"):
        gf.require_kept(4, circle.points.size, "times")


def criterion_9_curve():
    """a_1 = 1, a_{-n} = e^{-sqrt n}: smooth but not analytic, so stepping blows up."""
    N = 256
    n = np.arange(1, N + 1).astype(float)
    coeffs = np.zeros(2 * N + 1, dtype=complex)
    coeffs[N + 1] = 1.0
    coeffs[N - 1::-1] = np.exp(-np.sqrt(n))
    return curve_immersion(cl.FourierCurve(coeffs=coeffs))


def test_blow_up_detected_before_t02():
    im = criterion_9_curve()
    X = imm.coordinate_field(im.grid, 0)
    with pytest.raises(BlowUpDetected) as err:
        gf.flow_timestep(im, X, 0.2, 5e-4)
    assert err.value.t_reached is not None
    assert err.value.t_reached < 0.2


def cosine_axis_field(grid, axis, base=1.0, amplitude=0.3):
    """The CLI's cosine_axis field (base + amplitude cos theta_axis) d/dtheta_axis."""
    profile = base + amplitude * np.cos(grid.thetas(axis))
    comp = np.zeros((grid.n,) + grid.sizes)
    comp[axis] = profile if grid.n == 1 else np.expand_dims(profile, axis=1 - axis)
    return imm.VectorFieldOnL(grid=grid, components=comp)


@pytest.mark.parametrize("case, axis", [("perturbed", 0), ("perturbed", 1),
                                        ("perturbed", "both"), ("wound", 0),
                                        ("wound", 1), ("ellipse", 0)])
def test_timestep_matches_full_spectrum_reference(case, axis):
    if case == "ellipse":
        im = imm.build_immersion(imm.GridTorus((256,)), ambient.flat_chart(1),
                                 "ellipse", a=2.0, b=1.0).im
    else:
        im = perturbed_torus() if case == "perturbed" else wound_torus()
    if axis == "both":
        # both axes live, with profiles along different axes
        comp = (cosine_axis_field(im.grid, 0).components
                + cosine_axis_field(im.grid, 1, base=0.5, amplitude=0.2).components)
        X = imm.VectorFieldOnL(grid=im.grid, components=comp)
    else:
        X = cosine_axis_field(im.grid, axis)
    flow = gf.flow_timestep(im, X, 0.05, 2.5e-3)
    times, ref = flow_timestep_full_spectrum(im, X, 0.05, 2.5e-3)
    assert flow.times == times
    gap = max(float(np.max(np.abs(a.points - b))) for a, b in zip(flow.immersions, ref))
    assert gap <= 1e-13
    # the flow moves the points (it is no identity map)
    assert np.max(np.abs(flow.immersions[-1].points - im.points)) >= 1e-3


def test_timestep_blow_up_matches_full_spectrum_reference():
    im = criterion_9_curve()
    X = imm.coordinate_field(im.grid, 0)
    with pytest.raises(BlowUpDetected) as got:
        gf.flow_timestep(im, X, 0.2, 5e-4)
    with pytest.raises(BlowUpDetected) as ref:
        flow_timestep_full_spectrum(im, X, 0.2, 5e-4)
    assert got.value.t_reached == ref.value.t_reached
    assert str(got.value) == str(ref.value)


def test_band_tail_matches_the_half_spectrum_on_random_band_data():
    rng = np.random.default_rng(5)
    for sizes in [(16,), (64,), (128,), (16, 32), (32, 32), (64, 16)]:
        cutoffs = [int(gf.DEALIAS_FRACTION * (s // 2)) for s in sizes]
        tail = gf._band_tail(sizes, cutoffs)
        by_fft = gf._dealias_by_fft(sizes, cutoffs, 4)
        for offset in (0.0, 3.0):
            # band-limited data: the FFT filter of random points
            points, want = by_fft(offset + rng.normal(size=(4,) + sizes))
            assert abs(tail(points) - want) <= 1e-14
    # all energy in DC, with the round-off of a derivative matrix on top: no tail
    sizes, cutoffs = (32, 32), [10, 10]
    constant = np.full((4,) + sizes, 0.4) + 1e-17 * rng.normal(size=(4,) + sizes)
    assert gf._band_tail(sizes, cutoffs)(constant) == 0.0


def criterion_9_curve_128():
    """The criterion-9 coefficients up to the last mode a 128-node grid resolves."""
    coeffs = [[1, 1.0, 0.0]] + [[-n, math.exp(-math.sqrt(n)), 0.0] for n in range(1, 64)]
    return imm.build_immersion(imm.GridTorus((128,)), ambient.flat_chart(1),
                               "fourier_curve", coeffs=coeffs).im


def test_short_grid_blow_up_matches_full_spectrum_reference():
    im = criterion_9_curve_128()
    X = imm.coordinate_field(im.grid, 0)
    # the projector matrices filter and watch this grid
    assert max(im.grid.sizes) <= gf._MATRIX_NODES
    with pytest.raises(BlowUpDetected) as got:
        gf.flow_timestep(im, X, 0.2, 5e-4)
    with pytest.raises(BlowUpDetected) as ref:
        flow_timestep_full_spectrum(im, X, 0.2, 5e-4)
    assert got.value.t_reached == ref.value.t_reached < 0.2
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("offset", [[0.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
@pytest.mark.parametrize("axis", [0, 1])
def test_timestep_of_a_constant_torus_has_no_tail(offset, axis, monkeypatch):
    # the points of a straight torus are one constant: all their energy is in
    # DC, where the half spectrum reads a zero total; the derivative matrix
    # leaves round-off there, and the monitor must not read it as a tail
    monkeypatch.setattr(gf, "TAIL_ENERGY_ABORT", 1e-12)
    st = imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_quotient_chart(2),
                             "straight_torus", offset=offset).im
    X = imm.coordinate_field(st.grid, axis)
    flow = gf.flow_timestep(st, X, 0.1, 1e-3)
    times, ref = flow_timestep_full_spectrum(st, X, 0.1, 1e-3)
    assert flow.times == times
    assert max(float(np.max(np.abs(a.points - b)))
               for a, b in zip(flow.immersions, ref)) <= 1e-15


def _straight_wound_torus():
    return imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_quotient_chart(2),
                               "straight_torus", winding=[[1.0, 0.3], [0.0, 1.0],
                                                          [0.2, 0.0], [0.0, 0.5]],
                               offset=[0.1, 0.2, 0.3, 0.4]).im


def _step_operator_cases():
    ellipse = imm.build_immersion(imm.GridTorus((128,)), ambient.flat_chart(1),
                                  "ellipse", a=2.0, b=1.0).im
    for name, im in [("perturbed torus", perturbed_torus()),
                     ("straight wound torus", _straight_wound_torus()),
                     ("128-node ellipse", ellipse)]:
        for axis in range(im.n):
            yield (f"{name}, coordinate {axis}", im,
                   imm.coordinate_field(im.grid, axis, scale=1.5), axis)
            yield f"{name}, cosine_axis {axis}", im, cosine_axis_field(im.grid, axis), axis


@pytest.mark.parametrize("case", list(_step_operator_cases()), ids=lambda c: c[0])
def test_step_operator_matches_full_spectrum_reference(case, monkeypatch):
    _, im, X, axis = case
    built = []
    make = gf._axis_step

    def recording(*args):
        built.append(args[3])
        return make(*args)

    monkeypatch.setattr(gf, "_axis_step", recording)
    flow = gf.flow_timestep(im, X, 0.05, 2.5e-3)
    times, ref = flow_timestep_full_spectrum(im, X, 0.05, 2.5e-3)
    # one step operator per call, along the field's own axis
    assert built == [axis]
    assert flow.times == times
    gap = max(float(np.max(np.abs(a.points - b))) for a, b in zip(flow.immersions, ref))
    assert gap <= 1e-13
    assert np.max(np.abs(flow.immersions[-1].points - im.points)) >= 1e-3


@pytest.mark.parametrize("field", ["two live axes", "a second component of 1e-15",
                                   "f varying across the other axis by 1e-15"])
def test_other_fields_step_by_stages(field, monkeypatch):
    im = perturbed_torus()
    comp = cosine_axis_field(im.grid, 0).components
    # the last two fit the tolerances of _axis_profile, but they are not
    # exactly f(theta_0) d/dtheta_0
    if field == "two live axes":
        comp = comp + cosine_axis_field(im.grid, 1, base=0.5, amplitude=0.2).components
    elif field == "a second component of 1e-15":
        comp[1, 3, 5] = 1e-15
    else:
        comp[0, 3, 5] += 1e-15
    X = imm.VectorFieldOnL(grid=im.grid, components=comp)
    monkeypatch.setattr(gf, "_axis_step", None)     # not built
    flow = gf.flow_timestep(im, X, 0.05, 2.5e-3)
    times, ref = flow_timestep_full_spectrum(im, X, 0.05, 2.5e-3)
    assert flow.times == times
    assert max(float(np.max(np.abs(a.points - b)))
               for a, b in zip(flow.immersions, ref)) <= 1e-13


def _ellipse_256():
    return imm.build_immersion(imm.GridTorus((256,)), ambient.flat_chart(1),
                               "ellipse", a=2.0, b=1.0).im


def _uniform_field_cases():
    ellipse = _ellipse_256()
    for scale in (1.5, -1.5):
        yield (f"256-node ellipse, scale {scale}", ellipse,
               imm.coordinate_field(ellipse.grid, 0, scale=scale))
    for name, im in [("flat (256, 16) torus", perturbed_torus((256, 16))),
                     ("wound (256, 16) torus", wound_torus((256, 16)))]:
        for axis in range(2):
            yield f"{name}, coordinate {axis}", im, imm.coordinate_field(im.grid, axis)
    # a winding along both axes adds both columns at DC
    im = wound_torus((256, 16))
    comp = np.stack([np.full(im.grid.sizes, 0.8), np.full(im.grid.sizes, -0.5)])
    yield "wound (256, 16) torus, two axes", im, imm.VectorFieldOnL(grid=im.grid, components=comp)


@pytest.mark.parametrize("case", list(_uniform_field_cases()), ids=lambda c: c[0])
def test_uniform_field_steps_on_the_half_spectrum(case, monkeypatch):
    _, im, X = case
    built = []
    make = gf._fourier_step

    def recording(*args):
        built.append(args[3])
        return make(*args)

    def derivative(*args, **kwargs):
        raise AssertionError("the per-mode step differentiates nothing")

    monkeypatch.setattr(gf, "_fourier_step", recording)
    monkeypatch.setattr(gf._spectral, "spectral_derivative", derivative)
    times, states = gf._rk4_states(im, X, 0.05, 2.5e-3)
    stepped = [pts for pts, _ in states]
    monkeypatch.undo()
    # one step operator per call, with every live axis and its number
    assert built == [[(k, float(X.components[k].flat[0]))
                      for k in range(im.n) if np.any(X.components[k] != 0.0)]]
    ref_times, ref = flow_timestep_full_spectrum(im, X, 0.05, 2.5e-3)
    assert times == ref_times
    gap = max(float(np.max(np.abs(np.moveaxis(a, 0, -1) - b))) for a, b in zip(stepped, ref))
    assert gap <= 1e-13
    assert np.max(np.abs(np.moveaxis(stepped[-1], 0, -1) - im.points)) >= 1e-3


def test_the_per_mode_step_filters_what_it_steps():
    # random points carry energy past the cutoffs on both axes: the step
    # keeps none of it, so stepping them is stepping their filtered part
    sizes = (256, 16)
    cutoffs = [int(gf.DEALIAS_FRACTION * (s // 2)) for s in sizes]
    J = ambient.flat_chart(2).J
    advance = gf._fourier_step(J, sizes, cutoffs, [(0, 0.8), (1, -0.5)], 2.5e-3, None)
    points = np.random.default_rng(3).normal(size=(4,) + sizes)
    filtered, _ = gf._dealias_by_fft(sizes, cutoffs, 4)(points)
    (got, got_frac), (want, want_frac) = advance(points), advance(filtered)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert abs(got_frac - want_frac) <= 1e-14


def test_a_uniform_field_with_a_bump_steps_by_stages(monkeypatch):
    im = _ellipse_256()
    X = imm.coordinate_field(im.grid, 0)
    # within the tolerances of _axis_profile's constant profile, but not
    # exactly uniform
    X.components[0, 7] += 1e-15
    monkeypatch.setattr(gf, "_fourier_step", None)     # not built
    flow = gf.flow_timestep(im, X, 0.05, 2.5e-3)
    times, ref = flow_timestep_full_spectrum(im, X, 0.05, 2.5e-3)
    assert flow.times == times
    assert max(float(np.max(np.abs(a.points - b)))
               for a, b in zip(flow.immersions, ref)) <= 1e-13


@pytest.mark.parametrize("c", [1.5, -1.5])
def test_uniform_field_frames_are_the_rk4_polynomial_on_each_mode(c):
    # 2 cos + i sin = 1.5 e^{i theta} + 0.5 e^{-i theta}, and dz/dt = i c dz/dtheta
    # takes mode m to R(-m c h) times itself in each RK4 step of size h
    im = _ellipse_256()
    h = 2.5e-3
    flow = gf.flow_timestep(im, imm.coordinate_field(im.grid, 0, scale=c), 20 * h, h)
    assert len(flow.immersions) == 21

    def R(z):
        return 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0

    theta = im.grid.thetas(0)
    gap = max(float(np.max(np.abs(
        frame.points[:, 0] + 1j * frame.points[:, 1]
        - (1.5 * R(-c * h) ** k * np.exp(1j * theta) + 0.5 * R(c * h) ** k * np.exp(-1j * theta)))))
        for k, frame in enumerate(flow.immersions))
    assert gap <= 2e-13


def test_commutator_clean_flows(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, list(np.linspace(0.0, 0.1, 11)))
    assert commutator_check(flow, X) < 1e-6

    grid = imm.GridTorus((32, 32))
    pt = imm.build_immersion(grid, ambient.flat_chart(2), "product_torus",
                             r1=1.0, r2=2.0).im
    Xt = imm.coordinate_field(grid, 0)
    flow_t = gf.flow_spectral(pt, Xt, list(np.linspace(0.0, 0.1, 11)))
    assert commutator_check(flow_t, Xt) < 1e-6


def test_commutator_detects_corruption(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, list(np.linspace(0.0, 0.1, 11)))
    theta = circle.grid.thetas(0)
    bad = flow.immersions[5].points.copy()
    bad[:, 0] += 1e-3 * np.cos(theta)
    flow.immersions[5] = imm.Immersion(grid=circle.grid,
                                       chart=circle.chart, points=bad)
    assert commutator_check(flow, X) > 1e-4


def test_bvp_concentric_circles():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.5}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    assert res.converged
    assert abs(res.modulus - 0.5) <= 1e-10
    assert abs(res.curve.coefficient(1) - 1.0) <= 1e-10
    others = np.abs(np.delete(res.curve.coeffs, res.curve.N + 1))
    assert np.max(others) <= 1e-10


def test_bvp_joukowski_pair():
    c_out, c_in = 1.5, 1.1
    gamma0 = cl.curve_from_terms({1: c_out / 2, -1: 1 / (2 * c_out)}, N=32)
    gamma1 = cl.curve_from_terms({1: c_in / 2, -1: 1 / (2 * c_in)}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    assert res.converged
    assert abs(res.modulus - c_in / c_out) <= 1e-6
    assert res.outer_misfit <= 1e-8 and res.inner_misfit <= 1e-8
    assert abs(res.curve.coefficient(1) - 0.75) <= 1e-6
    assert abs(res.curve.coefficient(-1) - 1.0 / 3.0) <= 1e-6


def test_bvp_residual_monotone():
    gamma0 = cl.curve_from_terms({1: 1.0, 2: 0.05}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.45, -2: 0.02}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=12)
    hist = res.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-15 for i in range(len(hist) - 1))
    assert res.converged


def test_bvp_intermediate_curves_available():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.5}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    mid = cl.geodesic_evaluate(res.curve, 0.7)
    assert np.max(np.abs(np.abs(mid) - 0.7)) <= 1e-9


def joukowski(c, N=32):
    return cl.curve_from_terms({1: c / 2, -1: 1 / (2 * c)}, N=N)


def dense_bvp_jacobian(prob, x):
    """Full Jacobian of the annulus residual, angle columns included."""
    rho, a, beta, delta = prob.unpack(x)
    N, M, n_idx = prob.N, prob.M, prob.n_idx
    na = 2 * N + 1
    zo = np.exp(1j * prob.alphas)
    basis_out = zo[:, None] ** n_idx
    basis_in = (rho * zo)[:, None] ** n_idx
    dgin_drho = (basis_in * (n_idx / rho)) @ a
    db_out = -cl.evaluate_derivative(prob.gamma0, beta)
    db_in = -cl.evaluate_derivative(prob.gamma1, delta)
    J = np.zeros((4 * M + 1, 1 + 2 * na + 2 * M))
    J[2 * M:3 * M, 0] = dgin_drho.real
    J[3 * M:4 * M, 0] = dgin_drho.imag
    for rows, basis in ((slice(0, M), basis_out), (slice(2 * M, 3 * M), basis_in)):
        im_rows = slice(rows.start + M, rows.stop + M)
        J[rows, 1:1 + na] = basis.real
        J[im_rows, 1:1 + na] = basis.imag
        J[rows, 1 + na:1 + 2 * na] = -basis.imag
        J[im_rows, 1 + na:1 + 2 * na] = basis.real
    k = np.arange(M)
    J[k, 1 + 2 * na + k] = db_out.real
    J[M + k, 1 + 2 * na + k] = db_out.imag
    J[2 * M + k, 1 + 2 * na + M + k] = db_in.real
    J[3 * M + k, 1 + 2 * na + M + k] = db_in.imag
    J[4 * M, 1 + na + N + 1] = 1.0
    return J


@pytest.mark.parametrize("c_out,c_in,N", [(1.5, 1.1, 8), (1.6, 1.25, 16),
                                         (1.6, 1.25, 32)])
def test_bvp_structured_step_matches_dense_lstsq(c_out, c_in, N):
    # the QR step against lstsq on the full Jacobian, at the initial guess
    # and the next two Gauss-Newton iterates: 1.9e-9 at the N = 32 initial
    # guess, at most 1e-11 after
    prob = gf._AnnulusProblem(joukowski(c_out), joukowski(c_in), N, 8 * N)
    x = prob.initial_guess()
    for _ in range(3):
        r, tangents = prob.residual(x)
        J = dense_bvp_jacobian(prob, x)
        assert np.linalg.matrix_rank(J) == J.shape[1]
        dense, *_ = np.linalg.lstsq(J, -r, rcond=None)
        step = prob.step(x, r, tangents)
        assert np.linalg.norm(step - dense) <= 1e-8 * np.linalg.norm(dense)
        x = x + step


def test_bvp_singular_step_is_named():
    # all Laurent coefficients zero: the d/drho column is exactly zero
    prob = gf._AnnulusProblem(joukowski(1.6), joukowski(1.25), 8, 64)
    x = prob.initial_guess()
    x[1:1 + 2 * (2 * 8 + 1)] = 0.0
    r, tangents = prob.residual(x)
    with pytest.raises(NotFinite, match="Gauss-Newton matrix is singular"):
        prob.step(x, r, tangents)


@pytest.mark.parametrize("c_in,N", [(1.25, 8), (1.25, 16), (1.25, 32),
                                    (1.25, 64), (1.03, 8), (1.05, 8),
                                    (1.08, 8), (1.05, 32), (1.05, 64),
                                    (1.08, 64), (1.25, 128), (1.01, 16)])
def test_bvp_joukowski_modulus_across_N(c_in, N):
    # one Laurent pair, so the modulus c_in / c_out is exact at every N; the
    # thin and high-N pairs stall with any step that truncates small
    # singular values
    c_out = 1.6
    res = gf.solve_bvp_annulus(joukowski(c_out), joukowski(c_in), N=N)
    assert res.converged
    assert res.iterations <= 10
    assert abs(res.modulus - c_in / c_out) <= 1e-8


def test_bvp_needs_positive_degree():
    with pytest.raises(ValidationError, match="N"):
        gf.solve_bvp_annulus(joukowski(1.6), joukowski(1.25), N=0)


def test_bvp_not_nested():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    with pytest.raises(NotNested):
        gf.solve_bvp_annulus(gamma0, cl.curve_from_terms({1: 2.0}, N=32), N=8)
    with pytest.raises(NotNested):
        gf.solve_bvp_annulus(gamma0,
                             cl.curve_from_terms({1: 1.0, 0: 0.9}, N=32), N=8)


def test_flow_frames_stay_totally_real(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_spectral(circle, X, [0.1, 0.5, 1.0])
    for f in flow.immersions:
        imm.is_totally_real(f)


@pytest.mark.parametrize("c", [0.7, -1.0 / 3.0])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("make", [perturbed_torus, wound_torus],
                         ids=["perturbed torus", "wound torus"])
def test_spectral_frames_solve_the_geodesic_equation(make, axis, c):
    # J iota_* X - d iota/dt by 4th-order time differences of five frames
    # around t = 0.05: 2.0e-14 to 2.0e-11 at h = 5e-3, and about 16x less
    # than at h = 1e-2 wherever that exceeds round-off. The fall is held up
    # to the stencil's round-off at h = 5e-3, 1.5 eps max|iota| / h, which
    # does not fall with h; the wound torus along axis 1 at c = -1/3 reaches
    # it (1.4e-13 at h = 1e-2, 2.0e-14 at h = 5e-3: a fall of 7x)
    im = make()
    X = imm.coordinate_field(im.grid, axis, c)
    defects = {}
    for h in (1e-2, 5e-3):
        flow = gf.flow_spectral(im, X, list(0.05 + h * np.arange(-2, 3)))
        defects[h] = max(float(np.max(np.abs(d))) for d in geodesic_defect(flow, X))
    roundoff = 1.5 * np.finfo(float).eps * float(np.max(np.abs(im.points))) / 5e-3
    assert defects[5e-3] <= 5e-11
    assert defects[5e-3] <= defects[1e-2] / 12.0 + roundoff


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("make", [perturbed_torus, wound_torus],
                         ids=["perturbed torus", "wound torus"])
def test_the_geodesic_defect_sees_a_wrong_speed(make, axis):
    # the frames of c = 0.7 checked against c (1 + 1e-6): the defect moves
    # by 1e-6 J iota_* X, 6.8e-7 to 8.7e-7 here, over 10^4 times the bound
    # that frames of the right speed meet (5e-11 at h = 5e-3)
    im = make()
    c, h = 0.7, 5e-3
    flow = gf.flow_spectral(im, imm.coordinate_field(im.grid, axis, c),
                            list(0.05 + h * np.arange(-2, 3)))
    wrong = imm.coordinate_field(im.grid, axis, c * (1 + 1e-6))
    defect = max(float(np.max(np.abs(d))) for d in geodesic_defect(flow, wrong))
    assert defect >= 1e4 * 5e-11


def test_bvp_map_derivative_nonvanishing():
    gamma0 = cl.curve_from_terms({1: 1.0}, N=32)
    gamma1 = cl.curve_from_terms({1: 0.5}, N=32)
    res = gf.solve_bvp_annulus(gamma0, gamma1, N=8)
    assert res.min_map_derivative > 0.5


@pytest.mark.parametrize("c_out,c_in,N", [(1.5, 1.1, 8), (1.6, 1.25, 32)])
def test_bvp_map_derivative_closed_form(c_out, c_in, N):
    # g(z) = (c_out z + 1 / (c_out z)) / 2 has min |g'| = (c_out / 2)(1 - 1 / c_in^2)
    # over rho <= |z| <= 1, at z = rho, a node of the sampled annulus;
    # measured 1.9e-13 and 4.9e-13 away
    res = gf.solve_bvp_annulus(joukowski(c_out), joukowski(c_in), N=N)
    exact = 0.5 * c_out * (1.0 - 1.0 / c_in ** 2)
    assert abs(res.min_map_derivative - exact) <= 1e-11


def test_commutator_on_timestep_flow(circle):
    X = imm.coordinate_field(circle.grid, 0)
    flow = gf.flow_timestep(circle, X, 0.05, 1e-3)
    assert commutator_check(flow, X) < 1e-5


def test_mode_growth_guard_skips_only_short_or_aliased_grids(circle, monkeypatch):
    # a 64-node circle is too short for the radius guard: it is skipped
    assert mode_growth_guard(circle, 0, 1.0, 0.1) >= 1.0

    def broken(*args, **kwargs):
        raise RuntimeError("broken analysis")

    monkeypatch.setattr(cl, "fourier_analyze", broken)
    with pytest.raises(RuntimeError, match="broken analysis"):
        mode_growth_guard(circle, 0, 1.0, 0.1)


# --- the spectral family in blocks -------------------------------------------------

def _product_torus_32():
    return imm.build_immersion(imm.GridTorus((32, 32)), ambient.flat_chart(2),
                               "product_torus", r1=1.0, r2=2.0).im


def test_flow_spectral_validates_once_per_block(monkeypatch):
    pt = _product_torus_32()
    checks = []
    check = gf._check_stack

    def counted(grid, chart, points, vs, winding):
        checks.append((points.shape, vs.shape))
        return check(grid, chart, points, vs, winding)

    monkeypatch.setattr(gf, "_check_stack", counted)
    ts = np.linspace(0.0, 0.1, 201)
    flow = gf.flow_spectral(pt, imm.coordinate_field(pt.grid, 0), ts)
    assert len(flow.immersions) == 201
    # 8192 nodes per block: 8 frames of 32 x 32, so ceil(201 / 8) checks
    assert len(checks) == math.ceil(201 / 8) == 26
    assert checks[0] == ((8, 4, 32, 32), (2, 4, 8, 32, 32))
    assert checks[-1] == ((1, 4, 32, 32), (2, 4, 1, 32, 32))


def _uniqueness_peak(im, X, t_final):
    """tracemalloc peak of uniqueness_compare, after a first call that warms
    the caches outside the trace and gives the gap the traced call repeats."""
    gap = gf.uniqueness_compare(im, X, t_final)
    tracemalloc.start()
    try:
        assert gf.uniqueness_compare(im, X, t_final) == gap
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_uniqueness_compare_holds_neither_family():
    pt = _product_torus_32()
    peak = _uniqueness_peak(pt, imm.coordinate_field(pt.grid, 0), 0.1)
    # 13.80 MB when the 201 spectral frames were all continued and held before
    # the comparison, 10.03 MB with the spectral family in blocks and the 201
    # stepped frames held, 3.43 MB with the stepper advancing beside the
    # blocks (numpy 2.4, Python 3.11); the bound leaves about 1 MB of headroom
    assert peak < 4.5e6


def test_uniqueness_compare_peak_does_not_grow_with_the_steps(monkeypatch):
    pt = _product_torus_32()
    X = imm.coordinate_field(pt.grid, 0)
    peaks = []
    for steps in (200, 400):
        monkeypatch.setattr(gf, "UNIQUENESS_STEPS", steps)
        peaks.append(_uniqueness_peak(pt, X, 0.1))
    # 6.6 MB more when every stepped frame (32 kB each) was held; about
    # 13 kB more now, the longer time schedule
    assert peaks[1] - peaks[0] < 0.5e6


# --- uniqueness along an axis profile -------------------------------------------

def _cosine_uniqueness_cases():
    """(name, im, X, t_final, bound): uniqueness_compare along a positive
    cosine_axis field; each bound is under 10x the gap measured."""
    # the ellipse bounds in the order (a, t) = (0.3, 0.05), (0.3, 0.1),
    # (0.6, 0.05), (0.6, 0.1); measured 6.0e-15, 1.2e-14, 1.2e-14, 3.8e-14
    # on 64 nodes and 7.4e-15, 3.5e-14, 8.6e-15, 1.0e-13 on 128
    for M, bounds in [(64, (5e-14, 1e-13, 1e-13, 3e-13)),
                      (128, (5e-14, 3e-13, 5e-14, 1e-12))]:
        ell = imm.build_immersion(imm.GridTorus((M,)), ambient.flat_chart(1),
                                  "ellipse", a=2.0, b=1.0).im
        for (a, t), bound in zip(itertools.product((0.3, 0.6), (0.05, 0.1)), bounds):
            yield (f"{M}-node ellipse, a = {a}, t = {t}", ell,
                   cosine_axis_field(ell.grid, 0, amplitude=a), t, bound)
    disk = _disk_circle()
    # measured 1.4e-15
    yield "disk circle", disk, cosine_axis_field(disk.grid, 0), 0.1, 1e-14
    # the bounds on axes 0 and 1; measured 3.1e-12 and 6.2e-12 on the flat
    # torus, 3.1e-12 and 4.8e-11 on the perturbed one, 9.6e-12 and 2.1e-13
    # on the wound one (its winding shifted by the map-back too), 9.3e-13
    # and 8.5e-12 on the ball torus
    for name, im, bounds in [("flat torus", _product_torus_32(), (3e-11, 5e-11)),
                             ("perturbed torus", perturbed_torus(), (3e-11, 4e-10)),
                             ("wound torus", wound_torus(), (9e-11, 2e-12)),
                             ("ball torus", _ball_torus(), (9e-12, 8e-11))]:
        for axis, bound in enumerate(bounds):
            yield f"{name}, axis {axis}", im, cosine_axis_field(im.grid, axis), 0.1, bound


@pytest.mark.parametrize("case", list(_cosine_uniqueness_cases()), ids=lambda c: c[0])
def test_uniqueness_along_a_positive_axis_profile(case):
    # the stepper runs on the theta grid, the continuation on the grid of
    # constant speed, mapped back before the comparison
    _, im, X, t_final, bound = case
    assert gf.uniqueness_compare(im, X, t_final) <= bound


@pytest.mark.parametrize("a", [0.3, 0.6])
@pytest.mark.parametrize("M", [64, 512])
def test_map_back_angles_are_the_closed_form(M, a):
    # psi = k s(theta) with s = int_0^theta dtheta / (1 + a cos theta)
    # = (2/k) atan(sqrt((1 - a)/(1 + a)) tan(theta/2)), k = sqrt(1 - a^2),
    # on the branch continuous over [0, 2 pi) (measured 1.8e-15)
    nodes = imm.GridTorus((M,)).thetas(0)
    _, psi, _ = gf._constant_speed(1.0 + a * np.cos(nodes))
    half = nodes / 2.0
    closed = 2.0 * np.arctan2(math.sqrt((1.0 - a) / (1.0 + a)) * np.sin(half), np.cos(half))
    assert np.max(np.abs(psi - closed)) <= 1e-14


# --- the constant-speed axis -------------------------------------------------------

@pytest.mark.parametrize("f0", [1.0, 2.0])
def test_constant_speed_of_a_constant_field(f0):
    # R = 1/f0, and theta(psi_j) = f0 R psi_j are the nodes again
    nodes = imm.GridTorus((256,)).thetas(0)
    theta, psi, c = gf._constant_speed(np.full(256, f0))
    assert abs(1.0 / c - 1.0 / f0) < 1e-12
    assert np.allclose(theta, nodes, atol=1e-10)
    assert np.allclose(psi, nodes, atol=1e-10)


@pytest.mark.parametrize("M", [32, 256])
@pytest.mark.parametrize("a", [0.3, 0.5])
def test_constant_speed_matches_closed_form(a, M):
    # theta' = 1 + a cos theta from theta(0) = 0 has the closed form
    # theta(s) = 2 atan(sqrt((1 + a)/(1 - a)) tan(sqrt(1 - a^2) s / 2)),
    # with period 2 pi R, R = 1/sqrt(1 - a^2)
    theta, _, c = gf._constant_speed(1.0 + a * np.cos(imm.GridTorus((M,)).thetas(0)))
    s = 2.0 * math.pi * np.arange(M) / M / c
    half = np.sqrt(1.0 - a * a) * s / 2.0
    exact = np.unwrap(2.0 * np.arctan(math.sqrt((1.0 + a) / (1.0 - a)) * np.tan(half)))
    assert abs(1.0 / c - 1.0 / math.sqrt(1.0 - a * a)) < 1e-13
    assert np.max(np.abs(theta - exact)) < 1e-13


def _dips_between_nodes():
    """On 64 nodes: 0.05 everywhere but 1.0 at node 0. Positive at every
    node, its interpolant rings below zero between them."""
    f = np.full(64, 0.05)
    f[0] = 1.0
    return f


def _touches_zero_at_a_node():
    """1 - cos theta on 32 nodes: 0 at node 0, yet its interpolant stays
    above zero (1.1e-16 at least) on the 4096 probe angles."""
    return 1.0 - np.cos(imm.GridTorus((32,)).thetas(0))


@pytest.mark.parametrize("profile", [_dips_between_nodes, _touches_zero_at_a_node])
@pytest.mark.parametrize("entry", ["flow_spectral", "uniqueness_compare"])
def test_a_profile_not_positive_everywhere_is_unsupported(entry, profile):
    f = profile()
    assert np.min(f) >= 0.0
    im = imm.build_immersion(imm.GridTorus((f.size,)), ambient.flat_chart(1), "circle",
                             r=1.0).im
    X = imm.VectorFieldOnL(grid=im.grid, components=f[None])
    with pytest.raises(UnsupportedField, match="needs f > 0 everywhere"):
        if entry == "flow_spectral":
            gf.flow_spectral(im, X, [0.01])
        else:
            gf.uniqueness_compare(im, X, 0.01)


# --- which error uniqueness_compare raises ----------------------------------------
# The errors come in the order the work runs: the stepper's up-front checks,
# then the spectral guards, then the first block or step that fails, a block
# being checked before the steps to its times are taken.

def _poison_block(monkeypatch, which, index=(0, 0, 3)):
    """Make the point at `index` of block `which` of every spectral family NaN."""
    blocks = gf._continued_blocks

    def poisoned(im, spectrum, axis, c, ts):
        for k, (pts, vs) in enumerate(blocks(im, spectrum, axis, c, ts)):
            if k == which:
                pts[index] = np.nan
            yield pts, vs

    monkeypatch.setattr(gf, "_continued_blocks", poisoned)


def _nan_from_step(monkeypatch, step):
    """Make the step operator's step number `step` (from 1) give a NaN state."""
    make = gf._axis_step
    calls = []

    def poisoned(*args):
        advance = make(*args)

        def failing(points):
            calls.append(None)
            out, frac = advance(points)
            if len(calls) == step:
                out[0, 0] = np.nan
            return out, frac
        return failing

    monkeypatch.setattr(gf, "_axis_step", poisoned)
    return calls


def _sign_changing_circle():
    """The flat 64-node circle and (0.2 + 0.5 cos theta) d/dtheta: the stepper
    runs on that field, and _spectral_family raises UnsupportedField for it."""
    im = imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1), "circle",
                             r=1.0).im
    return im, cosine_axis_field(im.grid, 0, base=0.2, amplitude=0.5)


def _raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return err.value


@pytest.mark.parametrize("spectral_side", ["general field", "poisoned block"])
def test_the_step_bound_comes_before_a_spectral_failure(monkeypatch, spectral_side):
    if spectral_side == "general field":
        im, X = _sign_changing_circle()   # _spectral_family raises UnsupportedField
    else:
        im = _product_torus_32()
        X = imm.coordinate_field(im.grid, 0)
        _poison_block(monkeypatch, 0)
    # dt = t_final / 200: 10 * 21 * 0.7 / 200 and 20 * 10 / 200 pass 0.5
    t_final = 10.0 if im.n == 1 else 20.0
    want = _raised(gf.flow_timestep, im, X, t_final, t_final / gf.UNIQUENESS_STEPS)
    assert isinstance(want, StepTooLarge)
    got = _raised(gf.uniqueness_compare, im, X, t_final)
    assert type(got) is type(want) and str(got) == str(want)


def test_a_spectral_guard_fails_before_any_state_is_stepped(monkeypatch):
    im, X = _sign_changing_circle()
    stepped = []
    rk4_states = gf._rk4_states

    def counted(*args):
        times, states = rk4_states(*args)

        def counting():
            for state in states:
                stepped.append(None)
                yield state
        return times, counting()

    monkeypatch.setattr(gf, "_rk4_states", counted)
    with pytest.raises(UnsupportedField, match="needs f > 0 everywhere"):
        gf.uniqueness_compare(im, X, 0.1)
    assert stepped == []


def test_a_failing_block_comes_before_the_steps_to_its_times(monkeypatch):
    # block 0 holds frames 0..7; the stepper would blow up at step 20
    pt = _product_torus_32()
    X = imm.coordinate_field(pt.grid, 0)
    calls = _nan_from_step(monkeypatch, 20)
    blow_up = _raised(gf.flow_timestep, pt, X, 0.1, 0.1 / gf.UNIQUENESS_STEPS)
    assert isinstance(blow_up, BlowUpDetected)
    calls.clear()
    _poison_block(monkeypatch, 0)
    got = _raised(gf.uniqueness_compare, pt, X, 0.1)
    assert type(got) is NotFinite and str(got) == _not_finite(
        [k * 0.1 / gf.UNIQUENESS_STEPS for k in range(8)], 0, 7)
    # not one step is taken: the first state is the initial one
    assert calls == []


@pytest.mark.parametrize("spectral_side", ["general field", "poisoned block"])
def test_a_spectral_failure_is_raised_when_stepping_passes(monkeypatch, spectral_side):
    if spectral_side == "general field":
        im, X = _sign_changing_circle()
        want = _raised(gf.flow_spectral, im, X, [0.1])
        assert isinstance(want, UnsupportedField)
    else:
        im = _product_torus_32()
        X = imm.coordinate_field(im.grid, 0)
        # block 2 holds frames 16..23 of the stepper's schedule t = k * 0.1 / 200
        _poison_block(monkeypatch, 2)
        want = NotFinite("the spectral continuation is not finite in the block "
                         "of t = 0.008 to 0.0115")
    got = _raised(gf.uniqueness_compare, im, X, 0.1)
    assert type(got) is type(want) and str(got) == str(want)


def _block_cases():
    yield "perturbed torus", perturbed_torus(), (0, 1)
    yield "wound torus", wound_torus(), (0, 1)
    yield "ellipse", imm.build_immersion(imm.GridTorus((64,)), ambient.flat_chart(1),
                                         "ellipse", a=2.0, b=1.0).im, (0,)


@pytest.mark.parametrize("case", list(_block_cases()), ids=lambda c: c[0])
def test_block_vectors_are_the_coordinate_vectors_of_its_points(case):
    _, im, axes = case
    ts = list(np.linspace(-0.05, 0.1, 13))
    for axis in axes:
        spectrum = gf._present_spectrum(im)
        # every frame at once, by one ifftn over the grid axes
        plain = continued_points(im, spectrum, axis, 0.7, ts)
        first = 0
        # the vectors live in one array per family, overwritten by the next
        # block: each block is checked before the next is requested
        for pts, vs in gf._continued_blocks(im, spectrum, axis, 0.7, ts):
            ref = plain[first:first + len(pts)]
            first += len(pts)
            # the same points up to round-off, from one transform along the axis
            assert pts.shape == ref.shape
            assert np.max(np.abs(pts - ref)) <= 1e-15 * np.max(np.abs(ref))
            want = imm._coordinate_vectors(
                im.grid, np.ascontiguousarray(np.moveaxis(pts, 1, 0)), im.winding)
            assert vs.shape == want.shape
            assert np.max(np.abs(vs - want)) <= 2e-14 * np.max(np.abs(want))
        assert first == len(ts)


def _not_finite(ts, first, last):
    return (f"the spectral continuation is not finite in the block of "
            f"t = {ts[first]:.6g} to {ts[last]:.6g}")


@pytest.mark.parametrize("entry", ["flow_spectral", "flow_spectral axis profile",
                                   "uniqueness_compare", "uniqueness_compare axis profile"])
def test_a_nan_point_in_a_block_raises_not_finite_naming_its_times(circle, monkeypatch,
                                                                    entry):
    # the stack check validates the vectors, not the points: only the
    # finiteness check of the block sees a NaN point, on the continued grid
    # before the map-back of an axis profile
    _poison_block(monkeypatch, 1, index=(2, 0, 5))
    X = imm.coordinate_field(circle.grid, 0)
    if entry.endswith("axis profile"):
        X = cosine_axis_field(circle.grid, 0)
    if entry.startswith("uniqueness_compare"):
        # the stepper's schedule of 201 frames: block 1 holds frames 128..200
        dt = 0.1 / gf.UNIQUENESS_STEPS
        ts, last = [k * dt for k in range(gf.UNIQUENESS_STEPS + 1)], 200
        with pytest.raises(NotFinite) as err:
            gf.uniqueness_compare(circle, X, 0.1)
    else:
        # 128 frames of 64 nodes per block: block 1 holds frames 128..255
        ts, last = list(np.linspace(0.0, 0.2, 300)), 255
        with pytest.raises(NotFinite) as err:
            gf.flow_spectral(circle, X, ts)
    assert str(err.value) == _not_finite(ts, 128, last)

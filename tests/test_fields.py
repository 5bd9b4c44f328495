import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ymalpha import energy, fields, quat, sphere
from ymalpha.sphere import Lattice4D, RadialGrid

rng = np.random.default_rng(11)


def _curvature_fd(model, zeta, h):
    """Curvature from centred differences of the potential."""
    return fields.curvature_from(model.potential(zeta),
                                 sphere.partials(model.potential, zeta, h))


def test_adhm_curvature_matches_fd():
    for m in (fields.basic_connection(),
              fields.Adhm(np.array([0.3, -0.1, 0.2, 0.0]), 1.4)):
        pts = rng.normal(scale=0.8, size=(25, 4))
        F = m.curvature(pts)
        Ffd = _curvature_fd(m, pts, h=1e-4)
        assert np.allclose(F, Ffd, atol=1e-6)


def test_radial_profile_reproduces_instanton():
    # g = 1 samples give f = 1/(1+s): the basic instanton
    grid = RadialGrid(64)
    prof = fields.RadialProfile(grid.theta, np.ones(grid.n))
    basic = fields.basic_connection()
    pts = rng.normal(scale=1.2, size=(30, 4))
    assert np.allclose(prof.potential(pts), basic.potential(pts), atol=1e-9)
    assert np.allclose(prof.curvature(pts), basic.curvature(pts), atol=1e-7)


def test_radial_profile_curvature_closed_form():
    prof = fields.random_radial_profile(rng)
    pts = rng.normal(scale=0.9, size=(20, 4))
    assert np.allclose(prof.curvature(pts),
                       _curvature_fd(prof, pts, h=1e-4), atol=1e-5)


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        fields.RadialProfile(np.linspace(0.1, 3, 8), np.ones(7))
    with pytest.raises(ValueError):
        fields.RadialProfile(np.linspace(0.1, 3, 8),
                             np.concatenate([np.ones(7), [np.nan]]))


def test_gauge_transform_curvature_conjugates():
    m = fields.basic_connection()
    g = fields.AnalyticGauge(fields.random_bump_sigma(rng))
    gm = fields.gauge_act(g, m)
    pts = rng.normal(scale=0.7, size=(15, 4))
    F = m.curvature(pts)
    Fg = gm.curvature(pts)
    s = g.value(pts)[:, None, None, :]
    assert np.allclose(Fg, quat.conjugate_im(s, F), atol=1e-7)
    # gauge transforms preserve the pointwise curvature norm
    assert np.allclose(sphere.f_norm2_coord(Fg), sphere.f_norm2_coord(F),
                       atol=1e-7)


def test_pullback_dilation_curvature_norm():
    # pullback by a dilation divides the basic |F|^2_g = 3 profile by the
    # conformal factor chi (so chi |F|^2_g is dilation-invariant)
    lam = 1.8
    m = fields.pullback(sphere.dilation(lam), fields.basic_connection())
    pts = rng.normal(size=(20, 4))
    f2g = sphere.f_norm2_coord(m.curvature(pts)) * sphere.two_form_weight(pts)
    assert np.allclose(f2g, 3.0 / sphere.chi_lambda(pts, lam), rtol=1e-8)


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(amp=arrays(float, 3, elements=_unit),
       centre=arrays(float, 4, elements=_unit),
       width=st.floats(0.2, 2.0), seed=st.integers(0, 2 ** 32 - 1),
       pts=arrays(float, (8, 4), elements=st.floats(-3.0, 3.0)))
def test_curvature_norm_gauge_invariant(amp, centre, width, seed, pts):
    def sigma(zeta):
        d2 = quat.qnorm2(np.asarray(zeta, float) - centre)
        return np.exp(-d2 / width)[..., None] * amp
    base = fields.random_connection(np.random.default_rng(seed))
    gm = fields.gauge_act(fields.AnalyticGauge(sigma), base)
    assert np.allclose(energy.f_norm2_g(gm, pts), energy.f_norm2_g(base, pts),
                       rtol=1e-12, atol=0.0)


def test_constant_gauge_trivial_on_flat():
    flat = fields.FlatConnection()
    g = fields.ConstantGauge(quat.exp_im(np.array([0.3, -0.2, 0.5])))
    gm = fields.gauge_act(g, flat)
    pts = rng.normal(size=(10, 4))
    assert np.allclose(gm.potential(pts), 0.0, atol=1e-12)


def test_lattice_field_node_lookup():
    lat = Lattice4D(2.0, 7)
    lf = fields.LatticeField(lat, fields.basic_connection().potential(
        lat.points).reshape(lat.shape + (4, 3)))
    # node lookup is exact
    assert np.allclose(lf.potential(lat.points[123]),
                       fields.basic_connection().potential(lat.points[123]))
    with pytest.raises(ValueError):
        lf.potential(np.array([5.0, 0, 0, 0]))


def test_lattice_field_shape_validation():
    lat = Lattice4D(2.0, 5)
    with pytest.raises(ValueError):
        fields.LatticeField(lat, np.zeros((3, 4, 3)))
    with pytest.raises(ValueError, match="grid-shaped"):
        fields.LatticeField(lat, np.zeros((lat.points.shape[0], 4, 3)))


def test_random_connection_is_radial():
    for k in range(8):
        c = fields.random_connection(np.random.default_rng(k))
        assert c.is_radial
        # radial means |F|^2_g depends only on |zeta|
        r = 1.3
        z1 = np.array([r, 0, 0, 0.0])
        z2 = np.array([0, 0, r, 0.0])
        f1 = sphere.f_norm2_coord(c.curvature(z1)) * sphere.two_form_weight(z1)
        f2 = sphere.f_norm2_coord(c.curvature(z2)) * sphere.two_form_weight(z2)
        assert np.isclose(f1, f2, rtol=1e-6)


@settings(max_examples=25, deadline=None)
@given(shape=array_shapes(min_dims=0, max_dims=4, max_side=15),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.booleans())
def test_v_field_is_four_product_form(shape, seed, zeros):
    """v_j = Im[conj(zeta) e_j] by four quaternion products, exactly."""
    zeta = np.random.default_rng(seed).normal(scale=3.0, size=shape + (4,))
    if zeros:
        zeta[zeta < 0.0] = 0.0
    want = np.stack([quat.im_part(quat.qmul(quat.qconj(zeta), quat.E_BASIS[j]))
                     for j in range(4)], axis=-2)
    assert np.array_equal(fields.v_field(zeta), want)


def test_v_field_shape():
    pts = rng.normal(size=(6, 4))
    v = fields.v_field(pts)
    assert v.shape == (6, 4, 3)

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ymalpha import energy, fields, sphere
from ymalpha.energy import BASIC_YM_ALPHA
from ymalpha.sphere import Lattice4D, RadialGrid

rng = np.random.default_rng(3)


def _wedge_density_coord(F):
    """-1/2 sum_{ijkl} eps_{ijkl} <F_ij, F_kl>, without the Hodge split."""
    def d(a, b):
        return np.sum(a * b, axis=-1)
    return -4.0 * (d(F[..., 0, 1, :], F[..., 2, 3, :])
                   - d(F[..., 0, 2, :], F[..., 1, 3, :])
                   + d(F[..., 0, 3, :], F[..., 1, 2, :]))


def test_basic_energy_closed_form():
    for alpha in (1.0, 1.3, 1.5, 2.0):
        rep = energy.ym_alpha(fields.basic_connection(), alpha)
        assert rep.value == pytest.approx(BASIC_YM_ALPHA(alpha), rel=1e-10)
        assert rep.residual < 1e-8


def _kind(c):
    if isinstance(c, fields.Pulledback):
        return "dilated" if c.cmap.lam != 1.0 else "rotated"
    return {fields.RadialProfile: "plain",
            fields.GaugeTransformed: "gauge"}[type(c)]


def test_alpha_one_relation():
    # at alpha = 1 the energy is (1/2) int (3 + |F|^2_g) = (3/2) vol + YM;
    # ym_alpha takes the round measure, ym_energy the flat one; the seeds
    # give one random_connection of each kind
    kinds = []
    for seed in (3, 2, 0, 4):
        c = fields.random_connection(np.random.default_rng(seed))
        kinds.append(_kind(c))
        e1 = energy.ym_alpha(c, 1.0).value
        ym = energy.ym_energy(c).value
        assert e1 == pytest.approx(1.5 * sphere.VOL_S4 + ym, rel=1e-10)
    assert kinds == ["plain", "gauge", "dilated", "rotated"]


def test_instanton_energy_translation_scale_invariant():
    base = energy.ym_energy(fields.basic_connection()).value
    assert base == pytest.approx(4 * np.pi ** 2, rel=1e-10)
    for _ in range(4):
        m = fields.Adhm(rng.normal(size=4), float(rng.uniform(0.4, 2.5)))
        assert energy.ym_energy(m).value == pytest.approx(base, rel=1e-9)


def test_pointwise_density_basic():
    pts = rng.normal(scale=2.0, size=(200, 4))
    assert np.allclose(energy.f_norm2_g(fields.basic_connection(), pts), 3.0,
                       atol=1e-12)


def test_twisted_energy_dilation_identity():
    # E_{alpha,lam}(dilation pullback) = E_alpha(original)
    b = fields.basic_connection()
    for alpha, lam in [(1.2, 1.5), (1.7, 3.0)]:
        pulled = fields.pullback(sphere.dilation(lam), b)
        tw = energy.ym_alpha_lambda(pulled, alpha, lam).value
        assert tw == pytest.approx(energy.ym_alpha(b, alpha).value, rel=1e-9)


def test_alpha_validation():
    with pytest.raises(ValueError):
        energy.ym_alpha(fields.basic_connection(), 0.5)
    with pytest.raises(ValueError):
        energy.ym_alpha_lambda(fields.basic_connection(), 1.5, -1.0)


def test_topological_charge_one():
    assert energy.topological_charge(fields.basic_connection()) \
        == pytest.approx(1.0, abs=1e-10)
    m = fields.Adhm(rng.normal(size=4), 1.3)
    assert energy.topological_charge(m) == pytest.approx(1.0, abs=1e-8)
    prof = fields.random_radial_profile(rng)
    assert energy.topological_charge(prof) == pytest.approx(1.0, abs=1e-6)


def test_charge_density_routes_agree():
    # hodge-split density and the wedge density integrate to the same charge
    m = fields.Adhm(None, 1.4)
    q1 = energy.topological_charge(m)
    g = RadialGrid(192)
    F = m.curvature(g.axis_points(scale=m.lam))
    q2 = m.lam ** 4 * g.integrate_flat(_wedge_density_coord(F)) \
        / (8.0 * np.pi ** 2)
    assert q1 == pytest.approx(q2, abs=1e-9)


def test_lp_norms():
    b = fields.basic_connection()
    # |F|_g^2 = 3 pointwise: ||F||_p = (3^{p/2} vol)^{1/p}
    for p in (2.0, 3.0):
        v = energy.lp_curvature_norm(b, p)
        assert v == pytest.approx((3 ** (p / 2) * sphere.VOL_S4) ** (1 / p),
                                  rel=1e-10)
    assert energy.lp_difference_norm(b, b, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_lp_difference_needs_radial_difference():
    b = fields.basic_connection()
    prof = fields.random_radial_profile(np.random.default_rng(5))
    # ansatz pairs and flat pairs keep a radially symmetric difference
    assert energy.lp_difference_norm(prof, b, 2.0) > 0.0
    assert energy.lp_difference_norm(fields.FlatConnection(), prof, 2.0) \
        == energy.lp_curvature_norm(prof, 2.0)
    # both radial, but |F1 - F2| differs from ray to ray (0.0369, 0.0422,
    # 0.0568, 0.0100 along the four coordinate rays): no radial route
    dec = fields.gauge_act(fields.AnalyticGauge(fields.random_bump_sigma(
        np.random.default_rng(3), amp=0.5)), b)
    assert dec.is_radial
    off = fields.Adhm(np.array([0.5, 0.0, 0.0, 0.0]))
    for pair in ((dec, b), (b, dec), (off, b)):
        with pytest.raises(ValueError, match="radial"):
            energy.lp_difference_norm(*pair, 2.0)


def test_report_json():
    rep = energy.ym_alpha_lambda(fields.basic_connection(), 1.5, 2.0)
    d = json.loads(rep.to_json())
    assert d["lambda"] == 2.0 and d["alpha"] == 1.5
    assert "value" in d and "residual" in d


def test_no_route_for_nonradial_analytic():
    # the alpha-energies have a quadrature route for radial models only;
    # the off-centre instanton keeps its recentred |F|^2 and charge routes,
    # an off-centre pullback and a lattice field have none
    b = fields.basic_connection()
    lat = Lattice4D(2.0, 5)
    lf = fields.LatticeField(
        lat, b.potential(lat.points).reshape(lat.shape + (4, 3)))
    off = fields.Adhm(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)
    for m in (fields.pullback(sphere.ConformalMap(
                  xi2=np.array([0.3, 0.0, -0.2, 0.0])), b), off, lf):
        assert not m.is_radial
        with pytest.raises(ValueError, match="no quadrature route"):
            energy.ym_alpha(m, 1.5)
        with pytest.raises(ValueError, match="no quadrature route"):
            energy.ym_alpha_lambda(m, 1.5, 2.0)
        if m is not off:
            with pytest.raises(ValueError, match="no quadrature route"):
                energy.ym_energy(m)
            with pytest.raises(ValueError, match="no quadrature route"):
                energy.topological_charge(m)


def test_ym_alpha_is_twisted_energy_at_lambda_one():
    radial = fields.random_connection(np.random.default_rng(1))
    for alpha in (1.0, 1.4):
        assert asdict(energy.ym_alpha(radial, alpha)) \
            == asdict(energy.ym_alpha_lambda(radial, alpha, 1.0))


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(1.0, 2.0), lam=st.floats(1.0, 10.0))
def test_ym_alpha_symmetric_under_inverse_dilation(alpha, lam):
    b = fields.basic_connection()
    up = energy.ym_alpha(fields.pullback(sphere.dilation(lam), b), alpha)
    down = energy.ym_alpha(fields.pullback(sphere.dilation(1.0 / lam), b),
                           alpha)
    assert up.value == pytest.approx(down.value, rel=1e-8)

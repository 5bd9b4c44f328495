import numpy as np
import pytest

from ymalpha import energy, fields, sphere, variational
from ymalpha.quat import bracket
from ymalpha.sphere import Lattice4D, RadialGrid, frame_scale, partials
from ymalpha.verify import _AnalyticRadial

rng = np.random.default_rng(5)


def _jacobi_weitzenboeck(model, xi_fn, zeta, h):
    """The Weitzenboeck rewrite of the Jacobi operator:
    lap Xi + D D* Xi - 3 Xi - 2 [F_kb, Xi_k]."""
    xi = xi_fn(zeta)
    fxi = variational._f_bracket(variational.frame_curvature(model, zeta), xi)

    def Tfn(q):
        return variational.cov_oneform(xi_fn, model, q, h)
    S = variational.cov_twotensor(Tfn, model, zeta, h)
    lap = np.einsum("...aabm->...bm", S)

    def div(q):
        return variational.dstar_oneform(xi_fn, model, q, h)
    dv, ddv = partials(div, zeta, h)
    dd = frame_scale(zeta)[..., None, None] * ddv
    dd += bracket(variational.frame_potential(model, zeta), dv[..., None, :])
    return lap + dd - 3.0 * xi - 2.0 * fxi


def _gram(basis):
    return np.array([[basis._ip(a, b) for b in basis.values]
                     for a in basis.values])


def _project(basis, xi_values):
    """Orthogonal projection onto span(basis); xi sampled on the lattice."""
    out = np.zeros_like(xi_values)
    for b in basis.values:
        out = out + basis._ip(xi_values, b) * b
    return out


def test_dstar_F_vanishes_at_instantons():
    pts = rng.normal(scale=0.8, size=(30, 4))
    # exact at the basic connection; stencil truncation only for lam != 1
    assert np.max(np.abs(variational.dstar_F(
        fields.basic_connection(), pts, h=2e-3))) < 1e-10
    assert np.max(np.abs(variational.dstar_F(
        fields.Adhm(None, 1.5), pts, h=2e-3))) < 1e-5


def test_dstar_F_nonzero_off_shell():
    pts = rng.normal(scale=0.8, size=(30, 4))
    m = _AnalyticRadial([(0.2, 0.0, 0.6)])
    assert np.max(np.abs(variational.dstar_F(m, pts, h=2e-3))) > 1e-2


def test_dstar_F_stencil_order():
    pts = rng.normal(scale=0.8, size=(30, 4))
    m = _AnalyticRadial([(0.2, 0.0, 0.6)])
    v4 = variational.dstar_F(m, pts, h=4e-3)
    v2 = variational.dstar_F(m, pts, h=2e-3)
    v1 = variational.dstar_F(m, pts, h=1e-3)
    order = np.log2(np.max(np.abs(v4 - v2)) / np.max(np.abs(v2 - v1)))
    assert order > 1.9


def test_exterior_d_of_closed_form():
    # the covariant exterior derivative of the potential-difference 1-form
    # between two instantons reproduces the curvature difference (Bianchi
    # consistency of the stencils): dF residual small
    pts = rng.normal(scale=0.7, size=(20, 4))
    m = fields.basic_connection()

    def pot_diff(q):
        w = sphere.frame_scale(q)[..., None, None]
        return w * (fields.Adhm(None, 1.2).potential(q) - m.potential(q))
    d = variational.exterior_d(pot_diff, m, pts, h=1e-3)
    assert d.shape == (20, 4, 4, 3)
    assert np.allclose(d + np.swapaxes(d, -3, -2), 0.0, atol=1e-9)


def test_gradient_vanishes_at_critical_point():
    pts = rng.normal(scale=0.8, size=(25, 4))
    for alpha, lam in [(1.3, 1.0), (1.7, 1.0)]:
        G = variational.gradient_ym_alpha_lambda(
            fields.basic_connection(), alpha, lam, pts, h=1e-3)
        assert np.max(np.abs(G)) < 1e-9


def test_gradient_matches_energy_fd():
    # analytic first variation against finite differences of the quadrature
    # energy, on a smooth radial profile
    prof = _AnalyticRadial([(0.15, 0.2, 0.6)])
    alpha, lam = 1.4, 1.5
    bump = (0.8, 0.3, 0.5)
    eps = 1e-4
    ep = energy.ym_alpha_lambda(prof.perturbed(eps, bump), alpha, lam).value
    em = energy.ym_alpha_lambda(prof.perturbed(-eps, bump), alpha, lam).value
    fd = (ep - em) / (2 * eps)
    qg = RadialGrid(192)
    pts = qg.axis_points()
    G = variational.gradient_ym_alpha_lambda(prof, alpha, lam, pts, h=5e-4)
    uval = bump[0] * np.exp(-((np.log(qg.s) - bump[1]) / bump[2]) ** 2)
    vhat = (sphere.frame_scale(pts) * uval / (1 + qg.s))[:, None, None] \
        * fields.v_field(pts)
    an = qg.integrate_round(2 * alpha * np.sum(G * vhat, axis=(-2, -1)))
    assert an == pytest.approx(fd, rel=1e-3)


def test_jacobi_annihilates_moduli():
    basis = variational.ModuliBasis(Lattice4D(3.0, 12))
    pts = rng.normal(scale=0.8, size=(40, 4))
    for k in range(5):
        fn = basis.member(k)
        res = variational.jacobi_apply(fields.basic_connection(), fn, pts, h=1e-3)
        assert np.max(np.abs(res)) / np.max(np.abs(fn(pts))) < 1e-2


def test_jacobi_forms_agree():
    # -D*D Xi - [F_kb, Xi_k] and its Weitzenboeck rewrite agree to O(h^2)
    basis = variational.ModuliBasis(Lattice4D(3.0, 12))
    pts = rng.normal(scale=0.6, size=(15, 4))
    fn = basis.member(0)
    r1 = variational.jacobi_apply(fields.basic_connection(), fn, pts, h=1e-3)
    r2 = _jacobi_weitzenboeck(fields.basic_connection(), fn, pts, h=1e-3)
    assert np.allclose(r1, r2, atol=1e-2)


def test_moduli_gram_nondegenerate():
    basis = variational.ModuliBasis(Lattice4D(3.0, 12))
    g = _gram(basis)
    assert g.shape == (5, 5)
    w = np.linalg.eigvalsh(g)
    assert np.all(w > 0)


def test_kernel_projection_idempotent():
    # projection onto the moduli span: idempotent and fixes the members
    basis = variational.ModuliBasis(Lattice4D(3.0, 12))
    vals = rng.normal(size=basis.values[0].shape)
    p1 = _project(basis, vals)
    p2 = _project(basis, p1)
    assert np.allclose(p1, p2, atol=1e-10)
    m = basis.values[2]
    assert np.allclose(_project(basis, m), m, atol=1e-10)


def test_polarization_residual_order():
    pts = rng.normal(scale=0.8, size=(25, 4))
    c1, c2 = fields.Adhm(None, 1.3), fields.basic_connection()
    rf1, rd1 = variational.polarization_residuals(c1, c2, pts, h=2e-3)
    rf2, rd2 = variational.polarization_residuals(c1, c2, pts, h=1e-3)
    assert rf1 / rf2 > 3.0 and rd1 / rd2 > 3.0


def test_basic_frame_curvature_constant():
    # the basic connection's curvature has constant frame components
    zeta = np.random.default_rng(11).normal(scale=2.0, size=(200, 4))
    F = variational.frame_curvature(fields.basic_connection(), zeta)
    np.testing.assert_allclose(F - variational.BASIC_FRAME_CURVATURE, 0.0,
                               atol=1e-15)


def test_commutator_bounds():
    A = rng.normal(size=(2000, 4, 3))
    B = rng.normal(size=(2000, 4, 4, 3))
    mA, mB = variational.commutator_bound_check(A, B)
    assert mA <= 0.0 and mB <= 0.0


def test_dstar_oneform_of_covariantly_constant():
    # divergence of the zero 1-form is zero
    pts = rng.normal(scale=0.7, size=(10, 4))
    out = variational.dstar_oneform(lambda q: np.zeros(q.shape[:-1] + (4, 3)),
                                    fields.basic_connection(), pts, h=1e-3)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_moduli_member_rejects_bad_index():
    basis = variational.ModuliBasis(Lattice4D(3.0, 5))
    for k in (-1, 5, 7, 1.0, "2", None):
        with pytest.raises(ValueError, match="int in 0..4"):
            basis.member(k)
    pts = rng.normal(scale=0.7, size=(6, 4))
    assert basis.member(np.int64(4))(pts).shape == (6, 4, 3)


# ---------------------------------------------------------------------------
# one covariant derivative for every rank, against the per-rank copies
# ---------------------------------------------------------------------------

def _cov_oneform_ref(fn, model, zeta, h=variational.FD_STEP, stencil=partials):
    """The rank-1 covariant derivative as it was written out on its own."""
    zeta = np.asarray(zeta, float)
    xi = fn(zeta)
    d = stencil(fn, zeta, h)[1]                     # (..., a, b, 3)
    w = frame_scale(zeta)[..., None, None, None]
    u = -zeta
    out = w * d
    # -Gamma^c_ab Xi_c = -(u_b Xi_a - delta_ab sum_c u_c Xi_c)
    out -= u[..., None, :, None] * xi[..., :, None, :]
    tr = np.einsum("...c,...cm->...m", u, xi)
    out += np.eye(4)[:, :, None] * tr[..., None, None, :]
    gam = variational.frame_potential(model, zeta)
    out += bracket(gam[..., :, None, :], xi[..., None, :, :])
    return out


def _cov_twotensor_ref(fn, model, zeta, h=variational.FD_STEP,
                       stencil=partials):
    """The rank-2 covariant derivative as it was written out on its own."""
    zeta = np.asarray(zeta, float)
    T = fn(zeta)
    d = stencil(fn, zeta, h)[1]                     # (..., a, b, c, 3)
    w = frame_scale(zeta)[..., None, None, None, None]
    u = -zeta
    out = w * d
    # -Gamma^d_ab T_dc = -(u_b T_ac - delta_ab sum_d u_d T_dc)
    out -= u[..., None, :, None, None] * T[..., :, None, :, :]
    tr1 = np.einsum("...d,...dcm->...cm", u, T)
    out += np.eye(4)[:, :, None, None] * tr1[..., None, None, :, :]
    # -Gamma^d_ac T_bd = -(u_c T_ba - delta_ac sum_d u_d T_bd)
    Tsw = np.swapaxes(T, -3, -2)
    out -= u[..., None, None, :, None] * Tsw[..., :, :, None, :]
    tr2 = np.einsum("...d,...bdm->...bm", u, T)
    out += np.eye(4)[:, None, :, None] * tr2[..., None, :, None, :]
    gam = variational.frame_potential(model, zeta)
    out += bracket(gam[..., :, None, None, :], T[..., None, :, :, :])
    return out


def _nabla_ref(model, zeta, T, dT):
    """variational._nabla through the per-rank copy of T's rank."""
    zeta = np.asarray(zeta, float)
    cov = {1: _cov_oneform_ref, 2: _cov_twotensor_ref}[T.ndim - zeta.ndim]
    return cov(lambda q: T, model, zeta, stencil=lambda fn, z, h: (T, dT))


_OFF = fields.Adhm(np.array([0.3, -0.2, 0.1, 0.05]), 1.3)
_MODULI = variational.ModuliBasis(Lattice4D(3.0, 5))
_GAUGED = fields.GaugeTransformed(
    fields.random_radial_profile(np.random.default_rng(2)),
    fields.AnalyticGauge(fields.random_bump_sigma(np.random.default_rng(3))))


def _d_member(q):
    return variational.exterior_d(_MODULI.member(3), _OFF, q)


_NABLA_CASES = {
    "cov_oneform": lambda z: variational.cov_oneform(
        _MODULI.member(2), _GAUGED, z),
    "cov_twotensor": lambda z: variational.cov_twotensor(_d_member, _GAUGED, z),
    "exterior_d": lambda z: variational.exterior_d(_MODULI.member(0), _OFF, z),
    "dstar_oneform": lambda z: variational.dstar_oneform(
        _MODULI.member(4), _GAUGED, z),
    "dstar_F": lambda z: variational.dstar_F(_GAUGED, z),
    "gradient_ym_alpha_lambda": lambda z: variational.gradient_ym_alpha_lambda(
        _OFF, 1.7, 0.5, z),
    "jacobi_apply": lambda z: variational.jacobi_apply(
        _OFF, _MODULI.member(1), z, h=2e-3),
    "polarization_residuals": lambda z: np.array(
        variational.polarization_residuals(_OFF, _GAUGED, z)),
}


@pytest.mark.parametrize("shape", [(4,), (24, 4), (2, 3, 4)])
@pytest.mark.parametrize("name", sorted(_NABLA_CASES))
def test_nabla_is_bitwise_the_per_rank_copies(name, shape, monkeypatch):
    case = _NABLA_CASES[name]
    pts = np.random.default_rng(29).normal(scale=0.7, size=shape)
    flat = pts.reshape(-1, 4)
    flat[0, 1] = -0.0
    flat[-1, 3] = 0.0
    got = case(pts)
    with monkeypatch.context() as m:
        m.setattr(variational, "cov_oneform", _cov_oneform_ref)
        m.setattr(variational, "cov_twotensor", _cov_twotensor_ref)
        m.setattr(variational, "_nabla", _nabla_ref)
        ref = case(pts)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))

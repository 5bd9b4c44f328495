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
    dd = frame_scale(zeta)[..., None, None] * partials(div, zeta, h)
    dd += bracket(variational.frame_potential(model, zeta),
                  div(zeta)[..., None, :])
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

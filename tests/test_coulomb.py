import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from ymalpha import coulomb, fields, flow, quat, sphere
from ymalpha.sphere import Lattice4D

rng = np.random.default_rng(17)
LAT = Lattice4D(3.0, 11)        # coarse but fast; n = 15 runs in acceptance


def _chart():
    return coulomb._chart(LAT)


def _windowed_sigma(seed, amp=0.15):
    r = np.sqrt(LAT.r2)
    win = np.cos(0.5 * np.pi * np.clip((r - 0.5 * LAT.R)
                                       / (0.27 * LAT.R), 0.0, 1.0)) ** 2
    sig = fields.random_bump_sigma(np.random.default_rng(seed), amp=amp)
    return (sig(LAT.points) * win[:, None]).reshape(LAT.shape + (3,))


def oracle_cov_grad(ch, sig):
    """(D sig)_a = d_a sig + [Gamma_a, sig]; sig extended by zero."""
    h = ch.lat.h
    out = np.empty(ch.lat.shape + (4, 3))
    for a in range(4):
        out[..., a, :] = sphere.central_diff(sig, a, h) \
            + quat.bracket(ch.gamma[..., a, :], sig)
    return out


def oracle_parts_laplace(ch, sig):
    """L sig from the three parts on lattice slices: the scalar CSR on
    (N, 3), the pointwise field, and per axis two brackets of the edge
    field Q_a with sig shifted one node along a."""
    stencil, m, edges = coulomb._laplace_parts(ch.phi2, ch.gamma, ch.lat.h)
    out = (coulomb._scalar_part(stencil) @ sig.reshape(-1, 3)).reshape(sig.shape)
    s0, s1, s2 = sig[..., 0], sig[..., 1], sig[..., 2]
    out[..., 0] += m[0] * s0 + m[3] * s1 + m[4] * s2
    out[..., 1] += m[3] * s0 + m[1] * s1 + m[5] * s2
    out[..., 2] += m[4] * s0 + m[5] * s1 + m[2] * s2
    for a, q in enumerate(edges):
        lo, hi = coulomb._axis_slice(a, 0, -1), coulomb._axis_slice(a, 1, None)
        out[lo] -= quat.bracket(q, sig[hi])
        out[hi] += quat.bracket(q, sig[lo])
    return out


def oracle_gauge_action(ch, sigma, pot):
    """gauge_action_lattice with the adjoint action on all four directions
    at once."""
    s = quat.exp_im(sigma)
    sc = quat.qconj(s)
    out = quat.conjugate_im(s[..., None, :], pot)
    for a in range(4):
        ds = sphere.central_diff(s - quat.ONE, a, ch.lat.h)
        out[..., a, :] += quat.im_part(quat.qmul(sc, ds))
    return out


def test_divergence_is_adjoint_of_gradient():
    ch = _chart()
    sig = rng.normal(size=LAT.shape + (3,))
    ups = rng.normal(size=LAT.shape + (4, 3))
    phi2 = ch.phi2
    lhs = np.sum(oracle_cov_grad(ch, sig) * (phi2[..., None, None] * ups))
    rhs = np.sum(sig * ch.divergence(ups))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("n", [7, 11])
def test_laplace_is_divergence_of_gradient(n):
    lat = Lattice4D(3.0, n)
    ch = coulomb._chart(lat)
    sig = rng.normal(size=lat.shape + (3,))
    want = ch.divergence(oracle_cov_grad(ch, sig))
    got = ch.laplace(sig)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _parts_chart(lat):
    """A chart of lat that applies L from its three parts, whatever its size."""
    ch = coulomb.BasicChart(lat)
    ch._matrix, ch._parts = None, coulomb._held_parts(
        *coulomb._laplace_parts(ch.phi2, ch.gamma, lat.h))
    return ch


def _boundary_zero_sigma(n):
    """Random sigma that is exactly zero on every boundary plane."""
    sig = np.zeros((n,) * 4 + (3,))
    sig[(slice(1, -1),) * 4] = rng.normal(size=(n - 2,) * 4 + (3,))
    return sig


@pytest.mark.parametrize("n, chart", [(11, coulomb._chart), (7, _parts_chart)])
def test_parts_laplace_is_bitwise_the_slice_oracle(n, chart):
    ch = chart(Lattice4D(3.0, n))
    assert ch._matrix is None
    sigmas = [scale * rng.normal(size=(n,) * 4 + (3,))
              for scale in (1e-6, 1.0, 1e3)] + [_boundary_zero_sigma(n)]
    for sig in sigmas:
        assert np.array_equal(ch.laplace(sig), oracle_parts_laplace(ch, sig))


@pytest.mark.parametrize("n", [7, 9])
def test_matrix_agrees_with_parts(n):
    lat = Lattice4D(3.0, n)
    ch, parts = coulomb.BasicChart(lat), _parts_chart(lat)
    for _ in range(3):
        sig = rng.normal(size=lat.shape + (3,))
        want = parts.laplace(sig)
        assert np.linalg.norm(ch.laplace(sig) - want) \
            <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [7, 9])
def test_matrix_symmetric_int32_and_sized(n):
    lat = Lattice4D(3.0, n)
    ch = coulomb.BasicChart(lat)
    A = ch._matrix
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
    size = coulomb._matrix_bytes(
        *coulomb._laplace_parts(ch.phi2, ch.gamma, lat.h))
    assert size == A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def test_chart_holds_matrix_or_parts():
    small = coulomb.BasicChart(Lattice4D(3.0, 7))
    assert small._matrix is not None and small._parts is None
    large = coulomb.BasicChart(LAT)
    assert large._matrix is None and large._parts is not None


def _scipy_cg(apply, b, pdiag, rtol):
    """scipy's cg with the chart's preconditioner; (x, iterations)."""
    N = b.size
    count = [0]

    def cb(_):
        count[0] += 1
    x, info = cg(LinearOperator((N, N), matvec=apply), b, rtol=rtol, atol=0.0,
                 maxiter=coulomb.CG_MAXITER, callback=cb,
                 M=LinearOperator((N, N), matvec=lambda v: (
                     v.reshape(pdiag.size, -1) / pdiag[:, None]).ravel()))
    assert info == 0
    return x, count[0]


def _max_rel_dev(x, want):
    return np.max(np.abs(x - want)) / np.max(np.abs(want))


# The loop's einsum sums in another order than scipy's np.dot, so the two
# iterates part in their last bits, and further over more iterations of a
# worse-conditioned system (49 on the chart, 24 on the dense system).
def test_cg_loop_is_scipys_on_chart():
    lat = Lattice4D(3.0, 7)
    ch = coulomb._chart(lat)
    rhs = ch.divergence(rng.normal(size=lat.shape + (4, 3))
                        * ch.interior[..., None, None])
    x, its = ch.solve(rhs, rtol=1e-8)
    want, want_its = _scipy_cg(
        lambda v: ch.laplace(v.reshape(rhs.shape)).ravel(), rhs.ravel(),
        ch._pdiag.ravel(), 1e-8)
    assert its == want_its > 0
    assert _max_rel_dev(x.ravel(), want) < 1e-9


def test_cg_loop_is_scipys_on_dense_spd():
    g = np.random.default_rng(3)
    B = g.normal(size=(40, 40))
    A = B @ B.T + 40.0 * np.eye(40)
    b, pdiag = g.normal(size=40), np.diag(A).copy()
    x, its = coulomb._pcg(lambda v: A @ v, b, pdiag, 1e-12)
    want, want_its = _scipy_cg(lambda v: A @ v, b, pdiag, 1e-12)
    assert its == want_its > 0
    assert _max_rel_dev(x, want) < 1e-12


def test_cg_iteration_cap(monkeypatch):
    monkeypatch.setattr(coulomb, "CG_MAXITER", 3)
    ch = coulomb._chart(Lattice4D(3.0, 7))
    rhs = rng.normal(size=ch.lat.shape + (3,))
    with pytest.raises(coulomb.CoulombError, match="cg-not-converged"):
        ch.solve(rhs)


def test_laplace_is_symmetric():
    ch = _chart()
    x = rng.normal(size=LAT.shape + (3,))
    y = rng.normal(size=LAT.shape + (3,))
    assert np.sum(ch.laplace(x) * y) == pytest.approx(
        np.sum(x * ch.laplace(y)), rel=1e-12)


def test_laplacian_spd():
    ch = _chart()
    for _ in range(3):
        sig = rng.normal(size=LAT.shape + (3,))
        assert np.sum(sig * ch.laplace(sig)) > 0


def test_curvature_distance_per_direction_is_bitwise():
    # the adjoint action on all four directions at once is the oracle
    c = fields.pullback(sphere.ConformalMap(xi2=np.array([0.1, 0.0, -0.05, 0.02]),
                                            lam=1.05), fields.basic_connection())
    res = coulomb.coulomb_project(c, tol=1e-6, lattice=LAT, support_tol=0.2)
    F = c.curvature(LAT.points).reshape(LAT.shape + (4, 4, 3))
    s = res.transform_values()
    dF = quat.conjugate_im(s[..., None, None, :], F) - fields.basic_connection() \
        .curvature(LAT.points).reshape(LAT.shape + (4, 4, 3))
    want = np.sqrt(sphere.pairwise_sum(np.sum(dF * dF, axis=(-3, -2, -1)))
                   * LAT.h ** 4)
    assert coulomb.curvature_distance(c, res) == want


def test_basic_curvature_is_lazy_and_exact():
    lat = Lattice4D(3.0, 5)
    ch = coulomb.BasicChart(lat)
    assert "basic_curvature" not in vars(ch)
    F0 = ch.basic_curvature
    want = fields.basic_connection().curvature(lat.points)
    assert np.array_equal(F0, want.reshape(lat.shape + (4, 4, 3)))
    assert ch.basic_curvature is F0


def test_chart_cache_holds_one_chart():
    lat = Lattice4D(3.0, 5)
    ch = coulomb._chart(lat)
    assert coulomb._chart(lat) is ch
    assert coulomb._chart(Lattice4D(3.0, 5)) is ch
    ref = weakref.ref(ch)
    del ch
    coulomb._chart(Lattice4D(3.0, 4))       # another (R, n) frees the first
    assert ref() is None


def test_trivial_projection_is_exact():
    res = coulomb.coulomb_project(fields.basic_connection(), lattice=LAT)
    assert res.residuals[-1] == 0.0
    assert np.max(np.abs(res.sigma)) == 0.0
    assert coulomb.distance_to_basic(res) == 0.0


def test_round_trip_recovers_gauge():
    ch = _chart()
    sig0 = _windowed_sigma(1)
    dec = fields.LatticeField(LAT, coulomb.gauge_action_lattice(ch, sig0, ch.gamma))
    res = coulomb.coulomb_project(dec, tol=1e-9, lattice=LAT)
    assert res.converged
    # discrete gauge actions compose exactly: projection undoes the
    # decoration and returns to the basic potential
    assert coulomb.distance_to_basic(res) < 1e-7
    assert np.max(np.abs(res.sigma + sig0)) < 1e-7


def test_residual_contraction():
    ch = _chart()
    dec = fields.LatticeField(
        LAT, coulomb.gauge_action_lattice(ch, _windowed_sigma(2, amp=0.2), ch.gamma))
    res = coulomb.coulomb_project(dec, tol=1e-10, lattice=LAT)
    for a, b in zip(res.residuals, res.residuals[1:]):
        assert b < a


def test_gauge_action_per_direction_is_bitwise():
    lat = Lattice4D(3.0, 7)
    ch = coulomb._chart(lat)
    sigma = rng.normal(size=lat.shape + (3,))
    pot = rng.normal(size=lat.shape + (4, 3))
    assert np.array_equal(coulomb.gauge_action_lattice(ch, sigma, pot),
                          oracle_gauge_action(ch, sigma, pot))


def test_gauge_action_lattice_identity():
    ch = _chart()
    zero = np.zeros(LAT.shape + (3,))
    out = coulomb.gauge_action_lattice(ch, zero, ch.gamma)
    assert np.array_equal(out, ch.gamma)


def test_dstar_against_continuum_operator():
    # the lattice divergence approximates the continuum covariant divergence
    from ymalpha import variational

    def ups_coord(q):
        return np.exp(-np.sum(np.asarray(q, float) ** 2, axis=-1)
                      )[..., None, None] * np.ones((4, 3)) * 0.1

    def fn(q):
        return sphere.frame_scale(q)[..., None, None] * ups_coord(q)

    ch = _chart()
    pts = LAT.points[ch.interior.ravel()]       # fixed comparison points
    cont = variational.dstar_oneform(fn, fields.basic_connection(), pts, h=1e-3)
    errs = []
    for lat in (LAT, Lattice4D(3.0, 21)):       # nested: n=11 nodes in n=21
        # the continuum section rw * D*ups (see BasicChart.divergence)
        c = coulomb._chart(lat)
        ups = ups_coord(lat.points).reshape(lat.shape + (4, 3))
        div = c.divergence(ups) / c.rw[..., None]
        idx = np.rint((pts + lat.R) / lat.h).astype(int)
        at = div[idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]]
        errs.append(np.max(np.abs(at - cont)))
    # halving h cuts the defect by about 4 (second-order stencils)
    assert errs[1] < errs[0] / 3.0


def test_support_gate():
    # a perturbation that does not vanish near the chart boundary is rejected
    sig = fields.AnalyticGauge(lambda z: 0.3 * np.ones(np.shape(z)[:-1] + (3,)))
    bad = fields.gauge_act(sig, fields.basic_connection())
    with pytest.raises(ValueError, match="not supported"):
        coulomb.coulomb_project(bad, lattice=LAT)


def test_max_outer_error(monkeypatch):
    monkeypatch.setattr(coulomb, "MAX_OUTER", 2)
    ch = _chart()
    dec = fields.LatticeField(
        LAT, coulomb.gauge_action_lattice(ch, _windowed_sigma(4), ch.gamma))
    with pytest.raises(coulomb.CoulombError, match="max-outer-exceeded"):
        coulomb.coulomb_project(dec, tol=1e-16, lattice=LAT)


def test_write_log_schema(tmp_path):
    c = flow.random_flow_seed(np.random.default_rng(5), amp=0.1,
                              s_range=(0.1, 5.0))
    res = coulomb.coulomb_project(c, tol=1e-7, lattice=LAT)
    p = tmp_path / "log.csv"
    with open(p, "w", newline="") as fh:
        res.write_log(fh)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "outer_iter,residual,cg_iters,sigma_sup_norm"
    assert len(lines) == len(res.residuals) + 1


def test_z_probe_at_check_twelve_is_pinned(reference_versions):
    """One off-inverse probe of check 12's planted map on its 7^4 lattice:
    the quick tier's guard on the slow check's path (pullback of a
    pullback, projection, both distances), to the bit."""
    c = fields.pullback(sphere.ConformalMap(xi2=np.array([0.15, 0.0, -0.1, 0.0]),
                                            lam=1.1), fields.basic_connection())
    _, z, zf, zu, _ = coulomb._z_value(c, 0.95, np.array([-0.1, 0.0, 0.1, 0.0]),
                                       Lattice4D(3.0, 7), 1e-6)
    assert (z, zf, zu) == (0.5797389485314463, 0.5278703348080757,
                           0.051868613723370594)


def test_lifted_pullback_of_basic_is_basic():
    p = rng.normal(size=4); p /= np.linalg.norm(p)
    q = rng.normal(size=4); q /= np.linalg.norm(q)
    m = sphere.rotation(p, q)
    lifted = coulomb.lifted_pullback(m, fields.basic_connection())
    pts = rng.normal(size=(25, 4))
    assert np.allclose(lifted.potential(pts),
                       fields.basic_connection().potential(pts), atol=1e-12)


def test_commute_with_exact_lattice_rotation():
    c = flow.random_flow_seed(np.random.default_rng(6), amp=0.1,
                              s_range=(0.1, 5.0))
    m = sphere.rotation(quat.ONE, quat.I)   # maps the lattice to itself
    defect, = coulomb.commute_check(c, [m], tol=1e-6, lattice=LAT)
    assert defect < 1e-5


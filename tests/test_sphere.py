import numpy as np
import pytest

from ymalpha import energy, fields, profile, sphere
from ymalpha.sphere import RadialGrid, Lattice4D

rng = np.random.default_rng(7)


def test_weight_identities():
    pts = rng.normal(scale=2.0, size=(50, 4))
    r2 = np.sum(pts ** 2, axis=-1)
    assert np.allclose(sphere.round_weight(pts), 16.0 / (1.0 + r2) ** 4)
    assert np.allclose(sphere.frame_scale(pts), 0.5 * (1.0 + r2))
    # 2-form weight is the inverse of the volume weight
    assert np.allclose(sphere.two_form_weight(pts) * sphere.round_weight(pts), 1.0)
    # 1-form weight = frame_scale^2 * round_weight = (2/(1+r^2))^2
    w2rw = sphere.frame_scale(pts) ** 2 * sphere.round_weight(pts)
    assert np.allclose(w2rw, (2.0 / (1.0 + r2)) ** 2)


def test_round_volume():
    g = RadialGrid(96)
    vol = g.integrate_round(np.ones(g.n))
    assert np.isclose(vol, sphere.VOL_S4, rtol=1e-12)
    lat = Lattice4D(6.0, 31)
    # lattice covers only a chart box; its volume is below the full sphere
    assert sphere.pairwise_sum(lat.weights) < sphere.VOL_S4


def test_flat_vs_round_measure():
    # int f dV_g = int f * round_weight dzeta for radial f
    g = RadialGrid(96)
    f = np.exp(-g.s)
    a = g.integrate_round(f)
    b = g.integrate_flat(f * sphere.round_weight(g.axis_points()))
    assert np.isclose(a, b, rtol=1e-12)


def test_chi_lambda_values():
    pts = rng.normal(size=(30, 4))
    assert np.allclose(sphere.chi_lambda(pts, 1.0), 1.0)
    # chi at the origin is lambda^{-4}; at infinity it grows like lambda^4
    assert np.isclose(sphere.chi_lambda(np.zeros(4), 2.0), 2.0 ** -4)
    # d chi / d log(lambda) = chi * 4 (lam^2 r^2 - 1)/(lam^2 r^2 + 1)
    ls = 1.3 ** 2 * np.sum(pts ** 2, axis=-1)
    d = sphere.chi_lambda(pts, 1.3) * 4.0 * (ls - 1.0) / (ls + 1.0)
    h = 1e-6
    fd = (sphere.chi_lambda(pts, 1.3 * np.exp(h))
          - sphere.chi_lambda(pts, 1.3 * np.exp(-h))) / (2 * h)
    assert np.allclose(d, fd, rtol=1e-6)


def test_conformal_jacobian_fd():
    p = rng.normal(size=4); p /= np.linalg.norm(p)
    q = rng.normal(size=4); q /= np.linalg.norm(q)
    pts = rng.normal(size=(10, 4))
    h = 1e-6
    for m in (sphere.ConformalMap(xi2=np.array([0.2, 0, 0.1, 0]), lam=1.4),
              sphere.ConformalMap(xi2=np.array([0, 0.3, 0, -0.1]), lam=0.7,
                                  p=p, q=q)):
        J = m.matrix            # J[a, j] = d phi^j / d zeta^a
        assert J.shape == (4, 4)
        for a in range(4):
            dp = pts.copy(); dp[:, a] += h
            dm = pts.copy(); dm[:, a] -= h
            fd = (m.apply(dp) - m.apply(dm)) / (2 * h)
            assert np.allclose(J[a], fd, atol=1e-6)


def test_rotation_is_isometry_of_r2():
    p = rng.normal(size=4); p /= np.linalg.norm(p)
    q = rng.normal(size=4); q /= np.linalg.norm(q)
    m = sphere.rotation(p, q)
    pts = rng.normal(size=(40, 4))
    assert np.allclose(np.sum(m.apply(pts) ** 2, axis=-1),
                       np.sum(pts ** 2, axis=-1), rtol=1e-12)


def test_dilation_translation():
    d = sphere.dilation(2.5)
    assert np.allclose(d.apply(np.ones((3, 4))), 2.5 * np.ones((3, 4)))
    t = sphere.ConformalMap(xi2=np.array([1.0, 0, 0, 0]))
    assert np.allclose(t.apply(np.zeros(4)), [1.0, 0, 0, 0])


def test_hodge_star_involution_and_split():
    F = rng.normal(size=(20, 4, 4, 3))
    F = F - np.swapaxes(F, -3, -2)
    assert np.allclose(sphere.hodge_star(sphere.hodge_star(F)), F)
    Fp, Fm = sphere.hodge_split(F)
    assert np.allclose(Fp + Fm, F)
    assert np.allclose(sphere.hodge_star(Fp), Fp)
    assert np.allclose(sphere.hodge_star(Fm), -Fm)
    # the split is orthogonal
    assert np.allclose(np.sum(Fp * Fm, axis=(-3, -2, -1)), 0.0, atol=1e-12)


def test_radial_grid_quadrature_exactness():
    # smooth radial integrand known in closed form:
    # int (1+s)^{-4} dV_g picks up the round weight squared / 16 ... use
    # int dV_g / (1+r^2) = 2 pi^2 int sin^3 cos^2(theta/2) dtheta
    g = RadialGrid(64)
    val = g.integrate_round(1.0 / (1.0 + g.s))
    from scipy.integrate import quad
    ref = quad(lambda t: 2 * np.pi ** 2 * np.sin(t) ** 3 * np.cos(t / 2) ** 2,
               0, np.pi)[0]
    assert np.isclose(val, ref, rtol=1e-12)


def test_radial_grid_uses_node_source():
    for n in (7, 24, 96):
        theta, w = sphere.gauss_legendre(n, 0.0, np.pi)
        g = RadialGrid(n)
        assert np.array_equal(g.theta, theta)
        assert np.array_equal(g.wtheta, w)


_PROF = fields.random_radial_profile(np.random.default_rng(5))
_OFF = fields.Adhm(np.array([0.3, 0.1, 0.0, 0.0]), 1.2)

# (caller at base size n, node counts it must request): callers that return
# no residual evaluate the 2n grid only; a residual needs both grids
_NODE_COUNTS = {
    "topological_charge": (lambda n: energy.topological_charge(_OFF, n=n), [16]),
    "lp_curvature_norm": (lambda n: energy.lp_curvature_norm(_PROF, 3.0, n=n),
                          [16]),
    "lp_difference_norm": (lambda n: energy.lp_difference_norm(
        _PROF, fields.basic_connection(), 2.0, n=n), [16]),
    "dE_dloglambda_basic": (lambda n: profile.dE_dloglambda_basic(1.4, 3.0, n=n),
                            [16]),
    "dE_dloglambda_general": (lambda n: profile.dE_dloglambda_general(
        _PROF, 1.4, 3.0, n=n), [16]),
    "chi_sobolev_norms": (lambda n: profile.chi_sobolev_norms(2.0, n=n),
                          [16, 16, 16]),
    "ym_alpha": (lambda n: energy.ym_alpha(_PROF, 1.4, n=n), [8, 16]),
    "G_of_sigma": (lambda n: profile.G_of_sigma(0.5, 0.4, n=n), [16]),
    "G_of_sigma residual": (lambda n: profile.G_of_sigma(
        0.5, 0.4, n=n, with_residual=True), [8, 16]),
    "G_prime": (lambda n: profile.G_prime(0.5, 0.4, n=n), [16]),
    "gap": (lambda n: profile.gap(1.4, 3.0, n=n), [16]),
    "pullback_energy residual": (lambda n: profile.pullback_energy(
        1.4, 3.0, n=n, with_residual=True), [8, 16]),
}
_NODE_COUNTS.update({
    "pullback_energy " + r: (lambda n, r=r: profile.pullback_energy(
        1.4, 3.0, route=r, n=n), [16])
    for r in ("radial", "w-substitution", "hyperbolic")})


@pytest.mark.parametrize("name", sorted(_NODE_COUNTS))
def test_node_counts_per_caller(name, monkeypatch):
    fn, want = _NODE_COUNTS[name]
    sizes = []
    legendre_nodes = sphere.legendre_nodes

    def counted(n):
        sizes.append(n)
        return legendre_nodes(n)
    monkeypatch.setattr(sphere, "legendre_nodes", counted)
    fn(8)
    assert sizes == want


@pytest.mark.parametrize("n", [1, 7, 96, 192, 384])
def test_legendre_nodes_are_numpys(n):
    for got, ref in zip(sphere.legendre_nodes(n),
                        np.polynomial.legendre.leggauss(n)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_legendre_nodes_computed_once_per_size(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    sphere.legendre_nodes.cache_clear()
    first = sphere.legendre_nodes(12)
    again = sphere.legendre_nodes(12)
    assert calls == [12]
    assert all(a is b for a, b in zip(first, again))


def test_legendre_nodes_read_only_and_grids_fresh():
    held = sphere.legendre_nodes(24)
    for arr in held:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for arr in sphere.gauss_legendre(24, 0.0, np.pi):
        assert not any(np.shares_memory(arr, h) for h in held)
        arr[0] = 0.0     # the caller's copy, not the held rule
    assert np.array_equal(held[0], np.polynomial.legendre.leggauss(24)[0])


def test_legendre_nodes_errors_not_cached():
    # an untyped key would let 96.0 equal a held np.int64(96)
    sphere.legendre_nodes(96)
    sphere.legendre_nodes(np.int64(96))
    with pytest.raises(TypeError):
        sphere.legendre_nodes(96.0)
    with pytest.raises(TypeError):
        sphere.gauss_legendre(96.0, 0.0, 1.0)
    for n in (0, -1):
        for _ in range(2):     # a second request raises again
            with pytest.raises(ValueError):
                sphere.legendre_nodes(n)


def test_lattice_layout():
    lat = Lattice4D(2.0, 5)
    assert lat.points.shape == (5 ** 4, 4)
    assert np.isclose(lat.h, 1.0)
    grid = lat.points.reshape(lat.shape + (4,))
    assert grid.shape == (5, 5, 5, 5, 4)
    assert np.allclose(grid[0, 0, 0, 0], [-2, -2, -2, -2])
    assert Lattice4D(3.0, 2).h == 6.0
    for n in (1, 0):    # a lattice needs two points per axis
        with pytest.raises(ValueError):
            Lattice4D(3.0, n)


def test_pairwise_sum_deterministic():
    v = rng.normal(size=12345)
    assert sphere.pairwise_sum(v) == sphere.pairwise_sum(v.copy())
    assert np.isclose(sphere.pairwise_sum(v), np.sum(v), rtol=1e-12)

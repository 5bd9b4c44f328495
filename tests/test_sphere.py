import numpy as np
import pytest

from ymalpha import energy, fields, profile, sphere, variational
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


# ---------------------------------------------------------------------------
# centred-difference stencils: one call of fn on the centre and all 8 shifts
# ---------------------------------------------------------------------------

def _partials_loop(fn, zeta, h):
    """The per-axis loop: fn called once per shifted point set."""
    zeta = np.asarray(zeta, float)
    cols = []
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        cols.append((fn(zeta + e) - fn(zeta - e)) / (2.0 * h))
    return np.stack(cols, axis=zeta.ndim - 1)


def _partials_8(fn, zeta, h):
    """The 8-copy stencil, which returned the partials alone."""
    zeta = np.asarray(zeta, float)
    e = (h * np.eye(4)).reshape((4,) + (1,) * (zeta.ndim - 1) + (4,))
    v = np.asarray(fn(np.concatenate([zeta + e, zeta - e])))
    lead = (8,) + zeta.shape[:-1]
    if v.shape[:len(lead)] != lead:
        raise ValueError(
            "partials needs fn vectorized over leading axes: fn on points of "
            "shape %s returned shape %s, which does not start with %s"
            % ((8,) + zeta.shape, v.shape, lead))
    return np.stack((v[:4] - v[4:]) / (2.0 * h), axis=zeta.ndim - 1)


def _with_centre_call(stencil):
    """A (value, partials) stencil that calls fn on the centre separately."""
    def partials(fn, zeta, h):
        return fn(np.asarray(zeta, float)), stencil(fn, zeta, h)
    return partials


def _with_ref_partials(monkeypatch, thunk, stencil=_partials_loop):
    """thunk() with a reference bound wherever partials is bound by name."""
    with monkeypatch.context() as m:
        for module in (sphere, variational, fields):
            m.setattr(module, "partials", _with_centre_call(stencil))
        return thunk()


def _stencil_points(shape):
    pts = np.random.default_rng(23).normal(scale=0.7, size=shape)
    flat = pts.reshape(-1, 4)
    flat[0, 0] = -0.0
    flat[-1, 2] = -0.0
    flat[0, 3] = 0.0
    return pts


_BASIS = variational.ModuliBasis(Lattice4D(3.0, 5))
_GAUGED = fields.GaugeTransformed(
    _PROF, fields.AnalyticGauge(fields.random_bump_sigma(np.random.default_rng(3))))
_DILATED = fields.pullback(sphere.dilation(0.7), _PROF)
_ROTATED = fields.GaugeTransformed(
    fields.pullback(sphere.rotation([0.5, 0.5, -0.5, 0.5], [0.0, 0.6, 0.0, 0.8]),
                    _OFF),
    fields.ConstantGauge([0.2, 0.5, -0.3, 0.1]))


def _f2(q):
    Fq = variational.frame_curvature(_OFF, q)
    return np.sum(Fq * Fq, axis=(-3, -2, -1))


def _d_member(q):
    return variational.exterior_d(_BASIS.member(3), _OFF, q)


_STENCIL_CASES = {
    "dstar_F basic": lambda z: variational.dstar_F(fields.basic_connection(), z),
    "dstar_F off-centre": lambda z: variational.dstar_F(_OFF, z),
    "dstar_F dilation pullback": lambda z: variational.dstar_F(_DILATED, z),
    "gradient_ym_alpha_lambda": lambda z: variational.gradient_ym_alpha_lambda(
        _PROF, 1.4, 1.5, z),
    "polarization_residuals": lambda z: np.array(
        variational.polarization_residuals(_GAUGED, _OFF, z)),
    "cov_oneform": lambda z: variational.cov_oneform(
        _BASIS.member(2), _DILATED, z),
    "cov_twotensor": lambda z: variational.cov_twotensor(_d_member, _GAUGED, z),
    "exterior_d": lambda z: variational.exterior_d(_BASIS.member(1), _ROTATED, z),
    "dstar_oneform": lambda z: variational.dstar_oneform(
        _BASIS.member(4), _GAUGED, z),
    "gauge potential": lambda z: _GAUGED.potential(z),
    "constant gauge rotation potential": lambda z: _ROTATED.potential(z),
    "scalar fn": lambda z: sphere.partials(_f2, z, 1e-3)[1],
    # sees the sign of each shifted coordinate, the +0 added to unshifted
    # ones included: -0.0 + 0.0 is +0.0, -0.0 - 0.0 is -0.0
    "copysign fn": lambda z: sphere.partials(
        lambda q: np.copysign(1.0, q), z, 1e-3)[1],
}
_STENCIL_CASES.update({
    "jacobi_apply member %d" % k: (lambda z, k=k: variational.jacobi_apply(
        fields.basic_connection(), _BASIS.member(k), z)) for k in range(5)})


def _assert_bitwise(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("shape", [(4,), (24, 4), (2, 3, 4)])
@pytest.mark.parametrize("name", sorted(_STENCIL_CASES))
def test_batched_partials_is_bitwise_the_loop(name, shape, monkeypatch):
    """Against the per-axis loop and the 8-copy stencil, each with the
    centre evaluated in a call of its own."""
    case = _STENCIL_CASES[name]
    pts = _stencil_points(shape)
    got = case(pts)
    for stencil in (_partials_loop, _partials_8):
        _assert_bitwise(got, _with_ref_partials(
            monkeypatch, lambda: case(pts), stencil))


@pytest.mark.parametrize("shape", [(4,), (24, 4), (2, 3, 4)])
@pytest.mark.parametrize("fn", [_OFF.potential, _f2, _d_member,
                                lambda q: np.copysign(1.0, q)])
def test_partials_value_is_bitwise_fn(fn, shape):
    pts = _stencil_points(shape)
    value, d = sphere.partials(fn, pts, 1e-3)
    _assert_bitwise(value, fn(pts))
    _assert_bitwise(d, _partials_8(fn, pts, 1e-3))


def _count_calls(fn):
    calls = []

    def counted(q):
        calls.append(np.shape(q))
        return fn(q)
    return counted, calls


class _CountedCurvature(fields.Adhm):
    def __init__(self):
        super().__init__(np.array([0.3, 0.1, 0.0, 0.0]), 1.2)
        self.calls = 0

    def curvature(self, zeta):
        self.calls += 1
        return super().curvature(zeta)


def test_partials_calls_fn_once():
    pts = _stencil_points((2, 3, 4))
    fn, calls = _count_calls(_OFF.potential)
    value, d = sphere.partials(fn, pts, 1e-3)
    assert (value.shape, d.shape) == ((2, 3, 4, 3), (2, 3, 4, 4, 3))
    assert calls == [(9, 2, 3, 4)]
    fn, calls = _count_calls(sphere.frame_scale)
    value, d = sphere.partials(fn, pts[0, 0], 1e-3)
    assert (value.shape, d.shape) == ((), (4,))
    assert calls == [(9, 4)]


@pytest.mark.parametrize("ref, want", [(False, (2, 1)), (True, (82, 9))])
def test_stencil_call_counts(ref, want, monkeypatch):
    """jacobi_apply's field and dstar_F's curvature calls; the loop's counts,
    with the centre in a call of its own, show what the batching saves."""
    def run():
        pts = _stencil_points((24, 4))
        xi, calls = _count_calls(_BASIS.member(1))
        variational.jacobi_apply(fields.basic_connection(), xi, pts)
        model = _CountedCurvature()
        variational.dstar_F(model, pts)
        return len(calls), model.calls
    assert (_with_ref_partials(monkeypatch, run) if ref else run()) == want


@pytest.mark.parametrize("shape, fn", [
    ((4,), lambda q: np.full(10, np.sum(q))),          # 10 outputs, no point axis
    ((4,), lambda q: np.sum(q)),                       # a scalar for all 9
    ((24, 4), lambda q: q.reshape(-1, 4)[:, 0]),       # point axes flattened
    ((2, 3, 4), lambda q: q[0]),                       # shift axis dropped
])
def test_partials_rejects_unvectorized_fn(shape, fn):
    with pytest.raises(ValueError, match=r"vectorized over leading axes.*"
                       r"does not start with \(9,"):
        sphere.partials(fn, _stencil_points(shape), 1e-3)

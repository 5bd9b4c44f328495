"""Connection models: instanton family, radial ansatz, gauge transforms,
conformal pullbacks, lattice fields (node values of a potential), and the
curvature formula F_ij = d_i A_j - d_j A_i + [A_i, A_j].

All potentials are chart-coordinate 1-forms with values in Im H, evaluated in
batches: potential(zeta) -> (N, 4, 3), curvature(zeta) -> (N, 4, 4, 3).
"""

import functools

import numpy as np
from scipy.interpolate import CubicSpline

from . import quat, sphere
from .quat import (components, conj_components, conjugate_im, exp_im,
                   from_components, im_part, qconj, qmul, qmul_im_components,
                   qnorm2)
from .sphere import RadialGrid, partials


def _m_tensor():
    m = np.zeros((4, 4, 3))
    for i in range(4):
        for j in range(4):
            m[i, j] = im_part(qmul(qconj(quat.E_BASIS[i]), quat.E_BASIS[j]))
    return m


# constant tensor M_ij = Im[conj(e_i) e_j]; antisymmetric, |M_ij| = 1 off-diagonal
M_TENSOR = _m_tensor()


def v_field(zeta):
    """v_j = Im[conj(zeta) e_j] = sum_i zeta^i M_ij, the radial-ansatz frame;
    shape (N, 4, 3).  Each entry is one signed coordinate: exact."""
    return np.einsum("...i,ijc->...jc", np.asarray(zeta, float), M_TENSOR)


def ansatz_frame_tensor(zeta):
    """zeta^i v_j - zeta^j v_i, the t1 term of the radial-ansatz curvature;
    shape (N, 4, 4, 3)."""
    v = v_field(zeta)
    zv = zeta[..., :, None, None] * v[..., None, :, :]
    return zv - np.swapaxes(zv, -3, -2)


def f_sfp_from_g(g, dg, s, r, s1, s1sq):
    """(f, s*f') of the radial ansatz f = g/(1+s) from g and dg/dtheta at
    s = r^2, given s1 = 1 + s and s1sq = s1**2; s * dtheta/ds = r/(1+r^2)
    has no 1/r at the origin."""
    sfp = dg * r / s1sq - s * g / s1sq
    return g / s1, sfp


class ConnectionModel:
    """Base: a connection given by its coordinate potential (and curvature)."""

    is_radial = False  # |F|^2_g depends only on |zeta|

    def potential(self, zeta):
        raise NotImplementedError

    def curvature(self, zeta):
        raise NotImplementedError


class FlatConnection(ConnectionModel):
    is_radial = True

    def potential(self, zeta):
        return np.zeros(np.shape(zeta)[:-1] + (4, 3))

    def curvature(self, zeta):
        return np.zeros(np.shape(zeta)[:-1] + (4, 4, 3))


class Adhm(ConnectionModel):
    """The charge-1 instanton with center xi and scale lam.

    Gamma_j = Im[(conj(zeta) - conj(xi)) e_j] / (|zeta - xi|^2 + lam^2);
    lam = 1, xi = 0 is the basic connection.
    """

    def __init__(self, xi=None, lam=1.0):
        if lam <= 0:
            raise ValueError("scale must be positive")
        self.xi = np.zeros(4) if xi is None else np.asarray(xi, float)
        self.lam = float(lam)

    @property
    def is_radial(self):
        return bool(np.all(self.xi == 0.0))

    def potential(self, zeta):
        u = np.asarray(zeta, float) - self.xi
        den = qnorm2(u) + self.lam ** 2
        return v_field(u) / den[..., None, None]

    def curvature(self, zeta):
        u = np.asarray(zeta, float) - self.xi
        c = self.lam ** 2 / (qnorm2(u) + self.lam ** 2) ** 2
        return 2.0 * c[..., None, None, None] * M_TENSOR


def basic_connection():
    return Adhm(None, 1.0)


class RadialProfile(ConnectionModel):
    """Radially symmetric ansatz A_j = f(s) v_j, s = |zeta|^2.

    Internally f(s) = g(theta)/(1+s) with g sampled on a theta grid and the
    north-pole value pinned at g(pi) = 1 (the decay class s f -> 1 that keeps
    charge 1); f(s) = 1/(s + lam^2) reproduces the instanton at center 0.
    Curvature closed form (validated against finite differences):
        F_ij = 2(f' + f^2)(zeta^i v_j - zeta^j v_i) + 2 f (1 - s f) M_ij.
    """

    is_radial = True

    def __init__(self, theta, g):
        theta = np.asarray(theta, float)
        g = np.asarray(g, float)
        if theta.ndim != 1 or theta.shape != g.shape:
            raise ValueError("theta/g must be matching 1-d samples")
        if not np.all(np.isfinite(g)):
            raise ValueError("profile samples must be finite")
        self.theta = theta
        self.g = g
        knots = np.concatenate([theta, [np.pi]])
        vals = np.concatenate([g, [1.0]])
        self._spl = CubicSpline(knots, vals)
        self._dspl = self._spl.derivative()

    def _g_dg(self, s):
        th = 2.0 * np.arctan(np.sqrt(np.maximum(s, 0.0)))
        return self._spl(th), self._dspl(th)

    def f(self, s):
        g, _ = self._g_dg(s)
        return g / (1.0 + s)

    def f_sfp(self, s):
        """(f, s*f'), avoiding the removable 1/r in dtheta/ds at the origin."""
        g, dg = self._g_dg(s)
        s1 = 1.0 + s
        return f_sfp_from_g(g, dg, s, np.sqrt(np.maximum(s, 0.0)), s1,
                            s1 ** 2)

    def potential(self, zeta):
        zeta = np.asarray(zeta, float)
        return self.f(qnorm2(zeta))[..., None, None] * v_field(zeta)

    def curvature(self, zeta):
        zeta = np.asarray(zeta, float)
        s = qnorm2(zeta)
        f, sfp = self.f_sfp(np.maximum(s, 1e-14))
        fp = sfp / np.maximum(s, 1e-14)
        asym = ansatz_frame_tensor(zeta)
        t1 = 2.0 * (fp + f ** 2)
        t2 = 2.0 * f * (1.0 - s * f)
        return t1[..., None, None, None] * asym + t2[..., None, None, None] * M_TENSOR


class AnalyticGauge:
    """Gauge transform exp_im(sigma(zeta)) from an analytic Im H-valued field."""

    def __init__(self, sigma):
        self.sigma = sigma

    def value(self, zeta):
        return exp_im(self.sigma(np.asarray(zeta, float)))

    def jet(self, zeta):
        """The gauge's value and chart partials (..., a, 4) at zeta."""
        return partials(self.value, zeta, 1e-5)


class ConstantGauge(AnalyticGauge):
    def __init__(self, q0):
        self.q0 = np.asarray(q0, float) / np.sqrt(qnorm2(np.asarray(q0, float)))

    def value(self, zeta):
        return np.broadcast_to(self.q0, np.shape(zeta)[:-1] + (4,)).copy()

    def jet(self, zeta):
        return self.value(zeta), np.zeros(np.shape(zeta)[:-1] + (4, 4))


class GaugeTransformed(ConnectionModel):
    """sigma[c]: Gamma -> Im(s^-1 d s) + s^-1 Gamma s; F -> s^-1 F s."""

    def __init__(self, base, transform):
        self.base = base
        self.transform = transform

    @property
    def is_radial(self):
        return self.base.is_radial  # |F| is pointwise conjugation-invariant

    def potential(self, zeta):
        zeta = np.asarray(zeta, float)
        s, ds = self.transform.jet(zeta)
        pure = from_components(qmul_im_components(    # Im(s^-1 ds), s unit
            conj_components(components(s[..., None, :])), components(ds)))
        g = self.base.potential(zeta)
        return pure + conjugate_im(s[..., None, :], g)

    def curvature(self, zeta):
        zeta = np.asarray(zeta, float)
        s = self.transform.value(zeta)
        return conjugate_im(s[..., None, None, :], self.base.curvature(zeta))


class Pulledback(ConnectionModel):
    """phi* c: (phi* Gamma)_i(z) = (d_i phi^j)(z) Gamma_j(phi(z))."""

    def __init__(self, base, cmap):
        self.base = base
        self.cmap = cmap

    @property
    def is_radial(self):
        return bool(self.base.is_radial and np.all(self.cmap.xi2 == 0.0))

    @functools.cached_property
    def J(self):
        """The map's constant Jacobian, built on first use."""
        return self.cmap.matrix

    @functools.cached_property
    def K(self):
        """J (x) J as a 16 x 16 matrix acting on flattened 2-form indices."""
        return np.einsum("ik,jl->ijkl", self.J, self.J).reshape(16, 16)

    def potential(self, zeta):
        zeta = np.asarray(zeta, float)
        g = self.base.potential(self.cmap.apply(zeta))
        return _contract(self.J, g)

    def curvature(self, zeta):
        zeta = np.asarray(zeta, float)
        F = self.base.curvature(self.cmap.apply(zeta))
        return _contract(self.K, F.reshape(F.shape[:-3] + (16, 3))).reshape(F.shape)


def _contract(T, X):
    """sum_b T[a, b] X[..., b, :] for each row a of the constant matrix T:
    np.einsum's products, added in ascending b into +0 as it adds them, with
    T's exact zeros skipped.  On finite X a skipped term adds +-0 to an
    accumulator that is never -0 (it starts at +0, and a sum is -0 only when
    both addends are), which changes no bit.  A pullback by a dilation keeps
    4 of 16 terms of its potential and 16 of 256 of its curvature."""
    out = np.zeros(X.shape[:-2] + (T.shape[0], X.shape[-1]))
    for b in range(T.shape[1]):
        for a in np.flatnonzero(T[:, b]):
            out[..., a, :] += T[a, b] * X[..., b, :]
    return out


class LatticeField(ConnectionModel):
    """Connection given by its potential at the nodes of a Lattice4D."""

    def __init__(self, lattice, values):
        self.lattice = lattice
        values = np.asarray(values, float)
        if values.shape != lattice.shape + (4, 3):
            raise ValueError("values must be grid-shaped (n, n, n, n, 4, 3)")
        self.values = values

    def potential(self, zeta):
        """Values at the lattice nodes nearest to zeta (exact at nodes)."""
        lat = self.lattice
        idx = np.rint((np.asarray(zeta, float) + lat.R) / lat.h).astype(int)
        if np.any(idx < 0) or np.any(idx >= lat.n):
            raise ValueError("point outside lattice")
        return self.values[idx[..., 0], idx[..., 1], idx[..., 2], idx[..., 3]]


def gauge_act(transform, model):
    return GaugeTransformed(model, transform)


def pullback(cmap, model):
    return Pulledback(model, cmap)


def random_radial_profile(rng):
    """Smooth random bump perturbation of the basic profile g = 1: one to
    three Gaussian bumps of amplitude at most 0.25."""
    grid = RadialGrid(64)
    g = np.ones(grid.n)
    for _ in range(rng.integers(1, 4)):
        a = 0.25 * rng.uniform(-1.0, 1.0)
        c = rng.uniform(0.25 * np.pi, 0.75 * np.pi)
        w = rng.uniform(0.15 * np.pi, 0.35 * np.pi)
        g += a * np.exp(-((grid.theta - c) / w) ** 2)
    return RadialProfile(grid.theta, g)


def random_bump_sigma(rng, amp=0.2):
    """Random analytic Im H-valued bump field for gauge decorations."""
    a = amp * rng.normal(size=3)
    z0 = rng.normal(scale=0.7, size=4)
    w2 = rng.uniform(0.3, 1.5)

    def sigma(zeta):
        d2 = qnorm2(np.asarray(zeta, float) - z0)
        return np.exp(-d2 / w2)[..., None] * a
    return sigma


def random_connection(rng):
    """Seeded random connection: radial profile + optional decoration.

    Decorations (gauge transform, centered dilation, rotation) keep the
    curvature norm radially symmetric, so the 1D energy route stays exact.
    """
    base = random_radial_profile(rng)
    kind = rng.integers(0, 4)
    if kind == 1:
        return GaugeTransformed(base, AnalyticGauge(random_bump_sigma(rng)))
    if kind == 2:
        return Pulledback(base, sphere.dilation(float(rng.uniform(0.5, 2.0))))
    if kind == 3:
        p = rng.normal(size=4)
        q = rng.normal(size=4)
        p /= np.sqrt(qnorm2(p))
        q /= np.sqrt(qnorm2(q))
        return Pulledback(base, sphere.rotation(p, q))
    return base


def curvature_from(A, dA):
    """F_ij = dA_ij - dA_ji + [A_i, A_j] from potential values A (..., 4, 3)
    and their partials dA (..., i, j, 3) = d_i A_j."""
    return dA - np.swapaxes(dA, -3, -2) \
        + quat.bracket(A[..., :, None, :], A[..., None, :, :])

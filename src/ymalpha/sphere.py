"""Round four-sphere geometry in the stereographic chart.

Metric convention: g = 4(1+|zeta|^2)^{-2} delta (unit radius), so the volume
density against the flat chart measure is 16(1+r^2)^{-4}, the pointwise
2-form weight is (1/16)(1+r^2)^4 and the orthonormal frame is
e_a = ((1+r^2)/2) d/dzeta^a.  Orientation is fixed so that the instanton
family below is anti-self-dual.
"""

from dataclasses import dataclass, field

import numpy as np

from . import quat
from .quat import qmul, qconj, qnorm2

VOL_S4 = 8.0 * np.pi ** 2 / 3.0


def round_weight(zeta):
    """Volume density dV_g / dV_flat = 16 (1+|zeta|^2)^{-4}."""
    return 16.0 / (1.0 + qnorm2(zeta)) ** 4


def frame_scale(zeta):
    """w = (1+r^2)/2: orthonormal frame e_a = w d_a; 1-form weight is w^2."""
    return 0.5 * (1.0 + qnorm2(zeta))


def two_form_weight(zeta):
    """Pointwise weight converting |F|^2_coord to |F|^2_g: (1/16)(1+r^2)^4."""
    return (1.0 + qnorm2(zeta)) ** 4 / 16.0


def chi_lambda(zeta, lam):
    """Conformal density lam^{-4} ((1+|lam zeta|^2)/(1+|zeta|^2))^4."""
    s = qnorm2(zeta)
    return lam ** (-4) * ((1.0 + lam ** 2 * s) / (1.0 + s)) ** 4


def mu(zeta):
    """(r^2 - 1)/(r^2 + 1), i.e. minus the cosine of the polar angle."""
    s = qnorm2(zeta)
    return (s - 1.0) / (s + 1.0)


def rotation_matrix(p, q):
    """4x4 matrix of u -> p u conj(q) for unit quaternions p, q."""
    cols = [qmul(qmul(p, quat.E_BASIS[a]), qconj(q)) for a in range(4)]
    return np.stack(cols, axis=-1)  # M[j, a] = (p e_a q^-1)^j


@dataclass(frozen=True)
class ConformalMap:
    """Conformal automorphism zeta -> xi2 + lam * rho(zeta).

    rho is the rotation u -> p u conj(q)."""
    xi2: np.ndarray = field(default_factory=lambda: np.zeros(4))
    lam: float = 1.0
    p: np.ndarray = field(default_factory=lambda: quat.ONE.copy())
    q: np.ndarray = field(default_factory=lambda: quat.ONE.copy())

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("dilation factor must be positive")

    def apply(self, zeta):
        return self.xi2 + self.lam * qmul(qmul(self.p, zeta), qconj(self.q))

    @property
    def matrix(self):
        """The constant Jacobian J[i, j] = d phi^j / d zeta^i = lam R[j, i]."""
        return self.lam * rotation_matrix(self.p, self.q).T


def dilation(lam):
    return ConformalMap(lam=float(lam))


def rotation(p, q):
    return ConformalMap(p=np.asarray(p, float), q=np.asarray(q, float))


# ---------------------------------------------------------------------------
# Hodge star / (anti)self-dual splitting
# ---------------------------------------------------------------------------

# each ordered index pair of a 2-form and its Hodge dual, eps_{1234} = +1
_DUAL = {(0, 1): ((2, 3), +1.0), (0, 2): ((1, 3), -1.0), (0, 3): ((1, 2), +1.0),
         (1, 2): ((0, 3), +1.0), (1, 3): ((0, 2), -1.0), (2, 3): ((0, 1), +1.0)}


def hodge_star(F):
    """Hodge star on 2-form components in an orthonormal frame.

    Acts identically on chart-coordinate components (the conformal weights
    cancel for middle-degree forms in four dimensions)."""
    F = np.asarray(F, float)
    out = np.zeros_like(F)
    for (i, j), ((k, l), sgn) in _DUAL.items():
        out[..., i, j, :] = sgn * F[..., k, l, :]
        out[..., j, i, :] = -sgn * F[..., k, l, :]
    return out


def hodge_split(F):
    """F -> (F_plus, F_minus) with F± = (F ± *F)/2."""
    sF = hodge_star(F)
    return 0.5 * (F + sF), 0.5 * (F - sF)


def f_norm2_coord(F):
    """Full double-sum |F|^2 on coordinate components, shape (...,)."""
    F = np.asarray(F, float)
    return np.sum(F * F, axis=(-3, -2, -1))


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

def gauss_legendre(n, a, b):
    """n-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _doubling(fn, n):
    """Evaluate fn at n and 2n nodes; return (value, residual estimate)."""
    a, b = fn(n), fn(2 * n)
    return b, abs(b - a)


class RadialGrid:
    """Gauss-Legendre grid in the geodesic polar angle theta in (0, pi).

    r = tan(theta/2); dV_g = 2 pi^2 sin^3(theta) dtheta for radial integrands.
    """

    def __init__(self, n=64):
        self.n = n
        self.theta, self.wtheta = gauss_legendre(n, 0.0, np.pi)
        self.r = np.tan(0.5 * self.theta)
        self.s = self.r ** 2
        # round-volume weights for radial functions of theta
        self.vol_w = 2.0 * np.pi ** 2 * np.sin(self.theta) ** 3 * self.wtheta
        # flat-measure weights: int f dzeta = int f(r) 2 pi^2 r^3 dr
        self.flat_w = 2.0 * np.pi ** 2 * self.r ** 3 \
            * 0.5 * (1.0 + self.r ** 2) * self.wtheta

    def integrate_round(self, values):
        """Integrate a radial function (sampled on nodes) against dV_g."""
        return pairwise_sum(values * self.vol_w)

    def integrate_flat(self, values):
        """Integrate a radial function against the flat chart measure."""
        return pairwise_sum(values * self.flat_w)

    def axis_points(self, center=None, scale=1.0):
        """Chart points (n, 4) along the real axis at radii scale*r (+center)."""
        pts = np.zeros((self.n, 4))
        pts[:, 0] = scale * self.r
        if center is not None:
            pts = pts + np.asarray(center, float)
        return pts


class Lattice4D:
    """Regular axis-aligned chart lattice on [-R, R]^4 with round weights."""

    def __init__(self, R, n):
        self.R = float(R)
        self.n = int(n)
        if self.n < 2:
            raise ValueError("a lattice needs n >= 2 points per axis")
        self.axis = np.linspace(-self.R, self.R, self.n)
        self.h = self.axis[1] - self.axis[0]
        g = np.meshgrid(self.axis, self.axis, self.axis, self.axis, indexing="ij")
        self.points = np.stack([a.ravel() for a in g], axis=-1)
        self.r2 = qnorm2(self.points)
        self.weights = round_weight(self.points) * self.h ** 4
        self.shape = (self.n,) * 4


# ---------------------------------------------------------------------------
# Centred-difference stencils
# ---------------------------------------------------------------------------

def partials(fn, zeta, h):
    """Chart partials d_a[fn] by centred differences; the derivative index is
    inserted right after the point axes (scalar outputs get shape (..., 4))."""
    zeta = np.asarray(zeta, float)
    cols = []
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        cols.append((fn(zeta + e) - fn(zeta - e)) / (2.0 * h))
    return np.stack(cols, axis=zeta.ndim - 1)


def central_diff(A, axis, h):
    """Centred difference of lattice values along one lattice axis, with zero
    (Dirichlet) padding on the boundary."""
    out = np.zeros_like(A)
    lo, hi = [slice(None)] * A.ndim, [slice(None)] * A.ndim
    lo[axis], hi[axis] = slice(0, -2), slice(2, None)
    mid = [slice(None)] * A.ndim
    mid[axis] = slice(1, -1)
    out[tuple(mid)] = (A[tuple(hi)] - A[tuple(lo)]) / (2.0 * h)
    first, second = [slice(None)] * A.ndim, [slice(None)] * A.ndim
    first[axis], second[axis] = 0, 1
    out[tuple(first)] = A[tuple(second)] / (2.0 * h)
    last, prev = [slice(None)] * A.ndim, [slice(None)] * A.ndim
    last[axis], prev[axis] = -1, -2
    out[tuple(last)] = -A[tuple(prev)] / (2.0 * h)
    return out


def pairwise_sum(values):
    """Deterministic pairwise reduction (bit-reproducible at fixed length)."""
    v = np.asarray(values, float).ravel()
    return float(np.add.reduce(v))

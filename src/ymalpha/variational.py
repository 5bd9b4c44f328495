"""First variation of the twisted alpha-energy, Jacobi operator, moduli
kernel, polarization identities and commutator bounds.

All covariant operators act on orthonormal-frame components relative to the
round frame e_a = w d/dzeta^a, w = (1+r^2)/2.  A 1-form Xi has frame
components Xi^_a = w Xi_a(coord); the Levi-Civita coefficients in this frame
are Gamma^c_ab = delta_ca u_b - delta_ab u_c with u_a = -zeta^a.  Chart
partials are centered finite differences; correctness is pinned by the
discrete adjointness and finite-difference energy-gradient oracles in the
test suite.
"""

import numpy as np

from . import sphere, fields
from .quat import bracket, qnorm2
from .sphere import frame_scale, pairwise_sum, partials

FD_STEP = 1.0e-3


def frame_potential(model, zeta):
    """Frame components of the gauge potential: w * Gamma_a(coord)."""
    return frame_scale(zeta)[..., None, None] * model.potential(zeta)


def frame_curvature(model, zeta):
    """Frame components of curvature: w^2 * F_ab(coord)."""
    return frame_scale(zeta)[..., None, None, None] ** 2 * model.curvature(zeta)


def cov_oneform(fn, model, zeta, h=FD_STEP):
    """(nabla_a Xi)_b for a frame-component field fn(zeta) -> (..., 4, 3)."""
    zeta = np.asarray(zeta, float)
    xi = fn(zeta)
    d = partials(fn, zeta, h)                       # (..., a, b, 3)
    w = frame_scale(zeta)[..., None, None, None]
    u = -zeta
    out = w * d
    # -Gamma^c_ab Xi_c = -(u_b Xi_a - delta_ab sum_c u_c Xi_c)
    out -= u[..., None, :, None] * xi[..., :, None, :]
    tr = np.einsum("...c,...cm->...m", u, xi)
    out += np.eye(4)[:, :, None] * tr[..., None, None, :]
    gam = frame_potential(model, zeta)
    out += bracket(gam[..., :, None, :], xi[..., None, :, :])
    return out


def cov_twotensor(fn, model, zeta, h=FD_STEP):
    """(nabla_a T)_bc for a frame-component field fn(zeta) -> (..., 4, 4, 3)."""
    zeta = np.asarray(zeta, float)
    T = fn(zeta)
    d = partials(fn, zeta, h)                       # (..., a, b, c, 3)
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
    gam = frame_potential(model, zeta)
    out += bracket(gam[..., :, None, None, :], T[..., None, :, :, :])
    return out


def dstar_F(model, zeta, h=FD_STEP):
    """(D*F)_b = -sum_a (nabla_a F)_ab in the round frame; zero for ADHM."""
    def Ffn(q):
        return frame_curvature(model, q)
    S = cov_twotensor(Ffn, model, zeta, h)
    return -np.einsum("...aabm->...bm", S)


def dstar_oneform(fn, model, zeta, h=FD_STEP):
    """D*Xi = -sum_a (nabla_a Xi)_aa: ImQuaternion section."""
    return -np.einsum("...aam->...m", cov_oneform(fn, model, zeta, h))


def exterior_d(fn, model, zeta, h=FD_STEP):
    """(D Xi)_ab = (nabla_a Xi)_b - (nabla_b Xi)_a (torsion-free)."""
    T = cov_oneform(fn, model, zeta, h)
    return T - np.swapaxes(T, -3, -2)


# ---------------------------------------------------------------------------
# gradient of the twisted alpha-energy
# ---------------------------------------------------------------------------

def _dlogchi(zeta, lam):
    """Chart partials of log chi_lambda (analytic), shape (..., 4)."""
    s = qnorm2(zeta)[..., None]
    return 8.0 * zeta * (lam ** 2 / (1.0 + lam ** 2 * s) - 1.0 / (1.0 + s))


def gradient_ym_alpha_lambda(model, alpha, lam, zeta, h=FD_STEP):
    """Gradient of (1/2) int (3 + chi |F|^2_g)^alpha / chi at given points.

    Frame components G = (3 + chi |F|^2_g)^(alpha-1) (D*F + theta1 + theta2),
    shape (..., 4, 3), with theta1, theta2 the terms in e_a(|F|^2_g) and
    e_a(log chi) below; the first variation obeys
    dE(V) = int <2 alpha G, V>_g dV_g for compactly supported V."""
    if alpha < 1 or lam <= 0:
        raise ValueError("need alpha >= 1 and lambda > 0")
    zeta = np.asarray(zeta, float)
    w = frame_scale(zeta)
    chi = sphere.chi_lambda(zeta, lam)
    Fh = frame_curvature(model, zeta)
    f2 = np.sum(Fh * Fh, axis=(-3, -2, -1))
    denom = 3.0 + chi * f2
    ds = dstar_F(model, zeta, h)

    def f2fn(q):
        Fq = frame_curvature(model, q)
        return np.sum(Fq * Fq, axis=(-3, -2, -1))
    ef2 = w[..., None] * partials(f2fn, zeta, h)         # e_a(|F|^2_g)
    elog = w[..., None] * _dlogchi(zeta, lam)            # e_a(log chi)
    coef = (alpha - 1.0) * chi / denom
    th1 = -coef[..., None, None] * np.einsum("...a,...abm->...bm", ef2, Fh)
    th2 = -(coef * f2)[..., None, None] * np.einsum("...a,...abm->...bm",
                                                    elog, Fh)
    return (denom ** (alpha - 1.0))[..., None, None] * (ds + th1 + th2)


# ---------------------------------------------------------------------------
# Jacobi operator
# ---------------------------------------------------------------------------

def _f_bracket(Fh, xi):
    """sum_k [F_kb, Xi_k], frame components."""
    return np.einsum("...kbm->...bm", bracket(Fh, xi[..., :, None, :]))


def jacobi_apply(model, xi_fn, zeta, h=FD_STEP):
    """Jacobi operator -D*D Xi - [F_kb, Xi_k] on a frame-component 1-form
    field xi_fn."""
    zeta = np.asarray(zeta, float)
    fxi = _f_bracket(frame_curvature(model, zeta), xi_fn(zeta))

    def om(q):
        return exterior_d(xi_fn, model, q, h)
    S = cov_twotensor(om, model, zeta, h)
    return np.einsum("...aabm->...bm", S) - fxi


# ---------------------------------------------------------------------------
# moduli directions
# ---------------------------------------------------------------------------

def _family_direction(k):
    """Centered difference of the instanton family at (xi=0, lam=1).

    k = 0: d/dlam; k = 1..4: d/dxi^{k-1}.  Coordinate-component callable."""
    if k == 0:
        plus = fields.Adhm(lam=1.0 + FD_STEP)
        minus = fields.Adhm(lam=1.0 - FD_STEP)
    else:
        e = np.zeros(4)
        e[k - 1] = FD_STEP
        plus, minus = fields.Adhm(xi=e), fields.Adhm(xi=-e)

    def fn(zeta):
        return (plus.potential(zeta) - minus.potential(zeta)) / (2.0 * FD_STEP)
    return fn


class ModuliBasis:
    """L^2-orthonormalized tangent directions of the instanton family.

    Five 1-form fields (scale + four translations) obtained by centered
    differences of the family at (xi=0, lam=1), then Gram-Schmidt in
    L^2(dV_g).  Frame components throughout."""

    def __init__(self, lattice):
        self.lattice = lattice
        self._raw = [_family_direction(k) for k in range(5)]
        pts = self.lattice.points
        vals = [frame_scale(pts)[:, None, None] * f(pts) for f in self._raw]
        self.coeffs = np.zeros((5, 5))   # vals[i] = sum_j coeffs[i,j] ortho[j]
        ortho = []
        for i, v in enumerate(vals):
            u = v.copy()
            for j, o in enumerate(ortho):
                self.coeffs[i, j] = self._ip(u, o)
                u = u - self.coeffs[i, j] * o
            self.coeffs[i, i] = np.sqrt(self._ip(u, u))
            ortho.append(u / self.coeffs[i, i])
        self.values = ortho              # list of (N, 4, 3) frame components

    def _ip(self, a, b):
        return pairwise_sum(np.sum(a * b, axis=(-2, -1)) * self.lattice.weights)

    def member(self, k):
        """Member k as a frame-component callable (for off-lattice stencils)."""
        inv = np.linalg.inv(self.coeffs)   # ortho[k] = sum_i inv[k,i] vals[i]

        def fn(zeta):
            w = frame_scale(zeta)[..., None, None]
            acc = 0.0
            for i in range(k + 1):
                if inv[k, i] != 0.0:
                    acc = acc + inv[k, i] * (w * self._raw[i](zeta))
            return acc
        return fn


# ---------------------------------------------------------------------------
# polarization identities
# ---------------------------------------------------------------------------

def polarization_residuals(c1, c2, zeta, h=FD_STEP):
    """Sup-norm residuals of the curvature and D*F polarization identities.

    With Upsilon = c1 - c2 and T_ab = (nabla^{c2}_a Upsilon)_b:
      F1 - F2 = D^{c2} Upsilon + [Upsilon, Upsilon],
      -(D*F1 - D*F2)_i = sum_k T_kki - sum_k T_ikk - 3 U_i
          - 2 sum_k [F2_ki, U_k] + [sum_k T_kk, U_i] - 2 sum_k [T_ki, U_k]
          + sum_k [T_ik, U_k] + sum_k [U_k, [U_k, U_i]].
    Both identities are exact; the residuals measure stencil error only."""
    zeta = np.asarray(zeta, float)

    def ups(q):
        return c1.potential(q) - c2.potential(q)

    # curvature polarization, coordinate components: the curvature formula
    # with the c2-covariant partials of Upsilon in place of dA
    u = ups(zeta)
    covU = partials(ups, zeta, h) \
        + bracket(c2.potential(zeta)[..., :, None, :], u[..., None, :, :])
    rhs = fields.curvature_from(u, covU)
    res_f = np.max(np.abs(c1.curvature(zeta) - c2.curvature(zeta) - rhs))

    # D*F polarization, frame components
    def uhat(q):
        return frame_scale(q)[..., None, None] * ups(q)
    lhs = -(dstar_F(c1, zeta, h) - dstar_F(c2, zeta, h))

    def Tfn(q):
        return cov_oneform(uhat, c2, q, h)
    T = Tfn(zeta)
    S = cov_twotensor(Tfn, c2, zeta, h)
    uh = uhat(zeta)
    rhs2 = np.einsum("...kkim->...im", S) - np.einsum("...ikkm->...im", S)
    rhs2 -= 3.0 * uh + 2.0 * _f_bracket(frame_curvature(c2, zeta), uh)
    trT = np.einsum("...kkm->...m", T)
    rhs2 += bracket(trT[..., None, :], uh)
    rhs2 -= 2.0 * np.einsum("...kim->...im", bracket(T, uh[..., :, None, :]))
    rhs2 += np.einsum("...ikm->...im", bracket(T, uh[..., None, :, :]))
    inner = bracket(uh[..., :, None, :], uh[..., None, :, :])
    rhs2 += np.einsum("...kim->...im", bracket(uh[..., :, None, :], inner))
    res_d = np.max(np.abs(lhs - rhs2))
    return float(res_f), float(res_d)


# ---------------------------------------------------------------------------
# commutator bounds
# ---------------------------------------------------------------------------

# frame components of the basic curvature: F^_ab = (1/2) M_ab
BASIC_FRAME_CURVATURE = 0.5 * fields.M_TENSOR


def commutator_bound_check(A, B):
    """Worst-case margins of the basic-curvature commutator inequalities.

    A: (..., 4, 3) frame 1-form samples, bound <F,[A,A]> <= |A|^2;
    B: (..., 4, 4, 3) frame 2-tensor samples, bound <F,[B_k.,B_k.]> <= 4|B|^2.
    Returns (margin_A, margin_B); both must be <= 0 (equality is attained)."""
    F = BASIC_FRAME_CURVATURE
    A = np.asarray(A, float)
    comm = bracket(A[..., :, None, :], A[..., None, :, :])
    ip = np.einsum("ijm,...ijm->...", F, comm)
    mA = float(np.max(ip - np.sum(A * A, axis=(-2, -1))))
    B = np.asarray(B, float)
    comm = np.einsum("...kijm->...ijm",
                     bracket(B[..., :, :, None, :], B[..., :, None, :, :]))
    ip = np.einsum("ijm,...ijm->...", F, comm)
    mB = float(np.max(ip - 4.0 * np.sum(B * B, axis=(-3, -2, -1))))
    return mA, mB

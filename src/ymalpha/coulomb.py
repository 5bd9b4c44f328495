"""Coulomb gauge projection relative to the basic connection, on a truncated
chart lattice, plus the conformal-distance minimization built on top of it.

The gauge slice is D*(sigma[c] - basic) = 0.  We solve its lattice version by
defect correction: at each outer iterate the exact divergence residual of the
transformed potential is assembled and one covariant Poisson problem
  L delta = -residual,   L = (covariant gradient)^T phi^2 (covariant gradient)
is solved by Jacobi-preconditioned conjugate gradients, with sigma = 0 outside
the chart (Dirichlet).  L and the divergence share the exact discrete adjoint
pair, so the converged iterate satisfies the discrete gauge condition to the
requested tolerance rather than to the stencil error.  phi = 2/(1+r^2) is the
chart conformal factor; perturbations must decay inside |zeta| <= 0.8 R so the
truncation boundary carries no data.

With D_a the centred difference, C_a sig = [Gamma_a, sig] and W = phi^2,
  L = sum_a (D_a + C_a)^T W (D_a + C_a)
is assembled once per chart from three parts: the scalar stencil
sum_a D_a^T W D_a (shared by the three components), the pointwise
sum_a C_a^T W C_a, and the cross terms, which collapse onto the lattice edges.
When L fits CSR_BUDGET bytes as one 3N x 3N CSR matrix the chart holds that
matrix; above it the chart holds the parts and applies them in turn, on
component-major arrays: sigma is transposed to (3, N) once in and once out,
the scalar part acts on each component row, the pointwise field is (6, N),
and each axis's edge field is (3, N), doubled (the bracket's factor 2) and
zero-padded from the lattice's edges to all N nodes, so that each edge term
is a product of two contiguous flat slices one axis stride apart.  At n = 15
the parts hold 12.3 MB: 5.0 MB scalar CSR, 2.4 MB pointwise, 4.9 MB edges.
"""

import csv
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import minimize
from scipy.sparse import csr_array

from . import quat, fields
from .quat import (bracket, components, conj_components, conjugate_im,
                   cross_components, exp_im, qmul_im_components)
from .sphere import ConformalMap, central_diff, pairwise_sum, round_weight


MAX_OUTER = 30          # outer defect-correction iterations before giving up
CG_MAXITER = 2000       # conjugate-gradient iterations before giving up
# L is held as one CSR matrix up to this size: 1.6 MB at n = 7 and 4.9 MB at
# n = 9; above it (11.3 MB at n = 11, 41.1 MB at n = 15) the parts are held
# component-major, at about a third of the matrix's size (3.5 MB at n = 11,
# 12.3 MB at n = 15, the edge fields zero-padded to N nodes)
CSR_BUDGET = 8_000_000


class CoulombError(RuntimeError):
    pass


def _axis_slice(a, start, stop):
    """Index of start:stop along lattice axis a (the leading four axes)."""
    idx = [slice(None)] * 4
    idx[a] = slice(start, stop)
    return tuple(idx)


def _stencil(w, h):
    """The slots of sum_a D_a^T diag(w) D_a at each node, (n,n,n,n,9).

    D_a is the centred difference with zero padding, so row x couples x to
    x -+ 2 e_a with weight -w(x -+ e_a) / 4h^2, and its diagonal sums
    w(x -+ e_a) / 4h^2 over the neighbours inside the lattice.  Slot a holds
    x - 2 e_a, slot 4 the diagonal and slot 8 - a x + 2 e_a: ascending
    column order."""
    vals = np.zeros(w.shape + (9,))
    for a in range(4):
        lo, hi = _axis_slice(a, 0, -1), _axis_slice(a, 1, None)
        vals[lo + (4,)] += w[hi]
        vals[hi + (4,)] += w[lo]
        mid = w[_axis_slice(a, 1, -1)]
        vals[_axis_slice(a, 0, -2) + (8 - a,)] = -mid
        vals[_axis_slice(a, 2, None) + (a,)] = -mid
    return vals / (4.0 * h * h)


def _strides(n):
    """Node-index stride of each lattice axis."""
    return n ** np.arange(3, -1, -1)


def _csr(vals, offsets):
    """CSR matrix of the nonzero slots of vals, (N, k, S) for N nodes with k
    components: row k x + i holds vals[x, i, s] in column k x + offsets[i, s].
    Slots outside the lattice hold zero and are dropped; indices are int32."""
    N, k, S = vals.shape
    keep = vals != 0.0
    cols = (k * np.arange(N, dtype=np.int32))[:, None, None] \
        + offsets.astype(np.int32)
    indptr = np.zeros(N * k + 1, np.int32)
    np.cumsum(keep.sum(axis=-1, dtype=np.int32), out=indptr[1:])
    return csr_array((vals[keep], cols[keep], indptr), shape=(N * k, N * k))


def _scalar_part(stencil):
    """sum_a D_a^T W D_a as an N x N CSR matrix, from its _stencil slots."""
    stride = _strides(stencil.shape[0])
    offsets = np.concatenate([-2 * stride, [0], 2 * stride[::-1]])
    return _csr(stencil.reshape(-1, 1, 9), offsets[None])


def _pointwise_part(w, gamma):
    """The entries (xx, yy, zz, xy, xz, yz) of the symmetric 3 x 3 field
    sum_a C_a^T W C_a = 4 W sum_a (|Gamma_a|^2 - Gamma_a Gamma_a^T)."""
    P = np.einsum("...ai,...aj->...ij", gamma, gamma)
    f = 4.0 * w
    return np.stack([f * (P[..., 1, 1] + P[..., 2, 2]),
                     f * (P[..., 0, 0] + P[..., 2, 2]),
                     f * (P[..., 0, 0] + P[..., 1, 1]),
                     -f * P[..., 0, 1], -f * P[..., 0, 2], -f * P[..., 1, 2]])


def _edge_fields(w, gamma, h):
    """Q_a(x) = (P_a(x) + P_a(x + e_a)) / 2h with P_a = W Gamma_a, one value
    per lattice edge (x, x + e_a).  The cross terms
    D_a^T W C_a + C_a^T W D_a of L act as
      -[Q_a(x), sig(x + e_a)] + [Q_a(x - e_a), sig(x - e_a)]."""
    p = w[..., None, None] * gamma
    return [(p[_axis_slice(a, 0, -1) + (a,)] + p[_axis_slice(a, 1, None) + (a,)])
            / (2.0 * h) for a in range(4)]


_SYM = ((0, 3, 4), (3, 1, 5), (4, 5, 2))    # _pointwise_part entry of (i, j)


def _laplace_matrix(stencil, pointwise, edges):
    """L as one 3N x 3N CSR matrix, from the three parts.

    Row (x, i) couples to x -+ 2 e_a in component i (the scalar stencil), to
    x in all three components (the scalar diagonal plus the pointwise field),
    to x + e_a through the block -2[Q_a(x)]_x and to x - e_a through
    +2[Q_a(x - e_a)]_x, where [q]_x s = q x s.  Its 27 slots are in ascending
    column order: per axis a, x - 2 e_a at 3a and x - e_a at 3a + 1, 3a + 2;
    x at 12 to 14; x + e_a at 24 - 3a, 25 - 3a and x + 2 e_a at 26 - 3a."""
    stride = _strides(stencil.shape[0])
    vals = np.zeros(stencil.shape[:4] + (3, 27))
    offsets = np.empty((3, 27), np.int32)
    for i in range(3):
        offsets[i, 12:15] = range(3)
        for j in range(3):
            vals[..., i, 12 + j] = pointwise[_SYM[i][j]]
        vals[..., i, 12 + i] += stencil[..., 4]
        for a, q in enumerate(edges):
            lo, hi = _axis_slice(a, 0, -1), _axis_slice(a, 1, None)
            back, fwd, s3 = 3 * a, 24 - 3 * a, 3 * stride[a]
            vals[..., i, back] = stencil[..., a]
            vals[..., i, fwd + 2] = stencil[..., 8 - a]
            offsets[i, back], offsets[i, fwd + 2] = -2 * s3 + i, 2 * s3 + i
            for t, j in enumerate(sorted({0, 1, 2} - {i})):
                k = 3 - i - j           # ([q]_x)_ij = -eps_ijk q_k
                c = (2.0 if (i - j) % 3 == 1 else -2.0) * q[..., k]
                vals[hi + (i, back + 1 + t)] = c
                vals[lo + (i, fwd + t)] = -c
                offsets[i, back + 1 + t], offsets[i, fwd + t] = -s3 + j, s3 + j
    return _csr(vals.reshape(-1, 3, 27), offsets)


def _matrix_bytes(stencil, pointwise, edges):
    """Bytes of _laplace_matrix(stencil, pointwise, edges), counted from the
    parts: each nonzero stencil slot gives one entry per component, each
    nonzero off-diagonal pointwise entry two, and each nonzero edge
    component four (two rows in each of the edge's two blocks)."""
    nnz = (3 * np.count_nonzero(stencil) + 2 * np.count_nonzero(pointwise[3:])
           + 4 * sum(np.count_nonzero(q) for q in edges))
    rows = 3 * stencil[..., 0].size
    return 12 * nnz + 4 * (rows + 1)      # float64 data, int32 indices


def _laplace_parts(w, gamma, h):
    """L's three parts on the lattice: the _stencil slots, the
    _pointwise_part entries and the _edge_fields."""
    return _stencil(w, h), _pointwise_part(w, gamma), _edge_fields(w, gamma, h)


def _held_parts(stencil, pointwise, edges):
    """The parts as BasicChart.laplace applies them, on component-major
    arrays over the N nodes: the scalar part as an N x N CSR matrix, the
    pointwise entries (6, N), and per axis a the edge field as (3, N),
    holding 2 Q_a (the bracket's factor 2, exact) at the edge's first node
    and zero on the last plane of axis a, so that an edge term pairs two
    flat slices a node stride of axis a apart."""
    N = stencil[..., 0].size
    held = []
    for a, q in enumerate(edges):
        e = np.zeros((3,) + stencil.shape[:4])
        e[(slice(None),) + _axis_slice(a, 0, -1)] = 2.0 * np.moveaxis(q, -1, 0)
        held.append(e.reshape(3, N))
    return _scalar_part(stencil), pointwise.reshape(6, N), held


class BasicChart:
    """Cached basic-connection lattice data and the covariant elliptic solver."""

    def __init__(self, lattice):
        self.lat = lat = lattice
        pts = lat.points
        self.gamma = fields.basic_connection().potential(pts) \
            .reshape(lat.shape + (4, 3))
        r2 = lat.r2.reshape(lat.shape)
        self.phi2 = 4.0 / (1.0 + r2) ** 2          # 1-form L^2 weight
        self.rw = round_weight(pts).reshape(lat.shape)
        self.interior = r2 <= (0.8 * lat.R) ** 2
        # Jacobi preconditioner, not L's diagonal (np.roll wraps x +- e_a at the
        # boundary; no pointwise part): L's moves the report beyond round-off
        diag = np.zeros(lat.shape)
        for a in range(4):
            diag += (np.roll(self.phi2, 1, axis=a) + np.roll(self.phi2, -1, axis=a))
        self._pdiag = diag / (4.0 * lat.h ** 2)
        parts = _laplace_parts(self.phi2, self.gamma, lat.h)
        if _matrix_bytes(*parts) <= CSR_BUDGET:
            self._matrix, self._parts = _laplace_matrix(*parts), None
        else:
            self._matrix, self._parts = None, _held_parts(*parts)

    @cached_property
    def basic_curvature(self):
        """Basic curvature at the nodes, (n,n,n,n,4,4,3); evaluated on first
        use and then held (19 MB at n = 15)."""
        lat = self.lat
        return fields.basic_connection().curvature(lat.points) \
            .reshape(lat.shape + (4, 4, 3))

    def divergence(self, ups):
        """Exact transpose, against the phi^2 weight, of the covariant
        gradient (D sig)_a = d_a sig + [Gamma_a, sig], sig extended by zero.

        Calibrated so divergence(D sig) tested against tau reproduces the
        round-metric pairing int <ups, D tau>_g dV; the continuum section it
        approximates is rw * D*ups."""
        h = self.lat.h
        acc = np.zeros(self.lat.shape + (3,))
        for a in range(4):
            w = self.phi2[..., None] * ups[..., a, :]
            acc -= central_diff(w, a, h) + bracket(self.gamma[..., a, :], w)
        return acc

    def laplace(self, sig):
        """divergence(D sig), from the matrix or the parts built at __init__."""
        if self._matrix is not None:
            return (self._matrix @ sig.ravel()).reshape(sig.shape)
        scalar, m, edges = self._parts
        s = np.ascontiguousarray(sig.reshape(-1, 3).T)
        out = np.stack([scalar @ c for c in s])
        out[0] += m[0] * s[0] + m[3] * s[1] + m[4] * s[2]
        out[1] += m[3] * s[0] + m[1] * s[1] + m[5] * s[2]
        out[2] += m[4] * s[0] + m[5] * s[1] + m[2] * s[2]
        N = s.shape[1]
        # per axis, -[Q_a(x), sig(x + e_a)] = -2Q_a(x) x sig(x + e_a) and then
        # +[Q_a(x - e_a), sig(x - e_a)]: _edge_fields' terms in their order;
        # the padding adds exact zeros where a flat slice wraps onto the
        # next plane
        for e, st in zip(edges, _strides(self.lat.n)):
            lo, hi = slice(0, N - st), slice(st, N)
            for o, c in zip(out[:, lo], cross_components(e[:, lo], s[:, hi])):
                o -= c
            for o, c in zip(out[:, hi], cross_components(e[:, lo], s[:, lo])):
                o += c
        return np.ascontiguousarray(out.T).reshape(sig.shape)

    def oneform_norm(self, ups, interior_only=False):
        """L^2(dV_g) norm of a coordinate 1-form field on the lattice."""
        n2 = self.phi2 * np.sum(ups * ups, axis=(-2, -1))
        if interior_only:
            n2 = n2 * self.interior
        return np.sqrt(pairwise_sum(n2) * self.lat.h ** 4)

    def section_norm(self, rho):
        """L^2(dV_g) norm of the section rho/rw given the weighted residual rho."""
        n2 = np.sum(rho * rho, axis=-1) / self.rw
        return np.sqrt(pairwise_sum(n2) * self.lat.h ** 4)

    def solve(self, rhs, rtol=1.0e-10):
        """Jacobi-preconditioned CG for laplace(sig) = rhs from sig = 0;
        returns (sig, iterations)."""
        x, its = _pcg(lambda p: self.laplace(p.reshape(rhs.shape)).ravel(),
                      rhs.ravel(), self._pdiag.ravel(), rtol)
        return x.reshape(rhs.shape), its


def _pcg(apply, b, pdiag, rtol):
    """Conjugate gradients for apply(x) = b from x = 0, preconditioned by
    division by pdiag, whose entries each divide one block of consecutive
    entries of b (at a chart node, its three components); returns
    (x, iterations).

    Stops when |r| < rtol |b|.  Each inner product and norm is one einsum,
    whose summation order, unlike a BLAS dot's, is the same at every thread
    count; the tests hold the loop to scipy.sparse.linalg.cg's iteration."""
    dot = partial(np.einsum, "i,i->")
    x = np.zeros(b.size)
    bnorm = np.sqrt(dot(b, b))
    if bnorm == 0.0:
        return x, 0
    stop = rtol * bnorm
    r = b.copy()
    for it in range(CG_MAXITER):
        if np.sqrt(dot(r, r)) < stop:
            return x, it
        z = (r.reshape(pdiag.size, -1) / pdiag[:, None]).ravel()
        rho = dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = apply(p)
        alpha = rho / dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise CoulombError("cg-not-converged after %d iterations" % CG_MAXITER)


_charts = {}    # at most one chart: no caller alternates lattices


def _chart(lattice):
    key = (lattice.R, lattice.n)
    if key not in _charts:
        _charts.clear()         # free the last chart before building the next
        _charts[key] = BasicChart(lattice)
    return _charts[key]


def _grid_potential(model, lattice):
    return model.potential(lattice.points).reshape(lattice.shape + (4, 3))


def gauge_action_lattice(chart, sigma, pot):
    """Potential of sigma[c] at the nodes from the node values of c.

    The pure-gauge part differentiates exp_im(sigma) with the same lattice
    stencil as the divergence (the transform is the identity off the chart),
    so the projector's fixed point is exact in the discrete pairing."""
    s = exp_im(sigma)
    s1 = s - quat.ONE
    sc = conj_components(components(s))
    out = np.empty(pot.shape)
    # one direction at a time: the products' temporaries are (n,n,n,n)
    # component arrays and one difference of s is held, where all four
    # directions at once would hold (n,n,n,n,4) ones and four differences
    for a in range(4):
        ds = central_diff(s1, a, chart.lat.h)
        pure = qmul_im_components(sc, components(ds))       # Im(conj(s) ds)
        out[..., a, :] = conjugate_im(s, pot[..., a, :])
        for k in range(3):
            out[..., a, k] += pure[k]
    return out


@dataclass
class CoulombResult:
    sigma: np.ndarray                 # (n,n,n,n,3)
    connection: "fields.LatticeField"
    residuals: list
    cg_iters: list
    sigma_sup: list
    converged: bool

    @property
    def lattice(self):
        return self.connection.lattice

    def transform_values(self):
        return exp_im(self.sigma)

    def write_log(self, fh):
        """Write the iteration log as CSV to the open text file fh."""
        w = csv.writer(fh)
        w.writerow(["outer_iter", "residual", "cg_iters", "sigma_sup_norm"])
        for k, res in enumerate(self.residuals):
            it = self.cg_iters[k] if k < len(self.cg_iters) else 0
            w.writerow([k, "%.17g" % res, it, "%.17g" % self.sigma_sup[k]])


def coulomb_project(c, lattice, tol=1.0e-8, support_tol=0.05,
                    cg_rtol=1.0e-10, sigma0=None):
    """Project a connection onto the Coulomb slice through the basic one.

    Outer loop: assemble the exact divergence residual of the transformed
    potential, solve one covariant Poisson problem for the update, damp by
    0.5 after a residual increase; two consecutive increases abort."""
    lat = lattice
    ch = _chart(lat)
    pot = _grid_potential(c, lat)
    ups0 = pot - ch.gamma
    with np.errstate(over="ignore"):        # an overflowing sup is inf: rejected
        sup_out = np.max(np.sqrt(np.sum(ups0 * ups0, axis=(-2, -1)))
                         [~ch.interior], initial=0.0)
    del ups0                # read by the gate only; not held through the solves
    if sup_out > support_tol:
        raise ValueError("perturbation not supported in |zeta| <= 0.8R "
                         "(sup %.3g outside)" % sup_out)
    if sigma0 is None:
        sigma = np.zeros(lat.shape + (3,))
    else:
        sigma = np.asarray(sigma0, float).reshape(lat.shape + (3,)).copy()
    residuals, cg_iters, sups = [], [], []
    damping, increases = 1.0, 0
    prev = np.inf
    converged = False
    for _ in range(MAX_OUTER):
        act = gauge_action_lattice(ch, sigma, pot)
        rho = ch.divergence(act - ch.gamma)
        res = ch.section_norm(rho)
        residuals.append(res)
        sups.append(float(np.max(np.sqrt(np.sum(sigma * sigma, axis=-1)))))
        if res <= tol:
            converged = True
            break
        if res >= prev:
            increases += 1
            if increases >= 2:
                raise CoulombError("diverged: residual increased twice "
                                   "(history %s)" % residuals)
            damping = 0.5
        else:
            increases = 0
        delta, its = ch.solve(-rho, rtol=cg_rtol)
        cg_iters.append(its)
        sigma = sigma + damping * delta
        prev = res
    if not converged:
        raise CoulombError("max-outer-exceeded: residual %.3g > tol %.3g "
                           "after %d iterations" % (residuals[-1], tol, MAX_OUTER))
    return CoulombResult(sigma, fields.LatticeField(lat, act), residuals,
                         cg_iters, sups, converged)


def distance_to_basic(result):
    """L^2(dV_g) distance of the projected potential to the basic one."""
    ch = _chart(result.lattice)
    return ch.oneform_norm(result.connection.values - ch.gamma)


def curvature_distance(c, result):
    """L^2 distance of the projected curvature to the basic curvature.

    Curvature transforms pointwise, so this needs no lattice differentiation."""
    lat = result.lattice
    F = c.curvature(lat.points).reshape(lat.shape + (4, 4, 3))
    s = result.transform_values()
    # one direction at a time: the adjoint action's temporaries are
    # (n,n,n,n,4) component arrays, where all four at once would make them
    # (n,n,n,n,4,4)
    for a in range(4):
        F[..., a, :, :] = conjugate_im(s[..., None, :], F[..., a, :, :])
    dF = F - _chart(lat).basic_curvature
    # |F|^2_g dV_g = |F|^2_coord dzeta (the conformal weights cancel)
    return np.sqrt(pairwise_sum(np.sum(dF * dF, axis=(-3, -2, -1))) * lat.h ** 4)


def lifted_pullback(m, model):
    """Pullback composed with the constant gauge that fixes the basic
    connection exactly (the rotation u -> p u conj(q) moves the basic
    potential to its conjugate by q, a pure constant gauge)."""
    out = fields.pullback(m, model)
    if not np.allclose(m.q, quat.ONE):
        out = fields.gauge_act(fields.ConstantGauge(m.q), out)
    return out


def commute_check(c, maps, lattice, tol=1.0e-6):
    """|| project(m* c) - m*(project(c)) ||_{L^2} over the chart interior for
    each map m in maps, with m acting through its basic-fixing lift; c is
    projected once for all of them.

    Both sides are written as discrete gauge actions on the pulled-back
    potential: m*(sigma0[c]) = (conj_q sigma0 . phi)[m* c], so the comparison
    is sigma1 against the transported sigma0 through the same stencil and the
    identity map gives exactly zero."""
    lat = lattice
    ch = _chart(lat)
    r0 = coulomb_project(c, tol=tol, lattice=lat)
    itp = RegularGridInterpolator((lat.axis,) * 4, r0.sigma, method="cubic",
                                  bounds_error=False, fill_value=0.0)
    defects = []
    for m in maps:
        mc = lifted_pullback(m, c)
        r1 = coulomb_project(mc, tol=tol, lattice=lat)
        sig_b = itp(m.apply(lat.points)).reshape(lat.shape + (3,))
        if not np.allclose(m.q, quat.ONE):
            sig_b = conjugate_im(np.asarray(m.q, float), sig_b)
        pb = gauge_action_lattice(ch, sig_b, _grid_potential(mc, lat))
        defects.append(ch.oneform_norm(pb - r1.connection.values,
                                       interior_only=True))
    return defects


@dataclass
class ZReport:
    cmap: ConformalMap
    z: float
    trace: list = field(default_factory=list)


def _z_value(c, lam, xi, lat, tol, sigma0=None):
    cmap = ConformalMap(xi2=np.asarray(xi, float), lam=float(lam))
    pulled = fields.pullback(cmap, c)
    res = coulomb_project(pulled, tol=tol, lattice=lat, support_tol=0.2,
                          cg_rtol=1.0e-8, sigma0=sigma0)
    zu = distance_to_basic(res) ** 2
    zf = curvature_distance(pulled, res) ** 2
    return cmap, zf + zu, zf, zu, res.sigma


def minimize_conformal_distance(c, lattice, lam_max=2.0, xi_max=0.5,
                                tol=1.0e-6):
    """Minimize Z = ||F_projected - F_basic||^2 + ||projected - basic||^2 over
    maps zeta -> xi + lam * zeta in the box lam in [1/lam_max, lam_max],
    |xi| <= xi_max: a coarse star-shaped grid (five dilations times the
    centre and the eight points +-xi_max e_a), then Nelder-Mead on
    (log lam, xi).
    Probes where the projection fails are skipped (recorded in the trace)."""
    lat = lattice
    trace = []
    warm = [None]       # reuse the last transform as the next probe's seed

    def probe(lam, xi):
        try:
            _, z, zf, zu, sig = _z_value(c, lam, xi, lat, tol, sigma0=warm[0])
        except (CoulombError, ValueError) as err:
            trace.append((float(lam), tuple(np.asarray(xi, float)),
                          float("nan"), str(err)))
            return np.inf
        warm[0] = sig
        trace.append((float(lam), tuple(np.asarray(xi, float)), float(z), "ok"))
        return z

    lams = np.geomspace(1.0 / lam_max, lam_max, 5)
    offsets = [np.zeros(4)]
    for a in range(4):
        e = np.zeros(4)
        e[a] = xi_max
        offsets.extend([e, -e])
    best = (np.inf, 1.0, np.zeros(4))
    for lam in lams:
        for xi in offsets:
            z = probe(lam, xi)
            if z < best[0]:
                best = (z, lam, xi)

    def fun(p):
        lam = np.exp(np.clip(p[0], -np.log(lam_max), np.log(lam_max)))
        xi = np.clip(p[1:], -xi_max, xi_max)
        return probe(lam, xi)

    p0 = np.concatenate([[np.log(best[1])], best[2]])
    simplex = np.tile(p0, (6, 1))
    for k in range(5):
        simplex[k + 1, k] += 0.08
    out = minimize(fun, p0, method="Nelder-Mead",
                   options={"xatol": 1e-4, "fatol": 1e-10, "maxfev": 800,
                            "adaptive": True, "initial_simplex": simplex})
    lam = float(np.exp(np.clip(out.x[0], -np.log(lam_max), np.log(lam_max))))
    xi = np.clip(out.x[1:], -xi_max, xi_max)
    cmap, z, _, _, _ = _z_value(c, lam, xi, lat, tol)
    return ZReport(cmap, float(z), trace)

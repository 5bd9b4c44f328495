"""Energy functionals, curvature L^p norms, and the topological charge.

Dispatch: models whose |F|^2_g is radially symmetric about the origin use the
spectrally convergent 1D theta-quadrature; centered-at-xi instanton integrands
are flat-measure translation invariant and use a recentered/rescaled radial
grid.  Other models have no quadrature route and raise ValueError.
"""

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import sphere, fields
from .sphere import RadialGrid, _doubling

BASIC_YM_ALPHA = lambda alpha: 6.0 ** alpha * (4.0 / 3.0) * np.pi ** 2


@dataclass
class EnergyReport:
    value: float
    alpha: float
    lam: float
    residual: float
    grid: str

    def to_json(self):
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return json.dumps(d, indent=1, sort_keys=True)


def f_norm2_g(model, zeta):
    """Pointwise |F|^2 in the round metric at the given chart points."""
    return sphere.f_norm2_coord(model.curvature(zeta)) * sphere.two_form_weight(zeta)


def _report(value, residual, alpha, lam, grid):
    return EnergyReport(float(value), float(alpha), float(lam),
                        float(residual), grid)


def _integrate(model, integrand, alpha, lam, n):
    """(1/2) int integrand(zeta, |F|^2_g) dV_g by the doubled radial
    quadrature (on the axis) of a radially symmetric model."""
    if not model.is_radial:
        raise ValueError("no quadrature route for this model: "
                         "|F|^2_g is not radially symmetric")

    def val(m):
        g = RadialGrid(m)
        pts = g.axis_points()
        return 0.5 * g.integrate_round(integrand(pts, f_norm2_g(model, pts)))
    v, res = _doubling(val, n)
    return _report(v, res, alpha, lam, "radial%d" % (2 * n))


def ym_energy(model, n=96):
    """(1/2) int |F|^2_g dV_g."""
    if isinstance(model, fields.Adhm) and not model.is_radial:
        # |F|^2_g dV_g = |F|^2 dzeta: translation/scale invariant flat measure
        def val(m):
            g = RadialGrid(m)
            pts = g.axis_points(center=model.xi, scale=model.lam)
            f2 = sphere.f_norm2_coord(model.curvature(pts))
            return 0.5 * model.lam ** 4 * g.integrate_flat(f2)
        v, res = _doubling(val, n)
        return _report(v, res, 1.0, 1.0, "radial%d@xi" % (2 * n))
    return _integrate(model, lambda zeta, f2: f2, 1.0, 1.0, n)


def ym_alpha(model, alpha, n=96):
    """(1/2) int (3 + |F|^2_g)^alpha dV_g; chi_1 = 1 exactly."""
    return ym_alpha_lambda(model, alpha, 1.0, n)


def ym_alpha_lambda(model, alpha, lam, n=96):
    """(1/2) int (3 + chi_lam |F|^2_g)^alpha chi_lam^{-1} dV_g."""
    if alpha < 1 or lam <= 0:
        raise ValueError("need alpha >= 1 and lambda > 0")

    def dens(zeta, f2):
        chi = sphere.chi_lambda(zeta, lam)
        return (3.0 + chi * f2) ** alpha / chi
    return _integrate(model, dens, alpha, lam, n)


# ---------------------------------------------------------------------------
# Topological charge
# ---------------------------------------------------------------------------

def charge_density_coord(F):
    """(|F-|^2 - |F+|^2) on coordinate components (flat-measure density)."""
    Fp, Fm = sphere.hodge_split(F)
    return (np.sum(Fm * Fm, axis=(-3, -2, -1))
            - np.sum(Fp * Fp, axis=(-3, -2, -1)))


def topological_charge(model, n=96):
    """(1/8 pi^2) int (|F-|^2 - |F+|^2) dzeta (conformal weights cancel)."""
    if isinstance(model, fields.Adhm):
        center, scale = model.xi, model.lam
    elif model.is_radial:
        center, scale = None, 1.0
    else:
        raise ValueError("no quadrature route for this model: "
                         "|F|^2_g is not radially symmetric")

    g = RadialGrid(2 * n)
    pts = g.axis_points(center=center, scale=scale)
    q = charge_density_coord(model.curvature(pts))
    v = scale ** 4 * g.integrate_flat(q)
    return v / (8.0 * np.pi ** 2)


def lp_curvature_norm(model, p, n=96):
    """(int |F|^p_g dV_g)^{1/p} for radially symmetric models."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return lp_difference_norm(model, fields.FlatConnection(), p, n)


def _ansatz(model):
    """Curvature t1(s)(zeta^i v_j - zeta^j v_i) + t2(s) M_ij: a radial
    profile or a centred instanton, undecorated."""
    return isinstance(model, fields.RadialProfile) \
        or (isinstance(model, fields.Adhm) and model.is_radial)


def lp_difference_norm(model1, model2, p, n=96):
    """L^p norm of F_{c1} - F_{c2} on the radial grid along the zeta^0 ray.

    Exact only where |F_{c1} - F_{c2}|_g is radially symmetric: a radial
    model against a flat connection, or two ansatz models (their difference
    is again of the ansatz form).  Other pairs raise ValueError."""
    flat = fields.FlatConnection
    if not ((isinstance(model1, flat) and model2.is_radial)
            or (isinstance(model2, flat) and model1.is_radial)
            or (_ansatz(model1) and _ansatz(model2))):
        raise ValueError("radial route only: |F1 - F2| must be radially "
                         "symmetric (a flat model or two ansatz models)")

    g = RadialGrid(2 * n)
    pts = g.axis_points()
    dF = model1.curvature(pts) - model2.curvature(pts)
    d2 = sphere.f_norm2_coord(dF) * sphere.two_form_weight(pts)
    v = g.integrate_round(d2 ** (p / 2.0))
    return v ** (1.0 / p)

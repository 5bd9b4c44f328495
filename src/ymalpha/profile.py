"""One-dimensional dilation analysis of the basic instanton.

The alpha-energy of the pulled-back basic connection lam*A reduces to a single
radial integral; three equivalent quadrature routes are kept (radial chart,
the w = lam(1+r^2)/(1+lam^2 r^2) substitution, and the hyperbolic t = log w
form) as mutual oracles.  The hyperbolic form defines the normalized profile
G(sigma) with sigma = (alpha-1) log(lam), G(0) = 1, and the gap
U(alpha, lam) = E - E(lam=1) = BASIC_YM_ALPHA(alpha) (G - 1).
"""

from dataclasses import dataclass

import numpy as np

from . import sphere, energy
from .energy import BASIC_YM_ALPHA
from .sphere import _doubling, gauss_legendre, pairwise_sum

LAMBDA_OVERFLOW = 1.0e6
TAU_MAX = 30.0          # sigma/beta above this overflows the direct forms of G


@dataclass
class ProfilePoint:
    alpha: float
    lam: float
    tau: float
    sigma: float
    G: float
    Gprime: float
    gap: float
    dE_dloglambda: float
    residual: float


@dataclass
class ChiNormReport:
    """L^2 quadratures of log chi_lambda derivatives (spherical-chart weights).

    grad_sq is the exact radial quadrature 2 pi^3 int r^3/(1+r^2)^2
    (d_r log chi)^2 dr; grad_sq_regions evaluates the piecewise power-law
    majorant on (0,1/lam), (1/lam,1), (1,inf) whose closed form is
    (2^7/3) pi^3 ((lam-1)(lam+1)/lam^2)^2 (2 - 1/lam^2).  The commonly quoted
    constant omits the trailing (2 - 1/lam^2); both are reported."""
    lam: float
    grad_sq: float
    grad_sq_regions: float
    grad_sq_closed: float
    closed_form_ratio: float
    hess_rr_sq: float
    hess_rr_bound: float
    gamma_sq: float
    gamma_bound: float
    total_norm: float
    ratio_log: float
    ratio_sqrtlog: float


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def _coshdiff(tau, t):
    """cosh(tau) - cosh(t) = 2 sinh((tau+t)/2) sinh((tau-t)/2), stable as t->tau."""
    return 2.0 * np.sinh(0.5 * (tau + t)) * np.sinh(0.5 * (tau - t))


def _check_al(alpha, lam):
    if not 1.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [1, 2]")
    if lam < 1.0:
        raise ValueError("lambda must be >= 1 (use the 1/lambda symmetry)")
    if lam > LAMBDA_OVERFLOW:
        raise OverflowError("lambda must be <= 1e6")


# ---------------------------------------------------------------------------
# pullback energy: three routes
# ---------------------------------------------------------------------------

def _radial_route(alpha, lam, m):
    # E = 16 3^a pi^2 int (1 + lam^4 (1+r^2)^4/(1+lam^2 r^2)^4)^a r^3/(1+r^2)^4 dr
    g = sphere.RadialGrid(m)
    r, s = g.r, g.s
    w4 = (lam * (1.0 + s) / (1.0 + lam ** 2 * s)) ** 4
    f = (1.0 + w4) ** alpha * r ** 3 / (1.0 + s) ** 4 * 0.5 * (1.0 + s)
    return 16.0 * 3.0 ** alpha * np.pi ** 2 * pairwise_sum(f * g.wtheta)


def _w_route(alpha, lam, m):
    # E = 8 pi^2 3^a (lam - 1/lam)^-3 int_{1/lam}^lam (1+w^4)^a (lam-w)(w-1/lam) w^-4 dw
    w, wt = gauss_legendre(m, 1.0 / lam, lam)
    f = (1.0 + w ** 4) ** alpha * (lam - w) * (w - 1.0 / lam) / w ** 4
    return 8.0 * np.pi ** 2 * 3.0 ** alpha / (lam - 1.0 / lam) ** 3 \
        * pairwise_sum(f * wt)


def _hyperbolic_route(alpha, lam, m):
    return BASIC_YM_ALPHA(alpha) * _G_tau(np.log(lam), alpha - 1.0, m)


_ROUTES = {"radial": _radial_route, "w-substitution": _w_route,
           "hyperbolic": _hyperbolic_route}


def _value(rule, n, with_residual):
    """rule at 2n nodes, with the doubling residual (against n nodes) only
    on request."""
    if with_residual:
        return _doubling(rule, n)
    return rule(2 * n)


def pullback_energy(alpha, lam, route="hyperbolic", n=96, with_residual=False):
    """YM_alpha(lam*A) for the basic instanton by the named quadrature route.

    The hyperbolic route stays accurate at every accepted lambda; at n = 96
    the radial route is off by percents from lambda = 1e3 on, and the
    w-substitution route from lambda = 1e2 on when alpha is near 1."""
    _check_al(alpha, lam)
    if route not in _ROUTES:
        raise ValueError("route must be one of %s" % sorted(_ROUTES))
    if lam == 1.0:
        v = BASIC_YM_ALPHA(alpha)
        return (v, 0.0) if with_residual else v
    rule = _ROUTES[route]
    return _value(lambda m: rule(alpha, lam, m), n, with_residual)


# ---------------------------------------------------------------------------
# hyperbolic profile G and its derivative
# ---------------------------------------------------------------------------

def _G_tau(tau, beta, n):
    """G as a function of tau = log(lam): 3 sinh(tau)^-3 times the t-integral."""
    t, w = gauss_legendre(n, 0.0, tau)
    f = np.cosh(2.0 * t) ** (1.0 + beta) * np.cosh(2.0 * beta * t) \
        * _coshdiff(tau, t)
    return 3.0 * pairwise_sum(f * w) / np.sinh(tau) ** 3


def _tau(sigma, beta):
    """tau = sigma/beta for beta in (0, 1] and tau <= TAU_MAX, where the
    integrands, growing like e^{tau(3 + 4 beta)}, stay finite."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if sigma / beta > TAU_MAX:
        raise ValueError("sigma/beta must be <= %g" % TAU_MAX)
    return sigma / beta


def G_of_sigma(sigma, beta, n=96, with_residual=False):
    """Normalized pullback-energy profile; G(0+) = 1, increasing in sigma."""
    tau = _tau(sigma, beta)
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return (1.0, 0.0) if with_residual else 1.0
    return _value(lambda m: _G_tau(tau, beta, m), n, with_residual)


def G_prime(sigma, beta, n=96):
    """dG/dsigma in the integrated-by-parts form (manifestly positive)."""
    tau = _tau(sigma, beta)
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    alpha = 1.0 + beta
    t, w = gauss_legendre(2 * n, 0.0, tau)
    f = np.cosh(2.0 * t) ** (beta - 1.0) * np.sinh(2.0 * alpha * t) \
        * np.sinh(t) * _coshdiff(tau, t) \
        * (2.0 * np.cosh(tau) * np.cosh(t) - 1.0)
    return 6.0 * pairwise_sum(f * w) / np.sinh(tau) ** 4


def gap(alpha, lam, n=96):
    """U(alpha, lam) = YM_alpha(lam*A) - BASIC_YM_ALPHA(alpha) >= 0."""
    _check_al(alpha, lam)
    if lam == 1.0 or alpha == 1.0:
        return 0.0
    beta = alpha - 1.0
    g = G_of_sigma(beta * np.log(lam), beta, n=n)
    return BASIC_YM_ALPHA(alpha) * (g - 1.0)


# ---------------------------------------------------------------------------
# derivative in log(lambda)
# ---------------------------------------------------------------------------

def _mu_weighted_derivative(f2g, chi, mug, alpha, grid):
    h = (3.0 + chi * f2g) ** (alpha - 1.0)
    return 2.0 * grid.integrate_round(h * ((alpha - 1.0) * f2g - 3.0 / chi) * mug)


def dE_dloglambda_basic(alpha, lam, n=96):
    """d/dlog(lam) of YM_{alpha,lam}(A) for the basic instanton.

    Direct mu(lam zeta)-weighted radial quadrature of the differentiated
    functional; cross-checks BASIC_YM_ALPHA * beta * G'(sigma)."""
    _check_al(alpha, lam)
    g = sphere.RadialGrid(2 * n)
    pts = g.axis_points()
    chi = sphere.chi_lambda(pts, lam)
    mug = sphere.mu(lam * pts)
    return _mu_weighted_derivative(np.full(g.n, 3.0), chi, mug, alpha, g)


def dE_dloglambda_general(model, alpha, lam, n=96):
    """d/dlog(lam) of YM_{alpha,lam}(model) for radially symmetric models."""
    _check_al(alpha, lam)
    if not model.is_radial:
        raise ValueError("radial route only: |F|^2_g must be radially symmetric")
    g = sphere.RadialGrid(2 * n)
    pts = g.axis_points()
    f2g = energy.f_norm2_g(model, pts)
    chi = sphere.chi_lambda(pts, lam)
    mug = sphere.mu(lam * pts)
    return _mu_weighted_derivative(f2g, chi, mug, alpha, g)


# ---------------------------------------------------------------------------
# gap lower bounds with fitted constants
# ---------------------------------------------------------------------------

def profile_point(alpha, lam, n=96):
    _check_al(alpha, lam)
    beta = alpha - 1.0
    tau = float(np.log(lam))
    sigma = beta * tau
    v, res = pullback_energy(alpha, lam, route="hyperbolic", n=n,
                             with_residual=True)
    g = v / BASIC_YM_ALPHA(alpha)
    gp = G_prime(sigma, beta, n=n) if (sigma > 0.0 and beta > 0.0) else 0.0
    de = dE_dloglambda_basic(alpha, lam, n=n)
    return ProfilePoint(float(alpha), float(lam), tau, sigma, float(g),
                        float(gp), float(v - BASIC_YM_ALPHA(alpha)),
                        float(de), float(res))


def verify_gap_bounds(samples, n=96):
    """Fit the largest constants C in the three gap regimes.

    Regime 1: sigma >= 5, U >= C lam^{4a-4}; regime 2: beta <= sigma <= 5,
    U >= C beta tau; regime 3: tau <= 1, U >= C beta tau^2.  Also fits the
    derivative bound dE/dtau >= C beta tau/(1+tau) on samples with sigma <= 2.
    Returns a dict of fitted constants; all must be positive to pass."""
    ratios = {"regime1": [], "regime2": [], "regime3": [], "derivative": []}
    for alpha, lam in samples:
        beta, tau = alpha - 1.0, float(np.log(lam))
        sigma = beta * tau
        if tau <= 0.0 or beta <= 0.0:
            raise ValueError("regime-misclassified: need alpha > 1, lam > 1")
        u = gap(alpha, lam, n=n)
        matched = False
        if sigma >= 5.0:
            ratios["regime1"].append(u / lam ** (4.0 * alpha - 4.0))
            matched = True
        if beta <= sigma <= 5.0:
            ratios["regime2"].append(u / (beta * tau))
            matched = True
        if tau <= 1.0:
            ratios["regime3"].append(u / (beta * tau ** 2))
            matched = True
        if not matched:
            raise ValueError("regime-misclassified: (%g, %g) fits no case"
                             % (alpha, lam))
        if sigma <= 2.0:
            de = dE_dloglambda_basic(alpha, lam, n=n)
            ratios["derivative"].append(de / (beta * tau / (1.0 + tau)))
    out = {k: (min(v) if v else np.nan) for k, v in ratios.items()}
    out["passes"] = all(np.isnan(v) or v > 0.0 for v in out.values())
    # explicit regime-3 constant: U >= 6^a (2^5/15) pi^2 beta tau^2
    return out


# ---------------------------------------------------------------------------
# log chi_lambda Sobolev quadratures
# ---------------------------------------------------------------------------

def _dlogchi_dr(r, lam):
    return 8.0 * r * (lam ** 2 - 1.0) / ((1.0 + lam ** 2 * r * r) * (1.0 + r * r))


def _d2logchi_dr2(r, lam):
    s = r * r
    return -8.0 * (lam ** 2 - 1.0) * (3.0 * lam ** 2 * s * s
                                      + (lam ** 2 + 1.0) * s - 1.0) \
        / ((s + 1.0) ** 2 * (lam ** 2 * s + 1.0) ** 2)


def _radial_integral(fn, n):
    """int_0^inf fn(r) dr via r = tan(theta/2), spectrally convergent."""
    g = sphere.RadialGrid(2 * n)
    return pairwise_sum(fn(g.r) * 0.5 * (1.0 + g.s) * g.wtheta)


def chi_sobolev_norms(lam, n=96):
    """Spherical-chart L^2 quadratures of the log chi_lambda derivatives.

    The gradient piece carries weight r^3/(1+r^2)^2 and angular factor
    2 pi^3; the second-derivative pieces carry r^3/(1+r^2)^4 with angular
    factors 2 pi^3 and 217 pi^2/64 (Christoffel piece).  Piecewise power-law
    majorants on (0,1/lam), (1/lam,1), (1,inf) give the closed-form targets."""
    if lam < 1.0:
        raise ValueError("lambda must be >= 1")
    lam = float(lam)
    shape2 = ((lam - 1.0) / lam) ** 2 * ((lam + 1.0) / lam) ** 2
    grad_closed = 2.0 ** 7 / 3.0 * np.pi ** 3 * shape2
    if lam == 1.0:
        return ChiNormReport(lam, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                             0.0, 0.0, 0.0)

    grad_sq = 2.0 * np.pi ** 3 * _radial_integral(
        lambda r: r ** 3 / (1.0 + r * r) ** 2 * _dlogchi_dr(r, lam) ** 2, n)
    # piecewise majorant: exact closed form of the three power-law segments
    grad_regions = 2.0 ** 7 * np.pi ** 3 * (lam ** 2 - 1.0) ** 2 * (
        1.0 / (6.0 * lam ** 6)
        + 0.5 / lam ** 4 - 0.5 / lam ** 6
        + 1.0 / (6.0 * lam ** 4))

    hess_rr = 2.0 * np.pi ** 3 * _radial_integral(
        lambda r: r ** 3 / (1.0 + r * r) ** 4 * _d2logchi_dr2(r, lam) ** 2, n)
    hess_rr_bound = 2.0 ** 7 * 1307.0 / 504.0 * np.pi ** 3 * shape2

    gamma_sq = 217.0 * np.pi ** 2 * (lam ** 2 - 1.0) ** 2 * _radial_integral(
        lambda r: r ** 7 / ((1.0 + lam ** 2 * r * r) ** 2
                            * (1.0 + r * r) ** 6), n)
    gamma_bound = 217.0 / 8.0 * np.pi ** 2 * shape2 \
        * (3.0 / 8.0 - 1.0 / (8.0 * lam ** 4))

    total = np.sqrt(grad_sq) + np.sqrt(hess_rr + gamma_sq)
    tau = np.log(lam)
    return ChiNormReport(
        lam, float(grad_sq), float(grad_regions), float(grad_closed),
        float(grad_regions / grad_closed), float(hess_rr),
        float(hess_rr_bound), float(gamma_sq), float(gamma_bound),
        float(total), float(total / tau),
        float(total / np.sqrt(tau)) if lam >= np.e else np.nan)

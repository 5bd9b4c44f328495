"""Named verification checks tying every documented claim to a computation.

Each check returns a Check record (id, claim description, computed value,
target, tolerance, pass flag); run_suite executes all of them against a flat
key=value configuration and produces a deterministic VerificationReport.
Randomness is drawn from a counter-based generator keyed by a single 64-bit
seed, with an independent jumped stream per check.
"""

import json
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import coulomb, energy, fields, flow, profile, sphere, variational
from .energy import BASIC_YM_ALPHA
from .sphere import Lattice4D, RadialGrid

REPORT_VERSION = 1

DEFAULTS = {
    "seed": 20260823,
    "quad_rtol": 1.0e-8,
    "point_atol": 1.0e-12,
    "lower_bound_slack": 1.0e-6,
    "lower_bound_draws": 200,
    "profile_fd_tol": 1.0e-6,
    "chi_rtol": 1.0e-6,
    "grad_rel_tol": 1.0e-3,
    "jacobi_tol": 1.0e-2,
    "flow_seeds": 5,
    "flow_dist_tol": 1.0e-3,
    "flow_energy_tol": 1.0e-4,
    "coulomb_tol": 1.0e-8,
    "commute_tol": 1.0e-2,
    "bootstrap_bound": 1.0,
    "z_param_tol": 1.0e-3,
    "z_value_tol": 1.0e-6,
    "radial_n": 96,
    "moduli_n": 12,
    "coulomb_n": 15,
    "z_n": 7,
}


@dataclass
class Check:
    id: str
    claim: str
    computed: float
    target: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    version: int
    seed: int
    config: dict
    checks: list
    all_pass: bool

    def to_json(self):
        def plain(c):
            d = asdict(c)
            for k in ("computed", "target", "tolerance"):
                d[k] = float(d[k])
            d["passed"] = bool(d["passed"])
            return d
        d = {"version": self.version, "seed": self.seed,
             "config": {k: self.config[k] for k in sorted(self.config)},
             "checks": [plain(c) for c in self.checks],
             "all_pass": bool(self.all_pass)}
        return json.dumps(d, indent=1, sort_keys=True)


def _cfg(config):
    out = dict(DEFAULTS)
    if config:
        out.update(config)
    return out


def _rng(cfg, index):
    return np.random.Generator(np.random.Philox(key=int(cfg["seed"])).jumped(index))


# ---------------------------------------------------------------------------
# the twelve checks
# ---------------------------------------------------------------------------

def check_basic_energy(cfg, rng):
    """alpha-energy of the basic instanton equals 6^alpha (4/3) pi^2."""
    worst = 0.0
    for alpha in (1.0, 1.1, 1.5, 2.0):
        v = energy.ym_alpha(fields.basic_connection(), alpha,
                            n=cfg["radial_n"]).value
        worst = max(worst, abs(v / BASIC_YM_ALPHA(alpha) - 1.0))
    return Check("basic-energy",
                 "alpha-energy of the basic instanton equals 6^a (4/3) pi^2 "
                 "for a in {1, 1.1, 1.5, 2}",
                 worst, 0.0, cfg["quad_rtol"], worst <= cfg["quad_rtol"])


def check_curvature_norms(cfg, rng):
    """Instanton curvature L^2 norm 8 pi^2; pointwise |F|^2_g = 3 at basic."""
    worst = 0.0
    for _ in range(5):
        xi = rng.normal(scale=1.0, size=4)
        lam = float(rng.uniform(0.5, 2.0))
        v = energy.ym_energy(fields.Adhm(xi, lam), n=cfg["radial_n"]).value
        worst = max(worst, abs(2.0 * v / (8.0 * np.pi ** 2) - 1.0))
    pts = rng.normal(scale=1.5, size=(1000, 4))
    ptw = float(np.max(np.abs(
        energy.f_norm2_g(fields.basic_connection(), pts) - 3.0)))
    ok = worst <= cfg["quad_rtol"] and ptw <= cfg["point_atol"]
    return Check("curvature-norms",
                 "instanton curvature norm ||F||^2 = 8 pi^2 (5 random "
                 "centers/scales); |F|^2_g = 3 pointwise at the basic one",
                 worst, 0.0, cfg["quad_rtol"], ok,
                 detail="pointwise sup deviation %.3g (atol %.1g)"
                 % (ptw, cfg["point_atol"]))


def check_lower_bound(cfg, rng):
    """alpha-energy of every sampled connection >= the instanton value."""
    alphas = (1.0, 1.1, 1.5, 2.0)
    margin = np.inf
    grid_b = RadialGrid(2 * cfg["radial_n"])
    for _ in range(int(cfg["lower_bound_draws"])):
        c = fields.random_connection(rng)
        dens = energy.f_norm2_g(c, grid_b.axis_points())
        for alpha in alphas:
            v = 0.5 * grid_b.integrate_round((3.0 + dens) ** alpha)
            margin = min(margin, v - BASIC_YM_ALPHA(alpha))
    ok = margin >= -cfg["lower_bound_slack"]
    return Check("lower-bound",
                 "alpha-energy >= 6^a (4/3) pi^2 over seeded random "
                 "connections, a in {1, 1.1, 1.5, 2}",
                 float(margin), 0.0, cfg["lower_bound_slack"], ok)


def check_charge(cfg, rng):
    """Topological charge 1; basic curvature anti-self-dual."""
    worst = 0.0
    for xi, lam in [(None, 1.0), (rng.normal(size=4), float(rng.uniform(0.7, 1.6)))]:
        q = energy.topological_charge(fields.Adhm(xi, lam), n=cfg["radial_n"])
        worst = max(worst, abs(q - 1.0))
    g = RadialGrid(cfg["radial_n"])
    F = fields.basic_connection().curvature(g.axis_points())
    Fp, _ = sphere.hodge_split(F)
    sd = np.sqrt(g.integrate_flat(np.sum(Fp * Fp, axis=(-3, -2, -1))))
    ok = worst <= 1.0e-8 and sd <= 1.0e-8
    return Check("charge-asd",
                 "topological charge of the instanton family = 1; "
                 "self-dual curvature part vanishes at the basic connection",
                 worst, 0.0, 1.0e-8, ok,
                 detail="||F_plus||_L2 = %.3g" % sd)


def check_dilation_symmetry(cfg, rng):
    """Dilation is an isometry of the twisted energy; lam <-> 1/lam symmetry."""
    b = fields.basic_connection()
    worst = 0.0
    for alpha in (1.0, 1.2, 1.5, 2.0):
        base = energy.ym_alpha(b, alpha, n=cfg["radial_n"]).value
        for lam in (1.0, 1.5, 2.0, 5.0):
            pulled = fields.pullback(sphere.dilation(lam), b)
            tw = energy.ym_alpha_lambda(pulled, alpha, lam, n=cfg["radial_n"]).value
            worst = max(worst, abs(tw / base - 1.0))
            up = energy.ym_alpha(pulled, alpha, n=cfg["radial_n"]).value
            dn = energy.ym_alpha(fields.pullback(sphere.dilation(1.0 / lam), b),
                                 alpha, n=cfg["radial_n"]).value
            worst = max(worst, abs(up / dn - 1.0))
    ok = worst <= cfg["quad_rtol"]
    return Check("dilation-symmetry",
                 "twisted energy of the dilated basic connection equals the "
                 "untwisted value; plain energy symmetric under lam <-> 1/lam",
                 worst, 0.0, cfg["quad_rtol"], ok)


def check_profile_consistency(cfg, rng):
    """Quadrature routes agree; G' matches finite differences, G' > 0,
    gap >= 0 with positive fitted regime constants."""
    n = cfg["radial_n"]
    routes = ("radial", "w-substitution", "hyperbolic")
    worst = 0.0
    for alpha in (1.05, 1.2, 1.4, 1.7, 2.0):
        for lam in (1.05, 1.5, 2.0, 3.0, 5.0):
            vals = [profile.pullback_energy(alpha, lam, route=r, n=n)
                    for r in routes]
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, abs(vals[i] / vals[j] - 1.0))
    fd_worst, gp_min, gap_min = 0.0, np.inf, np.inf
    for alpha in (1.2, 1.5, 2.0):
        beta = alpha - 1.0
        for lam in (1.5, 2.0, 5.0):
            sig = beta * np.log(lam)
            gp = profile.G_prime(sig, beta, n=n)
            d = 1.0e-4 * max(sig, 1.0)
            fd = (profile.G_of_sigma(sig + d, beta, n=n)
                  - profile.G_of_sigma(sig - d, beta, n=n)) / (2.0 * d)
            fd_worst = max(fd_worst, abs(gp - fd) / max(abs(gp), 1e-12))
            gp_min = min(gp_min, gp)
            gap_min = min(gap_min, profile.gap(alpha, lam, n=n))
    fits = profile.verify_gap_bounds(
        [(2.0, 200.0), (1.8, 1000.0), (1.5, 20.0), (1.2, 5.0),
         (1.3, 2.0), (1.1, 1.5)], n=n)
    ok = (worst <= cfg["quad_rtol"] and fd_worst <= cfg["profile_fd_tol"]
          and gp_min > 0.0 and gap_min >= 0.0 and fits["passes"])
    return Check("profile-consistency",
                 "three quadrature routes for the dilated energy agree; "
                 "G' matches finite differences of G, G' > 0, gap >= 0, "
                 "fitted regime constants positive",
                 worst, 0.0, cfg["quad_rtol"], ok,
                 detail="G' fd dev %.3g, min G' %.3g, min gap %.3g, fits %s"
                 % (fd_worst, gp_min, gap_min,
                    {k: (None if isinstance(v, bool) else float(v))
                     for k, v in fits.items() if k != "passes"}))


def check_chi_norms(cfg, rng):
    """Piecewise gradient norm of log chi matches its closed form (with the
    corrected trailing factor); majorant inequalities hold."""
    worst, bound_ok = 0.0, True
    for lam in (1.5, 2.0, 10.0):
        rep = profile.chi_sobolev_norms(lam, n=cfg["radial_n"])
        corrected = 2.0 - 1.0 / lam ** 2
        worst = max(worst, abs(rep.closed_form_ratio / corrected - 1.0))
        bound_ok &= (rep.grad_sq <= rep.grad_sq_regions * (1 + 1e-12)
                     and rep.hess_rr_sq <= rep.hess_rr_bound * (1 + 1e-12)
                     and rep.gamma_sq <= rep.gamma_bound * (1 + 1e-12)
                     and np.isfinite(rep.ratio_log) and rep.ratio_log > 0.0)
    ok = worst <= cfg["chi_rtol"] and bound_ok
    return Check("chi-norms",
                 "piecewise ||grad log chi||^2 closed form (corrected "
                 "trailing factor 2 - 1/lam^2); quadratures below their "
                 "power-law majorants",
                 worst, 0.0, cfg["chi_rtol"], ok,
                 detail="majorant inequalities hold: %s" % bound_ok)


class _AnalyticRadial(fields.RadialProfile):
    """Radial ansatz with a C-infinity profile g = 1 + sum of log-radius
    Gaussian bumps (spline-free, so the integrated-by-parts gradient
    identity can be checked at spectral quadrature accuracy)."""

    is_radial = True

    def __init__(self, terms):
        self.terms = [(float(a), float(m), float(w)) for a, m, w in terms]

    def _g_dg(self, s):
        s = np.maximum(np.asarray(s, float), 1e-300)
        x = np.log(s)
        g = np.ones_like(s)
        dg_ds = np.zeros_like(s)
        for a, m, w in self.terms:
            b = a * np.exp(-((x - m) / w) ** 2)
            g += b
            dg_ds += b * (-2.0 * (x - m) / w ** 2) / s
        # _g_dg contract: derivative with respect to theta = 2 arctan sqrt(s)
        return g, dg_ds * np.sqrt(s) * (1.0 + s)

    def perturbed(self, eps, bump):
        return _AnalyticRadial(self.terms + [(eps * bump[0],) + bump[1:]])


def check_variational(cfg, rng):
    """Analytic energy gradient vs finite differences of the quadrature
    energy; D*F stencil order; polarization residual order; commutator
    margins nonpositive."""
    n = cfg["radial_n"]
    worst = 0.0
    for k in range(10):
        terms = [(rng.uniform(-0.2, 0.2), rng.uniform(-1.0, 2.0),
                  rng.uniform(0.4, 0.8)) for _ in range(rng.integers(1, 4))]
        prof = _AnalyticRadial(terms)
        alpha = float(rng.uniform(1.1, 1.8))
        lam = float(rng.choice([1.0, 1.5, 2.0]))
        bump = (rng.uniform(0.5, 1.0), rng.uniform(-0.5, 1.5),
                rng.uniform(0.4, 0.8))
        eps = 1.0e-4
        ep = energy.ym_alpha_lambda(prof.perturbed(eps, bump), alpha, lam, n=n).value
        em = energy.ym_alpha_lambda(prof.perturbed(-eps, bump), alpha, lam, n=n).value
        fd = (ep - em) / (2.0 * eps)
        # analytic first variation <2 alpha * gradient, V> in L^2(dV_g)
        qg = RadialGrid(2 * n)
        pts = qg.axis_points()
        G = variational.gradient_ym_alpha_lambda(prof, alpha, lam, pts, h=5e-4)
        s = qg.s
        uval = bump[0] * np.exp(-((np.log(s) - bump[1]) / bump[2]) ** 2)
        vhat = (sphere.frame_scale(pts) * uval / (1.0 + s))[:, None, None] \
            * fields.v_field(pts)
        integrand = 2.0 * alpha * np.sum(G * vhat, axis=(-2, -1))
        an = qg.integrate_round(integrand)
        worst = max(worst, abs(an - fd) / max(abs(fd), 1e-12))
    # D*F stencil order on a smooth non-critical profile (Richardson), plus
    # the critical-point identity D*F = 0 at the basic connection
    pts = rng.normal(scale=0.8, size=(40, 4))
    smooth = _AnalyticRadial([(0.2, 0.0, 0.6)])
    v4 = variational.dstar_F(smooth, pts, h=4e-3)
    v2 = variational.dstar_F(smooth, pts, h=2e-3)
    v1 = variational.dstar_F(smooth, pts, h=1e-3)
    order = np.log2(np.max(np.abs(v4 - v2)) / np.max(np.abs(v2 - v1)))
    crit = float(np.max(np.abs(variational.dstar_F(
        fields.basic_connection(), pts, h=2e-3))))
    # polarization residuals under stencil refinement
    c1, c2 = fields.Adhm(None, 1.3), fields.basic_connection()
    rf1, rd1 = variational.polarization_residuals(c1, c2, pts, h=2e-3)
    rf2, rd2 = variational.polarization_residuals(c1, c2, pts, h=1e-3)
    pol_ok = rf1 / rf2 >= 3.0 and rd1 / rd2 >= 3.0
    mA, mB = variational.commutator_bound_check(
        rng.normal(size=(10000, 4, 3)), rng.normal(size=(10000, 4, 4, 3)))
    ok = (worst <= cfg["grad_rel_tol"] and order >= 1.9 and crit <= 1e-10
          and pol_ok and mA <= 0.0 and mB <= 0.0)
    return Check("variational-gradient",
                 "analytic alpha-energy gradient matches finite differences "
                 "of the quadrature energy; D*F and polarization residuals "
                 "are second order; commutator margins nonpositive",
                 worst, 0.0, cfg["grad_rel_tol"], ok,
                 detail="D*F order %.2f, critical residual %.3g; polarization "
                 "ratios (%.1f, %.1f); margins (%.3g, %.3g)"
                 % (order, crit, rf1 / rf2, rd1 / rd2, mA, mB))


def check_jacobi(cfg, rng):
    """Moduli directions lie in the kernel of the second-variation operator."""
    basis = variational.ModuliBasis(Lattice4D(3.0, cfg["moduli_n"]))
    pts = rng.normal(scale=0.8, size=(60, 4))
    worst, refined = 0.0, 0.0
    for k in range(5):
        fn = basis.member(k)
        nrm = float(np.max(np.abs(fn(pts))))
        r1 = float(np.max(np.abs(variational.jacobi_apply(
            fields.basic_connection(), fn, pts, h=2e-3)))) / nrm
        r2 = float(np.max(np.abs(variational.jacobi_apply(
            fields.basic_connection(), fn, pts, h=1e-3)))) / nrm
        worst = max(worst, r1)
        refined = max(refined, r2)
    ok = worst <= cfg["jacobi_tol"] and refined < worst
    return Check("jacobi-kernel",
                 "second-variation operator annihilates the instanton moduli "
                 "directions (residual small and decreasing under stencil "
                 "refinement)",
                 worst, 0.0, cfg["jacobi_tol"], ok,
                 detail="refined residual %.3g" % refined)


def check_flow(cfg, rng):
    """Seeded below-threshold flows converge back to the basic connection
    with monotone energy and conserved charge."""
    alpha = 1.1
    target = BASIC_YM_ALPHA(alpha)
    worst_d, worst_e, worst_mono, worst_q, worst_qf = 0.0, 0.0, 0.0, 0.0, 0.0
    for k in range(int(cfg["flow_seeds"])):
        prof = flow.random_flow_seed(rng, amp=0.25)
        e0 = energy.ym_alpha(prof, alpha).value
        if e0 > target + 0.1:     # stay in the stated low-energy class
            prof = flow.random_flow_seed(rng, amp=0.1)
            e0 = energy.ym_alpha(prof, alpha).value
        res = flow.run_flow(prof, flow.FlowConfig(alpha=alpha))
        if not res.converged:
            return Check("flow-convergence", "gradient flow convergence",
                         np.inf, 0.0, cfg["flow_dist_tol"], False,
                         detail="seed %d: %s" % (k, res.reason))
        es = np.array([row[2] for row in res.trajectory])
        qs = np.array([row[6] for row in res.trajectory])
        worst_mono = max(worst_mono, float(np.max(np.diff(es))))
        worst_q = max(worst_q, float(np.max(np.abs(qs - 1.0))))
        worst_d = max(worst_d, res.trajectory[-1][4])
        worst_e = max(worst_e, abs(res.energy - target))
        qf = energy.topological_charge(res.profile, n=96)
        worst_qf = max(worst_qf, abs(qf - 1.0))
    # in-loop charge uses a coarse quadrature (1e-3); the final profile is
    # re-integrated at full resolution (1e-6)
    ok = (worst_d <= cfg["flow_dist_tol"] and worst_e <= cfg["flow_energy_tol"]
          and worst_mono <= 1e-10 and worst_q <= 1e-3 and worst_qf <= 1e-6)
    return Check("flow-convergence",
                 "seeded radial flows below the energy threshold converge to "
                 "the basic connection with monotone energy and charge 1",
                 worst_d, 0.0, cfg["flow_dist_tol"], ok,
                 detail="energy dev %.3g, worst energy increase %.3g, "
                 "charge dev %.3g (final %.3g)"
                 % (worst_e, worst_mono, worst_q, worst_qf))


def check_coulomb(cfg, rng):
    """Gauge projection: round trip, contraction, commutation, bootstrap."""
    lat = Lattice4D(3.0, cfg["coulomb_n"])
    ch = coulomb._chart(lat)
    tol = cfg["coulomb_tol"]
    # round trip through a discrete gauge decoration, windowed to vanish
    # identically outside |zeta| = 0.77 R
    r = np.sqrt(lat.r2)
    win = np.cos(0.5 * np.pi * np.clip((r - 0.5 * lat.R)
                                       / (0.27 * lat.R), 0.0, 1.0)) ** 2
    sig0 = (fields.random_bump_sigma(rng, amp=0.15)(lat.points)
            * win[:, None]).reshape(lat.shape + (3,))
    dec = fields.LatticeField(lat, coulomb.gauge_action_lattice(ch, sig0, ch.gamma))
    rt = coulomb.coulomb_project(dec, tol=tol, lattice=lat)
    rt_res = rt.residuals[-1]
    rt_dist = coulomb.distance_to_basic(rt)
    contr = max(rt.residuals[i + 1] / rt.residuals[i]
                for i in range(len(rt.residuals) - 1))
    # commutation: exact lattice rotation at solver tolerance, generic
    # rotation/dilation at the stencil-limited tolerance
    from . import quat
    c = flow.random_flow_seed(rng, amp=0.12, s_range=(0.1, 5.0))
    com_exact, = coulomb.commute_check(
        c, [sphere.rotation(quat.ONE, quat.I)], tol=1e-6, lattice=lat)
    p = rng.normal(size=4)
    q = rng.normal(size=4)
    p /= np.linalg.norm(p)
    q /= np.linalg.norm(q)
    ct = cfg["commute_tol"]
    com_rot, com_dil = coulomb.commute_check(
        c, [sphere.rotation(p, q), sphere.dilation(1.1)], tol=ct, lattice=lat)
    # bootstrap constant over two decades of curvature distance
    ratios = []
    for lam in (1.00013, 1.0004, 1.0013, 1.004, 1.013):
        cc = fields.Adhm(None, lam)
        r = coulomb.coulomb_project(cc, tol=1e-9, lattice=lat)
        ratios.append(coulomb.distance_to_basic(r)
                      / coulomb.curvature_distance(cc, r))
    boot = max(ratios)
    ok = (rt_res <= tol and rt_dist <= 1e-6 and contr < 1.0
          and com_exact <= 10 * 1e-6 and com_rot <= 10 * ct
          and com_dil <= 10 * ct and boot <= cfg["bootstrap_bound"])
    return Check("coulomb-projection",
                 "gauge projection round trip exact, residual contraction "
                 "geometric, commutation with rotations/dilations within "
                 "10x solver tolerance, bootstrap ratio bounded",
                 rt_res, 0.0, tol, ok,
                 detail="round-trip dist %.3g; contraction %.3g; commute "
                 "(exact %.3g, rot %.3g, dil %.3g); bootstrap %.3g"
                 % (rt_dist, contr, com_exact, com_rot, com_dil, boot))


def check_z_minimization(cfg, rng):
    """Planted conformal map recovered by the Z-minimization."""
    lam0 = 1.1
    xi0 = np.array([0.15, 0.0, -0.1, 0.0])
    c = fields.pullback(sphere.ConformalMap(xi2=xi0, lam=lam0),
                        fields.basic_connection())
    rep = coulomb.minimize_conformal_distance(
        c, lam_max=1.4, xi_max=0.4, lattice=Lattice4D(3.0, cfg["z_n"]),
        tol=1e-6)
    lam_err = abs(rep.cmap.lam * lam0 - 1.0)
    xi_err = float(np.max(np.abs(xi0 + lam0 * np.asarray(rep.cmap.xi2))))
    worst = max(lam_err, xi_err)
    ok = worst <= cfg["z_param_tol"] and rep.z <= cfg["z_value_tol"]
    return Check("z-minimization",
                 "conformal-distance minimization recovers a planted "
                 "dilation+translation within parameter tolerance",
                 worst, 0.0, cfg["z_param_tol"], ok,
                 detail="Z = %.3g (tol %.1g)" % (rep.z, cfg["z_value_tol"]))


CHECKS = [
    check_basic_energy,
    check_curvature_norms,
    check_lower_bound,
    check_charge,
    check_dilation_symmetry,
    check_profile_consistency,
    check_chi_norms,
    check_variational,
    check_jacobi,
    check_flow,
    check_coulomb,
    check_z_minimization,
]


def run_suite(config=None, log=None):
    """Run every check; crashes are recorded as failures, not raised."""
    cfg = _cfg(config)
    checks = []
    for idx, fn in enumerate(CHECKS):
        t0 = time.monotonic()
        try:
            chk = fn(cfg, _rng(cfg, idx))
        except Exception as err:   # recorded per the exit-code contract
            chk = Check(fn.__name__.replace("check_", "").replace("_", "-"),
                        fn.__doc__.strip().split("\n")[0],
                        float("nan"), 0.0, 0.0, False,
                        detail="crashed: %r" % err)
        if log is not None:
            log("%-22s %s  (%.1fs)" % (chk.id,
                                       "pass" if chk.passed else "FAIL",
                                       time.monotonic() - t0))
        checks.append(chk)
    return VerificationReport(REPORT_VERSION, int(cfg["seed"]), cfg, checks,
                              all(c.passed for c in checks))

"""Gradient flow of the alpha-energy in the radially symmetric ansatz.

State is the profile sample vector g on a fixed theta grid (north-pole value
pinned at 1).  The flowed functional is the grid-discretized energy
E(g) = (1/2) sum_k vol_w_k (3 + rho_k)^alpha with rho the pointwise |F|^2_g
of the ansatz; its gradient in g is exact (spline differentiation matrix),
so monotonicity checks are free of quadrature/differentiation mismatch.
Time stepping is RK4 on the L^2 gradient flow with an energy line search.

Knots outside s in S_RANGE are pinned at g = 1: the L^2 metric mass
(3s/4) dV degenerates at both chart ends while the energy sensitivity does
not, so the unconstrained flow is arbitrarily stiff there (explicit rates
grow like 1/s near the origin and like s near the pole).  Pinning the decay
ends keeps the stiffness ratio explicit-integrable and is consistent with
the decay class that fixes the connection across the poles.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from . import fields, energy
from .sphere import RadialGrid, pairwise_sum


S_RANGE = (0.1, 20.0)   # active window of s = |zeta|^2
DT = 0.05               # initial step; steps never exceed 4 DT
DT_MIN = 1.0e-10        # line search gives up below this step
GRAD_TOL = 1.0e-6       # convergence: gradient norm at most this ...
STALL_WINDOW = 100      # ... and dist_conn moved at most STALL_RTOL
STALL_RTOL = 1.0e-8     #     (relative) over the last STALL_WINDOW steps
CHARGE_NODES = 96       # in-loop charge: topological_charge's n = 48 grid


class FlowError(RuntimeError):
    pass


@dataclass
class FlowConfig:
    alpha: float = 1.1
    lam: float = 1.0
    max_steps: int = 20000


@dataclass
class FlowResult:
    converged: bool
    reason: str
    steps: int
    profile: "fields.RadialProfile"
    energy: float
    grad_norm: float
    trajectory: list = field(default_factory=list)

    def write_trajectory(self, fh):
        """Write the trajectory as CSV to the open text file fh."""
        w = csv.writer(fh)
        w.writerow(["t", "dt", "energy", "grad_norm",
                    "dist_conn", "dist_curv", "charge"])
        for row in self.trajectory:
            w.writerow(["%.17g" % x for x in row])


class RadialFlow:
    """Discretized energy, exact gradient, distances and charge on one theta
    grid."""

    def __init__(self, alpha, grid=None, lam=1.0):
        if alpha < 1 or lam <= 0:
            raise ValueError("need alpha >= 1 and lambda > 0")
        self.alpha = float(alpha)
        self.lam = float(lam)
        self.grid = grid or RadialGrid(64)
        g = self.grid
        self.active = (g.s >= S_RANGE[0]) & (g.s <= S_RANGE[1])
        self.s, self.r = g.s, g.r
        self.vol_w = g.vol_w
        self.W = (1.0 + self.s) ** 4 / 16.0        # 2-form weight at knots
        self.chi = ((1.0 + lam ** 2 * self.s) / (1.0 + self.s)) ** 4 / lam ** 4
        self.mass = g.vol_w * 0.75 * self.s        # |dA|^2_g = (3s/4) dg^2
        # spline differentiation matrix on [theta, pi] with pinned endpoint
        knots = np.concatenate([g.theta, [np.pi]])
        spl = CubicSpline(knots, np.eye(g.n + 1))
        dspl = spl.derivative()
        Dfull = dspl(g.theta)                       # (n, n+1)
        self.D = Dfull[:, :-1]
        self.d0 = Dfull[:, -1]                      # pinned g(pi) = 1
        self._pq0 = self._pq(np.ones(g.n))          # the basic connection
        # charge map: energy.topological_charge(self.profile(g), n=48), the
        # flat quadrature on RadialGrid(96) of the density of
        # F = t1 (zeta^i v_j - zeta^j v_i) + t2 M_ij, as a quadratic form in
        # (P, Q) = (s t1 / 2, t2 / 2) of the same spline at its nodes
        cg = RadialGrid(CHARGE_NODES)
        self._cs, self._cr = cg.s, cg.r
        cv, cd = spl(cg.theta), dspl(cg.theta)      # (96, n+1) each
        self._cv, self._cv0 = cv[:, :-1], cv[:, -1]
        self._cd, self._cd0 = cd[:, :-1], cd[:, -1]
        asym = fields.ansatz_frame_tensor(cg.axis_points())
        qa = energy.charge_density_coord(asym)
        qc = energy.charge_density_coord(fields.M_TENSOR)
        qb = energy.charge_density_coord(asym + fields.M_TENSOR) - qa - qc
        w = 4.0 * cg.flat_w / (8.0 * np.pi ** 2)
        self._wpp = w * qa / cg.s ** 2
        self._wpq = w * qb / cg.s
        self._wqq = w * qc

    def _pq(self, g):
        """P = s(f' + f^2), Q = f(1 - s f) at the knots; rho = 24 W ((P+Q)^2 + Q^2)."""
        return _pq(g, self.D @ g + self.d0, self.s, self.r)

    def rho(self, P, Q):
        """|F|^2_g of the ansatz at the knots from its (P, Q)."""
        return 24.0 * self.W * ((P + Q) ** 2 + Q * Q)

    def energy(self, g):
        dens = (3.0 + self.chi * self.rho(*self._pq(g))) ** self.alpha / self.chi
        return 0.5 * pairwise_sum(self.vol_w * dens)

    def grad(self, g):
        """Exact dE/dg of the discretized energy."""
        s = self.s
        f = g / (1.0 + s)
        P, Q = self._pq(g)
        rho = self.rho(P, Q)
        c = 12.0 * self.alpha * self.vol_w * self.W \
            * (3.0 + self.chi * rho) ** (self.alpha - 1.0)
        cp, cq = 2.0 * c * (P + Q), 2.0 * c * (P + 2.0 * Q)
        a = self.r / (1.0 + s) ** 2
        b = -s / (1.0 + s) ** 2 + 2.0 * s * f / (1.0 + s)
        q = (1.0 - 2.0 * s * f) / (1.0 + s)
        return self.D.T @ (cp * a) + cp * b + cq * q

    def grad_norm(self, dg):
        """L^2(dV_g) norm of the flow velocity (mass-weighted dual norm) of
        the gradient dg = grad(g)."""
        dg = dg[self.active]
        return np.sqrt(pairwise_sum(dg * dg / self.mass[self.active]))

    def velocity(self, dg):
        """Flow velocity of the gradient dg = grad(g); zero off the window."""
        v = -dg / self.mass
        v[~self.active] = 0.0
        return v

    def charge(self, g):
        """Topological charge of profile(g) by the 96-node charge map."""
        P, Q = _pq(self._cv @ g + self._cv0, self._cd @ g + self._cd0,
                   self._cs, self._cr)
        return pairwise_sum(self._wpp * P * P + self._wpq * P * Q
                            + self._wqq * Q * Q)

    def dist_conn(self, g):
        """L^2 distance of the potential to the basic connection."""
        return np.sqrt(pairwise_sum(self.mass * (g - 1.0) ** 2))

    def dist_curv(self, g):
        """L^2 distance of the curvature to the basic curvature."""
        P1, Q1 = self._pq(g)
        P0, Q0 = self._pq0
        return np.sqrt(pairwise_sum(self.vol_w * self.rho(P1 - P0, Q1 - Q0)))

    def profile(self, g):
        return fields.RadialProfile(self.grid.theta, g)


def _pq(g, dg, s, r):
    """P = s(f' + f^2), Q = f(1 - s f) from g and dg/dtheta at nodes s = r^2."""
    f, sfp = fields.f_sfp_from_g(g, dg, s, r)
    return sfp + s * f * f, f * (1.0 - s * f)


def flow_step(fl, g, dt, dt_min, e0, k1):
    """One RK4 step with an energy line search from g, whose energy is e0 and
    velocity k1 = fl.velocity(fl.grad(g)).

    Returns (g_new, dt_used, E_new, rejects); dt is halved until the energy
    decreases; raises FlowError below dt_min."""
    rejects = 0
    while True:
        k2 = fl.velocity(fl.grad(g + 0.5 * dt * k1))
        k3 = fl.velocity(fl.grad(g + 0.5 * dt * k2))
        k4 = fl.velocity(fl.grad(g + dt * k3))
        gn = g + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        en = fl.energy(gn)
        if np.isfinite(en) and en <= e0 + 1.0e-12 * abs(e0):
            return gn, dt, en, rejects
        dt *= 0.5
        rejects += 1
        if dt < dt_min:
            raise FlowError("step rejected at dt_min; energy would increase")


def run_flow(profile, config):
    """Flow a RadialProfile toward the basic connection under the FlowConfig
    config; records a trajectory row (t, dt, energy, grad_norm, dist_conn,
    dist_curv, charge) per step."""
    grid = RadialGrid(profile.theta.shape[0])
    if not np.allclose(grid.theta, profile.theta):
        raise ValueError("profile must live on a RadialGrid theta grid")
    fl = RadialFlow(config.alpha, grid, lam=config.lam)
    g = profile.g.copy()         # knots outside the active window stay fixed
    t, dt = 0.0, DT
    e = fl.energy(g)
    dg = fl.grad(g)      # one gradient per accepted state
    traj, dists = [], []
    reason, converged = "max_steps reached", False
    steps = 0
    dt_bad = np.inf      # smallest dt ever rejected; stay clear of it
    for steps in range(1, config.max_steps + 1):
        g, used, e, rejects = flow_step(fl, g, dt, DT_MIN, e, fl.velocity(dg))
        t += used
        if rejects:
            dt_bad = min(dt_bad, used * 2.0)
        dt = min(used * 1.25, 4.0 * DT, 0.75 * dt_bad)
        dg = fl.grad(g)
        gn = fl.grad_norm(dg)
        dc = fl.dist_conn(g)
        traj.append((t, used, e, gn, dc, fl.dist_curv(g), fl.charge(g)))
        dists.append(dc)
        stable = False
        if len(dists) > STALL_WINDOW:
            old = dists[-STALL_WINDOW - 1]
            stable = abs(dc - old) <= STALL_RTOL * max(abs(old), 1.0)
        if gn <= GRAD_TOL and stable:
            reason, converged = "gradient below tolerance, distance stationary", True
            break
    return FlowResult(converged, reason, steps, fl.profile(g), float(e),
                      float(fl.grad_norm(dg)), traj)


def random_flow_seed(rng, grid=None, amp=0.25, s_range=S_RANGE):
    """Random smooth bump perturbation of g = 1 supported in the active
    window (smooth sin^2 taper to the pinned ends)."""
    grid = grid or RadialGrid(64)
    lo = 2.0 * np.arctan(np.sqrt(s_range[0]))
    hi = 2.0 * np.arctan(np.sqrt(s_range[1]))
    th = grid.theta
    u = np.clip((th - lo) / (hi - lo), 0.0, 1.0)
    taper = np.sin(np.pi * u) ** 2
    g = np.ones(grid.n)
    for _ in range(rng.integers(1, 4)):
        a = amp * rng.uniform(-1.0, 1.0)
        c = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        w = rng.uniform(0.1 * (hi - lo), 0.25 * (hi - lo))
        g += a * taper * np.exp(-((th - c) / w) ** 2)
    return fields.RadialProfile(th, g)


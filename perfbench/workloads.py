"""The four benchmark workloads: seeded inputs, one operation, its oracles.

Each workload is built by `make(name, seed)`, which generates a fixed cycle
of inputs from the seed, fills the program's caches and runs one warm-up
operation.  `Workload.op(inp)` runs one operation and returns the list of
oracles it missed (empty when every output is correct).  The oracles are
closed forms and invariants computed here, apart from the program.

The program is driven only through module attributes (`energy.ym_alpha`,
never a bare imported name), so that the traced run can wrap each call.
"""

import numpy as np

from ymalpha import coulomb, energy, fields, flow, profile, sphere, variational

PI2 = np.pi ** 2


def basic_alpha_energy(alpha):
    """Closed form of the basic instanton's alpha-energy: 6^a (4/3) pi^2."""
    return 6.0 ** alpha * (4.0 / 3.0) * PI2


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=int(seed)))


class Misses(list):
    """Collects the oracles an operation missed."""

    def near(self, what, value, target, rtol):
        err = abs(value / target - 1.0)
        if not err <= rtol:
            self.append("%s: %.17g vs %.17g (rel %.3g > %.1g)"
                        % (what, value, target, err, rtol))

    def below(self, what, value, limit):
        if not value <= limit:
            self.append("%s: %.3g > %.3g" % (what, value, limit))

    def holds(self, what, ok):
        if not ok:
            self.append(what)


class Workload:
    name = None
    cycle = 1          # distinct inputs generated per run

    def __init__(self, seed):
        rng = _rng(seed)
        self.inputs = [self.make_input(rng) for _ in range(self.cycle)]

    def make_input(self, rng):
        raise NotImplementedError

    def warm_up(self):
        """Fill lazy caches with one small operation before timing starts."""
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# quadrature: checks 1-9 on 1-D Gauss-Legendre grids
# ---------------------------------------------------------------------------

class Quadrature(Workload):
    """Energy, charge, dilation-profile and chi-norm quadratures.

    One operation checks a block of ten seeded parameter sets (about 2 s):
    the host's speed changes on a scale of seconds, and an operation that
    spans such changes keeps the median operation time steadier than ten
    0.2 s operations would."""
    name = "quadrature"
    cycle = 4
    block = 10
    n_points = 24        # stencil points for D*F and the Jacobi operator
    stencil_h = 2.0e-3

    def __init__(self, seed):
        super().__init__(seed)
        basis = variational.ModuliBasis(sphere.Lattice4D(3.0, 12))
        self.scale_mode = basis.member(0)    # the dilation modulus

    def make_input(self, rng):
        return [{
            "alpha": float(rng.uniform(1.0, 2.0)),
            "lam": float(rng.uniform(1.0, 10.0)),
            "xi": rng.normal(scale=1.0, size=4),
            "scale": float(rng.uniform(0.7, 1.6)),
            "points": rng.normal(scale=0.8, size=(self.n_points, 4)),
        } for _ in range(self.block)]

    def warm_up(self):
        self.check(self.inputs[0][0])

    def op(self, block):
        m = Misses()
        for inp in block:
            m += self.check(inp)
        return m

    def check(self, inp):
        m = Misses()
        a, lam = inp["alpha"], inp["lam"]
        basic = fields.basic_connection()
        e0 = energy.ym_alpha(basic, a).value
        m.near("basic alpha-energy", e0, basic_alpha_energy(a), 1e-8)
        dilated = fields.pullback(sphere.dilation(lam), basic)
        twisted = energy.ym_alpha_lambda(dilated, a, lam).value
        m.near("twisted energy of the dilated connection", twisted, e0, 1e-8)
        up = energy.ym_alpha(dilated, a).value
        down = energy.ym_alpha(
            fields.pullback(sphere.dilation(1.0 / lam), basic), a).value
        m.near("lambda <-> 1/lambda symmetry", up, down, 1e-8)
        for route in ("radial", "w-substitution", "hyperbolic"):
            m.near("pullback_energy route %s" % route,
                   profile.pullback_energy(a, lam, route=route), up, 1e-8)

        inst = fields.Adhm(inp["xi"], inp["scale"])
        ym = energy.ym_energy(inst).value
        m.near("off-centre ||F||^2/2", ym, 4.0 * PI2, 1e-8)
        m.near("off-centre charge",
               energy.topological_charge(inst), 1.0, 1e-8)

        beta = a - 1.0
        sigma = beta * np.log(lam)
        gp = profile.G_prime(sigma, beta)
        # G is even in sigma, so G' -> 0 as sigma -> 0: the step is scaled
        # to sigma, and the difference may miss G' by what the residuals of
        # the two G quadratures (and their rounding) allow, besides 1e-6 of G'
        d = 1.0e-4 * sigma
        g_up, r_up = profile.G_of_sigma(sigma + d, beta, with_residual=True)
        g_dn, r_dn = profile.G_of_sigma(sigma - d, beta, with_residual=True)
        fd = (g_up - g_dn) / (2.0 * d)
        g_err = r_up + r_dn + 8.0 * np.finfo(float).eps * (g_up + g_dn)
        m.holds("G' = %.3g is not positive" % gp, gp > 0.0)
        m.below("G' against a central difference of G", abs(fd - gp),
                1.0e-6 * gp + g_err / (2.0 * d))

        chi = profile.chi_sobolev_norms(lam)
        m.near("chi closed-form ratio", chi.closed_form_ratio,
               2.0 - 1.0 / lam ** 2, 1e-6)

        pts, h = inp["points"], self.stencil_h
        m.below("D*F at the basic connection", float(np.max(np.abs(
            variational.dstar_F(basic, pts, h=h)))), 1e-10)
        scale = float(np.max(np.abs(variational.frame_curvature(inst, pts))))
        m.below("D*F at the off-centre instanton (relative)", float(np.max(
            np.abs(variational.dstar_F(inst, pts, h=h)))) / scale, 1e-3)
        mode = self.scale_mode
        res = variational.jacobi_apply(basic, mode, pts, h=h)
        m.below("Jacobi residual of the dilation modulus",
                float(np.max(np.abs(res)) / np.max(np.abs(mode(pts)))), 1e-2)
        return m


# ---------------------------------------------------------------------------
# flow: check 10, the alpha-flow back to the basic connection
# ---------------------------------------------------------------------------

FLOW_ALPHA = 1.1
FLOW_KNOTS = 24
FLOW_S_RANGE = (0.1, 20.0)       # flow.RadialFlow's default active window


class Flow(Workload):
    """run_flow to convergence at alpha = 1.1 with the default FlowConfig.

    Seeds are one tapered Gaussian bump of g = 1 on a 24-knot grid, of the
    form flow.random_flow_seed draws, but with a fixed amplitude 0.05, a
    random sign, and centre and width in narrow bands.  random_flow_seed's
    one to three bumps of random amplitude split flows into step-count
    clusters (1 500 to 2 000 steps at 24 knots); this family stays within
    about 1 420 to 1 500 steps, so every operation is one size class."""
    name = "flow"
    cycle = 4

    def __init__(self, seed):
        self.grid = sphere.RadialGrid(FLOW_KNOTS)
        super().__init__(seed)

    def make_input(self, rng):
        th = self.grid.theta
        lo, hi = (2.0 * np.arctan(np.sqrt(s)) for s in FLOW_S_RANGE)
        taper = np.sin(np.pi * np.clip((th - lo) / (hi - lo), 0.0, 1.0)) ** 2
        amp = 0.05 * rng.choice([-1.0, 1.0])
        centre = lo + (hi - lo) * rng.uniform(0.20, 0.28)
        width = (hi - lo) * rng.uniform(0.12, 0.16)
        g = 1.0 + amp * taper * np.exp(-((th - centre) / width) ** 2)
        return fields.RadialProfile(th, g)

    def warm_up(self):
        flow.run_flow(self.inputs[0],
                      flow.FlowConfig(alpha=FLOW_ALPHA, max_steps=20))
        energy.topological_charge(self.inputs[0], n=96)

    def op(self, prof):
        m = Misses()
        res = flow.run_flow(prof, flow.FlowConfig(alpha=FLOW_ALPHA))
        m.holds("flow did not converge: %s" % res.reason, res.converged)
        traj = np.array(res.trajectory)
        es, qs = traj[:, 2], traj[:, 6]
        rises = np.diff(es) - 1e-12 * np.abs(es[:-1])
        m.below("energy rise beyond the line search", float(np.max(rises)),
                0.0)
        m.below("in-loop charge deviation", float(np.max(np.abs(qs - 1.0))),
                1e-3)
        qf = energy.topological_charge(res.profile, n=96)
        m.below("final charge deviation (n = 96)", abs(qf - 1.0), 1e-6)
        m.below("final energy deviation",
                abs(res.energy - basic_alpha_energy(FLOW_ALPHA)), 1e-4)
        m.below("final distance to the basic connection", traj[-1, 4], 1e-3)
        return m


# ---------------------------------------------------------------------------
# gauge: check 11, Coulomb projection on the 15^4 lattice
# ---------------------------------------------------------------------------

GAUGE_N = 15
GAUGE_SUP = 5.0e-4       # sup |sigma| of every planted decoration


class Gauge(Workload):
    """coulomb_project of planted gauge decorations of the basic connection.

    Each decoration is a seeded random_bump_sigma field, windowed to vanish
    outside |zeta| = 0.77 R as in check 11, and scaled to sup |sigma| =
    5e-4.  At that size every projection takes three outer iterations
    (residuals about 4e-3, 3e-7, 1.5e-10 against tol 1e-8) and two CG solves;
    check 11's unscaled decorations need 10 to 15 outer iterations, 40 to
    60 s each."""
    name = "gauge"
    cycle = 3
    tol = 1.0e-8

    def __init__(self, seed):
        self.lattice = sphere.Lattice4D(3.0, GAUGE_N)
        self.chart = coulomb._chart(self.lattice)   # the one the program caches
        super().__init__(seed)

    def make_input(self, rng):
        lat = self.lattice
        r = np.sqrt(lat.r2)
        win = np.cos(0.5 * np.pi * np.clip((r - 0.5 * lat.R) / (0.27 * lat.R),
                                           0.0, 1.0)) ** 2
        sig = fields.random_bump_sigma(rng, amp=0.15)(lat.points) * win[:, None]
        sig *= GAUGE_SUP / np.max(np.sqrt(np.sum(sig * sig, axis=-1)))
        sig = sig.reshape(lat.shape + (3,))
        return fields.LatticeField(lat, coulomb.gauge_action_lattice(
            self.chart, sig, self.chart.gamma))

    def warm_up(self):
        coulomb.coulomb_project(self.inputs[0], tol=1e-3, cg_rtol=1e-3,
                                lattice=self.lattice)

    def op(self, decorated):
        m = Misses()
        res = coulomb.coulomb_project(decorated, tol=self.tol,
                                      lattice=self.lattice)
        m.holds("projection did not converge", res.converged)
        r = res.residuals
        m.holds("residuals do not contract: %s" % r,
                all(b < a for a, b in zip(r, r[1:])))
        m.below("planted decoration left over (distance to basic)",
                coulomb.distance_to_basic(res), 1e-6)
        again = coulomb.coulomb_project(res.connection, tol=self.tol,
                                        lattice=self.lattice)
        m.holds("re-projecting the output needed %d solves"
                % len(again.cg_iters), not again.cg_iters)
        return m


# ---------------------------------------------------------------------------
# zprobe: check 12, warm-started Z-probes on the 7^4 lattice
# ---------------------------------------------------------------------------

Z_N = 7
Z_STEP = 0.05            # probe offset in log(lambda) and in each xi^a
Z_TOL = 1.0e-6           # projection tolerance of check 12's probes


class ZProbe(Workload):
    """A fixed walk of eleven warm-started Z-probes around a planted map.

    c is the basic connection pulled back by zeta -> xi0 + lam0 zeta (lam0 in
    [0.9, 1.2], xi0 in [-0.15, 0.15]^4).  The walk starts at the planted
    inverse (lam = 1/lam0, xi = -xi0/lam0), steps out by Z_STEP along each of
    log(lambda), xi^0..xi^3 with a seeded sign, and back to the inverse
    after each step, every probe warm-started from the one before.  The
    composed map differs from the identity by the same step lengths for
    every seed, so each operation is one size class."""
    name = "zprobe"
    cycle = 8

    def __init__(self, seed):
        self.lattice = sphere.Lattice4D(3.0, Z_N)
        super().__init__(seed)

    def make_input(self, rng):
        lam0 = float(rng.uniform(0.9, 1.2))
        xi0 = rng.uniform(-0.15, 0.15, size=4)
        signs = rng.choice([-1.0, 1.0], size=5)
        c = fields.pullback(sphere.ConformalMap(xi2=xi0, lam=lam0),
                            fields.basic_connection())

        def probe_map(dlog_lam, dxi):
            # the probe whose composition with the planted map is
            # zeta -> dxi + exp(dlog_lam) zeta
            return np.exp(dlog_lam) / lam0, (dxi - xi0) / lam0
        centre = probe_map(0.0, np.zeros(4))
        walk = [(centre, True)]
        for k in range(5):
            dxi = np.zeros(4)
            dlog = Z_STEP * signs[0] if k == 0 else 0.0
            if k:
                dxi[k - 1] = Z_STEP * signs[k]
            walk += [(probe_map(dlog, dxi), False), (centre, True)]
        return c, walk

    def warm_up(self):
        c, walk = self.inputs[0]
        coulomb._z_value(c, *walk[1][0], self.lattice, Z_TOL)

    def op(self, inp):
        m = Misses()
        c, walk = inp
        sigma = None
        for (lam, xi), at_inverse in walk:
            # the program's own probe: pull back by zeta -> xi + lam zeta,
            # coulomb_project (CG rtol 1e-8), Z = distance^2 +
            # curvature_distance^2; sigma warm-starts the next probe
            _, z, _, _, sigma = coulomb._z_value(c, lam, xi, self.lattice,
                                                 Z_TOL, sigma0=sigma)
            if at_inverse:
                m.below("Z at the planted inverse map", z, 1e-6)
            else:
                m.holds("Z = %.3g is not positive off the inverse map" % z,
                        z > 0.0)
        return m


WORKLOADS = {w.name: w for w in (Quadrature, Flow, Gauge, ZProbe)}


def make(name, seed):
    """Build a workload's inputs and caches, then run its warm-up."""
    w = WORKLOADS[name](seed)
    w.warm_up()
    return w

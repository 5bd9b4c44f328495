import numpy as np
import pytest
from scipy.optimize import root

from ymalpha import energy, fields, flow, sphere, variational
from ymalpha.energy import BASIC_YM_ALPHA
from ymalpha.sphere import RadialGrid, pairwise_sum

rng = np.random.default_rng(13)


def _small_seed(seed, amp=0.1):
    return flow.random_flow_seed(np.random.default_rng(seed), amp=amp)


def _discrete_minimizer(fl):
    """Zero of the discretized-energy gradient on the active knots (the grid
    representation of the critical connection; a few 1e-5 from g = 1 at
    lam = 1 because quadrature of the spline cardinal functions is inexact).
    """
    g = np.ones(fl.grid.n)
    idx = np.where(fl.active)[0]

    def fun(x):
        gg = g.copy()
        gg[idx] = x
        return fl.grad(gg)[idx]
    sol = root(fun, g[idx], method="hybr")
    assert np.max(np.abs(sol.fun)) <= 1e-10, sol.message
    g[idx] = sol.x
    return g


def _closure_check(profile, alpha):
    """Relative L^2 size of the energy-gradient component leaving the radial
    ansatz, sampled on a coarse 4D lattice (the pointwise ansatz tangent is
    the v-field direction).  Must be small for the 1D flow to represent the
    full flow."""
    lat = sphere.Lattice4D(2.0, 8)
    pts = lat.points + 1e-3        # stay off the exact origin/axes
    G = variational.gradient_ym_alpha_lambda(profile, alpha, 1.0, pts, h=1e-4)
    vh = sphere.frame_scale(pts)[:, None, None] * fields.v_field(pts)
    v2 = np.sum(vh * vh, axis=(-2, -1))
    coef = np.sum(G * vh, axis=(-2, -1)) / v2
    resid = G - coef[:, None, None] * vh
    num = pairwise_sum(np.sum(resid * resid, axis=(-2, -1)) * lat.weights)
    den = pairwise_sum(np.sum(G * G, axis=(-2, -1)) * lat.weights)
    return np.sqrt(num / den) if den > 0 else 0.0


def test_basic_profile_is_stationary():
    # g = 1 is stationary up to the cardinal-function quadrature defect
    fl = flow.RadialFlow(1.1)
    g = np.ones(fl.grid.n)
    assert fl.grad_norm(fl.grad(g)) < 1e-3
    assert fl.energy(g) == pytest.approx(BASIC_YM_ALPHA(1.1), rel=1e-6)


def test_discrete_energy_matches_quadrature():
    fl = flow.RadialFlow(1.3)
    prof = _small_seed(2)
    e_grid = fl.energy(prof.g)
    e_quad = energy.ym_alpha(prof, 1.3).value
    assert e_grid == pytest.approx(e_quad, rel=1e-4)


def test_grad_matches_fd_of_discrete_energy():
    fl = flow.RadialFlow(1.2)
    g = _small_seed(3).g
    grad = fl.grad(g)
    eps = 1e-5
    for idx in (10, 25, 40):
        gp = g.copy(); gp[idx] += eps
        gm = g.copy(); gm[idx] -= eps
        fd = (fl.energy(gp) - fl.energy(gm)) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_flow_step_decreases_energy():
    fl = flow.RadialFlow(1.1)
    g = _small_seed(4, amp=0.2).g
    e0 = fl.energy(g)
    g1, dt, e1, rejects = flow.flow_step(fl, g, 0.05, 1e-10, e0,
                                         fl.velocity(fl.grad(g)))
    assert e1 <= e0
    assert dt <= 0.05


@pytest.mark.parametrize("knots", [24, 64])
def test_charge_map_matches_topological_charge(knots):
    grid = RadialGrid(knots)
    fl = flow.RadialFlow(1.1, grid)
    seed = flow.random_flow_seed(np.random.default_rng(knots), grid, amp=0.25)
    states = [np.ones(knots), seed.g]
    g, e = seed.g, fl.energy(seed.g)
    for _ in range(50):
        g, _, e, _ = flow.flow_step(fl, g, 0.05, 1e-10, e,
                                    fl.velocity(fl.grad(g)))
        states.append(g)
    for g in states:
        q = energy.topological_charge(fl.profile(g), n=48)
        assert abs(fl.charge(g) - q) <= 1e-13


def test_run_flow_converges_to_basic():
    prof = _small_seed(5, amp=0.15)
    res = flow.run_flow(prof, flow.FlowConfig(alpha=1.1))
    assert res.converged
    assert res.energy == pytest.approx(BASIC_YM_ALPHA(1.1), abs=1e-4)
    # distance to the basic connection decayed
    assert res.trajectory[-1][4] < 1e-3
    # energy monotone along the trajectory
    es = np.array([row[2] for row in res.trajectory])
    assert np.all(np.diff(es) <= 1e-10 * np.abs(es[:-1]))


def test_run_flow_conserves_charge():
    prof = _small_seed(6, amp=0.15)
    res = flow.run_flow(prof, flow.FlowConfig(alpha=1.1, max_steps=200))
    qs = np.array([row[6] for row in res.trajectory])
    assert np.max(np.abs(qs - 1.0)) < 1e-3


def test_trajectory_csv(tmp_path):
    prof = _small_seed(7)
    res = flow.run_flow(prof, flow.FlowConfig(alpha=1.1, max_steps=20))
    p = tmp_path / "traj.csv"
    with open(p, "w", newline="") as fh:
        res.write_trajectory(fh)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "t,dt,energy,grad_norm,dist_conn,dist_curv,charge"
    assert len(lines) == 21
    assert len(lines[1].split(",")) == 7


def test_flow_config_validation():
    with pytest.raises(ValueError):
        flow.RadialFlow(0.9)
    with pytest.raises(ValueError):
        flow.RadialFlow(1.2, lam=-1.0)
    with pytest.raises(ValueError):
        flow.run_flow(fields.RadialProfile(np.linspace(0.1, 3.0, 64),
                                           np.ones(64)), flow.FlowConfig())


def test_discrete_minimizer_near_one():
    fl = flow.RadialFlow(1.1)
    g = _discrete_minimizer(fl)
    assert np.max(np.abs(g - 1.0)) < 1e-3
    assert fl.grad_norm(fl.grad(g)) < 1e-8


def test_random_flow_seed_support():
    grid = RadialGrid(64)
    prof = flow.random_flow_seed(np.random.default_rng(0), grid,
                                 s_range=(0.1, 5.0))
    outside = (grid.s < 0.1) | (grid.s > 5.0)
    assert np.allclose(prof.g[outside], 1.0)


def test_closure_check_small():
    prof = _small_seed(8)
    assert _closure_check(prof, 1.1) < 1e-6

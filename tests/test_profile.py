import numpy as np
import pytest

from ymalpha import energy, fields, profile, sphere
from ymalpha.energy import BASIC_YM_ALPHA


def test_routes_agree():
    for alpha, lam in [(1.1, 1.3), (1.5, 2.0), (2.0, 4.0)]:
        a = profile.pullback_energy(alpha, lam, route="radial")
        b = profile.pullback_energy(alpha, lam, route="w-substitution")
        c = profile.pullback_energy(alpha, lam, route="hyperbolic")
        assert a == pytest.approx(b, rel=1e-9)
        assert a == pytest.approx(c, rel=1e-9)


def test_route_matches_direct_quadrature():
    # the profile value is the alpha-energy of the dilated basic connection
    alpha, lam = 1.4, 2.5
    v = profile.pullback_energy(alpha, lam)
    pulled = fields.pullback(sphere.dilation(lam), fields.basic_connection())
    direct = energy.ym_alpha(pulled, alpha).value
    assert v == pytest.approx(direct, rel=1e-8)


def test_profile_at_lambda_one():
    for alpha in (1.0, 1.5, 2.0):
        assert profile.pullback_energy(alpha, 1.0) \
            == pytest.approx(BASIC_YM_ALPHA(alpha), rel=1e-10)


def test_default_route_is_hyperbolic_at_large_lambda():
    # the radial route loses accuracy at large lambda (4.389e9 here, and at
    # lambda = 1e6 a value below the lambda = 1 one); the default must not
    v = profile.pullback_energy(1.5, 1.0e4)
    assert v == profile.pullback_energy(1.5, 1.0e4, route="hyperbolic")
    assert v == pytest.approx(2.051e9, rel=1e-3)
    assert profile.pullback_energy(1.5, 1.0e6) > BASIC_YM_ALPHA(1.5)


def test_G_normalization_and_monotonicity():
    # G(0) = 1 and G is strictly increasing in sigma
    for beta in (0.1, 0.5, 1.0):
        assert profile.G_of_sigma(0.0, beta) == pytest.approx(1.0, rel=1e-10)
        sig = np.linspace(0.0, 3.0, 8)
        vals = [profile.G_of_sigma(s, beta) for s in sig]
        assert np.all(np.diff(vals) > 0)
        assert all(profile.G_prime(s, beta) > 0 for s in sig[1:])


def test_G_prime_fd():
    for beta, sig in [(0.2, 0.5), (0.5, 1.5), (1.0, 3.0)]:
        d = 1e-5 * max(sig, 1.0)
        fd = (profile.G_of_sigma(sig + d, beta)
              - profile.G_of_sigma(sig - d, beta)) / (2 * d)
        assert profile.G_prime(sig, beta) == pytest.approx(fd, rel=1e-6)


def test_gap_nonnegative_and_zero_at_one():
    assert profile.gap(1.3, 1.0) == pytest.approx(0.0, abs=1e-8)
    for alpha, lam in [(1.1, 1.5), (1.5, 3.0), (2.0, 50.0)]:
        assert profile.gap(alpha, lam) >= 0.0


def test_derivative_positive_above_one():
    for alpha, lam in [(1.1, 1.5), (1.5, 2.0), (1.8, 10.0)]:
        assert profile.dE_dloglambda_basic(alpha, lam) > 0.0


def test_derivative_general_matches_basic():
    alpha, lam = 1.4, 2.0
    a = profile.dE_dloglambda_basic(alpha, lam)
    b = profile.dE_dloglambda_general(fields.basic_connection(), alpha, lam)
    assert a == pytest.approx(b, rel=1e-8)


def test_verify_gap_bounds_regimes():
    out = profile.verify_gap_bounds([(2.0, 200.0), (1.5, 20.0), (1.3, 2.0)])
    assert out["passes"]
    assert out["regime1"] > 0 and out["regime2"] > 0 and out["regime3"] > 0
    with pytest.raises(ValueError):
        profile.verify_gap_bounds([(0.9, 2.0)])


def test_profile_point_schema():
    p = profile.profile_point(1.3, 2.0)
    for key in ("tau", "sigma", "G", "Gprime", "gap", "dE_dloglambda",
                "residual"):
        assert isinstance(getattr(p, key), float)
    assert p.alpha == 1.3 and p.lam == 2.0
    assert p.tau == pytest.approx(np.log(2.0))
    assert p.sigma == pytest.approx(0.3 * np.log(2.0))


def test_chi_norms_corrected_closed_form():
    # the piecewise closed form carries the trailing factor (2 - 1/lam^2)
    for lam in (1.5, 2.0, 10.0):
        rep = profile.chi_sobolev_norms(lam)
        assert rep.closed_form_ratio \
            == pytest.approx(2.0 - 1.0 / lam ** 2, rel=1e-10)
        # honest quadratures sit below the piecewise power-law majorants
        assert rep.grad_sq <= rep.grad_sq_regions * (1 + 1e-12)
        assert rep.hess_rr_sq <= rep.hess_rr_bound * (1 + 1e-12)
        assert rep.gamma_sq <= rep.gamma_bound * (1 + 1e-12)
        assert np.isfinite(rep.ratio_log) and rep.ratio_log > 0


@pytest.mark.xfail(strict=True,
                   reason="the quoted closed-form constant omits the "
                          "trailing factor (2 - 1/lam^2); the corrected "
                          "form is verified in the test above")
def test_chi_norms_literal_quoted_constant():
    rep = profile.chi_sobolev_norms(2.0)
    assert rep.grad_sq_regions == pytest.approx(rep.grad_sq_closed, rel=1e-6)


def test_chi_norms_requires_lam_ge_one():
    with pytest.raises(ValueError):
        profile.chi_sobolev_norms(0.5)


def test_sqrtlog_ratio_defined_above_e():
    rep = profile.chi_sobolev_norms(5.0)
    assert np.isfinite(rep.ratio_sqrtlog)
    rep2 = profile.chi_sobolev_norms(1.5)
    assert np.isnan(rep2.ratio_sqrtlog)


def test_parameter_validation():
    with pytest.raises(ValueError):
        profile.pullback_energy(0.8, 2.0)
    with pytest.raises(ValueError):
        profile.pullback_energy(1.5, 0.0)
    with pytest.raises(ValueError):
        profile.pullback_energy(1.5, 2.0, route="nope")

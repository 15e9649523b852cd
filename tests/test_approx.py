import math

import numpy as np
import pytest

from stepcross.approx import (
    ExperimentRecord,
    classify_regime,
    approx_error,
    fit_rate,
    project_q,
    rate_experiment,
    theoretical_rate,
)
from stepcross.besov import BesovParams
from stepcross.errors import ParameterError, UnsupportedRegimeError
from stepcross.indexsets import chi, theta
from stepcross.majorant import MajorantParams
from stepcross.trigpoly import QuadratureSpec, TrigPolynomial, lp_norm

INF = math.inf


def P(d, r, b, l=2):
    return MajorantParams(d=d, r=r, b=b, l=l)


class TestProjection:
    def test_split_example(self):
        f = TrigPolynomial([[1], [12]], [1.0, 1.0])
        omega = P(1, 1.0, 0.0)
        proj = project_q(f, omega, 8)
        assert proj.coefficient((1,)) == 1.0
        assert proj.coefficient((12,)) == 0.0
        assert approx_error(f, omega, 8, 2) == pytest.approx(1.0, rel=1e-14)

    def test_boundary_octave_kept(self):
        omega = P(1, 1.0, 0.0)
        f = TrigPolynomial([[7], [8]], [1.0, 1.0])
        proj = project_q(f, omega, 8)
        assert proj.coefficient((7,)) == 1.0  # octave 3, weight 8 <= 8
        assert proj.coefficient((8,)) == 0.0  # octave 4, weight 16

    def test_zero_coordinate_dropped(self):
        omega = P(2, 1.0, (0.0, 0.0))
        f = TrigPolynomial([[0, 5], [1, 1]], [1.0, 1.0])
        proj = project_q(f, omega, 2 ** 10)
        assert proj.n_terms == 1

    def test_log_weight_with_b(self):
        omega = P(1, 1.0, 0.5)
        # octave 2 has weight 4 * 2^0.5 > 4, octave 1 weight 2
        f = TrigPolynomial([[1], [2]], [1.0, 1.0])
        proj = project_q(f, omega, 4)
        assert proj.n_terms == 1
        assert proj.coefficient((1,)) == 1.0

    def test_idempotent(self):
        omega = P(2, 1.5, (0.5, 0.25))
        rng = np.random.default_rng(0)
        f = TrigPolynomial(rng.integers(-30, 31, size=(50, 2)),
                           rng.standard_normal(50).astype(complex))
        once = project_q(f, omega, 2 ** 6)
        twice = project_q(once, omega, 2 ** 6)
        assert np.array_equal(once.ks, twice.ks)
        assert np.array_equal(once.cs, twice.cs)

    @pytest.mark.parametrize("n", [0, -8.0, math.nan, INF, -INF])
    def test_invalid_size_rejected(self, n):
        f = TrigPolynomial([[1]], [1.0])
        with pytest.raises(ParameterError, match="finite and positive"):
            project_q(f, P(1, 1.0, 0.0), n)
        with pytest.raises(ParameterError, match="finite and positive"):
            project_q(TrigPolynomial.zero(1), P(1, 1.0, 0.0), n)

    @pytest.mark.parametrize("q", [1, 1.5, 2, 4, INF])
    def test_error_is_norm_of_difference(self, q):
        # the residual is a restriction of f; it must equal f - project_q(f)
        # to the bit, rows with a zero coordinate included
        quad = QuadratureSpec(rel_tol=1e-4)
        for d, omega, n in ((1, P(1, 1.0, 0.0), 16), (2, P(2, 1.5, (0.5, 0.25)), 2 ** 6),
                            (3, P(3, 1.0, (0.0, 0.0, 0.0)), 2 ** 5)):
            rng = np.random.default_rng(d)
            ks = rng.integers(-12, 13, size=(60, d))
            ks[:5, 0] = 0
            f = TrigPolynomial(ks, rng.standard_normal(60) + 1j * rng.standard_normal(60))
            assert np.any(f.ks == 0)
            diff = f - project_q(f, omega, n)
            assert not diff.is_zero
            assert approx_error(f, omega, n, q, quad) == lp_norm(diff, q, quad)

    def test_error_input_checks_unchanged(self):
        omega = P(2, 1.0, (0.0, 0.0))
        # the zero function: no dimension check, zero error, N still checked
        assert approx_error(TrigPolynomial.zero(3), omega, 8, 2) == 0.0
        with pytest.raises(ParameterError, match="finite and positive"):
            approx_error(TrigPolynomial.zero(2), omega, 0, 2)
        with pytest.raises(ParameterError, match="dimension 1, majorant expects 2"):
            approx_error(TrigPolynomial([[40]], [1.0]), omega, 8, 2)
        with pytest.raises(ParameterError, match="p >= 1"):
            approx_error(TrigPolynomial([[40, 1]], [1.0]), omega, 8, 0.5)
        # an invalid q is refused for the zero function too
        with pytest.raises(ParameterError, match="p >= 1"):
            approx_error(TrigPolynomial.zero(2), omega, 8, 0.5)


# (majorant, N, a box with w(s) = N exactly)
TIE_CASES = [
    (P(2, 1.0, (1 / 3, 1 / 3)), 2 ** 7, (2, 4)),
    (P(2, 0.5, (-0.5, 0.25)), 2 ** 15, (24, 9)),  # 2^16.5 24^-1/2 9^1/4 = 2^15
    (P(3, 1.5, (0.5, 0.25, -0.25)), 2 ** 25, (4, 6, 6)),
]


@pytest.mark.parametrize("omega,n,tie", TIE_CASES)
def test_cross_shell_and_projection_agree(omega, n, tie):
    # every box of chi(2^l N), probed through its corner frequency 2^{s-1}
    outer = chi(omega, n * 2 ** omega.l)
    inner = set(chi(omega, n))
    shell = set(theta(omega, n))
    corners = 2 ** (outer.as_array() - 1)
    kept = project_q(TrigPolynomial(corners, np.ones(len(corners))), omega, n)
    kept_boxes = {tuple(s) for s in kept.octaves().tolist()}
    for s in outer:
        assert (s in inner) == (s in kept_boxes) == (s not in shell), s
    assert tie in inner and tie in kept_boxes and tie not in shell
    assert tie in theta(omega, n / 2 ** omega.l)


class TestRegime:
    def test_large_p(self):
        reg = classify_regime(P(2, 1.5, (0.0, 0.0)), p=2.0, q=2.0, theta_=2.0)
        assert reg.tag == "large_p"
        assert reg.main_exponent == 1.5
        assert reg.log_exponent == pytest.approx(1.5)  # (d-1)(r + 0)

    def test_large_p_theta_inf(self):
        reg = classify_regime(P(2, 1.5, (0.0, 0.0)), p=4.0, q=2.0, theta_=INF)
        assert reg.log_exponent == pytest.approx(2.0)  # r + 1/2

    def test_small_p(self):
        reg = classify_regime(P(2, 1.0, (0.5, 0.25)), p=1.5, q=1.0, theta_=3.0)
        assert reg.tag == "small_p"
        # -sum(b) + (d-1)(r + 1/p - 1/theta)
        assert reg.log_exponent == pytest.approx(-0.75 + (1.0 + 2 / 3 - 1 / 3))

    def test_sup_norm(self):
        reg = classify_regime(P(2, 1.5, (0.0, 0.0)), p=2.0, q=INF, theta_=2.0)
        assert reg.tag == "sup_norm"
        assert reg.main_exponent == pytest.approx(1.0)
        assert reg.log_exponent == pytest.approx(1.5)

    def test_p_two_prefers_large(self):
        assert classify_regime(P(1, 1.0, 0.0), 2.0, 1.0, 2.0).tag == "large_p"

    def test_unsupported_pairs(self):
        omega = P(1, 1.0, 0.0)
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(omega, p=1.5, q=1.8, theta_=2.0)  # q > p
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(omega, p=1.0, q=1.0, theta_=2.0)
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(omega, p=INF, q=2.0, theta_=2.0)
        with pytest.raises(UnsupportedRegimeError):
            classify_regime(P(1, 0.5, 0.0, l=2), p=1.5, q=INF, theta_=2.0)  # r <= 1/p

    def test_rate_value_frozen(self):
        omega = P(2, 1.5, (0.0, 0.0))
        reg = classify_regime(omega, p=2.0, q=INF, theta_=2.0)
        val = theoretical_rate(omega, reg, 2 ** 10)
        assert val == pytest.approx(2.0 ** -10 * 10.0 ** 1.5, rel=1e-13)

    def test_rate_needs_m_four(self):
        omega = P(1, 1.0, 0.0)
        reg = classify_regime(omega, 2.0, 2.0, 2.0)
        with pytest.raises(ParameterError):
            theoretical_rate(omega, reg, 3)

    def test_rate_checks_omega_consistency(self):
        reg = classify_regime(P(2, 1.5, (0.0, 0.0)), 2.0, 2.0, 2.0)
        with pytest.raises(ParameterError):
            theoretical_rate(P(2, 1.0, (0.0, 0.0)), reg, 64)


class TestExperiment:
    def test_shell_family_deterministic(self):
        omega = P(1, 1.0, 0.0)
        bp = BesovParams(2.0, 2.0)
        grid = [2.0 ** m for m in range(4, 9)]
        a = rate_experiment(omega, bp, q=2.0, family="shell", n_grid=grid, seed=5)
        b = rate_experiment(omega, bp, q=2.0, family="shell", n_grid=grid, seed=5)
        assert [rec.error for rec in a] == [rec.error for rec in b]
        assert all(rec.error > 0 and rec.theory > 0 for rec in a)
        assert [rec.m for rec in a] == [30, 62, 126, 254, 510]

    def test_shell_error_decays(self):
        omega = P(1, 1.0, 0.0)
        recs = rate_experiment(omega, BesovParams(2.0, 2.0), q=2.0, family="shell",
                               n_grid=[2.0 ** m for m in range(4, 12)], seed=1)
        assert recs[-1].error < recs[0].error / 10

    def test_random_ball_runs(self):
        omega = P(2, 1.0, (0.0, 0.0))
        recs = rate_experiment(omega, BesovParams(2.0, 2.0), q=2.0,
                               family="random_ball",
                               n_grid=[2.0 ** 5, 2.0 ** 6], samples=2, seed=0)
        assert len(recs) == 2
        assert all(rec.ratio > 0 for rec in recs)

    def test_witness_regime_validation(self):
        omega = P(2, 1.5, (0.0, 0.0))
        with pytest.raises(UnsupportedRegimeError):
            rate_experiment(omega, BesovParams(2.0, 1.0), q=2.0, family="g3",
                            n_grid=[2.0 ** 10])  # theta < 2
        with pytest.raises(UnsupportedRegimeError):
            rate_experiment(omega, BesovParams(2.0, 3.0), q=1.0, family="g5",
                            n_grid=[2.0 ** 10])  # p = 2 lands in large_p
        with pytest.raises(UnsupportedRegimeError):
            rate_experiment(omega, BesovParams(2.0, 2.0), q=2.0, family="g7",
                            n_grid=[2.0 ** 10])  # needs q = inf

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            rate_experiment(P(1, 1.0, 0.0), BesovParams(2.0, 2.0), q=2.0,
                            family="g9", n_grid=[2.0 ** 8])

    def test_g3_errors_positive(self):
        omega = P(2, 1.5, (0.0, 0.0))
        recs = rate_experiment(omega, BesovParams(2.0, 2.0), q=2.0, family="g3",
                               n_grid=[2.0 ** 10, 2.0 ** 12])
        assert all(rec.error > 0 for rec in recs)


class TestFit:
    @staticmethod
    def synthetic(ms, errs):
        return [ExperimentRecord(n=float(m), m=int(m), error=float(e), theory=1.0)
                for m, e in zip(ms, errs)]

    def test_pure_power(self):
        ms = [2 ** k for k in range(5, 15)]
        recs = self.synthetic(ms, [m ** -1.5 for m in ms])
        fit = fit_rate(recs)
        assert fit.rho_hat == pytest.approx(1.5, abs=1e-10)
        assert fit.log_hat == pytest.approx(0.0, abs=1e-9)
        assert fit.two_point_slope == pytest.approx(1.5, abs=1e-12)

    def test_power_log(self):
        ms = [2 ** k for k in range(5, 15)]
        recs = self.synthetic(ms, [m ** -1.0 * math.log2(m) ** 2 for m in ms])
        fit = fit_rate(recs)
        assert fit.rho_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.log_hat == pytest.approx(2.0, abs=1e-8)

    def test_noise_tolerance(self):
        rng = np.random.default_rng(17)
        ms = [2 ** k for k in range(5, 16)]
        errs = [m ** -1.25 * (1 + rng.uniform(-0.05, 0.05)) for m in ms]
        fit = fit_rate(self.synthetic(ms, errs))
        assert fit.rho_hat == pytest.approx(1.25, abs=0.05)

    def test_collinearity_flag_exposed(self):
        ms = [2 ** k for k in range(5, 15)]
        fit = fit_rate(self.synthetic(ms, [m ** -1.0 for m in ms]))
        assert isinstance(fit.collinear_warning, bool)
        assert fit.condition > 1.0

    def test_too_few_records(self):
        ms = [2 ** k for k in range(5, 9)]
        with pytest.raises(ParameterError):
            fit_rate(self.synthetic(ms, [m ** -1.0 for m in ms]))

    def test_narrow_span_rejected(self):
        ms = [32, 32, 64, 64, 128]
        with pytest.raises(ParameterError):
            fit_rate(self.synthetic(ms, [m ** -1.0 for m in ms]))

    def test_zero_error_rejected(self):
        ms = [2 ** k for k in range(5, 11)]
        errs = [m ** -1.0 for m in ms]
        errs[2] = 0.0
        with pytest.raises(ParameterError):
            fit_rate(self.synthetic(ms, errs))

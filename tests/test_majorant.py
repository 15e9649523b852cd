import math

import numpy as np
import pytest

from stepcross.errors import ParameterError
from stepcross.indexsets import SpectrumSet, rho
from stepcross.kernels import band_apply, band_kernel, band_multiplier, k_packet, ks_vector
from stepcross.trigpoly import TrigPolynomial
from stepcross.majorant import (
    MAX_OCTAVE,
    MajorantParams,
    MajorantAuditReport,
    check_box_index,
    omega_eval,
    omega_dyadic,
    log2_omega_dyadic,
    verify_majorant_axioms,
)


def P(d, r, b, l=2):
    return MajorantParams(d=d, r=r, b=b, l=l)


class TestParams:
    def test_scalar_b_broadcast(self):
        p = P(3, 1.0, 0.5)
        assert p.b == (0.5, 0.5, 0.5)

    def test_rejects_bad_r(self):
        with pytest.raises(ParameterError):
            P(1, 0.0, 0.0)
        with pytest.raises(ParameterError):
            P(1, 2.0, 0.0, l=2)  # needs r < l

    def test_rejects_b_at_r(self):
        with pytest.raises(ParameterError):
            P(2, 1.0, (0.5, 1.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            P(2, 1.0, (0.5,))

    @pytest.mark.parametrize("b", [
        (math.nan, 0.0), (-math.inf, 0.0), math.nan, (0.5, "a"), "0.5", None])
    def test_rejects_non_finite_or_non_numeric_b(self, b):
        with pytest.raises(ParameterError, match="finite number"):
            P(2, 1.0, b)

    def test_negative_b_allowed(self):
        p = P(1, 0.5, -1.0)
        assert p.b == (-1.0,)

    def test_json_round_trip(self):
        p = P(2, 1.5, (0.5, 0.25), l=3)
        assert MajorantParams.from_json(p.to_json()) == p


class TestOmegaEval:
    def test_power_log_point(self):
        # d=2, r=1, b=(1/2,1/2) at t=(1/4,1/16):
        # 2^-2 * 2^-0.5 * 2^-4 * 4^-0.5 = 2^-7.5
        p = P(2, 1.0, (0.5, 0.5))
        assert omega_eval(p, (0.25, 0.0625)) == pytest.approx(2.0 ** -7.5, rel=1e-14)

    def test_pure_power(self):
        p = P(1, 1.0, 0.0)
        assert omega_eval(p, (0.125,)) == pytest.approx(0.125, rel=1e-15)

    def test_zero_coordinate(self):
        p = P(2, 1.0, (0.5, 0.5))
        assert omega_eval(p, (0.0, 0.5)) == 0.0

    def test_log_clamp_near_one(self):
        # log2(1/t) < 1 for t > 1/2, so the divisor clamps to 1.
        p = P(1, 1.0, 0.5)
        assert omega_eval(p, (0.75,)) == pytest.approx(0.75, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            omega_eval(P(1, 1.0, 0.0), (-0.5,))


class TestOmegaDyadic:
    def test_power_log(self):
        p = P(2, 1.0, (0.5, 0.5))
        assert omega_dyadic(p, (2, 4)) == pytest.approx(2.0 ** -7.5, rel=1e-14)

    def test_pure_power(self):
        p = P(2, 2.0, (0.0, 0.0), l=3)
        assert omega_dyadic(p, (1, 1)) == pytest.approx(2.0 ** -4, rel=1e-15)

    def test_matches_omega_eval(self):
        p = P(3, 1.25, (0.5, 0.0, -0.5))
        for s in [(1, 1, 1), (2, 5, 3), (7, 1, 2)]:
            t = tuple(2.0 ** -sj for sj in s)
            assert omega_dyadic(p, s) == pytest.approx(omega_eval(p, t), rel=1e-13)

    def test_log2_form(self):
        p = P(2, 1.5, (0.5, 0.25))
        s = (3, 5)
        expected = -(1.5 * 8 + 0.5 * math.log2(3) + 0.25 * math.log2(5))
        assert log2_omega_dyadic(p, s) == pytest.approx(expected, rel=1e-14)

    def test_rejects_zero_index(self):
        with pytest.raises(ParameterError):
            omega_dyadic(P(1, 1.0, 0.0), (0,))


class TestBoxIndex:
    @pytest.mark.parametrize("s, want", [
        (3, (3,)),
        (2.0, (2,)),
        (np.int64(4), (4,)),
        ((2, 3), (2, 3)),
        ([1.0, MAX_OCTAVE], (1, MAX_OCTAVE)),
        (np.array([5, 1]), (5, 1)),
    ])
    def test_accepts_integral_coordinates(self, s, want):
        got = check_box_index(s)
        assert got == want and all(type(x) is int for x in got)

    @pytest.mark.parametrize("s", [
        2.5, (2, 3.7), (0, 2), (-1,), (MAX_OCTAVE + 1,), (2, math.nan), (math.inf,),
        ("3",), (), [[2, 3]], [(1,), (2, 3)], 2 ** 70,
    ])
    def test_rejects(self, s):
        with pytest.raises(ParameterError):
            check_box_index(s)

    def test_rejects_wrong_length(self):
        assert check_box_index((2, 3), 2) == (2, 3)
        with pytest.raises(ParameterError, match="expected 3"):
            check_box_index((2, 3), 3)

    # every public entry point that takes a 2-D box index
    ENTRY_POINTS = {
        "rho": rho,
        "from_boxes": lambda s: SpectrumSet.from_boxes(2, [s]),
        "omega_dyadic": lambda s: omega_dyadic(P(2, 1.0, (0.0, 0.0)), s),
        "log2_omega_dyadic": lambda s: log2_omega_dyadic(P(2, 1.0, (0.0, 0.0)), s),
        "band_multiplier": lambda s: band_multiplier(s, [[3, 5]]),
        "band_kernel": band_kernel,
        "band_apply": lambda s: band_apply(TrigPolynomial([[3, 5]], [1.0]), s),
        "ks_vector": ks_vector,
        "k_packet": lambda s: k_packet(s, u=1),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("s", [(2.5, 3), (3, 3.7), (64, 3), (3, 64), (2, math.nan)])
    def test_every_entry_point_refuses(self, entry, s):
        with pytest.raises(ParameterError):
            self.ENTRY_POINTS[entry](s)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_takes_an_integral_float(self, entry):
        def value(x):
            return (x.ks, x.cs) if isinstance(x, TrigPolynomial) else x

        build = self.ENTRY_POINTS[entry]
        np.testing.assert_equal(value(build((3.0, 4.0))), value(build((3, 4))))

    def test_deepest_octave(self):
        k = ks_vector((MAX_OCTAVE,))
        assert k.tolist() == [3 * 2 ** (MAX_OCTAVE - 2)]
        packet = k_packet((MAX_OCTAVE,), u=1)
        assert packet.octaves().ravel().tolist() == [MAX_OCTAVE] * 3
        assert rho((MAX_OCTAVE,)).size == 2 ** MAX_OCTAVE


class TestAudit:
    def test_pure_power_sharp_constants(self):
        rep = verify_majorant_axioms(P(1, 1.0, 0.0), alpha=0.5, gamma=1.5)
        assert rep.all_ok
        assert rep.c1 == pytest.approx(1.0)
        assert rep.c2 == pytest.approx(1.0)

    def test_positive_log_exponent_passes(self):
        rep = verify_majorant_axioms(P(1, 1.0, 0.5), alpha=0.5, gamma=1.5)
        assert rep.all_ok
        assert rep.c1 >= 1.0 and 0.0 < rep.c2 <= 1.0

    def test_alpha_at_r_with_positive_b_passes(self):
        # psi(tau) = log2(1/tau)^{-b} is increasing in tau for b > 0, so the
        # almost-increase constant stays at 1 no matter the probe depth.
        rep = verify_majorant_axioms(P(1, 1.0, 0.5), alpha=1.0, gamma=1.5)
        assert rep.s_condition_ok
        assert rep.c1 == pytest.approx(1.0)

    def test_alpha_at_r_with_negative_b_fails(self):
        # psi grows like log2(1/tau)^{|b|}; the constant doubles with depth.
        rep = verify_majorant_axioms(P(1, 0.5, -1.0, l=2), alpha=0.5, gamma=1.5)
        assert not rep.s_condition_ok
        assert any("(S)" in v for v in rep.violations)

    def test_alpha_above_r_fails(self):
        rep = verify_majorant_axioms(P(1, 1.0, 0.0), alpha=1.25, gamma=1.5)
        assert not rep.s_condition_ok

    def test_gamma_below_r_fails(self):
        rep = verify_majorant_axioms(P(2, 1.5, (0.0, 0.0)), alpha=1.0, gamma=1.0)
        assert not rep.sl_condition_ok

    def test_gamma_at_r_fails_only_for_positive_b(self):
        ok = verify_majorant_axioms(P(1, 1.0, -0.5), alpha=0.5, gamma=1.0)
        assert ok.sl_condition_ok
        bad = verify_majorant_axioms(P(1, 1.0, 0.5), alpha=0.5, gamma=1.0)
        assert not bad.sl_condition_ok

    def test_negative_b_breaks_monotonicity(self):
        # t^0.5 * log2(1/t) is not monotone near t = 1/2; recorded, not raised.
        rep = verify_majorant_axioms(P(1, 0.5, -1.0, l=2), alpha=0.25, gamma=1.5)
        assert not rep.monotone_ok
        assert any("monotonicity" in v for v in rep.violations)
        assert isinstance(rep, MajorantAuditReport)

    def test_mild_negative_b_keeps_scaling(self):
        rep = verify_majorant_axioms(P(2, 1.0, (-0.25, 0.0)), alpha=0.5, gamma=1.5)
        assert rep.scaling_ok

    def test_gamma_must_stay_below_l(self):
        with pytest.raises(ParameterError):
            verify_majorant_axioms(P(1, 1.0, 0.0), alpha=0.5, gamma=2.0)

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepcross.besov import BesovParams, besov_norm
from stepcross.errors import CapacityError, ParameterError
from stepcross.indexsets import SpectrumSet, rho, theta
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
    log2_weight,
    verify_majorant_axioms,
    PROBE_DEPTH,
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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_eval_at_dyadic_points(self, data):
        d = data.draw(st.integers(1, 3))
        r = data.draw(st.floats(0.1, 3.0))
        b = data.draw(st.lists(st.floats(-3.0, r, exclude_max=True), min_size=d, max_size=d))
        s = tuple(data.draw(st.lists(st.integers(1, 40), min_size=d, max_size=d)))
        p = P(d, r, tuple(b), l=math.ceil(r) + 1)
        t = tuple(2.0 ** -sj for sj in s)
        assert omega_eval(p, t) == pytest.approx(omega_dyadic(p, s), rel=1e-13)
        # the one-box form sums the same terms in the same order
        assert log2_omega_dyadic(p, s) == -log2_weight(p, [s])[0]


# b_j = -1e4 once made omega_eval and the audit divide by an underflowed 0
# and omega_dyadic overflow; r = 1000 once made omega_dyadic return a silent
# 0, besov_norm divide by it, and the audit overflow in mult ** l.
STEEP = P(1, 1.0, -1e4)
TINY = P(1, 1000.0, 0.0, l=2000)


class TestFloatRange:
    @pytest.mark.parametrize("value", [
        lambda: omega_eval(STEEP, (0.25,)),
        lambda: omega_dyadic(STEEP, (2,)),
        lambda: omega_dyadic(TINY, (2,)),
        lambda: omega_eval(TINY, (0.25,)),
        lambda: besov_norm(TrigPolynomial([[2]], [1.0]), TINY, BesovParams(p=2, theta=2)),
        lambda: theta(TINY, 64.0),  # the shell top 2^l N, once a raw OverflowError
    ])
    def test_value_outside_float_range_raises(self, value):
        with pytest.raises(CapacityError, match="float range"):
            value()

    def test_log2_value_stays_finite(self):
        assert log2_omega_dyadic(TINY, (2,)) == -2000.0
        assert log2_omega_dyadic(STEEP, (2,)) == pytest.approx(1e4 - 2.0, rel=1e-15)

    def test_audit_reports_steep_weight(self):
        rep = verify_majorant_axioms(STEEP, alpha=0.5, gamma=1.5)
        assert not rep.monotone_ok and not rep.s_condition_ok
        assert rep.c1 == math.inf  # C1 is far past the float range
        assert rep.violations[0].startswith("monotonicity")

    def test_growth_line_past_the_float_range_prints_log2(self):
        # C1 at half and full depth is 2^33214.8 and 2^43209.8; C2 of a
        # steep r underflows to 0
        rep = verify_majorant_axioms(STEEP, alpha=0.5, gamma=1.5)
        assert rep.violations[1] == (
            "(S): coordinate 0, C1 grows with depth (log2 C1 33214.8 -> 43209.8)")
        rep = verify_majorant_axioms(P(1, 100.0, 0.0, l=2000), alpha=0.5, gamma=1.0)
        assert rep.violations == [
            "(S_l): coordinate 0, C2 shrinks with depth (log2 C2 -990 -> -1980)"]
        # constants inside the float range keep their values
        rep = verify_majorant_axioms(P(1, 10.0, 0.0, l=20), alpha=0.5, gamma=1.0)
        assert rep.violations == [
            "(S_l): coordinate 0, C2 shrinks with depth (8.07794e-28 -> 6.5253e-55)"]

    def test_audit_reports_tiny_weight(self):
        rep = verify_majorant_axioms(TINY, alpha=1000.0, gamma=1000.0)
        assert rep.all_ok and rep.c1 == 1.0 and rep.c2 == 1.0


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


def _factor(r, b, t):
    lg = max(1.0, -math.log2(t)) if t < 1.0 else 1.0
    return t ** r / lg ** b


def _linear_audit(params, alpha, gamma):
    """The audit in linear space, as it was before the log2 form: the
    reference for majorants whose values stay in the float range."""
    violations = []
    flags = dict(monotone=True, scaling=True, s=True, sl=True)

    def omega(t):
        return math.prod(_factor(params.r, bj, tj) for tj, bj in zip(t, params.b))

    for j, bj in enumerate(params.b):
        vals = [_factor(params.r, bj, 2.0 ** -m) for m in range(PROBE_DEPTH + 1)]
        for m in range(PROBE_DEPTH):
            if vals[m + 1] > vals[m] * (1 + 1e-12):
                flags["monotone"] = False
                violations.append(
                    f"monotonicity: coordinate {j} increases from t=2^-{m + 1} to t=2^-{m}")
                break
    for j in range(params.d):
        for m_exp in (1, 2, 3, 5, 8, PROBE_DEPTH):
            for mult in (1, 2, 3, 4, 5, 8, 16, 32, 64, 2 ** PROBE_DEPTH):
                t = [0.5] * params.d
                t[j] = 2.0 ** -m_exp
                if mult * t[j] > 1.0:
                    continue
                scaled = list(t)
                scaled[j] *= mult
                if omega(scaled) > mult ** params.l * omega(t) * (1 + 1e-12):
                    flags["scaling"] = False
                    violations.append(f"scaling: coordinate {j}, t_j=2^-{m_exp}, multiplier {mult}")

    def constants(values):
        return (max(1.0, np.max(values / np.minimum.accumulate(values))),
                min(1.0, np.min(values / np.maximum.accumulate(values))))

    c1_all = c2_all = 1.0
    half = PROBE_DEPTH // 2
    m = np.arange(PROBE_DEPTH + 1, dtype=float)
    for j, bj in enumerate(params.b):
        factors = np.array([_factor(params.r, bj, 2.0 ** -mi) for mi in m])
        psi_s, psi_l = factors * 2.0 ** (alpha * m), factors * 2.0 ** (gamma * m)
        c1_full, c1_half = constants(psi_s)[0], constants(psi_s[: half + 1])[0]
        c2_full, c2_half = constants(psi_l)[1], constants(psi_l[: half + 1])[1]
        c1_all, c2_all = max(c1_all, c1_full), min(c2_all, c2_full)
        if c1_full > c1_half * (1 + 1e-9):
            flags["s"] = False
            violations.append(
                f"(S): coordinate {j}, C1 grows with depth ({c1_half:.6g} -> {c1_full:.6g})")
        if c2_full < c2_half / (1 + 1e-9):
            flags["sl"] = False
            violations.append(
                f"(S_l): coordinate {j}, C2 shrinks with depth ({c2_half:.6g} -> {c2_full:.6g})")
    return flags, c1_all, c2_all, violations


AUDIT_B = (-1.0, -0.25, 0.0, 0.5)
AUDIT_GRID = [
    P(len(b), r, b)
    for r in (0.5, 1.0, 1.5)
    for b in [(bj,) for bj in AUDIT_B] + list(itertools.combinations(AUDIT_B, 2))
    if max(b) < r
]


@pytest.mark.parametrize("params", AUDIT_GRID, ids=str)
@pytest.mark.parametrize("alpha, gamma", [(0.25, 1.0), (0.5, 1.5), (1.0, 1.0), (1.25, 1.9)])
def test_audit_matches_linear_reference(params, alpha, gamma):
    flags, c1, c2, violations = _linear_audit(params, alpha, gamma)
    rep = verify_majorant_axioms(params, alpha, gamma)
    assert (rep.monotone_ok, rep.scaling_ok, rep.s_condition_ok, rep.sl_condition_ok) == (
        flags["monotone"], flags["scaling"], flags["s"], flags["sl"])
    assert rep.violations == violations
    assert rep.c1 == pytest.approx(c1, rel=1e-12)
    assert rep.c2 == pytest.approx(c2, rel=1e-12)

"""The three input rules, ``check_int``, ``check_exponent`` and
``check_real`` (with its vector form ``check_point``), and every public
entry point that applies them."""

import math

import numpy as np
import pytest

from stepcross.approx import (
    approx_error, classify_regime, project_q, rate_experiment, theoretical_rate)
from stepcross.besov import BesovParams
from stepcross.errors import (
    CapacityError, ParameterError, check_exponent, check_int, check_point, check_real)
from stepcross.extremal import WitnessConfig
from stepcross.indexsets import (
    chi, in_cross, q_set, q_size, size_prediction, tail_sum, theta, theta_prime, theta_sum)
from stepcross.kernels import (
    band_multiplier, fejer, fejer_coefficient, k_packet, vallee_poussin, vp_coefficient)
from stepcross.majorant import (
    MajorantParams, check_box_index, omega_eval, verify_majorant_axioms)
from stepcross.polyio import loads_polynomial
from stepcross.trigpoly import (
    QuadratureSpec, TrigPolynomial, lp_norm, lp_norms, nikolskii_check, pow2ceil,
    random_in_spectrum)

INF = math.inf
OM1 = MajorantParams(d=1, r=1.0, b=0.0, l=2)
OM2 = MajorantParams(d=2, r=1.0, b=0.0, l=2)
# r = 2.5 < l = 3: beta = 2, b_j = 2 and gamma = 2 lie in range
OM3 = MajorantParams(d=1, r=2.5, b=0.0, l=3)
F = TrigPolynomial([[1, 2], [3, 5]], [1.0, 0.5j])


def value(x):
    """A comparable form of an entry point's result."""
    if isinstance(x, TrigPolynomial):
        return x.ks.tolist(), x.cs.tolist()
    return x.tolist() if isinstance(x, np.ndarray) else x


class TestCheckInt:
    @pytest.mark.parametrize("x", [2, 2.0, np.int64(2), np.float64(2.0), np.uint8(2)])
    def test_accepts_integral_reals(self, x):
        got = check_int(x, "x")
        assert got == 2 and type(got) is int

    @pytest.mark.parametrize("x", [True, np.True_, 2.5, math.nan, INF, -INF, "2", None, [2],
                                   np.array(2), 1 + 0j])
    def test_refuses(self, x):
        with pytest.raises(ParameterError, match="integers"):
            check_int(x, "x")

    def test_bounds(self):
        assert check_int(0, "x", lo=0) == 0
        assert check_int(2 ** 70, "x") == 2 ** 70
        assert check_int(np.int64(2 ** 62 + 1), "x") == 2 ** 62 + 1  # no float round trip
        assert check_int(63, "x", hi=63) == 63
        for x, kw in ((0, {}), (-1, dict(lo=0)), (64, dict(hi=63))):
            with pytest.raises(ParameterError):
                check_int(x, "x", **kw)
        with pytest.raises(ParameterError, match=r"x takes integers in \[1, 63\], got 64"):
            check_int(64, "x", hi=63)

    # every public entry point that takes an integer, called with 2 or
    # with 2 in one coordinate
    ENTRY_POINTS = {
        "pow2ceil": pow2ceil,
        "evaluate_grid": lambda x: TrigPolynomial([[1]], [1.0]).evaluate_grid((x,)),
        "MajorantParams.d": lambda x: MajorantParams(d=x, r=1.0, b=0.0, l=2),
        "MajorantParams.l": lambda x: MajorantParams(d=1, r=1.0, b=0.0, l=x),
        "from_json.d": lambda x: MajorantParams.from_json({"d": x, "r": 1.0, "b": 0.0, "l": 2}),
        "from_json.l": lambda x: MajorantParams.from_json({"d": 1, "r": 1.0, "b": 0.0, "l": x}),
        "check_box_index": lambda x: check_box_index((3, x)),
        "fejer": fejer,
        "vallee_poussin": vallee_poussin,
        "fejer_coefficient": lambda x: fejer_coefficient(x, [0, 1, 2, 3]),
        "vp_coefficient": lambda x: vp_coefficient(x, [0, 1, 2, 3]),
        "k_packet.u": lambda x: k_packet((4,), u=x),
        "k_packet.u_j": lambda x: k_packet((4, 4), u=[1, x]),
        "TrigPolynomial.zero": TrigPolynomial.zero,
        "rate_experiment.samples": lambda x: rate_experiment(
            OM1, BesovParams(2.0, 2.0), 2.0, "random_ball", [2.0 ** 5], samples=x),
        "rate_experiment.seed": lambda x: rate_experiment(
            OM1, BesovParams(2.0, 2.0), 2.0, "random_ball", [2.0 ** 5], seed=x),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("x", [True, 2.5, math.nan, INF, "2"])
    def test_every_entry_point_refuses(self, entry, x):
        with pytest.raises(ParameterError):
            self.ENTRY_POINTS[entry](x)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_takes_an_integral_float(self, entry):
        build = self.ENTRY_POINTS[entry]
        want = value(build(2))
        assert value(build(2.0)) == want
        assert value(build(np.int64(2))) == want

    def test_params_store_python_ints(self):
        om = MajorantParams(d=np.int64(2), r=1.0, b=0.0, l=2.0)
        assert type(om.d) is int and type(om.l) is int
        assert om == OM2 and hash(om) == hash(OM2)
        assert om.to_json() == {"d": 2, "r": 1.0, "b": [0.0, 0.0], "l": 2}

    @pytest.mark.parametrize("obj", [
        {"d": "two", "r": 1.0, "b": 0.0, "l": 2},
        {"d": 2.5, "r": 1.0, "b": 0.0, "l": 2},   # was truncated to d = 2
        {"d": 2, "r": "one", "b": 0.0, "l": 2},
        {"d": 2, "r": 1.0, "b": 0.0},
        [2, 1.0, 0.0, 2],
        "d=2",
        None,
    ])
    def test_from_json_refuses(self, obj):
        with pytest.raises(ParameterError):
            MajorantParams.from_json(obj)

    def test_polyio_dimension(self):
        with pytest.raises(ParameterError, match="bad dimension line"):
            loads_polynomial("d=0\n")
        assert loads_polynomial("d=2\n").d == 2


class TestCheckExponent:
    @pytest.mark.parametrize("x, want", [
        (1, 1.0), (2.5, 2.5), (INF, INF), (np.int64(4), 4.0), (np.float64(1.5), 1.5)])
    def test_accepts(self, x, want):
        got = check_exponent(x, "p")
        assert got == want and type(got) is float

    @pytest.mark.parametrize("x", [True, 0.5, 0, -INF, math.nan, "2", None, [2.0]])
    def test_refuses(self, x):
        with pytest.raises(ParameterError, match="need p >= 1"):
            check_exponent(x, "p")

    # every public entry point that takes an exponent
    ENTRY_POINTS = {
        "lp_norm": lambda x: lp_norm(F, x),
        "lp_norms": lambda x: lp_norms(F, (2.0, x)),
        "approx_error.q": lambda x: approx_error(F, OM2, 8, x),
        "BesovParams.p": lambda x: BesovParams(x, 2.0),
        "BesovParams.theta": lambda x: BesovParams(2.0, x),
        "classify_regime.p": lambda x: classify_regime(OM2, x, 1.5, 2.0),
        "classify_regime.q": lambda x: classify_regime(OM2, 2.0, x, 2.0),
        "classify_regime.theta": lambda x: classify_regime(OM2, 2.0, 2.0, x),
        "nikolskii_check.q": lambda x: nikolskii_check(F, x, 4.0),
        "nikolskii_check.p": lambda x: nikolskii_check(F, 1.0, x),
        "tail_sum": lambda x: tail_sum(OM2, 64.0, x, 0.0),
        "theta_sum": lambda x: theta_sum(OM2, 64.0, x, 0.0),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("x", [True, 0.5, math.nan, -INF, "2"])
    def test_every_entry_point_refuses(self, entry, x):
        with pytest.raises(ParameterError):
            self.ENTRY_POINTS[entry](x)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_takes_any_real_type(self, entry):
        build = self.ENTRY_POINTS[entry]
        want = value(build(2))
        assert value(build(2.0)) == want
        assert value(build(np.int64(2))) == want

    @pytest.mark.parametrize("series", [tail_sum, theta_sum])
    def test_tail_series_needs_a_finite_p(self, series):
        # p = inf once gave a NaN bound with a RuntimeWarning
        with pytest.raises(ParameterError, match="finite p"):
            series(OM2, 64.0, INF, 0.0)


class TestCheckReal:
    @pytest.mark.parametrize("x", [2, 2.0, np.int64(2), np.float64(2.0), np.uint8(2)])
    def test_accepts_finite_reals(self, x):
        got = check_real(x, "x")
        assert got == 2.0 and type(got) is float

    @pytest.mark.parametrize("x", [True, np.True_, math.nan, INF, -INF, "2", None, [2.0],
                                   np.array(2.0), 1 + 0j, 2 ** 1024])
    def test_refuses(self, x):
        with pytest.raises(ParameterError, match=r"x must be a finite number in \(-inf, inf\)"):
            check_real(x, "x")

    @pytest.mark.parametrize("x, lo, hi, message", [
        (0, 0, INF, "x must be finite and positive, got 0"),
        (1, 1, INF, r"x must be a finite number in \(1, inf\), got 1"),
        (1.0, -INF, 1.0, r"x must be a finite number in \(-inf, 1.0\), got 1.0"),
        (0.0, 0, 1, r"x must be a finite number in \(0, 1\), got 0.0"),
        (INF, 0, INF, "x must be finite and positive, got inf"),
    ])
    def test_open_bounds(self, x, lo, hi, message):
        with pytest.raises(ParameterError, match=message):
            check_real(x, "x", lo, hi)

    # every public entry point that takes a real scalar: (call, a value in
    # range, a finite value out of range)
    ENTRY_POINTS = {
        "chi": (lambda x: chi(OM2, x), 2, 0),
        "theta": (lambda x: theta(OM2, x), 2, 0),
        "theta_prime": (lambda x: theta_prime(OM2, x), 2, 0),
        "q_set": (lambda x: q_set(OM2, x), 2, -1),
        "q_size": (lambda x: q_size(OM2, x), 2, 0),
        "size_prediction": (lambda x: size_prediction(OM2, x), 2, 0),
        "in_cross": (lambda x: in_cross(OM2, [[1, 1]], x), 2, 0),
        "project_q": (lambda x: project_q(F, OM2, x), 2, 0),
        "approx_error.n": (lambda x: approx_error(F, OM2, x, 2.0), 2, 0),
        "tail_sum.n": (lambda x: tail_sum(OM2, x, 1.0, 0.0), 2, 0),
        "theta_sum.n": (lambda x: theta_sum(OM2, x, 1.0, 0.0), 2, 0),
        "tail_sum.beta": (lambda x: tail_sum(OM3, 64.0, 1.0, x), 2, 2.5),
        "theta_sum.beta": (lambda x: theta_sum(OM3, 64.0, 1.0, x), 2, 2.5),
        "rate_experiment.n_grid": (lambda x: rate_experiment(
            MajorantParams(d=1, r=0.5, b=0.0, l=2), BesovParams(2.0, 2.0), 2.0,
            "random_ball", [x]), 2, -1),
        "WitnessConfig.n": (lambda x: WitnessConfig(OM2, BesovParams(2.0, 2.0), x), 2, 1),
        "MajorantParams.r": (lambda x: MajorantParams(d=1, r=x, b=0.0, l=3), 2, 3),
        "MajorantParams.b_j": (lambda x: MajorantParams(d=2, r=2.5, b=(0.0, x), l=3), 2, 2.5),
        "from_json.r": (lambda x: MajorantParams.from_json(
            {"d": 1, "r": x, "b": 0.0, "l": 3}), 2, 0),
        "QuadratureSpec.rel_tol": (lambda x: QuadratureSpec(rel_tol=x), 0.5, 1),
        "verify_majorant_axioms.alpha": (lambda x: verify_majorant_axioms(OM2, x, 1.0), 2, 0),
        "verify_majorant_axioms.gamma": (lambda x: verify_majorant_axioms(OM3, 1.0, x), 2, 3),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("x", [True, "2", math.nan, INF, -INF, "out of range"])
    def test_every_entry_point_refuses(self, entry, x):
        build, _, bad = self.ENTRY_POINTS[entry]
        with pytest.raises(ParameterError):
            build(bad if x == "out of range" else x)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_takes_any_real_type(self, entry):
        build, good, _ = self.ENTRY_POINTS[entry]
        want = value(build(float(good)))
        assert value(build(np.float64(good))) == want
        if good == int(good):
            assert value(build(int(good))) == want

    def test_params_store_floats(self):
        om = MajorantParams(d=2, r=np.int64(1), b=(0, np.float64(0.5)), l=2)
        assert type(om.r) is float and all(type(bj) is float for bj in om.b)
        assert QuadratureSpec(rel_tol=np.float64(0.5)) == QuadratureSpec(rel_tol=0.5)

    @pytest.mark.parametrize("m", [True, 3, 4.5, math.nan, INF, "4"])
    def test_frequency_count_is_an_integer_from_4(self, m):
        # M = inf once gave NaN, and "4" a raw TypeError
        regime = classify_regime(OM2, 2.0, 2.0, 2.0)
        with pytest.raises(ParameterError, match="M takes integers >= 4"):
            theoretical_rate(OM2, regime, m)
        want = theoretical_rate(OM2, regime, 4)
        assert theoretical_rate(OM2, regime, 4.0) == theoretical_rate(OM2, regime, np.int64(4)) == want


class TestCheckPoint:
    @pytest.mark.parametrize("x", [(0.5, 2), [0.5, 2.0], np.array([0.5, 2]),
                                   np.array([[0.5, 2.0]]), (np.float64(0.5), np.int64(2))])
    def test_accepts(self, x):
        got = check_point(x, "point", 2)
        assert got.dtype == np.float64 and got.tolist() == [0.5, 2.0]

    def test_scalar_is_a_1d_point(self):
        assert check_point(3, "point", 1).tolist() == [3.0]

    @pytest.mark.parametrize("x", [(0.5,), (0.5, 1.0, 2.0), 0.5, [[0.5], [1.0]], (0.5, [1.0]),
                                   np.array([True, False]), "ab", (0.5, 1 + 0j)])
    def test_refuses(self, x):
        with pytest.raises(ParameterError):
            check_point(x, "point", 2)

    # every public entry point that takes a point, with x as its last coordinate
    ENTRY_POINTS = {
        "translate": lambda x: F.translate((0.5, x)),
        "k_packet.x_center": lambda x: k_packet((4, 4), x_center=(0.5, x)),
        "omega_eval": lambda x: omega_eval(OM2, (0.5, x)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("x", [True, "2", math.nan, INF, -INF])
    def test_every_entry_point_refuses(self, entry, x):
        # a string once ended in a raw ValueError, and omega_eval at NaN in NaN
        with pytest.raises(ParameterError, match="finite"):
            self.ENTRY_POINTS[entry](x)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_takes_any_real_type(self, entry):
        build = self.ENTRY_POINTS[entry]
        want = value(build(2))
        assert value(build(2.0)) == want
        assert value(build(np.float64(2))) == want

    @pytest.mark.parametrize("build", [
        lambda: F.translate((0.5,)),
        lambda: k_packet((4, 4), x_center=(0.5, 1.0, 2.0)),
        lambda: omega_eval(OM2, (0.5, 0.5, 0.5)),
        lambda: omega_eval(OM2, (0.5, -1.0)),  # t >= 0
    ])
    def test_out_of_range(self, build):
        with pytest.raises(ParameterError):
            build()


class TestTailUnderflow:
    @pytest.mark.parametrize("series", [tail_sum, theta_sum])
    def test_underflowed_terms_are_refused(self, series):
        # every term below 2^-1074 once gave value 0 with bound 0, and theta_sum 0
        with pytest.raises(CapacityError, match="underflows"):
            series(OM2, 64.0, 1.0, -300.0)

    def test_overflowed_terms_are_refused(self):
        # a steep log weight makes 2^{-p (s + b log2 s)} overflow for b = -1e4
        with pytest.raises(CapacityError, match="overflows"):
            tail_sum(MajorantParams(d=1, r=1.0, b=-1e4, l=2), 64.0, 1.0, 0.0)

    def test_small_but_representable_terms_still_sum(self):
        res = tail_sum(OM1, 8.0, 1.0, -100.0)
        assert 0 < res.value and res.relative_bound <= 1e-6


class TestSpectrumShape:
    @pytest.mark.parametrize("spectrum", [5, 2.0, None, "ab"])
    def test_scalar_spectrum_refused(self, spectrum):
        # once a raw TypeError from len()
        with pytest.raises(ParameterError, match="spectrum"):
            random_in_spectrum(spectrum)


class TestAuditExponents:
    @pytest.mark.parametrize("alpha, gamma", [
        (INF, 1.0), (math.nan, 1.0), (0.0, 1.0), ("1", 1.0),
        (1.0, "1"), (1.0, math.nan), (1.0, INF), (1.0, 2.0), (1.0, 0.0)])
    def test_refuses(self, alpha, gamma):
        with pytest.raises(ParameterError):
            verify_majorant_axioms(OM2, alpha, gamma)


class TestFrequencies:
    ENTRY_POINTS = {
        "TrigPolynomial": lambda k: TrigPolynomial([[k]], [1.0]),
        "band_multiplier": lambda k: band_multiplier((2,), [[k]]),
        "coefficient": lambda k: TrigPolynomial([[3]], [1.0]).coefficient([k]),
        "random_in_spectrum": lambda k: random_in_spectrum([[k]], seed=1),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("k", [1.5, 2.7, math.nan, INF, 1e19, "a"])
    def test_refuses_not_truncates(self, entry, k):
        with pytest.raises(ParameterError):
            self.ENTRY_POINTS[entry](k)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_integral_floats_are_frequencies(self, entry):
        build = self.ENTRY_POINTS[entry]
        assert value(build(3.0)) == value(build(3)) == value(build(np.uint8(3)))

    def test_unsigned_past_int64_refused(self):
        with pytest.raises(ParameterError):
            TrigPolynomial(np.array([[2 ** 63]], dtype=np.uint64), [1.0])

    @pytest.mark.parametrize("build", [
        lambda: TrigPolynomial([[1]], ["a"]),
        lambda: TrigPolynomial([[1]], [None]),
        lambda: random_in_spectrum([[1]], seed=-1),
        lambda: random_in_spectrum([[1]], seed="a"),
    ])
    def test_malformed_coefficients_and_seeds(self, build):
        with pytest.raises(ParameterError):
            build()

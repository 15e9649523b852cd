import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepcross.errors import CapacityError, ParameterError
from stepcross.majorant import MajorantParams, log2_weight
from stepcross.verify import MIXED_2D, PLAIN_2D, PLAIN_3D
from stepcross.indexsets import (
    _cross,
    SpectrumSet,
    rho,
    chi,
    in_cross,
    theta,
    theta_prime,
    q_set,
    q_size,
    size_prediction,
    tail_sum,
    theta_sum,
)


def P(d, r, b, l=2):
    return MajorantParams(d=d, r=r, b=b, l=l)


def brute_chi(params, n, s_cap=40):
    """Direct scan of a large box; oracle for the enumeration."""
    target = math.log2(n)
    out = []

    def rec(prefix):
        if len(prefix) == params.d:
            w = sum(params.r * s + bj * math.log2(s)
                    for s, bj in zip(prefix, params.b))
            if w <= target:
                out.append(tuple(prefix))
            return
        for s in range(1, s_cap + 1):
            rec(prefix + [s])

    rec([])
    return sorted(out)


# chi(N) lies in [1, 40]^d for every majorant drawn by small_crosses (see
# TestCrossProperties) and for PLAIN_2D up to N = 2^20.
CROSS_CUBE = 40


def axis_terms(params, bj, p, beta, s):
    return np.exp2(-p * (params.r * s + bj * np.log2(s) - beta * s))


def brute_tail(params, n, p, beta, rel=1e-12):
    """Oracle for tail_sum: the positive terms w(s)^{-p} 2^{beta p |s|_1} of
    every box in [1, side]^d outside chi(N), one slice of s_1 at a time, with
    side doubled until the mass beyond the cube is below ``rel`` of the sum."""
    d = params.d
    inner = np.stack(np.meshgrid(*[np.arange(1, CROSS_CUBE + 1)] * d, indexing="ij"), axis=-1)
    inside = in_cross(params, inner.reshape(-1, d), n).reshape((CROSS_CUBE,) * d)
    side = CROSS_CUBE
    while True:
        s = np.arange(1, side + 1)
        tabs = [axis_terms(params, bj, p, beta, s) for bj in params.b]
        rest = np.ones(())
        for t in tabs[1:]:
            rest = np.multiply.outer(rest, t)
        parts = []
        for i, t0 in enumerate(tabs[0]):
            mask = np.zeros(rest.shape, dtype=bool)
            if i < CROSS_CUBE:
                mask[(slice(0, CROSS_CUBE),) * (d - 1)] = inside[i]
            parts.append(float(np.where(mask, 0.0, t0 * rest).sum()))
        ref = math.fsum(parts)
        # every box beyond the cube has some s_j > side
        far_s = np.arange(side + 1, 64 * side)
        all_s = np.arange(1, 64 * side)
        fulls = [axis_terms(params, bj, p, beta, all_s).sum() for bj in params.b]
        far = sum(axis_terms(params, bj, p, beta, far_s).sum()
                  * math.prod(fulls[:j] + fulls[j + 1:])
                  for j, bj in enumerate(params.b))
        if far <= rel * ref:
            return ref
        side *= 2


class TestRho:
    def test_octave_members_1d(self):
        pts = rho((2,)).materialize()
        assert pts.tolist() == [[-3], [-2], [2], [3]]

    def test_sizes(self):
        assert rho((2,)).size == 4
        assert rho((3,)).size == 8
        assert rho((2, 3)).size == 32

    def test_octave_property(self):
        s = (2, 4, 1)
        pts = rho(s).materialize()
        assert pts.shape == (2 ** 7, 3)
        assert not np.any(pts == 0)
        mag = np.abs(pts)
        for j, sj in enumerate(s):
            assert np.all((mag[:, j] >= 2 ** (sj - 1)) & (mag[:, j] < 2 ** sj))

    def test_lex_sorted_unique(self):
        pts = rho((1, 2)).materialize()
        as_tuples = [tuple(row) for row in pts.tolist()]
        assert as_tuples == sorted(set(as_tuples))
        # strictly increasing rows, for one box and for several in 1 to 3 dimensions
        for spec in (rho((3, 1, 2)), rho((4,)), SpectrumSet.from_boxes(1, [(2,), (4,), (1,)]),
                     SpectrumSet.from_boxes(2, [(3, 1), (1, 2), (2, 2)]),
                     SpectrumSet.from_boxes(3, [(1, 2, 1), (2, 1, 1), (1, 1, 3)])):
            rows = [tuple(row) for row in spec.materialize().tolist()]
            assert len(rows) == spec.size
            assert all(a < b for a, b in zip(rows, rows[1:])), spec

    def test_materialize_cap(self):
        with pytest.raises(CapacityError):
            rho((12, 12)).materialize()

    def test_rejects_zero_index(self):
        with pytest.raises(ParameterError):
            rho((0, 2))


class TestChi:
    def test_1d_pure_power(self):
        fam = chi(P(1, 1.0, 0.0), 8)
        assert fam.members == ((1,), (2,), (3,))

    def test_2d_pure_power(self):
        fam = chi(P(2, 1.0, (0.0, 0.0)), 8)
        assert fam.members == ((1, 1), (1, 2), (2, 1))

    def test_positive_log_weight_shrinks(self):
        fam = chi(P(1, 1.0, 0.5), 4)
        assert fam.members == ((1,),)

    def test_small_n_empty(self):
        assert len(chi(P(2, 1.0, (0.0, 0.0)), 1)) == 0

    @pytest.mark.parametrize("params,n", [
        (P(2, 1.0, (0.0, 0.0)), 2 ** 8),
        (P(2, 1.5, (0.5, 0.25)), 2 ** 9),
        (P(3, 1.0, (0.0, 0.0, 0.0)), 2 ** 7),
        (P(2, 1.0, (0.5, -0.5)), 2 ** 8),
        (P(1, 0.5, -1.0), 2 ** 6),
    ])
    def test_matches_brute_force(self, params, n):
        assert list(chi(params, n)) == brute_chi(params, n)

    def test_negative_b_admits_late_boxes(self):
        # w(s) = 2^{s/2} s^{-1} dips below its s=1 value: w(2) = 1 <= w(1).
        fam = chi(P(1, 0.5, -1.0), 2)
        assert (2,) in fam and (1,) in fam

    def test_membership_takes_the_index_as_given(self):
        fam = chi(PLAIN_2D, 64)
        assert (2, 3) in fam and [2, 3] in fam and np.array([2, 3]) in fam
        assert (2.5, 3) not in fam and (2, 3.7) not in fam and (2,) not in fam

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            chi(P(1, 1.0, 0.0), 0.0)


class TestTheta:
    def test_1d_window(self):
        fam = theta(P(1, 1.0, 0.0, l=2), 8)
        assert fam.members == ((4,), (5,))

    def test_1d_window_l3(self):
        fam = theta(P(1, 1.0, 0.0, l=3), 8)
        assert fam.members == ((4,), (5,), (6,))

    @pytest.mark.parametrize("params,n", [
        (P(2, 1.0, (0.0, 0.0)), 2 ** 6),
        (P(2, 1.5, (0.5, 0.25)), 2 ** 7),
        (P(3, 1.0, (0.0, 0.0, 0.0)), 2 ** 5),
    ])
    def test_is_cross_difference(self, params, n):
        inner = set(chi(params, n))
        outer = set(chi(params, n * 2 ** params.l))
        assert set(theta(params, n)) == outer - inner

    def test_boundary_weight_excluded(self):
        # w(s) = N exactly belongs to the cross, not the shell.
        fam = theta(P(1, 1.0, 0.0, l=2), 16)
        assert (4,) not in fam and (5,) in fam


class TestThetaPrime:
    def test_1d_equals_theta(self):
        assert theta_prime(P(1, 1.0, 0.0, l=2), 8).members == ((4,), (5,))

    def test_2d_balanced_layer(self):
        fam = theta_prime(P(2, 1.0, (0.0, 0.0), l=2), 2 ** 12)
        assert fam.members == ((3, 10), (4, 9), (5, 8), (6, 7))

    def test_subset_of_theta(self):
        for params, n in [(P(2, 1.0, (0.0, 0.0)), 2 ** 12),
                          (P(2, 1.5, (0.5, 0.25)), 2 ** 13),
                          (P(3, 1.0, (0.0, 0.0, 0.0)), 2 ** 15)]:
            shell = set(theta(params, n))
            assert shell.issuperset(set(theta_prime(params, n)))
            assert len(theta_prime(params, n)) > 0

    def test_coordinates_balanced(self):
        params = P(2, 1.5, (0.0, 0.0))
        n = 2 ** 15
        lo = math.ceil(15 / (2 * 1.5 * 2))
        for s in theta_prime(params, n):
            assert all(sj >= lo for sj in s)

    def test_tiny_n_empty(self):
        assert len(theta_prime(P(3, 1.5, (0.0, 0.0, 0.0)), 2)) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_a_scan_of_the_last_coordinate(self, data):
        # each prefix's last coordinate is the smallest s >= 1 that in_cross
        # puts outside chi(N); the docstring's two filters follow
        d = data.draw(st.sampled_from((2, 3)), label="d")
        r = data.draw(st.sampled_from((0.5, 1.0, 1.5)), label="r")
        b = tuple(data.draw(st.floats(-3.0, r, exclude_max=True), label=f"b{j}")
                  for j in range(d))
        n = 2.0 ** data.draw(st.floats(0.0, 24.0), label="log2 N")
        params = P(d, r, b, l=data.draw(st.integers(2, 3), label="l"))
        big_l = math.floor(math.log2(n))
        lo, hi = max(1, math.ceil(big_l / (2 * r * d))), math.floor(big_l / (r * d))
        want = []
        for prefix in itertools.product(range(lo, hi + 1), repeat=d - 1):
            s = 1
            while in_cross(params, [prefix + (s,)], n)[0]:
                s += 1
            if s >= lo and in_cross(params, [prefix + (s,)], n * 2.0 ** params.l)[0]:
                want.append(prefix + (s,))
        assert theta_prime(params, n).members == tuple(want)
        # the cross keeps its running table sums, which are log2_weight's bits
        rows, log2w = _cross(params, n)
        assert np.array_equal(log2w, log2_weight(params, rows))


class TestQSet:
    def test_exact_counts(self):
        assert q_size(P(2, 1.0, (0.0, 0.0)), 8) == 20
        assert q_size(P(1, 1.0, 0.0), 8) == 14
        assert q_size(P(1, 1.0, 0.0), 1) == 0

    def test_size_matches_materialization(self):
        spec = q_set(P(2, 1.0, (0.0, 0.0)), 2 ** 6)
        pts = spec.materialize()
        assert pts.shape[0] == spec.size
        assert len({tuple(r) for r in pts.tolist()}) == spec.size

    def test_size_is_exact_int(self):
        val = q_size(P(1, 1.0, 0.0), 2.0 ** 60)
        assert isinstance(val, int)
        assert val == sum(2 ** s for s in range(1, 61))

    def test_size_past_int64_is_exact(self):
        assert q_size(P(1, 1.0, 0.0), 2.0 ** 70) == 2 ** 71 - 2

    def test_prediction_tracks_count(self):
        params = P(2, 1.0, (0.0, 0.0))
        ratios = [q_size(params, 2.0 ** m) / size_prediction(params, 2.0 ** m)
                  for m in range(6, 21)]
        assert max(ratios) / min(ratios) < 4.0

    def test_prediction_past_float_range_is_inf(self):
        # L^{d-1} with L = 20 overflows a float from d of about 238
        assert size_prediction(P(1000, 1.0, 0.0), 2.0 ** 20) == math.inf


class TestTailSum:
    def test_geometric_1d(self):
        # True total is exactly 1/8; the certified bracket must contain it.
        res = tail_sum(P(1, 1.0, 0.0), 8, p=1.0, beta=0.0)
        assert res.value <= 0.125 <= res.value + res.bound
        assert res.value == pytest.approx(0.125, rel=1e-5)
        assert res.bound <= 1e-6 * res.value

    def test_squared_shifted(self):
        res = tail_sum(P(1, 1.0, 0.0), 8, p=2.0, beta=0.5)
        assert res.value <= 0.125 <= res.value + res.bound
        assert res.value == pytest.approx(0.125, rel=1e-5)

    def test_2d_brute_force(self):
        params = P(2, 1.0, (0.5, 0.25))
        n, p, beta = 2 ** 5, 2.0, 0.0
        members = set(chi(params, n))
        total = 0.0
        for s1 in range(1, 80):
            for s2 in range(1, 80):
                if (s1, s2) in members:
                    continue
                total += (2.0 ** -(s1 + s2)) ** p * s1 ** (-0.5 * p) * s2 ** (-0.25 * p)
        res = tail_sum(params, n, p=p, beta=beta)
        assert res.value == pytest.approx(total, rel=1e-6)

    def test_negative_b_certified(self):
        res = tail_sum(P(2, 1.0, (-0.5, 0.0)), 2 ** 6, p=1.0, beta=0.5)
        assert res.bound <= 1e-6 * res.value

    def test_plain_3d_deep_cross(self):
        # the cube total minus the cross part once cancelled to 1.69e-15 here
        res = tail_sum(PLAIN_3D, 2.0 ** 40, p=2.0, beta=0.0)
        assert res.value == pytest.approx(2.1877e-22, rel=1e-4, abs=0)
        assert 0 < res.bound <= 1e-6 * res.value

    @pytest.mark.parametrize("e", range(30, 41))
    def test_mixed_2d_deep_crosses_certify(self, e):
        res = tail_sum(MIXED_2D, 2.0 ** e, p=2.0, beta=0.0)
        assert 0 < res.relative_bound <= 1e-6

    def test_plain_2d_matches_brute_force(self):
        n = 2.0 ** 20
        res = tail_sum(PLAIN_2D, n, p=2.0, beta=0.0)
        assert res.value == pytest.approx(brute_tail(PLAIN_2D, n, 2.0, 0.0), rel=1e-12, abs=0)

    def test_bracket_covers_rounding(self):
        # The truncation bound here is ~1e-18 relative, below the rounding of
        # the sums; without a rounding allowance the true sum lay 3.1e-16
        # relative above value + bound.
        mpmath = pytest.importorskip("mpmath")
        params, n = P(2, 1.0, (0.0, 0.0)), 2.0 ** 40
        # b = 0: s lies in chi(2^40) iff |s|_1 <= 40, and there are m - 1
        # boxes with |s|_1 = m, each with the term 2^{-(r - beta) p m}
        assert max(map(sum, chi(params, n))) == 40
        res = tail_sum(params, n, p=1.0, beta=0.5)
        with mpmath.workdps(60):
            x = mpmath.mpf(2) ** mpmath.mpf(-0.5)
            ref = mpmath.nsum(lambda m: (m - 1) * x ** m, [41, mpmath.inf])
            assert res.value <= ref <= mpmath.mpf(res.value) + mpmath.mpf(res.bound)
        assert res.relative_bound <= 1e-6

    def test_rejects_beta_at_r(self):
        with pytest.raises(ParameterError):
            tail_sum(P(1, 1.0, 0.0), 8, p=1.0, beta=1.0)


class TestThetaSum:
    def test_1d_value(self):
        val = theta_sum(P(1, 1.0, 0.0, l=2), 8, p=1.0, beta=0.0)
        assert val == pytest.approx(3.0 / 32.0, rel=1e-12)

    def test_below_tail(self):
        params = P(2, 1.0, (0.0, 0.0))
        ts = theta_sum(params, 2 ** 8, p=1.0, beta=0.0)
        full = tail_sum(params, 2 ** 8, p=1.0, beta=0.0)
        assert 0 < ts <= full.value * (1 + 1e-9)


B_CHOICES = (-1.0, -0.5, -1 / 3, 0.0, 0.25, 1 / 3, 0.5, 1.0)


@st.composite
def small_crosses(draw):
    r = draw(st.sampled_from((0.5, 1.0, 1.5)))
    d = draw(st.integers(1, 3))
    b = tuple(draw(st.sampled_from([v for v in B_CHOICES if v < r])) for _ in range(d))
    n = draw(st.one_of(st.integers(0, 10).map(lambda e: 2.0 ** e),
                       st.floats(1.0, 1024.0)))
    return P(d, r, b, l=draw(st.integers(2, 3))), n


class TestCrossProperties:
    # Every axis term r s + b log2 s exceeds 10 by s = 40 and is above -0.1
    # everywhere, so the cube [1, 40]^d holds chi(N) for N <= 2^10.
    CUBE = 40

    @settings(max_examples=80, deadline=None)
    @given(small_crosses())
    def test_chi_is_filtered_cube(self, case):
        params, n = case
        axes = [np.arange(1, self.CUBE + 1)] * params.d
        cube = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, params.d)
        want = cube[in_cross(params, cube, n)]
        assert list(chi(params, n)) == [tuple(s) for s in want.tolist()]

    @settings(max_examples=80, deadline=None)
    @given(small_crosses())
    def test_shells_nest(self, case):
        params, n = case
        shell = set(theta(params, n))
        outer = set(chi(params, n * 2 ** params.l))
        assert shell == outer - set(chi(params, n))
        assert set(theta_prime(params, n)) <= shell

    @settings(max_examples=60, deadline=None)
    @given(small_crosses(), st.sampled_from((1.0, 2.0)), st.booleans())
    def test_series_match_brute_force(self, case, p, shifted):
        params, n = case
        beta = params.r / 2 if shifted else 0.0
        res = tail_sum(params, n, p, beta)
        ref = brute_tail(params, n, p, beta)
        assert res.value <= ref * (1 + 1e-12)
        assert ref <= (res.value + res.bound) * (1 + 1e-12)
        assert res.relative_bound <= 1e-6
        assert res.bound > 0
        shell = [math.prod(axis_terms(params, bj, p, beta, sj) for bj, sj in zip(params.b, s))
                 for s in theta(params, n)]
        assert theta_sum(params, n, p, beta) == pytest.approx(math.fsum(shell), rel=1e-12, abs=0)

    def test_exact_tie_is_inside(self):
        params = P(2, 1.0, (1 / 3, 1 / 3))
        # log2 w(2, 4) = 6 + (1 + 2) / 3 = 7
        assert in_cross(params, [[2, 4], [4, 2]], 2 ** 7).tolist() == [True, True]
        assert in_cross(params, [[2, 4]], 2 ** 7 * (1 - 1e-9)).tolist() == [False]


def series_results(params, n):
    """Everything read from the shared enumeration at one (params, N)."""
    return (list(chi(params, n)), list(theta(params, n)), q_size(params, n),
            [(tail_sum(params, n, p, beta), theta_sum(params, n, p, beta))
             for p in (1.0, 2.0) for beta in (0.0, params.r / 2)])


class TestSharedEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(small_crosses(), small_crosses())
    def test_results_do_not_depend_on_the_cache(self, case, other):
        _cross.cache_clear()
        cold = series_results(*case)
        _cross.cache_clear()
        series_results(*other)
        series_results(other[0], case[1])
        assert series_results(*case) == cold

    def test_cached_arrays_are_read_only(self):
        rows, log2w = _cross(PLAIN_2D, 2.0 ** 10)
        assert len(rows) == len(log2w) > 0
        for arr in (rows, log2w):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_one_cross_sets_item_enumerates_twice(self):
        # the calls one bench cross_sets item makes at one (params, N)
        params, n = MIXED_2D, 2.0 ** 12
        _cross.cache_clear()
        for call in (chi, theta, theta_prime, q_size, size_prediction):
            call(params, n)
        chi(params, n * 2.0 ** params.l)
        for p in (1.0, 2.0):
            for beta in (0.0, params.r / 2):
                tail_sum(params, n, p, beta)
                theta_sum(params, n, p, beta)
        assert _cross.cache_info().misses == 2

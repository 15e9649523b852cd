import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepcross.errors import CapacityError, ParameterError, QuadratureAccuracyError
from stepcross.indexsets import q_set, rho
from stepcross.majorant import MajorantParams
from stepcross.trigpoly import (
    TrigPolynomial,
    QuadratureSpec,
    lp_norm,
    nikolskii_check,
    pow2ceil,
    random_in_spectrum,
)

INF = math.inf


def one_plus_exp():
    # f(x) = 1 + e^{ix}; closed-form norms: ||f||_2 = sqrt 2, ||f||_4 = 6^{1/4},
    # ||f||_1 = 4/pi (mean of 2|cos(x/2)|), ||f||_inf = 2.
    return TrigPolynomial([[0], [1]], [1.0, 1.0])


class TestContainer:
    def test_merge_and_prune(self):
        f = TrigPolynomial([[1, 0], [0, 2], [1, 0], [3, 3]], [1.0, 2.0, -1.0, 0.0])
        assert f.n_terms == 1
        assert f.coefficient((0, 2)) == 2.0

    def test_lex_sorted(self):
        f = TrigPolynomial([[2, 1], [-1, 3], [2, -5]], [1.0, 2.0, 3.0])
        assert f.ks.tolist() == [[-1, 3], [2, -5], [2, 1]]

    def test_degrees(self):
        f = TrigPolynomial([[2, -7], [-3, 1]], [1.0, 1.0])
        assert f.degrees == (3, 7)
        assert TrigPolynomial.zero(2).degrees == (0, 0)

    def test_immutable(self):
        f = one_plus_exp()
        with pytest.raises(AttributeError):
            f.ks = None
        with pytest.raises(ValueError):
            f.cs[0] = 5.0

    def test_algebra(self):
        f = one_plus_exp()
        g = TrigPolynomial([[1]], [1.0])
        assert (f - g).n_terms == 1
        assert (2.0 * f).coefficient((1,)) == 2.0
        assert (f + (-f)).is_zero

    def test_sum_of_matches_pairwise(self):
        rng = np.random.default_rng(5)
        parts = [TrigPolynomial(rng.integers(-3, 4, size=(6, 2)), rng.integers(-2, 3, size=6))
                 for _ in range(5)]
        total = TrigPolynomial.zero(2)
        for part in parts:
            total = total + part
        got = TrigPolynomial.sum_of(2, parts)
        assert np.array_equal(got.ks, total.ks) and np.array_equal(got.cs, total.cs)
        empty = TrigPolynomial.sum_of(3, [])
        assert empty.is_zero and empty.d == 3

    def test_translate_phase(self):
        f = TrigPolynomial([[1]], [1.0]).translate((math.pi / 2,))
        assert f.coefficient((1,)) == pytest.approx(-1j, abs=1e-15)

    @pytest.mark.parametrize("shift", [math.nan, INF, -INF])
    def test_translate_rejects_non_finite_shift(self, shift):
        f = TrigPolynomial([[1, 2]], [1.0])
        with pytest.raises(ParameterError, match="finite"):
            f.translate((0.5, shift))

    def test_octaves(self):
        # rows come back in the container's lex order
        f = TrigPolynomial([[1, 0], [-3, 12], [4, -8]], [1.0, 1.0, 1.0])
        assert f.octaves().tolist() == [[2, 4], [1, 0], [3, 4]]

    def test_octaves_exact_bit_length(self):
        # float64 rounds 2^k - 1 up to 2^k once k > 53
        mags = {v for k in range(63) for v in (2 ** k - 1, 2 ** k, 2 ** k + 1)}
        ks = sorted(mags | {-v for v in mags})
        f = TrigPolynomial([[k] for k in ks], np.ones(len(ks)))
        want = [abs(k).bit_length() for k in f.ks[:, 0].tolist()]
        assert f.octaves()[:, 0].tolist() == want
        assert TrigPolynomial([[2 ** 54 - 1]], [1.0]).octaves().tolist() == [[54]]

    def test_1d_shorthand(self):
        f = TrigPolynomial([1, 2, 3], [1.0, 1.0, 1.0])
        assert f.d == 1 and f.n_terms == 3


def assert_canonical(f):
    """Rows strictly lex-increasing, no zero coefficient, read-only arrays."""
    assert f.ks.dtype == np.int64 and f.cs.dtype == np.complex128
    assert f.ks.ndim == 2 and f.ks.shape[0] == f.cs.shape[0]
    for a, b in zip(f.ks[:-1].tolist(), f.ks[1:].tolist()):
        assert a < b
    assert np.all(f.cs != 0)
    assert not f.ks.flags.writeable and not f.cs.flags.writeable


class TestDerivedKeepInvariant:
    """Derived polynomials skip re-sorting; they must still be canonical and
    equal what the full constructor builds from the same rows."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_derived(self, d):
        from stepcross.kernels import band_apply, band_multiplier

        rng = np.random.default_rng(d)
        n = 200
        ks = rng.integers(-9, 10, size=(n, d))
        cs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cs[:10] = 0.0
        f = TrigPolynomial(np.concatenate([ks, ks[:30]]), np.concatenate([cs, -cs[:30]]))
        mask = rng.random(f.n_terms) < 0.5
        derived = {
            "restrict": (f.restrict(mask), (f.ks[mask], f.cs[mask])),
            "restrict_none": (f.restrict(np.zeros(f.n_terms, bool)), (f.ks[:0], f.cs[:0])),
            "neg": (-f, (f.ks, -f.cs)),
            "zero_times": (0 * f, (f.ks, f.cs * 0j)),
            "scalar": ((2.5 - 1j) * f, (f.ks, f.cs * (2.5 - 1j))),
            "underflow": (f * 5e-324, (f.ks, f.cs * complex(5e-324))),
            "translate": (f.translate(np.linspace(0.3, 1.1, d)),
                          (f.ks, f.cs * np.exp(-1j * (f.ks @ np.linspace(0.3, 1.1, d))))),
        }
        for s in ((1,) * d, (2,) * d, (3,) + (1,) * (d - 1), (9,) * d):
            derived[f"band{s}"] = (band_apply(f, s), (f.ks, f.cs * band_multiplier(s, f.ks)))
        assert derived["zero_times"][0].is_zero and derived[f"band{(9,) * d}"][0].is_zero
        for name, (g, (want_ks, want_cs)) in derived.items():
            assert_canonical(g)
            want = TrigPolynomial(want_ks, want_cs)
            assert np.array_equal(g.ks, want.ks), name
            assert np.array_equal(g.cs, want.cs), name
        for g in (-TrigPolynomial.zero(d), 3 * TrigPolynomial.zero(d),
                  TrigPolynomial.zero(d).translate(np.zeros(d)),
                  band_apply(TrigPolynomial.zero(d), (2,) * d)):
            assert_canonical(g)
            assert g.is_zero and g.d == d


class TestEvaluation:
    def test_single_mode(self):
        f = TrigPolynomial([[3]], [2.0])
        x = np.array([[0.7]])
        assert f.evaluate(x)[0] == pytest.approx(2.0 * np.exp(1j * 2.1), rel=1e-13)

    def test_grid_matches_direct(self):
        rng = np.random.default_rng(5)
        ks = rng.integers(-9, 10, size=(40, 2))
        f = TrigPolynomial(ks, rng.standard_normal(40) + 1j * rng.standard_normal(40))
        grid = (32, 16)
        vals = f.evaluate_grid(grid)
        xs = [2 * np.pi * np.arange(g) / g for g in grid]
        mesh = np.meshgrid(*xs, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        direct = f.evaluate(pts).reshape(grid)
        np.testing.assert_allclose(vals, direct, atol=1e-10)

    def test_grid_exact_under_aliasing(self):
        # Degree 5 on a 4-point grid: folding must agree with direct values.
        f = TrigPolynomial([[5], [1]], [1.0, 0.5])
        vals = f.evaluate_grid((4,))
        pts = (2 * np.pi * np.arange(4) / 4).reshape(-1, 1)
        np.testing.assert_allclose(vals, f.evaluate(pts), atol=1e-12)

    def test_grid_contains_origin_peak(self):
        f = TrigPolynomial([[1], [-1], [0]], [1.0, 1.0, 2.0])  # 2 + 2cos x, peak 4
        vals = f.evaluate_grid((8,))
        assert np.max(np.abs(vals)) == pytest.approx(4.0, rel=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_grid_matches_direct_property(self, data):
        # any grid side, including aliasing grids smaller than 2n + 1
        d = data.draw(st.sampled_from((1, 2, 3)), label="d")
        n = data.draw(st.integers(1, 12), label="terms")
        ks = data.draw(st.lists(st.lists(st.integers(-40, 40), min_size=d, max_size=d),
                                min_size=n, max_size=n), label="ks")
        cs = data.draw(st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False,
                                                   allow_infinity=False),
                                min_size=n, max_size=n), label="cs")
        grid = tuple(data.draw(st.lists(st.integers(1, 48 if d < 3 else 16),
                                        min_size=d, max_size=d), label="grid"))
        f = TrigPolynomial(ks, cs)
        vals = f.evaluate_grid(grid)
        assert vals.shape == grid
        mesh = np.meshgrid(*[2 * np.pi * np.arange(g) / g for g in grid], indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        direct = f.evaluate(pts).reshape(grid)
        scale = max(1.0, float(np.sum(np.abs(f.cs))))
        np.testing.assert_allclose(vals, direct, rtol=0, atol=1e-12 * scale * max(grid))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_grid_bit_identical_to_dense_ifftn(self, data):
        # the line-pruned transform runs the same 1-D transforms as ifftn of
        # the dense folded spectrum, so every value matches to the last bit
        d = data.draw(st.sampled_from((1, 2, 3)), label="d")
        grid = tuple(data.draw(st.lists(st.integers(1, 24), min_size=d, max_size=d),
                               label="grid"))
        layout = data.draw(st.sampled_from(("random", "one_line", "all_lines")), label="layout")
        n = data.draw(st.integers(1, 16), label="terms")
        # degrees up to 60 against sides up to 24: most grids alias
        ks = np.array(data.draw(st.lists(st.lists(st.integers(-60, 60), min_size=d, max_size=d),
                                         min_size=n, max_size=n), label="ks"))
        if layout == "one_line":
            ks[:, :-1] = ks[0, :-1]
        elif layout == "all_lines" and d > 1:
            prefixes = np.indices(grid[:-1]).reshape(d - 1, -1).T
            ks = np.concatenate([ks, np.c_[prefixes, np.full(len(prefixes), 3)]])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        f = TrigPolynomial(ks, rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks)))
        total = math.prod(grid)
        flat = np.ravel_multi_index([np.mod(f.ks[:, j], grid[j]) for j in range(d)], grid)
        spec = (np.bincount(flat, weights=f.cs.real, minlength=total)
                + 1j * np.bincount(flat, weights=f.cs.imag, minlength=total)).reshape(grid)
        assert np.array_equal(f.evaluate_grid(grid), np.fft.ifftn(spec) * total)

    def test_grid_memory_cap(self):
        f = TrigPolynomial([[1, 1]], [1.0])
        with pytest.raises(CapacityError):
            f.evaluate_grid((1 << 14, 1 << 14))


@pytest.fixture
def grid_shapes(monkeypatch):
    """The shape of every grid that evaluate_grid is asked for, in order."""
    shapes = []
    evaluate_grid = TrigPolynomial.evaluate_grid
    monkeypatch.setattr(TrigPolynomial, "evaluate_grid",
                        lambda f, shape: shapes.append(tuple(shape)) or evaluate_grid(f, shape))
    return shapes


class TestLpNorm:
    def test_parseval_three_modes(self):
        f = TrigPolynomial([[0, 1], [2, -3], [5, 5]], [1.0, 1.0, 1.0])
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_unit_exponential_all_p(self):
        f = TrigPolynomial([[7, -3]], [1.0])
        for p in (1.0, 1.5, 2.0, 4.0, INF):
            assert lp_norm(f, p) == pytest.approx(1.0, rel=1e-9)

    def test_even_power_exact(self):
        assert lp_norm(one_plus_exp(), 4) == pytest.approx(6.0 ** 0.25, rel=1e-13)

    def test_adaptive_fractional(self):
        quad = QuadratureSpec(rel_tol=1e-5)
        assert lp_norm(one_plus_exp(), 1, quad) == pytest.approx(4 / math.pi, rel=1e-4)

    def test_sup_norm(self):
        assert lp_norm(one_plus_exp(), INF) == pytest.approx(2.0, rel=1e-10)

    def test_sup_never_exceeds_true_value(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            ks = rng.integers(-6, 7, size=(12, 1))
            f = TrigPolynomial(ks, rng.standard_normal(12) + 1j * rng.standard_normal(12))
            coarse = lp_norm(f, INF, QuadratureSpec(max_grid=64))
            fine = lp_norm(f, INF, QuadratureSpec(max_grid=8192))
            assert coarse <= fine * (1 + 1e-12)

    def test_accuracy_error_carries_estimate(self):
        f = TrigPolynomial(np.arange(1, 40).reshape(-1, 1),
                           np.ones(39, dtype=complex))
        quad = QuadratureSpec(rel_tol=1e-13, max_grid=16, max_points=16)
        with pytest.raises(QuadratureAccuracyError) as err:
            lp_norm(f, 1, quad)
        assert err.value.best_estimate > 0

    def test_forced_mode_validation(self):
        f = one_plus_exp()
        with pytest.raises(ParameterError):
            lp_norm(f, 4, QuadratureSpec(mode="exact_parseval"))
        with pytest.raises(ParameterError):
            lp_norm(f, 1.5, QuadratureSpec(mode="even_power_exact"))

    def test_even_exact_capacity_when_forced(self):
        # the exact p = 4 grid has 65536 points
        f = TrigPolynomial([[10000]], [1.0]) + TrigPolynomial([[0]], [1.0])
        with pytest.raises(CapacityError):
            lp_norm(f, 4, QuadratureSpec(mode="even_power_exact", max_points=1 << 15))

    def test_thin_block_even_grid_ignores_axis_cap(self, grid_shapes):
        # the block s = (11, 1): its exact p = 4 grid (8192, 8) is longer
        # than max_grid on one axis but holds only 65536 points
        rng = np.random.default_rng(4)
        k1 = np.r_[-np.arange(1024, 2048), np.arange(1024, 2048)]
        ks = np.stack(np.meshgrid(k1, [-1, 1], indexing="ij"), axis=-1).reshape(-1, 2)
        f = TrigPolynomial(ks, rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks)))
        assert QuadratureSpec().max_grid < 8192
        auto = lp_norm(f, 4)
        assert grid_shapes == [(8192, 8)]
        forced = lp_norm(f, 4, QuadratureSpec(mode="even_power_exact"))
        fine = float(np.mean(np.abs(f.evaluate_grid((16384, 16))) ** 4)) ** 0.25
        assert forced == auto
        assert forced == pytest.approx(fine, rel=1e-13)

    def test_adaptive_start_leaves_room_to_refine(self, grid_shapes):
        # degree 1024: the Nyquist size of |f|^2 is 4096, the axis cap, so
        # the mean starts one doubling below it and still has a grid to
        # compare with; |f| = |3 + e^{ix}| is smooth, so 2048 points suffice.
        # The 2048-point estimate is read off the even points of the 4096
        # grid, so only that grid is evaluated.
        f = TrigPolynomial([[1023], [1024]], [3.0, 1.0])
        got = lp_norm(f, 1.5, QuadratureSpec(rel_tol=1e-6))
        assert grid_shapes == [(4096,)]
        x = 2 * np.pi * np.arange(1 << 12) / (1 << 12)
        want = float(np.mean(np.abs(3 + np.exp(1j * x)) ** 1.5)) ** (1 / 1.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_doubling_is_the_fine_grid_mean(self, grid_shapes):
        # start (8, 8), doubled to (16, 16); |f| stays in [2, 6], so the
        # 8-point estimate already agrees to rel_tol
        f = TrigPolynomial([[0, 0], [1, 0], [0, 1]], [4.0, 1.0, 1.0])
        got = lp_norm(f, 1.5, QuadratureSpec(rel_tol=1e-3))
        assert grid_shapes == [(16, 16)]
        assert got == float(np.mean(np.abs(f.evaluate_grid((16, 16))) ** 1.5)) ** (1 / 1.5)

    def test_sup_is_the_running_grid_maximum(self, grid_shapes):
        rng = np.random.default_rng(12)
        for trial in range(6):
            d = 1 + trial % 2
            ks = rng.integers(-9, 10, size=(15, d))
            f = TrigPolynomial(ks, rng.standard_normal(15) + 1j * rng.standard_normal(15))
            grid_shapes.clear()
            got = lp_norm(f, INF, QuadratureSpec(rel_tol=1e-9, max_grid=256))
            # the first grid is the first doubling; the result is the largest
            # value sampled on any grid (a copy: evaluate_grid appends shapes)
            maxima = [float(np.max(np.abs(f.evaluate_grid(g)))) for g in list(grid_shapes)]
            assert got == max(maxima)

    def test_no_doubling_raises_with_start_estimate(self, grid_shapes):
        # max_grid = 8: the start grid (8,) cannot double, so it is the only
        # grid, and its mean is the estimate carried by the error
        f = TrigPolynomial(np.arange(1, 40).reshape(-1, 1), np.ones(39, dtype=complex))
        quad = QuadratureSpec(max_grid=8)
        with pytest.raises(QuadratureAccuracyError) as err:
            lp_norm(f, 1.5, quad)
        assert grid_shapes == [(8,)]
        want = float(np.mean(np.abs(f.evaluate_grid((8,))) ** 1.5)) ** (1 / 1.5)
        assert err.value.best_estimate == want
        grid_shapes.clear()
        got = lp_norm(f, INF, quad)
        assert grid_shapes == [(8,)]
        assert got == float(np.max(np.abs(f.evaluate_grid((8,)))))

    def test_zero_polynomial(self):
        assert lp_norm(TrigPolynomial.zero(3), 7.3) == 0.0

    def test_monotone_in_p(self):
        f = random_in_spectrum(rho((3, 2)), seed=9)
        norms = [lp_norm(f, p, QuadratureSpec(rel_tol=1e-7)) for p in (1, 1.5, 2, 4)]
        norms.append(lp_norm(f, INF))
        assert all(norms[i] <= norms[i + 1] * (1 + 1e-6) for i in range(len(norms) - 1))


class TestRandom:
    def test_gaussian_seeded(self):
        f = random_in_spectrum(rho((2, 2)), seed=3)
        g = random_in_spectrum(rho((2, 2)), seed=3)
        assert np.array_equal(f.cs, g.cs)
        assert f.n_terms == 16

    def test_unit_complex_law(self):
        f = random_in_spectrum(rho((4,)), seed=1, law="unit_complex")
        np.testing.assert_allclose(np.abs(f.cs), 1.0, atol=1e-12)
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(16), rel=1e-12)

    def test_accepts_q_set(self):
        params = MajorantParams(d=2, r=1.0, b=(0.0, 0.0), l=2)
        spec = q_set(params, 8)
        f = random_in_spectrum(spec, seed=0)
        assert f.n_terms == spec.size

    def test_unknown_law(self):
        with pytest.raises(ParameterError):
            random_in_spectrum(rho((1,)), law="cauchy")


class TestNikolskii:
    def test_single_mode_saturates_trivially(self):
        f = TrigPolynomial([[5]], [1.0])
        res = nikolskii_check(f, q=1, p=2)
        assert res.passed
        assert res.lhs == pytest.approx(1.0, rel=1e-6)

    def test_fejer_sup_vs_l1(self):
        # Fejer kernel order n: ||K||_inf = n+1 (peak), ||K||_1 = 1 exactly,
        # bound 2 * n^{1} * 1 = 2n.
        from stepcross.kernels import fejer
        f = fejer(16)
        res = nikolskii_check(f, q=1, p=INF, quad=QuadratureSpec(rel_tol=1e-8))
        assert res.lhs == pytest.approx(17.0, rel=1e-7)
        assert res.rhs == pytest.approx(32.0, rel=1e-6)
        assert res.passed

    def test_requires_q_below_p(self):
        with pytest.raises(ParameterError):
            nikolskii_check(one_plus_exp(), q=2, p=2)

    def test_seeded_sample_passes(self):
        for seed in range(8):
            f = random_in_spectrum(rho((3, 3)), seed=seed)
            res = nikolskii_check(f, q=1.5, p=4, quad=QuadratureSpec(rel_tol=1e-7))
            assert res.passed


def test_pow2ceil():
    assert [pow2ceil(x) for x in (1, 2, 3, 4, 5, 17)] == [1, 2, 4, 4, 8, 32]
    with pytest.raises(ParameterError):
        pow2ceil(0)

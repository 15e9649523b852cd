import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepcross import trigpoly
from stepcross.errors import CapacityError, ParameterError, QuadratureAccuracyError
from stepcross.indexsets import q_set, rho
from stepcross.majorant import MajorantParams
from stepcross.trigpoly import (
    TrigPolynomial,
    QuadratureSpec,
    lp_norm,
    lp_norms,
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
        # exact at the int64 edge: |-2^63| is 2^63, not a wrapped -2^63
        edge = TrigPolynomial([[-2 ** 63, 1], [3, 2]], [1, 1])
        assert edge.degrees == (2 ** 63, 2)
        assert all(type(v) is int for v in edge.degrees)

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

    # values at and next to every power of two, and anywhere in int64
    INT64 = st.one_of(
        st.integers(-2 ** 63, 2 ** 63 - 1),
        st.builds(lambda e, off, sign: max(-2 ** 63, min(2 ** 63 - 1, sign * (2 ** e + off))),
                  st.integers(0, 63), st.integers(-1, 1), st.sampled_from([-1, 1])))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(INT64, INT64), min_size=1, max_size=20))
    def test_octaves_bit_length_property(self, rows):
        f = TrigPolynomial(rows, np.ones(len(rows)))
        want = [[abs(k).bit_length() for k in row] for row in f.ks.tolist()]
        assert f.octaves().tolist() == want

    def test_1d_shorthand(self):
        f = TrigPolynomial([1, 2, 3], [1.0, 1.0, 1.0])
        assert f.d == 1 and f.n_terms == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("cs", [[math.nan], [INF], [complex(1.0, -INF)],
                                    [1e308, 1e308]])
    def test_non_finite_coefficients_rejected(self, cs):
        # the last case is finite on input and overflows when the rows merge
        with pytest.raises(ParameterError, match="finite"):
            TrigPolynomial([[1]] * len(cs), cs)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scalar", [math.nan, INF, complex(0.0, -INF), 1e300])
    def test_non_finite_scalar_rejected(self, scalar):
        f = TrigPolynomial([[1], [2]], [1e10, 1.0])
        with pytest.raises(ParameterError, match="finite"):
            f * scalar
        if scalar != 1e300:
            with pytest.raises(ParameterError, match="finite"):
                scalar * TrigPolynomial.zero(1)

    def test_restrict_takes_boolean_masks_only(self):
        f = TrigPolynomial([[1], [2], [3]], [1.0, 2.0, 3.0])
        for mask in ([True, False, True], np.array([True, False, True])):
            assert f.restrict(mask).ks.ravel().tolist() == [1, 3]
        for mask in ([0.5, 0, 7], [1, 0, 1], np.array([1, 0, 1], dtype=np.uint8), ["a", "", "b"]):
            with pytest.raises(ParameterError, match="boolean"):
                f.restrict(mask)

    def test_restrict_takes_an_empty_mask(self):
        """An empty list reads as a float array; with no entries it is no
        less boolean, so only the length rule applies."""
        for d in (1, 2):
            for mask in ([], np.empty(0), np.empty(0, dtype=bool)):
                g = TrigPolynomial.zero(d).restrict(mask)
                assert g.is_zero and g.d == d
        f = TrigPolynomial([[1], [2]], [1.0, 2.0])
        with pytest.raises(ParameterError, match="length"):
            f.restrict([])
        for mask in ([1.0, 0.0], [1, 0]):
            with pytest.raises(ParameterError, match="boolean"):
                f.restrict(mask)

    def test_sum_of_dimension_mismatch(self):
        with pytest.raises(ParameterError, match="dimension mismatch"):
            TrigPolynomial.sum_of(2, [one_plus_exp()])
        with pytest.raises(ParameterError, match="dimension mismatch"):
            TrigPolynomial.sum_of(1, iter([one_plus_exp(), TrigPolynomial.zero(3)]))


def lexsort_reference(ks, cs):
    """The canonical rows written out the long way: lexsort, merge equal
    neighbours by summation in sorted order, prune zeros."""
    if not len(cs):
        return ks, cs
    order = np.lexsort(ks.T[::-1])
    ks, cs = ks[order], cs[order]
    starts = np.flatnonzero(np.r_[True, np.any(ks[1:] != ks[:-1], axis=1)])
    ks, cs = ks[starts], np.add.reduceat(cs, starts)
    keep = cs != 0
    return ks[keep], cs[keep]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_constructor_matches_lexsort_reference(data):
    # strictly increasing rows take the copy-only path; everything else sorts
    d = data.draw(st.sampled_from((1, 2, 3)), label="d")
    n = data.draw(st.integers(0, 40), label="rows")
    layout = data.draw(st.sampled_from(("strict", "sorted", "reversed", "random")),
                       label="layout")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ks = rng.integers(-3, 4, size=(n, d))  # a small range, so rows repeat
    if layout == "strict":
        ks = np.unique(ks, axis=0).reshape(-1, d)
    elif layout != "random":
        ks = ks[np.lexsort(ks.T[::-1])][::1 if layout == "sorted" else -1]
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    n = len(ks)
    # exact zeros, and integer parts whose duplicates can cancel exactly
    cs = (rng.standard_normal(n) * rng.integers(0, 2, n)
          + 1j * rng.integers(-1, 2, n)).astype(np.complex128)
    want_ks, want_cs = lexsort_reference(ks.copy(), cs.copy())
    ks_in, cs_in = ks.copy(), cs.copy()
    arg = ks_in[:, 0] if d == 1 and data.draw(st.booleans(), label="flat") else ks_in
    f = TrigPolynomial(arg, cs_in)
    assert_canonical(f)
    assert np.array_equal(f.ks, want_ks.reshape(-1, d))
    assert np.array_equal(f.cs.view(np.int64), want_cs.view(np.int64))
    assert ks_in.flags.writeable and cs_in.flags.writeable
    assert not np.shares_memory(f.ks, ks_in) and not np.shares_memory(f.cs, cs_in)
    assert np.array_equal(ks_in, ks) and np.array_equal(cs_in, cs)


def assert_canonical(f):
    """Rows strictly lex-increasing, no zero or non-finite coefficient,
    read-only arrays."""
    assert f.ks.dtype == np.int64 and f.cs.dtype == np.complex128
    assert f.ks.ndim == 2 and f.ks.shape[0] == f.cs.shape[0]
    for a, b in zip(f.ks[:-1].tolist(), f.ks[1:].tolist()):
        assert a < b
    assert np.all(f.cs != 0) and np.all(np.isfinite(f.cs))
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_algebra_properties(data):
    # Gaussian-integer coefficients on a small frequency range, so parts
    # overlap, sums are exact and duplicates can cancel to zero
    from stepcross.besov import dyadic_blocks
    from stepcross.kernels import band_apply

    d = data.draw(st.sampled_from((1, 2, 3)), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    sizes = data.draw(st.lists(st.integers(0, 12), max_size=5), label="sizes")
    parts = [TrigPolynomial(rng.integers(-6, 7, size=(n, d)),
                            rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n))
             for n in sizes]
    pairwise = TrigPolynomial.zero(d)
    for part in parts:
        pairwise = pairwise + part
    f = TrigPolynomial.sum_of(d, parts)
    assert_canonical(f)
    assert np.array_equal(f.ks, pairwise.ks) and np.array_equal(f.cs, pairwise.cs)

    c = data.draw(st.sampled_from((0, 1, -1, 0.5 - 2j, 5e-324)), label="c")
    x0 = rng.uniform(-4, 4, d)
    mask = rng.random(f.n_terms) < 0.5
    s = tuple(data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d), label="s"))
    derived = [-f, c * f, f * c, f.translate(x0), f.restrict(mask), band_apply(f, s)]
    inside = f.restrict(np.all(f.ks != 0, axis=1))
    blocks = dyadic_blocks(inside)
    derived += blocks.values()
    for g in derived:
        assert_canonical(g)
        assert g.d == d
    # the blocks partition the rows of f off the coordinate hyperplanes
    whole = TrigPolynomial.sum_of(d, blocks.values())
    assert np.array_equal(whole.ks, inside.ks) and np.array_equal(whole.cs, inside.cs)


class TestEvaluation:
    def test_single_mode(self):
        f = TrigPolynomial([[3]], [2.0])
        x = np.array([[0.7]])
        assert f.evaluate(x)[0] == pytest.approx(2.0 * np.exp(1j * 2.1), rel=1e-13)

    @pytest.mark.parametrize("x", [
        [math.nan], [math.inf], [[0.5], [-math.inf]], [True], ["a"], [1j], [2 ** 70], [[[0.5]]]])
    def test_refuses_points(self, x):
        # NaN and inf once gave nan+nanj, True was x = 1 and "a" a raw ValueError
        with pytest.raises(ParameterError):
            TrigPolynomial([[3]], [2.0]).evaluate(x)

    @pytest.mark.parametrize("x", [0.7, [0.7], np.float32(0.7), [[0.7]]])
    def test_one_point_forms(self, x):
        f = TrigPolynomial([[3]], [2.0])
        want = 2.0 * np.exp(1j * 3 * float(np.asarray(x).reshape(-1)[0]))
        assert np.ravel(f.evaluate(x))[0] == pytest.approx(want, rel=1e-13)

    def test_integer_points(self):
        f = TrigPolynomial([[1, 2]], [1.0])
        assert f.evaluate([1, 2]) == pytest.approx(np.exp(5j), rel=1e-13)

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
        # the line-pruned transform runs the same unscaled 1-D transforms as
        # ifftn of the dense folded spectrum over axis 0 first, then the others
        # from the last, so every value matches to the last bit
        d = data.draw(st.sampled_from((1, 2, 3)), label="d")
        grid = tuple(data.draw(st.lists(st.integers(1, 24), min_size=d, max_size=d),
                               label="grid"))
        layout = data.draw(st.sampled_from(("random", "one_line", "all_lines")), label="layout")
        n = data.draw(st.integers(1, 16), label="terms")
        # degrees up to 60 against sides up to 24: most grids alias
        ks = np.array(data.draw(st.lists(st.lists(st.integers(-60, 60), min_size=d, max_size=d),
                                         min_size=n, max_size=n), label="ks"))
        if layout == "one_line":
            ks[:, 1:] = ks[0, 1:]
        elif layout == "all_lines" and d > 1:
            suffixes = np.indices(grid[1:]).reshape(d - 1, -1).T
            ks = np.concatenate([ks, np.c_[np.full(len(suffixes), 3), suffixes]])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        f = TrigPolynomial(ks, rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks)))
        total = math.prod(grid)
        flat = np.ravel_multi_index([np.mod(f.ks[:, j], grid[j]) for j in range(d)], grid)
        spec = (np.bincount(flat, weights=f.cs.real, minlength=total)
                + 1j * np.bincount(flat, weights=f.cs.imag, minlength=total)).reshape(grid)
        axes = tuple(range(1, d)) + (0,)
        assert np.array_equal(f.evaluate_grid(grid), np.fft.ifftn(spec, axes=axes, norm="forward"))

    @pytest.mark.parametrize("grid", [(8.7,), (8, 2.5), (math.nan,), (INF, 8), ("8",)])
    def test_grid_rejects_non_integral_sides(self, grid):
        f = TrigPolynomial([[1, 1]], [1.0])
        with pytest.raises(ParameterError, match="integers"):
            f.evaluate_grid(grid)

    def test_grid_accepts_integral_floats(self):
        f = TrigPolynomial([[1, 3]], [1.0])
        assert np.array_equal(f.evaluate_grid((8.0, 4.0)), f.evaluate_grid((8, 4)))

    def test_grid_memory_cap(self):
        f = TrigPolynomial([[1, 1]], [1.0])
        with pytest.raises(CapacityError):
            f.evaluate_grid((1 << 14, 1 << 14))
        # the same point cap on one axis, refused before any array is allocated
        with pytest.raises(CapacityError):
            one_plus_exp().evaluate_grid((1 << 27,))


def record_grids(mp, shapes, then=trigpoly._grid_slabs):
    """Append the shape of every grid that lp_norms reduces to ``shapes``, at
    the grid layer, so a grid split into slabs is recorded once, whole; then
    call ``then``."""
    mp.setattr(trigpoly, "_grid_slabs",
               lambda f, grid, *rest: shapes.append(tuple(grid)) or then(f, grid, *rest))


@pytest.fixture
def grid_shapes(monkeypatch):
    """The shape of every grid that lp_norms reduces, in order."""
    shapes = []
    record_grids(monkeypatch, shapes)
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

    def test_sup_never_exceeds_true_value(self, monkeypatch):
        rng = np.random.default_rng(11)
        for trial in range(5):
            ks = rng.integers(-6, 7, size=(12, 1))
            f = TrigPolynomial(ks, rng.standard_normal(12) + 1j * rng.standard_normal(12))
            fine = lp_norm(f, INF)
            with monkeypatch.context() as mp:
                mp.setattr(trigpoly, "MAX_GRID_SIDE", 64)
                coarse = lp_norm(f, INF)
            assert coarse <= fine * (1 + 1e-12)

    def test_accuracy_error_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(trigpoly, "MAX_GRID_SIDE", 16)
        f = TrigPolynomial(np.arange(1, 40).reshape(-1, 1),
                           np.ones(39, dtype=complex))
        quad = QuadratureSpec(rel_tol=1e-13)
        with pytest.raises(QuadratureAccuracyError) as err:
            lp_norm(f, 1, quad)
        assert err.value.best_estimate > 0

    def test_even_grid_past_the_point_cap_falls_back(self, grid_shapes, monkeypatch):
        # spread 20000: the exact p = 4 grid has 65536 points, over a cap of
        # 2^15, so the adaptive mean runs: start (2048,), read off its
        # doubling (4096,)
        monkeypatch.setattr(trigpoly, "MAX_GRID_POINTS", 1 << 15)
        f = TrigPolynomial([[0], [20000]], [1.0, 1.0])
        got = lp_norm(f, 4)
        assert grid_shapes == [(4096,)]
        assert got == 6.0 ** 0.25

    def test_thin_block_even_grid_ignores_axis_cap(self, grid_shapes):
        # the block s = (12, 1): its exact p = 4 grid (16384, 8) is longer
        # than MAX_GRID_SIDE on one axis but holds only 131072 points
        rng = np.random.default_rng(4)
        k1 = np.r_[-np.arange(2048, 4096), np.arange(2048, 4096)]
        ks = np.stack(np.meshgrid(k1, [-1, 1], indexing="ij"), axis=-1).reshape(-1, 2)
        f = TrigPolynomial(ks, rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks)))
        assert trigpoly.MAX_GRID_SIDE < 16384
        got = lp_norm(f, 4)
        assert grid_shapes == [(16384, 8)]
        fine = float(np.mean(np.abs(f.evaluate_grid((32768, 16))) ** 4)) ** 0.25
        assert got == pytest.approx(fine, rel=1e-13)

    def test_adaptive_start_leaves_room_to_refine(self, grid_shapes):
        # spread 2047: the Nyquist grid of |f|^2 has 2048 points, one
        # doubling below the axis cap, so the mean still has a grid to
        # compare with; |f| = |3 + e^{i 2047 x}| is smooth, so 2048 points
        # suffice.  The 2048-point estimate is read off the even points of
        # the 4096 grid, so only that grid is evaluated; 2047 is odd, so on
        # it |f| takes the values of |3 + e^{iy}| on the same grid.
        f = TrigPolynomial([[-1023], [1024]], [3.0, 1.0])
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

    def test_sup_is_the_last_grid_maximum(self, grid_shapes, monkeypatch):
        monkeypatch.setattr(trigpoly, "MAX_GRID_SIDE", 256)
        rng = np.random.default_rng(12)
        for trial in range(6):
            d = 1 + trial % 2
            ks = rng.integers(-9, 10, size=(15, d))
            f = TrigPolynomial(ks, rng.standard_normal(15) + 1j * rng.standard_normal(15))
            grid_shapes.clear()
            got = lp_norm(f, INF, QuadratureSpec(rel_tol=1e-9))
            # the first grid is the first doubling; the result is the largest
            # value on the last grid, which holds every earlier grid's points
            maxima = [float(np.max(np.abs(f.evaluate_grid(g)))) for g in grid_shapes]
            assert got == maxima[-1]
            assert got >= max(maxima) * (1 - 4 * 2 ** -52)

    def test_no_doubling_raises_with_start_estimate(self, grid_shapes, monkeypatch):
        # a side cap of 8: the start grid (8,) cannot double, so it is the
        # only grid, and its mean is the estimate carried by the error
        monkeypatch.setattr(trigpoly, "MAX_GRID_SIDE", 8)
        f = TrigPolynomial(np.arange(1, 40).reshape(-1, 1), np.ones(39, dtype=complex))
        with pytest.raises(QuadratureAccuracyError) as err:
            lp_norm(f, 1.5)
        assert grid_shapes == [(8,)]
        want = float(np.mean(np.abs(f.evaluate_grid((8,))) ** 1.5)) ** (1 / 1.5)
        assert err.value.best_estimate == want
        grid_shapes.clear()
        got = lp_norm(f, INF)
        assert grid_shapes == [(8,)]
        assert got == float(np.max(np.abs(f.evaluate_grid((8,)))))

    def test_zero_polynomial(self):
        assert lp_norm(TrigPolynomial.zero(3), 7.3) == 0.0

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan, -INF])
    def test_invalid_p_rejected_before_the_zero_shortcut(self, p):
        for f in (TrigPolynomial.zero(1), one_plus_exp()):
            with pytest.raises(ParameterError):
                lp_norm(f, p)

    def test_monotone_in_p(self):
        f = random_in_spectrum(rho((3, 2)), seed=9)
        norms = [lp_norm(f, p, QuadratureSpec(rel_tol=1e-7)) for p in (1, 1.5, 2, 4)]
        norms.append(lp_norm(f, INF))
        assert all(norms[i] <= norms[i + 1] * (1 + 1e-6) for i in range(len(norms) - 1))


def each_lp_norm(f, ps, quad=None):
    """``lp_norm`` at each p in turn: the values, or the first
    QuadratureAccuracyError as (message, best estimate)."""
    try:
        return tuple(lp_norm(f, p, quad) for p in ps)
    except QuadratureAccuracyError as err:
        return str(err), err.best_estimate


def all_lp_norms(f, ps, quad=None):
    """``lp_norms`` in the form of ``each_lp_norm``."""
    try:
        return lp_norms(f, ps, quad)
    except QuadratureAccuracyError as err:
        return str(err), err.best_estimate


class TestLpNorms:
    """One grid pass for several exponents gives each p the value it gets
    alone, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_same_bits_as_one_p_at_a_time(self, data):
        d = data.draw(st.sampled_from((1, 2)), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        # spreads up to 3 get the floor of 8 on their exact grid
        spread = [data.draw(st.one_of(st.integers(0, 3), st.integers(4, 100)), label=f"w{j}")
                  for j in range(d)]
        n = data.draw(st.integers(1, 8), label="terms")
        ks = np.stack([rng.integers(0, w + 1, size=n + 2) for w in spread], axis=1)
        ks[0], ks[1] = 0, spread
        f = TrigPolynomial(ks + rng.integers(-50, 51, size=d),
                           rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2))
        ps = data.draw(st.lists(st.sampled_from((1, 1.5, 2, 3, 4, 6, INF)), min_size=1,
                                max_size=6), label="ps")
        quad = QuadratureSpec(rel_tol=data.draw(st.sampled_from((1e-3, 1e-6)), label="rel_tol"))
        # a low side cap brings the start cap and the accuracy error in reach
        side = data.draw(st.sampled_from((32, 256, 8192)), label="MAX_GRID_SIDE")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trigpoly, "MAX_GRID_SIDE", side)
            assert all_lp_norms(f, ps, quad) == each_lp_norm(f, ps, quad)

    @pytest.mark.parametrize("ks", [[[0], [3000]], [[0, 0], [2500, 3], [7, 1]]])
    def test_same_bits_past_the_start_cap(self, ks):
        # a spread past 2048 starts at the capped grid, and the exact p = 4
        # grid is no refinement grid
        f = TrigPolynomial(ks, [1.0, 0.5j, -0.25][:len(ks)])
        ps = (4, 1.5, INF, 1, 4, 2, 6)
        assert all_lp_norms(f, ps) == each_lp_norm(f, ps)

    def test_shared_grid_is_evaluated_once(self, grid_shapes):
        # spreads (40, 9): the exact p = 4 grid (128, 32) is the first
        # doubling of the p = 1.5 start (64, 16), so it comes first, and no
        # shape is evaluated twice; p = 1.5 alone evaluates four grids
        rng = np.random.default_rng(3)
        ks = np.c_[rng.integers(0, 41, size=30), rng.integers(0, 10, size=30)]
        ks[:2] = [[0, 0], [40, 9]]
        f = TrigPolynomial(ks, rng.standard_normal(30) + 1j * rng.standard_normal(30))
        quad = QuadratureSpec(rel_tol=1e-6)
        want = each_lp_norm(f, (1.5, 4.0), quad)
        alone = list(grid_shapes)
        grid_shapes.clear()
        assert lp_norms(f, (1.5, 4.0), quad) == want
        assert grid_shapes[0] == (128, 32)
        assert len(set(grid_shapes)) == len(grid_shapes) == len(alone) - 1 == 4
        assert set(grid_shapes) == set(alone)

    def test_served_exact_p_is_reduced_once(self, monkeypatch):
        # the polynomial of test_shared_grid_is_evaluated_once: its exact
        # p = 4 grid (128, 32), one slab, is the first doubling of the p = 1.5
        # start, whose coarse points only p = 1.5 reads
        rng = np.random.default_rng(3)
        ks = np.c_[rng.integers(0, 41, size=30), rng.integers(0, 10, size=30)]
        ks[:2] = [[0, 0], [40, 9]]
        f = TrigPolynomial(ks, rng.standard_normal(30) + 1j * rng.standard_normal(30))
        reduced, power_sum = [], trigpoly._power_sum
        monkeypatch.setattr(trigpoly, "_power_sum",
                            lambda values, p, on=None: reduced.append(p) or power_sum(values, p, on))
        lp_norms(f, (1.5, 4.0), QuadratureSpec(rel_tol=1e-6))
        assert reduced.count(4.0) == 1

    @pytest.mark.parametrize("side, rel_tol, ps, failing", [
        (16, 1e-13, (4, 1.5, 1), 1.5),
        (16, 1e-13, (INF, 1, 1.5), 1),
        # p = 3 and 5 converge within the cap, p = 1.5 and 1 do not
        (256, 1e-4, (3, 5, 1.5, 1), 1.5),
        (256, 1e-4, (5, 1, 3), 1),
    ])
    def test_accuracy_error_carries_the_same_estimate(self, monkeypatch, side, rel_tol, ps,
                                                      failing):
        monkeypatch.setattr(trigpoly, "MAX_GRID_SIDE", side)
        f = TrigPolynomial(np.arange(1, 40).reshape(-1, 1), np.ones(39, dtype=complex))
        quad = QuadratureSpec(rel_tol=rel_tol)
        with pytest.raises(QuadratureAccuracyError) as alone:
            lp_norm(f, failing, quad)
        with pytest.raises(QuadratureAccuracyError) as shared:
            lp_norms(f, ps, quad)
        assert shared.value.best_estimate == alone.value.best_estimate
        assert str(shared.value) == str(alone.value)
        converged = ps[:ps.index(failing)]
        assert lp_norms(f, converged, quad) == each_lp_norm(f, converged, quad)

    @pytest.mark.parametrize("ks, shared", [
        ([[0], [1], [3]], (32,)),
        ([[0, 0], [31, 7], [5, 2]], (256, 64)),
    ])
    def test_sup_ladder_serves_an_exact_grid_once(self, grid_shapes, ks, shared):
        # the exact p = 16 grid is the first doubling of the sup start, so the
        # sup ladder reduces it, and no grid is evaluated twice
        f = TrigPolynomial(ks, [1, -0.7j, 0.4])
        want = each_lp_norm(f, (INF, 16))
        grid_shapes.clear()
        assert lp_norms(f, (INF, 16)) == want
        assert grid_shapes[0] == shared
        assert len(set(grid_shapes)) == len(grid_shapes)

    def test_floor_grid_is_evaluated_on_its_own(self, grid_shapes):
        # spread 3: the exact p = 4 grid is the floor (8,), the start of the
        # refinement, whose values the refinement reads off (16,) only; p = 4
        # takes its own (8,) grid
        f = TrigPolynomial([[0], [1], [3]], [1.0, -0.7j, 0.4])
        quad = QuadratureSpec(rel_tol=1e-3)
        want = each_lp_norm(f, (1.5, 4), quad)
        grid_shapes.clear()
        assert lp_norms(f, (1.5, 4), quad) == want
        assert grid_shapes[-1] == (8,) and (8,) not in grid_shapes[:-1]

    def test_exponents_checked(self):
        assert lp_norms(TrigPolynomial.zero(2), (1.5, INF)) == (0.0, 0.0)
        assert lp_norms(one_plus_exp(), ()) == ()
        for ps in (1.5, "2", (2.0, 0.5), [math.nan]):
            for f in (TrigPolynomial.zero(1), one_plus_exp()):
                with pytest.raises(ParameterError):
                    lp_norms(f, ps)


def norms_or_error(f, ps, quad, slab_points):
    """``all_lp_norms`` with grids of more than ``slab_points`` points reduced
    in slabs, as (values, None) or ((best estimate,), message)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trigpoly, "SLAB_POINTS", slab_points)
        got = all_lp_norms(f, ps, quad)
    return (got[1:], got[0]) if isinstance(got[0], str) else (got, None)


class TestSlabs:
    """A grid of more than SLAB_POINTS points is reduced one residue slab at
    a time, with the norms of the whole grid up to rounding."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_slabbed_norms_agree_with_the_whole_grid(self, data):
        d = data.draw(st.sampled_from((1, 2, 3)), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        spread = [data.draw(st.integers(0, (300, 40, 12)[d - 1]), label=f"w{j}")
                  for j in range(d)]
        n = data.draw(st.integers(1, 8), label="terms")
        ks = np.stack([rng.integers(0, w + 1, size=n + 2) for w in spread], axis=1)
        ks[0], ks[1] = 0, spread
        f = TrigPolynomial(ks + rng.integers(-50, 51, size=d),
                           rng.standard_normal(n + 2) + 1j * rng.standard_normal(n + 2))
        ps = data.draw(st.lists(st.sampled_from((1, 1.5, 3, 4, INF)), min_size=1, max_size=3),
                       label="ps")
        quad = QuadratureSpec(rel_tol=data.draw(st.sampled_from((1e-3, 1e-6)), label="rel_tol"))
        slab = 1 << data.draw(st.integers(6, 10), label="log2 SLAB_POINTS")
        with pytest.MonkeyPatch.context() as mp:
            # 2^16 points at most: every grid past 2^10 is slabbed, none is slow
            mp.setattr(trigpoly, "MAX_GRID_POINTS", 1 << 16)
            whole, whole_error = norms_or_error(f, ps, quad, trigpoly.MAX_GRID_POINTS)
            got, error = norms_or_error(f, ps, quad, slab)
        assert error == whole_error
        assert got == pytest.approx(whole, rel=1e-12)

    def test_no_evaluation_past_the_slab_size(self, monkeypatch):
        # every slab transformed holds at most SLAB_POINTS points, unless the
        # grid's longest axis is shorter than points / SLAB_POINTS: then each
        # point of that axis is a slab, of side 1 there and more points
        sizes, shapes = [], []
        one_sided = [[0, 0, 0], [9, 11, 5], [3, 2, 1]]
        cases = [(TrigPolynomial([[0], [700]], [1.0, 0.5j]), 1.5),
                 (TrigPolynomial([[0, 0], [30, 17]], [1.0, -0.5]), INF),
                 (TrigPolynomial([[0, 0], [40, 9], [3, 3]], [1.0, 0.5j, 2.0]), 4),
                 (TrigPolynomial(one_sided, [1.0, 0.3, -0.7j]), 1)]
        quad = QuadratureSpec(rel_tol=1e-3)
        whole = [lp_norm(f, p, quad) for f, p in cases]
        transform = trigpoly._transform

        def recorded(fold, cs, shape):
            sizes.append(shape)
            return transform(fold, cs, shape)

        monkeypatch.setattr(trigpoly, "_transform", recorded)
        monkeypatch.setattr(trigpoly, "SLAB_POINTS", 1 << 8)
        record_grids(monkeypatch, shapes)
        assert [lp_norm(f, p, quad) for f, p in cases] == pytest.approx(whole, rel=1e-12)
        assert max(math.prod(g) for g in shapes) > 1 << 8
        capped = [s for s in sizes if math.prod(s) > 1 << 8]
        assert all(min(s) == 1 for s in capped)
        # the 3-D grid (32, 32, 16) has 16384 points: 32 slabs of 512 along
        # axis 0, the first of its longest axes
        assert (1, 32, 16) in capped

    def test_slabs_are_the_residue_classes_of_the_grid(self, monkeypatch):
        # the values of slab r are the points with index r mod S on axis 0,
        # or on the longest axis (the first of equals) when G_0 < S, and
        # ``on`` picks the slab's points on the coarse grid
        monkeypatch.setattr(trigpoly, "SLAB_POINTS", 1 << 6)
        rng = np.random.default_rng(5)
        f = TrigPolynomial(rng.integers(-40, 40, size=(9, 2)),
                           rng.standard_normal(9) + 1j * rng.standard_normal(9))
        for grid, coarse, slabs, a in [((32, 16), (16, 8), 8, 0), ((16, 32), (16, 16), 8, 0),
                                       ((4, 64), (4, 32), 4, 0), ((2, 128), (2, 64), 4, 1),
                                       ((16, 16), (8, 16), 4, 0)]:
            whole = f.evaluate_grid(grid)
            on_coarse = whole[::grid[0] // coarse[0], ::grid[1] // coarse[1]]
            seen = []
            for r, (vals, on) in enumerate(trigpoly._grid_slabs(f, grid, coarse)):
                want = np.take(whole, range(r, grid[a], slabs), axis=a)
                np.testing.assert_allclose(vals, want, rtol=0, atol=1e-12 * np.abs(whole).max())
                if on is not None:
                    seen.append(vals[on].ravel())
            got = np.sort_complex(np.concatenate(seen))
            np.testing.assert_allclose(got, np.sort_complex(on_coarse.ravel()), atol=1e-10)
            assert r + 1 == slabs

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_slabs_share_one_folding(self, data):
        # each slab holds the whole grid's values at its residues; the cut is
        # along axis 0 whenever G_0 >= S; a slab exceeds SLAB_POINTS points
        # only when the longest axis is shorter than S; and the slabs folded
        # once are bit for bit the twisted slab polynomials' evaluate_grid
        d = data.draw(st.sampled_from((1, 2, 3)), label="d")
        grid = tuple(1 << data.draw(st.integers(0, 13 // d + 1), label=f"log2 G{j}")
                     for j in range(d))
        slab = 1 << data.draw(st.integers(6, 10), label="log2 SLAB_POINTS")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        n = data.draw(st.integers(1, 12), label="terms")
        f = TrigPolynomial(rng.integers(-3 * max(grid), 3 * max(grid) + 1, size=(n, d)),
                           rng.standard_normal(n) + 1j * rng.standard_normal(n))
        whole = f.evaluate_grid(grid)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trigpoly, "SLAB_POINTS", slab)
            slabs = [vals for vals, _ in trigpoly._grid_slabs(f, grid)]
        s, wanted = len(slabs), pow2ceil(-(-math.prod(grid) // slab))
        assert s == min(max(grid), wanted)
        cut = [j for j in range(d) if slabs[0].shape[j] != grid[j]]
        assert cut == ([] if s == 1 else [0] if grid[0] >= wanted else
                       [max(range(d), key=grid.__getitem__)])
        a = cut[0] if cut else 0
        if slabs[0].size > slab:
            assert max(grid) < wanted and slabs[0].shape[a] == 1
        for r, vals in enumerate(slabs):
            want = np.take(whole, range(r, grid[a], s), axis=a)
            np.testing.assert_allclose(vals, want, rtol=0, atol=1e-12 * np.abs(whole).max())
            twist = np.exp(2j * np.pi / grid[a] * (r * np.mod(f.ks[:, a], grid[a]) % grid[a]))
            twisted = TrigPolynomial._canonical(f.ks, f.cs * twist) if r else f
            assert np.array_equal(vals, twisted.evaluate_grid(vals.shape))

    @pytest.mark.parametrize("slab_points", [1 << 20, 1 << 6], ids=["whole", "slabbed"])
    @pytest.mark.parametrize("grid, coarse", [
        ((256,), (128,)), ((256,), (64,)),
        ((32, 16), (16, 8)), ((32, 16), (32, 8)), ((16, 32), (8, 32)),
        ((16, 16, 8), (8, 16, 4)), ((8, 8, 8), (8, 4, 8)),
    ])
    def test_coarse_norms_are_the_coarse_grid_alone(self, monkeypatch, slab_points, grid,
                                                    coarse):
        # the coarse sums read off |f|^p on the fine grid's points give the
        # norms of the coarse grid evaluated on its own, and the fine norms
        # are those of the fine grid reduced without a coarse grid
        monkeypatch.setattr(trigpoly, "SLAB_POINTS", slab_points)
        d = len(grid)
        rng = np.random.default_rng(11 * d + coarse[-1])
        f = TrigPolynomial(rng.integers(-20, 21, size=(12, d)),
                           rng.standard_normal(12) + 1j * rng.standard_normal(12))
        ps = [1, 1.5, 4, INF]
        fine, on_coarse = trigpoly._grid_norms(f, grid, ps, coarse, len(ps))
        assert fine == trigpoly._grid_norms(f, grid, ps)[0]
        alone = trigpoly._grid_norms(f, coarse, ps)[0]
        assert on_coarse == pytest.approx(alone, rel=1e-12)


def degree_rule_first_grid(f, p):
    """The first grid lp_norm would evaluate if it sized grids from the
    largest |k_j| (as if |f|^2 had degree 2 n_j) instead of the spread."""
    n = f.degrees
    if p != INF and p == int(p) and int(p) % 2 == 0:
        grid = tuple(max(8, pow2ceil(int(p) * nj + 1)) for nj in n)
        if math.prod(grid) <= trigpoly.MAX_GRID_POINTS:
            return grid
    m = 4 if p == INF else 1
    start = [max(8, min(pow2ceil(m * (2 * nj + 1)), trigpoly.MAX_GRID_SIDE // 4)) for nj in n]
    return trigpoly._double_within_caps(trigpoly._fit_points(start))[0]


class TestSpreadSizing:
    """Grids are sized from the spread max k_j - min k_j of each axis, which
    modulation leaves alone."""

    @pytest.mark.parametrize("p", [1, 1.5, 4, INF])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_modulation_invariance(self, grid_shapes, d, p, seed):
        rng = np.random.default_rng(seed)
        n = 12
        ks = rng.integers(-20, 21, size=(n, d))
        cs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = rng.integers(-5000, 5001, size=d)
        f, g = TrigPolynomial(ks, cs), TrigPolynomial(ks + m, cs)
        want = lp_norm(f, p)
        f_shapes = list(grid_shapes)
        grid_shapes.clear()
        got = lp_norm(g, p)
        assert grid_shapes == f_shapes
        assert got == pytest.approx(want, rel=1e-12)

    def test_spread_past_int64_does_not_wrap(self):
        # spread 2^63 + 3 on axis 0, past int64, must still size a grid.
        # |f| = |1 + e^{i((2^63 + 3) x + y)}| has the law of
        # |1 + e^{it}|, whose L_p norm is (2^p G((p+1)/2) / (sqrt(pi) G(p/2+1)))^{1/p}
        f = TrigPolynomial([[-2 ** 63, 1], [3, 2]], [1, 1])
        quad = QuadratureSpec()
        gamma = math.gamma
        want = {p: (2 ** p * gamma((p + 1) / 2) / (math.sqrt(math.pi) * gamma(p / 2 + 1))) ** (1 / p)
                for p in (1.5, 4)}
        want[INF] = 2.0
        assert want[4] == pytest.approx(6 ** 0.25, rel=1e-15)
        for p, value in want.items():
            assert lp_norm(f, p, quad) == pytest.approx(value, rel=quad.rel_tol), p

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("s", [(11,), (9, 7)])
    def test_one_sided_even_grid_is_exact(self, grid_shapes, s, p):
        # a modulated Fejer packet: frequencies in [2^{s_j - 1}, 2^{s_j}],
        # spread 2^{s_j - 1}, so the exact grid is half the max-|k| one
        from stepcross.kernels import k_packet

        f = k_packet(s)
        spread = np.ptp(f.ks, axis=0)
        grid = tuple(pow2ceil(p // 2 * int(w) + 1) for w in spread)
        got = lp_norm(f, p)
        assert grid_shapes == [grid]
        fine = float(np.mean(np.abs(f.evaluate_grid(tuple(2 * g for g in grid))) ** p)) ** (1 / p)
        assert got == pytest.approx(fine, rel=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_no_grid_larger_than_the_degree_rule(self, data):
        # Frequencies stay small enough that the max-|k| exact grid also
        # fits under MAX_GRID_POINTS, so both rules pick the same method;
        # past that cap the spread rule can take an exact grid where the
        # degree rule fell back to refinement.
        d = data.draw(st.sampled_from((1, 2)), label="d")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        lo = data.draw(st.integers(-200, 200), label="lo")
        hi = data.draw(st.integers(lo, 200), label="hi")
        n = data.draw(st.integers(1, 6), label="terms")
        f = TrigPolynomial(rng.integers(lo, hi + 1, size=(n, d)),
                           rng.standard_normal(n) + 1j * rng.standard_normal(n))
        p = data.draw(st.sampled_from((1, 1.5, 3, 4, 6, INF)), label="p")
        side = data.draw(st.sampled_from((8, 64, 512, 8192)), label="MAX_GRID_SIDE")
        shapes = []
        with pytest.MonkeyPatch.context() as mp:
            record_grids(mp, shapes)
            mp.setattr(trigpoly, "MAX_GRID_SIDE", side)
            try:
                lp_norm(f, p, QuadratureSpec(rel_tol=1e-3))
            except QuadratureAccuracyError:
                pass
            old = degree_rule_first_grid(f, p)
        assert all(a <= b for a, b in zip(shapes[0], old)), (shapes[0], old)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_first_grid_never_shrinks_as_the_spread_grows(self, data):
        # 1 + e^{i(w, x)} has spread w; a larger spread on every axis never
        # gets a smaller first grid, for the sup or for the adaptive mean
        d = data.draw(st.sampled_from((1, 2)), label="d")
        p = data.draw(st.sampled_from((1.5, INF)), label="p")

        def spread_of_bit_length(e, label):
            return data.draw(st.integers((1 << e) >> 1, (1 << e) - 1), label=label)

        w, wider = [], []
        for j in range(d):
            e = data.draw(st.integers(0, 14), label=f"bit length {j}")
            e_wider = data.draw(st.integers(e, 14), label=f"wider bit length {j}")
            w.append(spread_of_bit_length(e, f"w{j}"))
            wider.append(max(w[j], spread_of_bit_length(e_wider, f"wider w{j}")))

        def first_grid(spread):
            shapes = []

            class FirstGrid(Exception):
                pass

            def stop(*args):
                raise FirstGrid

            f = TrigPolynomial([[0] * d, spread], [1.0, 1.0])
            with pytest.MonkeyPatch.context() as mp:
                record_grids(mp, shapes, then=stop)
                with pytest.raises(FirstGrid):
                    lp_norm(f, p)
            return shapes[0]

        small, large = first_grid(w), first_grid(wider)
        assert all(a <= b for a, b in zip(small, large)), (w, wider, small, large)


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
    assert [pow2ceil(x) for x in (1, 2, 3, 4, 5, 17, np.int64(33), 8.0)] == [1, 2, 4, 4, 8, 32, 64, 8]
    for x in (0, -3, 1.5, 2.5, math.nan, INF, "4", None):
        with pytest.raises(ParameterError):
            pow2ceil(x)


class TestQuadratureSpec:
    def test_one_option(self):
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol"]
        assert QuadratureSpec(rel_tol=np.float64(1e-3)).rel_tol == 1e-3

    @pytest.mark.parametrize("kw", [
        dict(rel_tol=-1e-6), dict(rel_tol=2), dict(rel_tol=math.inf),
        dict(rel_tol=1e-3j), dict(rel_tol=[1e-3]), dict(rel_tol="1e-3"),
        dict(rel_tol=0.0), dict(rel_tol=1.0), dict(rel_tol=math.nan), dict(rel_tol=None)])
    def test_rejects_bad_input(self, kw):
        with pytest.raises(ParameterError):
            QuadratureSpec(**kw)

import itertools
import math

import numpy as np
import pytest

from stepcross.besov import (
    BesovParams,
    _band_pieces,
    besov_norm,
    besov_norm_blocks,
    besov_norm_vp,
    besov_terms,
    combine,
    dyadic_blocks,
    normalize_to_ball,
)
from stepcross.errors import ParameterError
from stepcross.indexsets import q_set
from stepcross.kernels import band_multiplier
from stepcross.majorant import MajorantParams, omega_dyadic
from stepcross.trigpoly import QuadratureSpec, TrigPolynomial, lp_norm, random_in_spectrum

INF = math.inf


def P(d, r, b, l=2):
    return MajorantParams(d=d, r=r, b=b, l=l)


def two_mode():
    # e^{ix} + e^{i 2x}: octave-1 and octave-2 blocks, each of unit L2 norm
    return TrigPolynomial([[1], [2]], [1.0, 1.0])


class TestBlocks:
    def test_split(self):
        blocks = dyadic_blocks(TrigPolynomial([[1], [12]], [1.0, 2.0]))
        assert set(blocks) == {(1,), (4,)}
        assert blocks[(4,)].coefficient((12,)) == 2.0

    def test_zero_coordinate_named(self):
        f = TrigPolynomial([[0, 3], [1, 1]], [1.0, 1.0])
        with pytest.raises(ParameterError, match=r"\(0, 3\)"):
            dyadic_blocks(f)
        # the first such row, whichever column holds the zero
        f = TrigPolynomial([[1, 1], [2, 0], [3, 0]], [1.0, 1.0, 1.0])
        with pytest.raises(ParameterError, match=r"\(2, 0\)"):
            dyadic_blocks(f)


@pytest.mark.parametrize("form", ["blocks", "bands"])
@pytest.mark.parametrize("ks", [[[-2 ** 63], [5]], [[3, 5], [-2 ** 63, 2]]])
def test_deepest_octave_refused(form, ks):
    """-2^63 lies in octave 64, past ``MAX_OCTAVE``: both forms and the norm
    refuse it, naming the frequency, as they refuse a zero coordinate."""
    f = TrigPolynomial(ks, [1.0, 1.0])
    om = P(f.d, 1.0, 0.0)
    with pytest.raises(ParameterError, match=r"-9223372036854775808"):
        besov_terms(f, om, (2.0,), form)
    p = 2.0 if form == "blocks" else 1.0
    with pytest.raises(ParameterError, match=r"-9223372036854775808"):
        besov_norm(f, om, BesovParams(p, 2.0))
    # the deepest octave a coordinate may hold, 2^62 <= |k| < 2^63, is weighed
    deepest = TrigPolynomial(np.where(f.ks == -2 ** 63, 2 ** 63 - 1, f.ks), [1.0, 1.0])
    assert max(map(max, besov_terms(deepest, om, (2.0,), form)[0])) == 63


class TestBlockNorm:
    def test_weighted_sum(self):
        # weights 1/omega(2^-s): 2 and 4 for r=1, b=0; theta=1 totals 6
        val = besov_norm_blocks(two_mode(), P(1, 1.0, 0.0), BesovParams(2.0, 1.0))
        assert val == pytest.approx(6.0, rel=1e-13)

    def test_sup_form(self):
        val = besov_norm_blocks(two_mode(), P(1, 1.0, 0.0), BesovParams(2.0, INF))
        assert val == pytest.approx(4.0, rel=1e-13)

    def test_quadratic_form(self):
        val = besov_norm_blocks(two_mode(), P(1, 1.0, 0.0), BesovParams(2.0, 2.0))
        assert val == pytest.approx(math.sqrt(20.0), rel=1e-13)

    def test_monotone_in_theta(self):
        f = random_in_spectrum(q_set(P(2, 1.0, (0.0, 0.0)), 2 ** 6), seed=4)
        params, p = P(2, 1.0, (0.0, 0.0)), 2.0
        vals = [besov_norm_blocks(f, params, BesovParams(p, th))
                for th in (1.0, 2.0, 4.0, INF)]
        assert all(vals[i] >= vals[i + 1] * (1 - 1e-12) for i in range(len(vals) - 1))

    def test_zero_function(self):
        assert besov_norm_blocks(TrigPolynomial.zero(1), P(1, 1.0, 0.0),
                                 BesovParams(2.0, 2.0)) == 0.0


class TestBandNorm:
    def test_single_mode(self):
        f = TrigPolynomial([[1]], [1.0])
        val = besov_norm_vp(f, P(1, 1.0, 0.0), BesovParams(2.0, 2.0))
        assert val == pytest.approx(2.0, rel=1e-13)

    def test_only_adjacent_bands_contribute(self):
        # k = 6 (octave 3) is split evenly between bands 2 and 3: both ramps
        # give 1/2, weighted by 1/omega = 4 and 8 for r=1, b=0
        f = TrigPolynomial([[6]], [1.0])
        params = P(1, 1.0, 0.0)
        val = besov_norm_vp(f, params, BesovParams(2.0, 1.0))
        assert val == pytest.approx(0.5 * 4.0 + 0.5 * 8.0, rel=1e-13)

    def test_equivalent_to_blocks(self):
        params = P(2, 1.0, (0.0, 0.0))
        quad = QuadratureSpec(rel_tol=1e-4)
        for seed in range(5):
            f = random_in_spectrum(q_set(params, 2 ** 5), seed=seed)
            for p, th in ((1.0, 2.0), (2.0, 1.0), (INF, 2.0)):
                a = besov_norm_blocks(f, params, BesovParams(p, th), quad)
                b = besov_norm_vp(f, params, BesovParams(p, th), quad)
                assert 0.05 < a / b < 20.0

    def test_zero_coordinate_named(self):
        with pytest.raises(ParameterError, match=r"\(0,\)"):
            besov_norm_vp(TrigPolynomial([[0]], [1.0]), P(1, 1.0, 0.0),
                          BesovParams(1.0, 1.0))


class TestDispatch:
    def test_interior_p_uses_blocks(self):
        f = two_mode()
        params, bp = P(1, 1.0, 0.0), BesovParams(2.0, 1.0)
        assert besov_norm(f, params, bp) == besov_norm_blocks(f, params, bp)

    def test_endpoint_p_uses_bands(self):
        f = two_mode()
        params, bp = P(1, 1.0, 0.0), BesovParams(1.0, 1.0)
        assert besov_norm(f, params, bp) == besov_norm_vp(f, params, bp)
        bp_inf = BesovParams(INF, 1.0)
        assert besov_norm(f, params, bp_inf) == besov_norm_vp(f, params, bp_inf)

    def test_normalize(self):
        f = random_in_spectrum(q_set(P(2, 1.0, (0.5, 0.0)), 2 ** 5), seed=8)
        params, bp = P(2, 1.0, (0.5, 0.0)), BesovParams(2.0, 2.0)
        g, norm = normalize_to_ball(f, params, bp)
        assert norm == pytest.approx(besov_norm(f, params, bp), rel=1e-13)
        assert besov_norm(g, params, bp) == pytest.approx(1.0, rel=1e-12)

    def test_normalize_zero_rejected(self):
        with pytest.raises(ParameterError):
            normalize_to_ball(TrigPolynomial.zero(1), P(1, 1.0, 0.0),
                              BesovParams(2.0, 2.0))

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            BesovParams(0.5, 2.0)
        with pytest.raises(ParameterError):
            BesovParams(2.0, 0.0)


# -- the engine against the full-canonicalizing constructions ---------------


def differential_inputs():
    """Polynomials in d = 1, 2, 3 built from raw rows with duplicates and
    cancellations (so the constructor merges and prunes), plus the zero
    polynomial."""
    rng = np.random.default_rng(12)
    out = [TrigPolynomial.zero(d) for d in (1, 2, 3)]
    for d, hi, n in ((1, 70, 60), (2, 40, 300), (3, 12, 400)):
        signs = rng.choice([-1, 1], size=(n, d))
        ks = signs * rng.integers(1, hi, size=(n, d))
        cs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dup = rng.integers(0, n, size=n // 4)
        ks = np.concatenate([ks, ks[dup], ks[dup[:5]]])
        # the first five duplicated rows cancel exactly, the rest add up
        cs = np.concatenate([cs, cs[dup], -cs[dup[:5]] - cs[dup[:5]]])
        out.append(TrigPolynomial(ks, cs))
    out.append(random_in_spectrum(q_set(P(2, 1.0, (0.0, 0.0)), 2 ** 7), seed=5))
    return out


def same_bits(got, want):
    assert got.ks.dtype == want.ks.dtype and got.cs.dtype == want.cs.dtype
    assert got.ks.shape == want.ks.shape
    assert np.array_equal(got.ks, want.ks)
    assert np.array_equal(got.cs.view(np.float64), want.cs.view(np.float64))


class TestEngine:
    @pytest.mark.parametrize("f", differential_inputs())
    def test_blocks_match_masked_construction(self, f):
        octs = f.octaves()
        blocks = dyadic_blocks(f)
        want_keys = sorted({tuple(int(v) for v in row) for row in octs})
        assert list(blocks) == want_keys
        for s, block in blocks.items():
            mask = np.all(octs == np.array(s), axis=1)
            same_bits(block, TrigPolynomial(f.ks[mask], f.cs[mask]))

    @pytest.mark.parametrize("f", differential_inputs())
    def test_band_pieces_match_full_multiplier(self, f):
        octs = f.octaves()
        candidates = set()
        for row in {tuple(int(v) for v in r) for r in octs}:
            candidates.update(itertools.product(*[sorted({max(1, v - 1), v}) for v in row]))
        want = {}
        for s in candidates:
            piece = TrigPolynomial(f.ks, f.cs * band_multiplier(s, f.ks))
            if not piece.is_zero:
                want[s] = piece
        pieces = list(_band_pieces(f))
        assert all(full for *_, full in pieces)  # no coefficient underflows here
        got = {s: piece for s, piece, _ in pieces}
        assert list(got) == sorted(want)
        for s, piece in got.items():
            same_bits(piece, want[s])

    def test_terms_and_combine(self):
        f = random_in_spectrum(q_set(P(2, 1.0, (0.5, 0.0)), 2 ** 6), seed=3)
        omega, quad = P(2, 1.0, (0.5, 0.0)), QuadratureSpec(rel_tol=1e-4)
        for form, pieces in (("blocks", list(dyadic_blocks(f).items())),
                             ("bands", [(s, g) for s, g, _ in _band_pieces(f)])):
            indices, (terms,) = besov_terms(f, omega, (1.5,), form, quad)
            assert indices == [s for s, _ in pieces]
            assert terms == [lp_norm(g, 1.5, quad) / omega_dyadic(omega, s) for s, g in pieces]
        assert combine([3.0, 4.0], 2.0) == 5.0
        assert combine([3.0, 4.0], INF) == 4.0
        assert combine([], 2.0) == 0.0 and combine([], INF) == 0.0

    @pytest.mark.parametrize("form", ["blocks", "bands"])
    def test_several_p_match_one_p_at_a_time(self, form):
        f = random_in_spectrum(q_set(P(2, 1.0, (0.0, 0.0)), 2 ** 8), seed=5)
        omega, quad = P(2, 1.0, (0.0, 0.0)), QuadratureSpec(rel_tol=1e-3)
        ps = (1.5, 2.0, 4.0)
        indices, terms = besov_terms(f, omega, ps, form, quad)
        assert len(terms) == len(ps) and len(indices) > 4
        for p, got in zip(ps, terms):
            assert besov_terms(f, omega, (p,), form, quad) == (indices, (got,))

    def test_unknown_form(self):
        with pytest.raises(ParameterError, match="form"):
            besov_terms(two_mode(), P(1, 1.0, 0.0), (2.0,), "rings")

    def test_dimension_checked(self):
        with pytest.raises(ParameterError, match="dimension"):
            besov_terms(two_mode(), P(2, 1.0, (0.0, 0.0)), (2.0,), "bands")

    @pytest.mark.parametrize("ps", [2.0, "2", (2.0, 0.5)])
    def test_exponents_checked(self, ps):
        with pytest.raises(ParameterError, match="p"):
            besov_terms(two_mode(), P(1, 1.0, 0.0), ps, "bands")

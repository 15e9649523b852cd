"""The box rules against per-row and per-box references: cross membership
decided once per octave box of the polynomial's split, and box weights that
leave log2 space with the same bits wherever they are taken."""

import numpy as np
import pytest

import stepcross.besov as besov
from stepcross.approx import _cross_mask, _shell_sample
from stepcross.besov import BesovParams, besov_terms
from stepcross.indexsets import _cross, _shell, in_cross
from stepcross.majorant import MajorantParams, _exp2, omega_dyadic
from stepcross.trigpoly import QuadratureSpec, TrigPolynomial
from stepcross.verify import MIXED_2D, PLAIN_2D, PLAIN_3D, SMOOTH_2D

# the four majorants of the battery and the two more of the cross_sets benchmark
MAJORANTS = [PLAIN_2D, MIXED_2D, PLAIN_3D, SMOOTH_2D,
             MajorantParams(d=3, r=1.5, b=(0.5, 0.25, -0.25), l=2),
             MajorantParams(d=2, r=1.0, b=(1 / 3, 1 / 3), l=2)]
EXPONENTS = range(2, 41)
MAX_BOXES = 20_000
LINE_1D = MajorantParams(d=1, r=1.0, b=0.5, l=2)


def reference_mask(f, omega, n):
    """Each row's octaves through ``in_cross`` on its own; a row with a zero
    coordinate is outside."""
    octs = f.octaves()
    return np.array([bool(row.all()) and bool(in_cross(omega, row[None, :], n)[0])
                     for row in octs], dtype=bool)


def seeded_poly(d, seed, span=40, terms=300):
    """Random frequencies in [-span, span]^d, zero coordinates included."""
    rng = np.random.default_rng(seed)
    ks = rng.integers(-span, span + 1, size=(terms, d))
    ks[: terms // 10, rng.integers(d)] = 0
    return TrigPolynomial(ks, rng.standard_normal(terms) + 1j * rng.standard_normal(terms))


class TestPerBoxMask:
    @pytest.mark.parametrize("omega", [LINE_1D, MIXED_2D, PLAIN_3D])
    @pytest.mark.parametrize("seed", range(4))
    def test_fresh_split(self, omega, seed):
        f = seeded_poly(omega.d, seed)
        assert (f.octaves() == 0).any()
        for n in (1.0, 2.0 ** 3, 2.0 ** 5, 2.0 ** 7.3, 2.0 ** 12):
            assert np.array_equal(_cross_mask(f, omega, n), reference_mask(f, omega, n))

    @pytest.mark.parametrize("omega, n", [(SMOOTH_2D, 2.0 ** 9), (MIXED_2D, 2.0 ** 8),
                                          (PLAIN_3D, 2.0 ** 5)])
    def test_carried_split(self, omega, n):
        f = _shell_sample(omega, BesovParams(2.0, 2.0), n, np.random.default_rng(4),
                          QuadratureSpec(rel_tol=1e-3))
        for g in (f, 2.5 * f, -f, f.translate(np.full(omega.d, 0.7)), TrigPolynomial(f.ks, f.cs)):
            for m in (n / 2, n, 2 * n, 4 * n):
                assert np.array_equal(_cross_mask(g, omega, m), reference_mask(g, omega, m))


def crosses(omega):
    """The N of ``EXPONENTS`` whose cross chi(2^l N) holds at most
    ``MAX_BOXES`` boxes."""
    return [2.0 ** e for e in EXPONENTS
            if len(_cross(omega, 2.0 ** (e + omega.l))[0]) <= MAX_BOXES]


@pytest.mark.parametrize("omega", MAJORANTS)
def test_weights_are_bit_identical(omega, monkeypatch):
    """``omega_dyadic`` of every box equals, bit for bit, the weight of that
    box in ``_shell``'s array and the one ``besov_terms`` divides by."""
    ns = crosses(omega)
    assert ns
    boxes = _cross(omega, ns[-1] * 2.0 ** omega.l)[0]
    want = {s: omega_dyadic(omega, s) for s in map(tuple, boxes.tolist())}
    for n in ns:
        rows, log2w = _shell(omega, n)
        got = _exp2(-log2w).tolist()
        assert got == [want[s] for s in map(tuple, rows.tolist())]

    # one frequency per box; each piece's "norm" is omega_dyadic of its box,
    # so every term is 1.0 exactly when the weights agree
    monkeypatch.setattr(besov, "lp_norms", lambda piece, ps, quad=None:
                        [want[tuple(piece.octaves()[0].tolist())]] * len(ps))
    f = TrigPolynomial(np.left_shift(1, boxes - 1), np.ones(len(boxes)))
    indices, (terms,) = besov_terms(f, omega, (2.0,), "blocks")
    assert indices == list(want)
    assert terms == [1.0] * len(want)


@pytest.mark.parametrize("form", ["blocks", "bands"])
def test_terms_for_no_exponent(form):
    """No p gives the indices and no columns."""
    f = seeded_poly(2, 7)
    f = f.restrict(f.octaves().all(axis=1))
    indices, terms = besov_terms(f, MIXED_2D, (2.0,), form)
    assert indices and len(terms) == 1
    assert besov_terms(f, MIXED_2D, (), form) == (indices, ())


@pytest.mark.parametrize("form", ["blocks", "bands"])
def test_terms_of_zero(form):
    assert besov_terms(TrigPolynomial.zero(2), MIXED_2D, (2.0,), form) == ([], ([],))

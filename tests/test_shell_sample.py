"""The shell rate sample against the per-box construction it replaces, kept
here as the reference, and the box split that ``trigpoly._box_rows`` keeps
for the last rows array it grouped.  Every comparison is bit for bit, dtype
included."""

import weakref

import numpy as np
import pytest

import stepcross.approx as approx
import stepcross.indexsets as indexsets
import stepcross.trigpoly as trigpoly
from stepcross.besov import BesovParams, _octave_rows, besov_norm, besov_terms
from stepcross.errors import CapacityError
from stepcross.extremal import WitnessConfig, g7_stack_normalized
from stepcross.indexsets import SpectrumSet, q_set, rho, theta
from stepcross.majorant import omega_dyadic
from stepcross.trigpoly import QuadratureSpec, TrigPolynomial, _box_rows, random_in_spectrum
from stepcross.verify import MIXED_2D, PLAIN_3D, SMOOTH_2D

QUAD = QuadratureSpec(rel_tol=1e-3)
CASES = [(omega, p, n)
         for omega, ns in ((SMOOTH_2D, (2.0 ** 6, 2.0 ** 9, 2.0 ** 12)),
                           (MIXED_2D, (2.0 ** 5, 2.0 ** 8, 2.0 ** 11)),
                           (PLAIN_3D, (2.0 ** 3, 2.0 ** 5, 2.0 ** 7)))
         for n in ns for p in (1.5, 2.0)] + [(SMOOTH_2D, 2.0, 2.0 ** 18)]


def reference_shell_sample(omega, bp, n, rng, quad):
    """One polynomial per shell box, scaled to unit norm, then summed."""
    parts = []
    for s in theta(omega, n):
        block = random_in_spectrum(rho(s), seed=rng, law="gaussian")
        norm = approx.lp_norm(block, bp.p, quad)
        if norm != 0.0:
            parts.append(block * (omega_dyadic(omega, s) / norm))
    return TrigPolynomial.sum_of(omega.d, parts)


def assert_same(f, g):
    assert f.ks.dtype == g.ks.dtype == np.int64
    assert f.cs.dtype == g.cs.dtype == np.complex128
    assert np.array_equal(f.ks, g.ks)
    assert np.array_equal(f.cs.view(np.float64), g.cs.view(np.float64))


def reference_split(f):
    """The rows of f grouped one row at a time by their ``octaves()`` row,
    boxes in lex order."""
    groups = {}
    for i, s in enumerate(map(tuple, f.octaves().tolist())):
        groups.setdefault(s, []).append(i)
    return {s: groups[s] for s in sorted(groups)}


def assert_split(got, want):
    assert list(got) == list(want)
    for s, rows in want.items():
        assert got[s].dtype == np.intp and got[s].tolist() == rows


def both(omega, p, n, seed=(5, 1, 2)):
    bp = BesovParams(p, 2.0)
    return (approx._shell_sample(omega, bp, n, np.random.default_rng(seed), QUAD),
            reference_shell_sample(omega, bp, n, np.random.default_rng(seed), QUAD))


@pytest.mark.parametrize("omega, p, n", CASES)
def test_matches_per_box_sum(omega, p, n):
    got, want = both(omega, p, n)
    assert got.n_terms == len(SpectrumSet(omega.d, theta(omega, n).members))
    assert_same(got, want)


@pytest.mark.parametrize("drop", [1, 2, 5])
@pytest.mark.parametrize("omega, p, n", [(SMOOTH_2D, 1.5, 2.0 ** 9), (PLAIN_3D, 2.0, 2.0 ** 5)])
def test_dropped_box(monkeypatch, omega, p, n, drop):
    """A block whose norm reads 0 leaves its box out of both sums."""
    real = approx.lp_norm
    calls = []

    def zero_once(f, p, quad=None):
        calls.append(f.n_terms)
        return 0.0 if len(calls) == drop else real(f, p, quad)

    monkeypatch.setattr(approx, "lp_norm", zero_once)
    bp = BesovParams(p, 2.0)
    got = approx._shell_sample(omega, bp, n, np.random.default_rng(9), QUAD)
    dropped = calls[drop - 1]
    calls.clear()
    want = reference_shell_sample(omega, bp, n, np.random.default_rng(9), QUAD)
    assert_same(got, want)
    assert got.n_terms == len(SpectrumSet(omega.d, theta(omega, n).members)) - dropped
    assert_split(_box_rows(got.ks), reference_split(got))


def test_union_is_capped(monkeypatch):
    """The whole shell is materialized at once, so its rows obey the cap."""
    omega, n = SMOOTH_2D, 2.0 ** 12
    rows = len(SpectrumSet(omega.d, theta(omega, n).members))
    monkeypatch.setattr(indexsets, "MATERIALIZE_CAP", rows)
    approx._shell_sample(omega, BesovParams(2.0, 2.0), n, np.random.default_rng(0), QUAD)
    monkeypatch.setattr(indexsets, "MATERIALIZE_CAP", rows - 1)
    with pytest.raises(CapacityError):
        approx._shell_sample(omega, BesovParams(2.0, 2.0), n, np.random.default_rng(0), QUAD)


def test_random_in_spectrum_draws_unchanged():
    spectrum = q_set(MIXED_2D, 2.0 ** 8)
    for law in ("gaussian", "unit_complex"):
        f = random_in_spectrum(spectrum, seed=11, law=law)
        g = random_in_spectrum(spectrum.materialize(), seed=11, law=law)
        assert_same(f, g)
        assert not f.ks.flags.writeable and not f.cs.flags.writeable


def sample():
    return approx._shell_sample(SMOOTH_2D, BesovParams(2.0, 2.0), 2.0 ** 10,
                                np.random.default_rng(3), QUAD)


class TestKeptSplit:
    """``_box_rows`` keeps the split of the last rows array it grouped:
    polynomials that share that array share its split, and every other
    array gets a split equal to one grouped row by row."""

    def test_derived_share_it(self):
        f = sample()
        # the sample holds the very rows it was split by: nothing is grouped again
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trigpoly, "_octaves", lambda ks: pytest.fail("rows grouped again"))
            split = _box_rows(f.ks)
            for g in (-f, 2.5 * f, f.translate([0.3, -1.2])):
                assert _box_rows(g.ks) is split
        assert_split(split, reference_split(f))
        assert list(split) == list(theta(SMOOTH_2D, 2.0 ** 10))

    def test_alternating(self):
        f, g = sample(), random_in_spectrum(q_set(MIXED_2D, 2.0 ** 9), seed=1)
        # as many rows as f, each one octave up on every axis
        up = TrigPolynomial(2 * f.ks, f.cs)
        for h in (f, g, f, f, up, g, g, up, f, up, up, g):
            assert_split(_box_rows(h.ks), reference_split(h))

    def test_new_arrays_split_afresh(self):
        f = sample()
        kept = _box_rows(f.ks)
        for g in (TrigPolynomial(f.ks, f.cs), f.restrict(np.arange(f.n_terms) % 3 != 0),
                  f.restrict(np.ones(f.n_terms, dtype=bool))):
            assert g.ks is not f.ks
            got = _box_rows(g.ks)
            assert got is not kept
            assert_split(got, reference_split(g))
            assert _box_rows(g.ks) is got

    def test_read_only_with_writeable_rows(self):
        split = _box_rows(sample().ks)
        with pytest.raises(TypeError):
            split[(1, 1)] = np.arange(1)
        assert all(rows.flags.writeable for rows in split.values())

    def test_zero(self):
        for f in (TrigPolynomial.zero(2), 0 * sample()):
            assert dict(_box_rows(f.ks)) == {}
            assert _octave_rows(f) == {}


def test_one_grouping_per_polynomial(monkeypatch):
    """The block and band forms of one fresh polynomial, and a witness's
    projection and norm, group its rows once: one ``_octaves`` call."""
    calls, real = [], trigpoly._octaves
    monkeypatch.setattr(trigpoly, "_octaves", lambda ks: calls.append(len(ks)) or real(ks))
    f = random_in_spectrum(q_set(MIXED_2D, 2.0 ** 9), seed=4)
    for form in ("blocks", "bands"):
        besov_terms(f, MIXED_2D, (1.5, 2.0), form, QUAD)
    assert calls == [f.n_terms]
    cfg = WitnessConfig(omega=SMOOTH_2D, bp=BesovParams(2.0, 2.0), n=2.0 ** 10)
    g = g7_stack_normalized(cfg)
    calls.clear()
    approx.project_q(g, SMOOTH_2D, cfg.n)
    besov_norm(g, SMOOTH_2D, cfg.bp, QUAD)
    assert calls == [g.n_terms]


def test_kept_rows_are_released():
    """The entry holds only the last rows grouped: once f is gone and another
    polynomial is split, f's rows are freed."""
    f = random_in_spectrum(q_set(MIXED_2D, 2.0 ** 9), seed=5)
    _box_rows(f.ks)
    rows = weakref.ref(f.ks)
    del f
    assert rows() is not None
    _box_rows(TrigPolynomial.zero(2).ks)
    assert rows() is None

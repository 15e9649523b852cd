"""The layout of a rows array (``trigpoly._layout``): every draw from one
``SpectrumSet`` shares the set's read-only rows, and the fold that the
layout keeps for a block or band piece on a grid gives the values a fresh
fold gives, bit for bit.  A piece that lost a row folds afresh."""

import weakref

import numpy as np
import pytest

import stepcross.trigpoly as trigpoly
from stepcross.besov import _band_pieces, besov_terms, dyadic_blocks
from stepcross.indexsets import q_set
from stepcross.trigpoly import (QuadratureSpec, TrigPolynomial, _fold, _layout, _transform,
                                random_in_spectrum)
from stepcross.verify import PLAIN_2D

QUAD = QuadratureSpec(rel_tol=1e-3)
PS = (1.5, 2.0, 4.0)
FORMS = ("blocks", "bands")


def terms(f):
    return [besov_terms(f, PLAIN_2D, PS, form, QUAD) for form in FORMS]


def evict():
    """Leave the kept layout to another rows array."""
    _layout(TrigPolynomial.zero(2).ks)


def test_draws_share_read_only_rows():
    spectrum = q_set(PLAIN_2D, 2 ** 8)
    f, g = (random_in_spectrum(spectrum, seed=s, law=law)
            for s, law in ((1, "gaussian"), (2, "unit_complex")))
    assert f.ks is g.ks is spectrum._rows
    assert not f.ks.flags.writeable
    with pytest.raises(ValueError):
        f.ks[0, 0] = 0
    split, folds = _layout(f.ks)
    assert all(a is b for a, b in zip(_layout(g.ks), (split, folds)))


def test_materialize_is_fresh_and_writeable():
    spectrum = q_set(PLAIN_2D, 2 ** 8)
    shared = random_in_spectrum(spectrum, seed=1).ks
    first, second = spectrum.materialize(), spectrum.materialize()
    for rows in (first, second):
        assert rows.flags.writeable and rows.flags.owndata
        assert not np.shares_memory(rows, shared)
        assert np.array_equal(rows, shared)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("slab", [trigpoly.SLAB_POINTS, 1 << 10])
def test_cached_folds_match_fresh_folds(monkeypatch, slab):
    """Every block and band piece of a Q(2^10) polynomial, at every grid its
    ladders visit, after another draw on the same rows filled the store;
    also with grids cut into slabs, whose shapes key the store."""
    monkeypatch.setattr(trigpoly, "SLAB_POINTS", slab)
    spectrum = q_set(PLAIN_2D, 2 ** 10)
    f, g = (random_in_spectrum(spectrum, seed=s) for s in (1, 2))
    want = terms(TrigPolynomial(g.ks, g.cs))  # a copy of the rows: a layout of its own
    terms(f)
    folds = _layout(g.ks)[1]
    assert terms(g) == want
    # every grid g visits is folded by now: a third pass folds nothing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trigpoly, "_fold", lambda ks, shape: pytest.fail("folded again"))
        assert terms(g) == want
    pieces = {("blocks", s): piece for s, piece in dyadic_blocks(g).items()}
    pieces.update((("bands", s), piece) for s, piece, _ in _band_pieces(g))
    assert set(folds) == set(pieces)
    for key, piece in pieces.items():
        assert folds[key]
        for shape, (bins, lines) in folds[key].items():
            fresh = _fold(piece.ks, shape)
            assert bins.dtype == lines.dtype == np.int32
            got, new = (_transform(fold, piece.cs, shape).view(np.float64)
                        for fold in ((bins, lines), fresh))
            assert np.array_equal(got, new)


@pytest.mark.parametrize("pruned_first", [False, True])
def test_pruned_band_piece_folds_afresh(pruned_first):
    """5e-324 times the band multiplier 0.25 of the row (3, 3) underflows to
    0, so every band piece holding that row loses it: a fold of the full
    rows, kept for another draw on the same rows, must not serve it."""
    g = random_in_spectrum(q_set(PLAIN_2D, 2 ** 8), seed=3)
    cs = g.cs.copy()
    cs[np.flatnonzero((g.ks == 3).all(axis=1))] = 5e-324
    tiny = TrigPolynomial._canonical(g.ks, cs)
    assert tiny.ks is g.ks
    assert not all(full for *_, full in _band_pieces(tiny))
    want = {h: terms(TrigPolynomial(h.ks, h.cs)) for h in (g, tiny)}
    evict()
    for h in (tiny, g) if pruned_first else (g, tiny):
        assert terms(h) == want[h]


def test_rows_are_released():
    """Neither the set, nor the layout's split and folds, hold the rows once
    the draws and the set are gone and another array is laid out."""
    spectrum = q_set(PLAIN_2D, 2 ** 8)
    f = random_in_spectrum(spectrum, seed=5)
    terms(f)
    rows = weakref.ref(f.ks)
    del f, spectrum
    assert rows() is not None
    evict()
    assert rows() is None

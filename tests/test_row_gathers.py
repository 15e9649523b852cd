"""Differential property: the row gathers of the canonical constructor,
``restrict``, ``dyadic_blocks`` and ``_band_pieces``, and the closed-form
band profile, against the fancy-indexing forms they replace, copied here as
references.  Every comparison is bit for bit, dtype included."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from stepcross.besov import _band_pieces, dyadic_blocks
from stepcross.kernels import band_multiplier, vp_coefficient
from stepcross.trigpoly import TrigPolynomial, _lex_order

EDGE = -2 ** 63


def reference_canonical(ks, cs):
    """Sort by fancy indexing, merge duplicate rows, prune exact zeros."""
    if len(ks):
        order = np.lexsort(ks.T[::-1])
        ks, cs = ks[order], cs[order]
        starts = np.flatnonzero(np.r_[True, np.any(ks[1:] != ks[:-1], axis=1)])
        ks, cs = ks[starts], np.add.reduceat(cs, starts)
    keep = cs != 0
    return ks[keep], cs[keep]


def reference_band_factor(sj, k):
    """The band profile as a difference of two de la Vallee Poussin profiles."""
    if sj == 1:
        return vp_coefficient(2, k)
    return vp_coefficient(2 ** sj, k) - vp_coefficient(2 ** (sj - 1), k)


def reference_multiplier(s, ks):
    out = np.ones(ks.shape[0])
    for j, sj in enumerate(s):
        out *= reference_band_factor(sj, ks[:, j])
    return out


def reference_octaves(ks):
    return np.array([[abs(int(k)).bit_length() for k in row] for row in ks.tolist()],
                    dtype=np.int64).reshape(ks.shape)


def assert_same(ks, cs, want_ks, want_cs):
    assert ks.dtype == want_ks.dtype == np.int64
    assert cs.dtype == want_cs.dtype == np.complex128
    assert np.array_equal(ks, want_ks)
    assert np.array_equal(cs.view(np.float64), want_cs.view(np.float64))


# a coordinate: small, next to a power of two (where band profiles turn and
# vanish), or anywhere up to 2^62 in magnitude; never zero, so that every row
# has an octave
magnitudes = st.one_of(
    st.integers(1, 40),
    st.builds(lambda e, off: max(1, 2 ** e + off), st.integers(0, 62), st.integers(-1, 1)),
    st.integers(1, 2 ** 62),
)
coordinates = st.builds(lambda m, sign: sign * m, magnitudes, st.sampled_from((-1, 1)))


@st.composite
def raw_rows(draw):
    """(ks, cs): unsorted rows drawn from a small pool, so rows repeat, with
    coefficients that are exact zeros or cancel between duplicates."""
    d = draw(st.integers(1, 3), label="d")
    pool = draw(st.lists(st.lists(coordinates, min_size=d, max_size=d),
                         min_size=1, max_size=8), label="pool")
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30), label="picks")
    ks = np.array([pool[i] for i in picks], dtype=np.int64).reshape(-1, d)
    values = st.sampled_from((0.0, 1.0, -1.0, 0.5, 2.5 - 1j, 1j, -0.75 + 3j))
    cs = np.array(draw(st.lists(values, min_size=len(ks), max_size=len(ks)), label="cs"),
                  dtype=np.complex128)
    return ks, cs


@settings(max_examples=300, deadline=None)
@given(raw_rows(), st.data())
def test_gathers_match_fancy_indexing(rows, data):
    ks, cs = rows
    d = ks.shape[1]
    f = TrigPolynomial(ks.copy(), cs.copy())
    assert_same(f.ks, f.cs, *reference_canonical(ks, cs))

    mask = np.array(data.draw(st.lists(st.booleans(), min_size=f.n_terms,
                                       max_size=f.n_terms), label="mask"), dtype=bool)
    g = f.restrict(mask)
    assert_same(g.ks, g.cs, f.ks[mask], f.cs[mask])

    octs = reference_octaves(f.ks)
    assert np.array_equal(f.octaves(), octs)
    keys = sorted({tuple(row) for row in octs.tolist()})
    blocks = dyadic_blocks(f)
    assert list(blocks) == keys
    for s, block in blocks.items():
        rows_s = np.flatnonzero(np.all(octs == np.array(s), axis=1))
        assert_same(block.ks, block.cs, f.ks[rows_s], f.cs[rows_s])

    # a band piece was band_apply of the restricted piece: the rows of the
    # octaves it touches, then the multiplier, each pruned on its own
    want = {}
    for s in sorted({s for sigma in keys
                     for s in itertools.product(*[sorted({max(1, v - 1), v}) for v in sigma])}):
        rows_s = np.flatnonzero([all(v in (sj, sj + 1)
                                     for v, sj in zip(sigma, s)) for sigma in octs.tolist()])
        piece = TrigPolynomial._canonical(f.ks[rows_s], f.cs[rows_s])
        ks_s, cs_s = piece.ks, piece.cs * reference_multiplier(s, piece.ks)
        keep = cs_s != 0
        if keep.any():
            want[s] = (ks_s[keep], cs_s[keep])
    got = {s: piece for s, piece, _ in _band_pieces(f)}
    assert list(got) == list(want)
    for s, piece in got.items():
        assert_same(piece.ks, piece.cs, *want[s])

    s = tuple(data.draw(st.lists(st.integers(1, 63), min_size=d, max_size=d), label="s"))
    assert np.array_equal(band_multiplier(s, ks), reference_multiplier(s, ks))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 63), st.lists(coordinates, max_size=20))
def test_band_profile_matches_the_vp_difference(sj, ks):
    # around every breakpoint of the profile, beyond its support, and at -2^63
    h = 2 ** (sj - 1)
    near = [h - 1, h, h + 1, 2 * h - 1, 2 * h, 2 * h + 1, 4 * h - 2, 4 * h - 1, 4 * h, 4 * h + 1,
            8 * h, 2 ** 63 - 1]
    near = [k for k in near if 0 <= k < 2 ** 63]
    k = np.array(ks + near + [-k for k in near] + [EDGE, 0], dtype=np.int64)
    got, want = band_multiplier((sj,), k), reference_multiplier((sj,), k.reshape(-1, 1))
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_band_pieces_prune_rows_the_multiplier_zeroes():
    # k = 2 lies in octave 2, which band 2 touches, but the band-2 profile
    # vanishes at |k| = 2^{s-1}: the piece holds 3 and 4 only, and still
    # every row the multiplier keeps
    f = TrigPolynomial([[2], [3], [4]], [1.0, 1.0, 1.0])
    pieces = {s: (piece, full) for s, piece, full in _band_pieces(f)}
    assert pieces[(2,)][0].ks.ravel().tolist() == [3, 4]
    assert all(full for _, full in pieces.values())
    assert band_multiplier((2, 1), [[EDGE, 1]]).tolist() == [0.0]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.sampled_from((2, 40, 255, 256, 257, 2 ** 31, 2 ** 62)), st.data())
def test_lex_order_matches_lexsort(d, span, data):
    # spans around the 16-bit radix path and the 2^62 packing limit, with
    # repeated rows, so that the stability of the order shows
    lo = data.draw(st.integers(-2 ** 63, 2 ** 63 - span), label="lo")
    pool = data.draw(st.lists(st.lists(st.integers(lo, lo + span - 1), min_size=d, max_size=d),
                              min_size=1, max_size=6), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=40),
                      label="picks")
    rows = np.array([pool[i] for i in picks], dtype=np.int64).reshape(-1, d)
    assert np.array_equal(_lex_order(rows), np.lexsort(rows.T[::-1]))

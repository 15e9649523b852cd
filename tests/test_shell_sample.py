"""The shell rate sample against the per-box construction it replaces, kept
here as the reference, and the box split that its polynomials carry.
Every comparison is bit for bit, dtype included."""

import numpy as np
import pytest

import stepcross.approx as approx
import stepcross.indexsets as indexsets
from stepcross.besov import BesovParams, _octave_rows
from stepcross.errors import CapacityError
from stepcross.indexsets import SpectrumSet, q_set, rho, theta
from stepcross.majorant import omega_dyadic
from stepcross.trigpoly import (QuadratureSpec, TrigPolynomial, _box_rows, _octaves,
                               random_in_spectrum)
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
    assert got._boxes is None


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


class TestCarriedSplit:
    """The ``box_rows()`` split a shell sample carries: derived polynomials
    keep the same object, pruning drops it, and it agrees with a fresh one."""

    @pytest.fixture(scope="class")
    def f(self):
        return approx._shell_sample(SMOOTH_2D, BesovParams(2.0, 2.0), 2.0 ** 10,
                                    np.random.default_rng(3), QUAD)

    def test_derived_keep_it(self, f):
        carried = f.box_rows()
        assert f._boxes is carried
        with pytest.raises(TypeError):
            carried[(1, 1)] = np.arange(1)
        assert f.restrict(np.ones(f.n_terms, dtype=bool)) is f
        for g in (-f, 2.5 * f, f.translate([0.3, -1.2])):
            assert g.box_rows() is carried

    def test_pruning_drops_it(self, f):
        assert f.restrict(np.arange(f.n_terms) % 3 != 0)._boxes is None
        assert (0 * f)._boxes is None

    def test_not_stored_when_absent(self, f):
        """A polynomial built without a split never keeps one."""
        for g in (TrigPolynomial(f.ks, f.cs), random_in_spectrum(q_set(SMOOTH_2D, 64.0), seed=1),
                  f.restrict(np.arange(f.n_terms) > 0)):
            assert g._boxes is None
            assert g.box_rows() is not g.box_rows()

    def test_carried_and_fresh_agree(self, f):
        """The carried split and one computed afresh from the octaves agree,
        and so do the octave groups the norms read."""
        want = _box_rows(_octaves(f.ks))
        for got in (f.box_rows(), _octave_rows(f)):
            assert list(got) == list(want)
            assert all(np.array_equal(got[s], want[s]) for s in got)
        assert list(f.box_rows()) == list(theta(SMOOTH_2D, 2.0 ** 10))

"""Multivariate trigonometric polynomials with complex exponential basis.

A polynomial is a finite sum f(x) = sum_k c_k e^{i(k, x)} over frequencies
k in Z^d.  Norms use the normalized measure (2 pi)^{-d} dx on [0, 2 pi)^d,
so every basis exponential has unit norm in every L_p.

``lp_norm`` picks its method from p alone, exact where exactness is
available: Parseval for p = 2, and full-degree sampling for even integer p
(|f|^p is itself a trigonometric polynomial, so a grid finer than its degree
integrates it without error).  Other exponents fall back to adaptive grid
refinement from the Nyquist grid of |f|^2, stopped when two successive grids
agree (an estimate, not a certified error); the sup norm is the largest value
on the last grid, which holds every earlier grid's points, and never exceeds
the true sup.  Every grid holds at most ``MAX_GRID_POINTS`` points, and a
refined grid at most ``MAX_GRID_SIDE`` points per axis (see ``lp_norm`` for
where that limits the adaptive mean).
A mean or a maximum adds up over slabs, so a norm holds the values of at
most ``SLAB_POINTS`` points at once, however large its grid; a grid of at
most ``SLAB_POINTS`` points is one slab.  Slabs are cut along axis 0 where
they can be, and share one folding of the spectrum (``_grid_slabs``).

``lp_norms`` gives the same values for several p from one pass over the
grids.  Each sampled p has one owner: its exact grid, the sup ladder or the
mean ladder.  A ladder is one ``_refine`` call: it doubles one grid for all
its p, compares each p with its own value on the points of the grid before,
returns their norms and raises for a p that does not converge.  Either
ladder also reduces each exact grid it evaluates anyway.

Grids are sized from the spread w_j = max k_j - min k_j of each axis, not
from the largest |k_j|: |f| does not change under modulation, so |f|^2 has
degree w_j on axis j, and a one-sided spectrum such as a packet around
3 * 2^{s_j - 2} needs no more points than the same packet centred at 0.

Grid values come from one folded spectrum, and only the lines along the first
axis that hold a coefficient are transformed along it, each as a contiguous
row: the octave blocks and band pieces of a step hyperbolic cross leave most
lines empty once a grid is large enough to hold them without aliasing.  The
other axes run over the whole grid, the last of them along contiguous memory.
A mean adds |f|^p up once per slab, and the coarse estimate of a ladder step
is read off that same array at the coarse points.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (CapacityError, ParameterError, QuadratureAccuracyError, check_exponent,
                     check_exponents, check_int, check_point, check_real)
from .indexsets import SpectrumSet
from .majorant import MAX_OCTAVE

__all__ = [
    "TrigPolynomial",
    "QuadratureSpec",
    "lp_norm",
    "lp_norms",
    "random_in_spectrum",
    "NikolskiiResult",
    "nikolskii_check",
    "pow2ceil",
]

DIRECT_EVAL_CHUNK_OPS = 1 << 22
# the size of the largest grid evaluate_grid builds, exact or refined
MAX_GRID_POINTS = 1 << 26
# the longest axis of a refined grid; exact even-p grids obey MAX_GRID_POINTS only
MAX_GRID_SIDE = 1 << 13
# the most points evaluated at once: a larger grid is reduced in slabs
SLAB_POINTS = 1 << 19
# 2^0 .. 2^MAX_OCTAVE: |k| has octave sigma when exactly sigma of them are <= |k|
_OCTAVE_FLOORS = np.left_shift(np.uint64(1), np.arange(MAX_OCTAVE + 1, dtype=np.uint64))


def pow2ceil(x: int) -> int:
    """Smallest power of two >= x (x an integer >= 1)."""
    return 1 << (check_int(x, "pow2ceil's argument") - 1).bit_length()


def _frequencies(ks) -> np.ndarray:
    """ks as int64.  Float or unsigned input must hold integers inside the
    int64 range (2.0 is 2) and is never truncated; signed integer input
    passes unchecked."""
    ks = np.asarray(ks)
    if ks.dtype.kind != "i" and not (
            ks.dtype.kind in "uf" and np.all((np.trunc(ks) == ks) & (np.abs(ks) < 2.0 ** 63))):
        raise ParameterError("frequencies must be integers within int64")
    return ks.astype(np.int64, copy=False)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise strict lex order of two (n, d) integer arrays: a[i] < b[i].

    Folds the columns from the last to the first, one vectorized step per
    column; no row is sorted or gathered."""
    less = a[:, -1] < b[:, -1]
    for j in range(a.shape[1] - 2, -1, -1):
        less = np.where(a[:, j] == b[:, j], less, a[:, j] < b[:, j])
    return less


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """``np.lexsort``'s stable row-lex order of (n, d) int64 rows: a stable
    argsort of the rows packed in mixed radix (each column minus its least
    value, in radix its span) when the spans multiply to less than 2^62."""
    lows = [int(col.min()) for col in rows.T]
    spans = [int(col.max()) - lo + 1 for col, lo in zip(rows.T, lows)]
    if math.prod(spans) >= 1 << 62:
        return np.lexsort(rows.T[::-1])
    key = rows[:, 0] - lows[0]
    for col, lo, span in zip(rows.T[1:], lows[1:], spans[1:]):
        key *= span
        key += col - lo
    # numpy's stable sort of 16-bit keys is a radix sort
    return np.argsort(key.astype(np.uint16) if math.prod(spans) <= 1 << 16 else key, kind="stable")


def _octaves(ks: np.ndarray) -> np.ndarray:
    """The octave of every entry of ``ks`` (see ``TrigPolynomial.octaves``)."""
    # |-2^63| wraps to -2^63 in int64 and reads 2^63 as uint64
    return np.searchsorted(_OCTAVE_FLOORS, np.abs(ks).view(np.uint64), side="right")


# the rows array ``_box_rows`` grouped last and its split: one tuple, read
# and stored in one step, so no caller gets a split paired with other rows;
# the strong reference keeps that array's id from passing to another array
_kept: tuple = (None, None)


def _box_rows(ks: np.ndarray) -> MappingProxyType:
    """The one grouping of rows into octave boxes: for each distinct row s of
    the octaves of the (n, d) frequency rows ``ks``, the increasing indices
    of the rows in box s, keys in lex order (no keys for no rows).  The
    mapping is read-only; its index arrays are not to be written, but stay
    writeable because ``take`` copies an index array that is not.

    The one place that decides when a split is reused: it keeps one entry,
    the last rows array it grouped and that array's split, and after a call
    returns the entry holds ``ks`` and the split returned.  A call with the
    very same array (compared by identity; rows are never written once
    grouped) returns the kept split.  Sign, scaling and translation pass
    ``ks`` on unchanged, so they share its split; pruning builds a new
    array, which is grouped afresh."""
    global _kept
    kept = _kept
    if kept[0] is not ks:
        split = {}
        if len(ks):
            octs = _octaves(ks)
            order = _lex_order(octs)
            # a group starts wherever some sorted column changes
            cols = [col.take(order) for col in octs.T]
            new = np.logical_or.reduce([col[1:] != col[:-1] for col in cols])
            starts = np.flatnonzero(np.r_[True, new])
            keys = zip(*(col[starts].tolist() for col in cols))
            split = dict(zip(keys, np.split(order, starts[1:])))
        kept = _kept = (ks, MappingProxyType(split))
    return kept[1]


class TrigPolynomial:
    """Immutable container: lex-sorted integer frequencies + coefficients.

    Canonical invariant: rows of ``ks`` strictly lex-increasing, no exact-zero
    coefficient, every coefficient finite, read-only arrays.  The constructor
    checks the order of neighbouring rows first, sorts (``_lex_order``) only
    when some pair is out of order and merges only sorted rows that repeat;
    rows already in order are copied, so the caller's arrays are never
    frozen.  Zeros are pruned either way.  Derived polynomials that keep the
    rows in order (sign, scaling, translation, restriction, blocks, band
    pieces) only prune.  Non-finite coefficients or scalars raise
    ``ParameterError``.  Rows are gathered with ``take``/``compress`` and
    reduced a column at a time, as numpy's fancy indexing and short-axis
    reductions take a slow path.

    A polynomial holds its rows and coefficients and nothing derived from
    them: each polynomial of a pool would hold n more int64.  The split of
    its rows into octave boxes belongs to the rows array (``_box_rows``),
    which sign, scaling and translation pass on unchanged.
    """

    __slots__ = ("ks", "cs")

    def __init__(self, ks, cs):
        ks = _frequencies(ks)
        try:
            cs = np.asarray(cs, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"coefficients must be numbers: {exc}") from exc
        if ks.ndim == 1:
            ks = ks.reshape(-1, 1)
        if ks.ndim != 2 or ks.shape[1] < 1:
            raise ParameterError(f"frequency array must have shape (n, d), d >= 1, got {ks.shape}")
        cs = cs.reshape(-1)
        if ks.shape[0] != cs.shape[0]:
            raise ParameterError(
                f"{ks.shape[0]} frequencies vs {cs.shape[0]} coefficients")
        if np.all(_lex_less(ks[:-1], ks[1:])):
            ks, cs = ks.copy(), cs.copy()
        else:
            order = _lex_order(ks)
            ks, cs = ks.take(order, axis=0), cs.take(order)
            starts = np.flatnonzero(np.r_[True, _lex_less(ks[:-1], ks[1:])])
            if len(starts) < len(ks):
                ks, cs = ks.take(starts, axis=0), np.add.reduceat(cs, starts)
        self._prune_and_freeze(ks, cs)

    def _prune_and_freeze(self, ks, cs):
        if not np.all(np.isfinite(cs)):
            raise ParameterError("coefficients must be finite")
        keep = cs != 0
        if not np.all(keep):
            ks, cs = ks.compress(keep, axis=0), cs.compress(keep)
        for name, value in (("ks", ks), ("cs", cs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @classmethod
    def _canonical(cls, ks, cs) -> "TrigPolynomial":
        """Trusted constructor for canonical rows (int64, complex128) that may
        hold exact zeros: prunes them, sorts and merges nothing."""
        out = object.__new__(cls)
        out._prune_and_freeze(ks, cs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TrigPolynomial is immutable")

    # -- shape ------------------------------------------------------------

    @property
    def d(self) -> int:
        return self.ks.shape[1]

    @property
    def n_terms(self) -> int:
        return self.ks.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.n_terms == 0

    @property
    def degrees(self) -> tuple[int, ...]:
        """Coordinatewise max |k_j|, exact over int64 (zeros for the zero polynomial)."""
        if self.is_zero:
            return (0,) * self.d
        mag = np.abs(self.ks).view(np.uint64)  # as in ``octaves``
        return tuple(int(mag[:, j].max()) for j in range(self.d))

    @classmethod
    def zero(cls, d: int) -> "TrigPolynomial":
        return cls(np.empty((0, check_int(d, "dimension d")), dtype=np.int64),
                   np.empty(0, dtype=np.complex128))

    @classmethod
    def sum_of(cls, d: int, parts) -> "TrigPolynomial":
        """The sum of the d-dimensional polynomials ``parts``, canonicalized
        once instead of once per pairwise addition."""
        parts = [cls.zero(d), *parts]
        if any(f.d != d for f in parts):
            raise ParameterError("dimension mismatch")
        return cls(np.concatenate([f.ks for f in parts]), np.concatenate([f.cs for f in parts]))

    def coefficient(self, k) -> complex:
        k = _frequencies(k).reshape(-1)
        if k.size != self.d:
            raise ParameterError(f"frequency has {k.size} coordinates, expected {self.d}")
        hit = np.flatnonzero(np.logical_and.reduce([col == kj for col, kj in zip(self.ks.T, k)]))
        return complex(self.cs[hit[0]]) if hit.size else 0.0 + 0.0j

    def octaves(self) -> np.ndarray:
        """Per-coefficient octave indices: sigma_j = bit length of |k_j|
        (zero coordinates give sigma_j = 0), exact in integers over the
        whole int64 range."""
        return _octaves(self.ks)

    # -- algebra ----------------------------------------------------------

    def _binary(self, other, sign):
        if not isinstance(other, TrigPolynomial):
            return NotImplemented
        if other.d != self.d:
            raise ParameterError("dimension mismatch")
        return TrigPolynomial(np.concatenate([self.ks, other.ks]),
                              np.concatenate([self.cs, sign * other.cs]))

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return TrigPolynomial._canonical(self.ks, -self.cs)

    def __mul__(self, scalar):
        if isinstance(scalar, TrigPolynomial):
            return NotImplemented
        scalar = complex(scalar)
        if not cmath.isfinite(scalar):
            raise ParameterError(f"scalar must be finite, got {scalar}")
        return TrigPolynomial._canonical(self.ks, self.cs * scalar)

    __rmul__ = __mul__

    def translate(self, x0) -> "TrigPolynomial":
        """The shifted function x -> f(x - x0)."""
        phase = np.exp(-1j * (self.ks @ check_point(x0, "shift", self.d)))
        return TrigPolynomial._canonical(self.ks, self.cs * phase)

    def restrict(self, mask) -> "TrigPolynomial":
        """The terms where a boolean ``mask`` (one entry per term) is true;
        a nonempty mask of any other dtype raises ParameterError (an empty
        list reads as float)."""
        mask = np.asarray(mask).reshape(-1)
        if mask.dtype != bool and mask.size:
            raise ParameterError(f"mask must be boolean, got dtype {mask.dtype}")
        if mask.size != self.n_terms:
            raise ParameterError("mask length must equal the term count")
        return TrigPolynomial._canonical(self.ks.compress(mask, axis=0), self.cs.compress(mask))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """Values at arbitrary points, shape (m, d) -> (m,), chunked so the
        intermediate phase matrix stays within a fixed op budget; one point
        (shape (d,), or a scalar when d = 1) gives one value.  The points
        must be finite reals: a bool, complex, string or object array, NaN or
        an infinity raises ParameterError."""
        x = np.asarray(x)
        if x.dtype.kind not in "iuf" or not np.isfinite(x).all():
            raise ParameterError("evaluation points must be finite real numbers")
        x = x.astype(float, copy=False)
        single = x.ndim < 2  # one point: d coordinates, or a scalar when d = 1
        if single:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ParameterError(f"points have shape {x.shape}, expected (m, {self.d})")
        m = x.shape[0]
        out = np.zeros(m, dtype=np.complex128)
        if not self.is_zero:
            chunk = max(1, DIRECT_EVAL_CHUNK_OPS // max(1, self.n_terms))
            kt = self.ks.T.astype(float)
            for lo in range(0, m, chunk):
                seg = x[lo:lo + chunk]
                out[lo:lo + chunk] = np.exp(1j * (seg @ kt)) @ self.cs
        return out[0] if single else out

    def evaluate_grid(self, grid_shape) -> np.ndarray:
        """Values on the uniform grid x_m = 2 pi m / G, componentwise.

        Exact at the grid points regardless of aliasing: frequencies are
        folded mod G (``_fold``).  Only the lines along axis 0 that hold a
        folded frequency are transformed along it, as the contiguous rows of
        a compact (lines, G_0) array, and scattered into the zeroed grid;
        axes d-1 down to 1 follow over the whole grid (``_transform``).  No
        transform is scaled, so the values are bit-identical to
        ``np.fft.ifftn(spectrum, axes=(1, ..., d-1, 0), norm="forward")`` of
        the dense folded spectrum.  Peak memory
        (``ru_maxrss`` at 2^24 points) is 48 B a point in 1-D: the output
        plus 32 B of scratch that numpy's in-place FFT of one 2^24 line
        allocates.  In 2-D it is 16 B a point for the output plus 16 B times
        the fraction of occupied lines (16.2, 20.0 and 31.9 B measured with
        1%, 25% and all of the lines occupied); the norms transform at most
        ``SLAB_POINTS`` points at a time (``_grid_slabs``).
        """
        grid_shape = tuple(check_int(g, "grid side")
                           for g in np.atleast_1d(np.asarray(grid_shape)).tolist())
        if len(grid_shape) == 1 and self.d > 1:
            grid_shape = grid_shape * self.d
        if len(grid_shape) != self.d:
            raise ParameterError(f"grid has {len(grid_shape)} axes, expected {self.d}")
        total = math.prod(grid_shape)
        if total > MAX_GRID_POINTS:
            raise CapacityError(f"grid of {total} points exceeds the cap {MAX_GRID_POINTS}")
        if self.is_zero:
            return np.zeros(grid_shape, dtype=np.complex128)
        return _transform(_fold(self.ks, grid_shape), self.cs, grid_shape)


def _fold(ks, shape):
    """``ks`` folded onto the grid ``shape``, as (bins, lines): ``lines``, the
    flat indices over axes 1..d-1 of the lines along axis 0 that hold a
    frequency (None in 1-D), and ``bins``, each term's real and imaginary
    float64 slots in the compact complex (lines, G_0) array."""
    folded = [np.mod(ks[:, j], g) for j, g in enumerate(shape)]
    lines, row = None, 0
    if len(shape) > 1:
        suffix = np.ravel_multi_index(folded[1:], shape[1:])
        occupied = np.zeros(math.prod(shape[1:]), dtype=bool)
        occupied[suffix] = True
        lines, row = np.flatnonzero(occupied), (np.cumsum(occupied) - 1)[suffix]
    return (2 * (row * shape[0] + folded[0])[:, None] + (0, 1)).ravel(), lines


def _transform(fold, cs, shape):
    """The values on ``shape`` of the terms ``cs`` folded as ``fold``.  One
    bincount of their interleaved (real, imaginary) pairs is the compact
    array, allocated after the output: freed above it, its memory goes to
    the |f|^p temporaries of a norm, not back to the system."""
    bins, lines = fold
    side = shape[0]
    dense = None if lines is None else np.zeros(shape, dtype=np.complex128)
    n_lines = 1 if lines is None else lines.size
    vals = np.bincount(bins, weights=cs.view(np.float64), minlength=2 * n_lines * side)
    vals = vals.view(np.complex128).reshape(n_lines, side)
    np.fft.ifft(vals, axis=-1, norm="forward", out=vals)
    if lines is None:
        return vals.reshape(shape)
    dense.reshape(side, -1)[:, lines] = vals.T
    del vals
    return np.fft.ifftn(dense, axes=tuple(range(1, len(shape))), norm="forward", out=dense)


# -- random sampling -----------------------------------------------------


def random_in_spectrum(spectrum, seed=0, law: str = "gaussian") -> TrigPolynomial:
    """Random polynomial supported on the given frequencies.

    ``law='gaussian'`` draws independent complex normal coefficients;
    ``law='unit_complex'`` puts every coefficient on the unit circle with a
    uniform phase.  ``seed`` feeds a dedicated generator, so results are
    reproducible and independent of call order; a number must be an integer
    >= 0, and a generator or seed sequence passes as it is.
    """
    ks = spectrum.materialize() if isinstance(spectrum, SpectrumSet) else spectrum
    if np.ndim(ks) == 0:
        raise ParameterError(f"spectrum must be a SpectrumSet or frequency rows, got {ks!r}")
    if isinstance(seed, numbers.Number):
        seed = check_int(seed, "seed", lo=0)
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"unusable seed {seed!r}: {exc}") from exc
    cs = _draw(rng, len(ks), law)  # rows, or the frequencies of a flat 1-D spectrum
    # materialize's rows are fresh and strictly lex-increasing: trusted
    return (TrigPolynomial._canonical if ks is not spectrum else TrigPolynomial)(ks, cs)


def _draw(rng: np.random.Generator, n: int, law: str) -> np.ndarray:
    """``n`` coefficients of the ``law`` of ``random_in_spectrum`` from ``rng``."""
    if law == "gaussian":
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    if law == "unit_complex":
        return np.exp(2j * np.pi * rng.random(n))
    raise ParameterError(f"unknown coefficient law {law!r}")


# -- Lp norms ------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for norm evaluation: ``rel_tol`` stops the grid refinement
    of fractional, odd and infinite p.  The refined grids start from each
    axis's frequency spread, at most ``MAX_GRID_SIDE / 4`` points per axis,
    and double up to ``MAX_GRID_SIDE``.  Exact even-p grids ignore the side
    cap.  Every grid, exact or refined, holds at most ``MAX_GRID_POINTS``
    points.
    """

    rel_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", check_real(self.rel_tol, "rel_tol", 0, 1))


def _power_sum(values: np.ndarray, p, on=None):
    """The sum of |values|^p (for p = inf, the largest |values|), and the
    same over ``values[on]``, or None without ``on``.  |values|^p is formed
    once; the part on ``on`` is copied out contiguous before it is summed,
    as the sum of a fresh array of those points would be."""
    if p == math.inf:
        x, reduce = np.abs(values), np.max
    else:
        if p == int(p) and int(p) % 2 == 0:
            x, p = values.real ** 2, int(p) // 2
            x += values.imag ** 2
        else:
            x = np.abs(values)
        if p != 1:
            x **= p  # in place, as ``**``: one fresh array of the slab's size, not two
        reduce = np.sum
    return float(reduce(x)), None if on is None else float(reduce(np.ascontiguousarray(x[on])))


def _double_within_caps(grid):
    """Double each axis in turn while it stays within both caps; returns
    (the new grid, whether any axis doubled)."""
    new = list(grid)
    for j in range(len(new)):
        if new[j] * 2 <= MAX_GRID_SIDE and math.prod(new) * 2 <= MAX_GRID_POINTS:
            new[j] *= 2
    return tuple(new), new != list(grid)


def _start_grid(spread, m):
    """The first refined grid: ``m`` times the Nyquist size of |f|^2 on each
    axis, kept within ``MAX_GRID_SIDE // 4`` and ``MAX_GRID_POINTS``."""
    return _fit_points([max(8, min(pow2ceil(m * (w + 1)), MAX_GRID_SIDE // 4))
                        for w in spread])


def _fit_points(grid):
    grid = list(grid)
    while math.prod(grid) > MAX_GRID_POINTS:
        grid[int(np.argmax(grid))] //= 2
        if max(grid) < 8:
            raise CapacityError("cannot fit a starting grid under MAX_GRID_POINTS")
    return tuple(grid)


def _exact_grid(spread, p):
    """The grid ``pow2ceil((p/2) w_j + 1)``, floored at 8, on which |f|^p
    integrates exactly, for an even integer p when it holds at most
    ``MAX_GRID_POINTS`` points; None otherwise."""
    if p == int(p) and int(p) % 2 == 0:
        grid = tuple(max(8, pow2ceil(int(p) // 2 * w + 1)) for w in spread)
        if math.prod(grid) <= MAX_GRID_POINTS:
            return grid
    return None


def _grid_slabs(f: TrigPolynomial, grid, coarse=None):
    """The values of f on ``grid`` (sides powers of two) as (values, on) per
    slab, ``values[on]`` being the slab's points on ``coarse``, a grid that
    ``grid`` doubles on some axes (``on`` is None without ``coarse`` or when
    the slab holds none: the coarse step on axis a does not divide r).  The
    grid is cut into S = pow2ceil(points / SLAB_POINTS) slabs along axis
    a = 0, which leaves the lines along it that ``_transform`` prunes as
    sparse as on the whole grid; only when G_0 < S is it cut into at most
    G_a slabs along its longest axis a, the first of equals.  Slab r, the
    indices r mod S on axis a, is f e^{2 pi i r k_a / G_a} on G_a / S
    points (Cooley and Tukey's decimation in time), the phase reduced
    exactly per term; every slab shares one folding (``_fold``), and S = 1
    up to ``SLAB_POINTS`` points."""
    steps = [g // c for g, c in zip(grid, coarse or grid)]
    s = pow2ceil(-(-math.prod(grid) // SLAB_POINTS))
    a = 0 if grid[0] >= s else max(range(len(grid)), key=grid.__getitem__)
    s = min(grid[a], s)
    on = tuple(slice(None, None, max(1, k // s) if j == a else k) for j, k in enumerate(steps))
    shape = grid[:a] + (grid[a] // s,) + grid[a + 1:]
    fold, ka = _fold(f.ks, shape), np.mod(f.ks[:, a], grid[a])
    for r in range(s):
        cs = f.cs if r == 0 else f.cs * np.exp(2j * np.pi / grid[a] * (r * ka % grid[a]))
        yield _transform(fold, cs, shape), None if coarse is None or r % steps[a] else on


def _grid_norms(f: TrigPolynomial, grid, ps, coarse=None, n_coarse=0):
    """For each p of ``ps``, the L_p mean of f on ``grid`` (the largest |f|
    for p = inf), added up one slab at a time; and for the first
    ``n_coarse`` of them the same on the points of ``coarse`` (see
    ``_grid_slabs``), read off the same |f|^p, or None without it."""
    sums, subs = [0.0] * len(ps), [0.0] * n_coarse
    for vals, on in _grid_slabs(f, grid, coarse):
        for i, p in enumerate(ps):
            add = max if p == math.inf else operator.add
            total, sub = _power_sum(vals, p, on if i < n_coarse else None)
            sums[i] = add(sums[i], total)
            if sub is not None:
                subs[i] = add(subs[i], sub)
        del vals  # one slab is held at a time

    def norms(totals, shape):
        return [t if p == math.inf else (t / math.prod(shape)) ** (1.0 / p)
                for p, t in zip(ps, totals)]

    return norms(sums, grid), coarse and norms(subs, coarse)


def _refine(f: TrigPolynomial, start, ps, quad: QuadratureSpec, exact) -> dict:
    """The norms {p: value} from one ladder: ``start`` doubles within the
    caps until each p of ``ps`` agrees to ``rel_tol`` with its own value on
    the points of the grid before (the coarse points of ``_grid_slabs``), so
    nothing is carried between steps.  Also the norms of the even p that
    ``exact`` (grid -> such p) lists for a grid evaluated here; that grid is
    popped from ``exact``, so no grid is evaluated twice.  The sup never
    raises; the first other p that does not converge raises
    QuadratureAccuracyError with its best estimate.  Only when no axis can
    double is the start evaluated, alone, and nothing converges."""
    grid, doubled = _double_within_caps(start)
    coarse, live, norms = start if doubled else None, list(ps), {}
    while live:
        served = exact.pop(grid, [])
        new, old = _grid_norms(f, grid, live + served, coarse, len(live))
        norms.update(zip(live + served, new))
        if old is None:
            break
        live = [p for p, o in zip(live, old)
                if not abs(norms[p] - o) <= quad.rel_tol * max(norms[p], 1e-300)]
        coarse, (grid, doubled) = grid, _double_within_caps(grid)
        if not doubled:
            break
    for p in live:
        if p != math.inf:
            raise QuadratureAccuracyError(
                f"L_{p} quadrature did not reach rel_tol={quad.rel_tol} "
                f"within {MAX_GRID_SIDE} points per axis and {MAX_GRID_POINTS} in all",
                best_estimate=norms[p])
    return norms


def lp_norm(f: TrigPolynomial, p: float, quad: QuadratureSpec | None = None) -> float:
    """L_p norm under the normalized measure, 1 <= p <= inf; p alone picks
    the method.

    Every grid is sized from the spread w_j = max k_j - min k_j of axis j,
    the degree of |f|^2 there.  p = 2 is exact (Parseval), and so is even
    integer p when the grid ``pow2ceil((p/2) w_j + 1)``, finer than the
    degree of |f|^p, holds at most ``MAX_GRID_POINTS`` points.  Such a grid
    can be large: ``1 + e^{i 2^24 x}`` at p = 4 is exact on 2^26 points,
    reduced in 128 slabs of 2^19 (see ``_grid_slabs``).  Other p start at the
    Nyquist grid ``pow2ceil(w_j + 1)`` of |f|^2 (at most ``MAX_GRID_SIDE //
    4`` per axis) and double each axis within the caps until the relative
    change is below ``rel_tol``: a heuristic stop rule, so the result is an
    estimate.  QuadratureAccuracyError (carrying the best estimate) is raised
    when the caps are hit first.  Once a spread reaches 2048 =
    ``MAX_GRID_SIDE / 4`` the start grid is below the Nyquist size of |f|^2,
    and a sparse spectrum can alias alike on successive grids:
    ``1 + e^{i 4096 x}`` at p = 1.5 gives 2.0, where the true norm is
    1.3530.  p = inf refines a sampled maximum from four times the Nyquist
    grid, under the same start cap, and never raises; the result is the
    largest value on the last grid, which holds every earlier grid's
    points, a lower estimate of the true sup.
    """
    return lp_norms(f, (p,), quad)[0]


def lp_norms(f: TrigPolynomial, ps, quad: QuadratureSpec | None = None) -> tuple:
    """``tuple(lp_norm(f, p, quad) for p in ps)``, bit for bit, with each
    grid evaluated once for all the p that need it.

    The p that refine (fractional, odd, and even p whose exact grid is past
    ``MAX_GRID_POINTS``) share the mean ladder: one grid doubles in lockstep
    from the shared start, each grid is reduced for every p not yet
    converged, and each p keeps its own stop rule.  The sup has its own
    ladder.  An even p whose exact grid is a grid of either ladder is
    reduced there, once; the other exact grids are evaluated on their own.
    One grid is held at a time.  The first p of ``ps`` that does not
    converge raises QuadratureAccuracyError.
    """
    quad = quad or QuadratureSpec()
    ps = check_exponents(ps, "p")
    if f.is_zero:
        return (0.0,) * len(ps)
    norms = {}
    if 2 in ps:
        norms[2] = float(np.sqrt(np.sum(f.cs.real ** 2 + f.cs.imag ** 2)))
    sampled = [p for p in dict.fromkeys(ps) if p != 2]
    if sampled:
        norms.update(_sampled_norms(f, sampled, quad))
    return tuple(norms[p] for p in ps)


def _sampled_norms(f: TrigPolynomial, ps, quad: QuadratureSpec) -> dict:
    """The norms of f at the distinct exponents ``ps`` (none of them 2), as
    a dict p -> norm: the sup ladder runs first, then the mean ladder, then
    the exact grids that neither ladder evaluated."""
    # the degrees of |f|^2, in Python ints: a spread past 2^63 does not wrap
    spread = [int(col.max()) - int(col.min()) for col in f.ks.T]
    sup, mean, exact, norms = [], [], {}, {}  # exact: an exact even-p grid -> its p
    for p in ps:
        if p == math.inf:
            sup.append(p)
        elif grid := _exact_grid(spread, p):
            exact.setdefault(grid, []).append(p)
        else:
            mean.append(p)
    for own, m in ((sup, 4), (mean, 1)):
        if own:
            norms.update(_refine(f, _start_grid(spread, m), own, quad, exact))
    for grid, served in exact.items():
        norms.update(zip(served, _grid_norms(f, grid, served)[0]))
    return norms


# -- Nikolskii inequality -------------------------------------------------


@dataclass(frozen=True)
class NikolskiiResult:
    lhs: float
    rhs: float
    q: float
    p: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1 + 1e-9)

    @property
    def margin(self) -> float:
        return self.rhs / self.lhs if self.lhs > 0 else math.inf


def nikolskii_check(f: TrigPolynomial, q: float, p: float,
                    quad: QuadratureSpec | None = None) -> NikolskiiResult:
    """Different-metrics comparison: for 1 <= q < p <= inf,

        ||f||_p  <=  2^d * prod_j n_j^{1/q - 1/p} * ||f||_q,

    where n_j is the coordinatewise degree (floored at 1).  Returns both
    sides; ``passed`` allows 1e-9 relative slack for quadrature rounding.
    """
    if not check_exponent(q, "q") < check_exponent(p, "p"):
        raise ParameterError(f"need 1 <= q < p, got q={q}, p={p}")
    lhs, rhs_q = lp_norms(f, (p, q), quad)
    factor = 2.0 ** f.d
    for nj in f.degrees:
        factor *= max(nj, 1) ** (1.0 / q - 1.0 / p)
    return NikolskiiResult(lhs=lhs, rhs=factor * rhs_q, q=q, p=p)

"""Multivariate trigonometric polynomials with complex exponential basis.

A polynomial is a finite sum f(x) = sum_k c_k e^{i(k, x)} over frequencies
k in Z^d.  Norms use the normalized measure (2 pi)^{-d} dx on [0, 2 pi)^d,
so every basis exponential has unit norm in every L_p.

Norm evaluation is exact where exactness is available: Parseval for p = 2,
and full-degree sampling for even integer p (|f|^p is itself a trigonometric
polynomial, so a grid finer than its degree integrates it without error).
Other exponents fall back to adaptive grid refinement from the Nyquist grid
of |f|^2, stopped when two successive grids agree (an estimate, not a
certified error); the sup norm refines a sampled maximum, which never exceeds
the true sup.  Both refinements evaluate the first doubled grid directly and
read the start grid's estimate off its even-index subgrid, whose points are
the start grid's.  Every grid is capped at ``max_points`` points; the
per-axis cap ``max_grid`` limits only the two refinement loops.

Grid values come from one folded spectrum, and only the lines along the last
axis that hold a coefficient are transformed along it: the octave blocks and
band pieces of a step hyperbolic cross leave most lines empty once a grid is
large enough to hold them without aliasing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError, QuadratureAccuracyError
from .indexsets import SpectrumSet

__all__ = [
    "TrigPolynomial",
    "QuadratureSpec",
    "lp_norm",
    "random_in_spectrum",
    "NikolskiiResult",
    "nikolskii_check",
    "pow2ceil",
]

DIRECT_EVAL_CHUNK_OPS = 1 << 22


def pow2ceil(x: int) -> int:
    """Smallest power of two >= x (x >= 1)."""
    if x < 1:
        raise ParameterError(f"pow2ceil needs x >= 1, got {x}")
    return 1 << (int(x) - 1).bit_length() if x > 1 else 1


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise strict lex order of two (n, d) integer arrays: a[i] < b[i].

    Folds the columns from the last to the first, one vectorized step per
    column; no row is sorted or gathered."""
    less = a[:, -1] < b[:, -1]
    for j in range(a.shape[1] - 2, -1, -1):
        less = np.where(a[:, j] == b[:, j], less, a[:, j] < b[:, j])
    return less


class TrigPolynomial:
    """Immutable container: lex-sorted integer frequencies + coefficients.

    Canonical invariant: rows of ``ks`` strictly lex-increasing, no exact-zero
    coefficient, every coefficient finite, read-only arrays.  The constructor
    checks the order of neighbouring rows first and sorts and merges
    duplicates only when some pair is out of order; rows already in order
    are copied, so the caller's arrays are never frozen.  Zeros are pruned
    either way.  Derived polynomials that keep the rows in order (sign,
    scaling, translation, restriction, blocks, band pieces) only prune.
    Non-finite coefficients or scalars raise ``ParameterError``.
    """

    __slots__ = ("ks", "cs")

    def __init__(self, ks, cs):
        ks = np.asarray(ks, dtype=np.int64)
        cs = np.asarray(cs, dtype=np.complex128)
        if ks.ndim == 1:
            ks = ks.reshape(-1, 1)
        if ks.ndim != 2:
            raise ParameterError("frequency array must have shape (n, d)")
        cs = cs.reshape(-1)
        if ks.shape[0] != cs.shape[0]:
            raise ParameterError(
                f"{ks.shape[0]} frequencies vs {cs.shape[0]} coefficients")
        if ks.shape[1] < 1:
            raise ParameterError("dimension must be at least 1")
        if np.all(_lex_less(ks[:-1], ks[1:])):
            ks, cs = ks.copy(), cs.copy()
        else:
            order = np.lexsort(ks.T[::-1])
            ks, cs = ks[order], cs[order]
            starts = np.flatnonzero(np.r_[True, _lex_less(ks[:-1], ks[1:])])
            ks, cs = ks[starts], np.add.reduceat(cs, starts)
        self._prune_and_freeze(ks, cs)

    def _prune_and_freeze(self, ks, cs):
        if not np.all(np.isfinite(cs)):
            raise ParameterError("coefficients must be finite")
        keep = cs != 0
        if not np.all(keep):
            ks, cs = ks[keep], cs[keep]
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "cs", cs)
        ks.setflags(write=False)
        cs.setflags(write=False)

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
        """Coordinatewise max |k_j| (all zeros for the zero polynomial)."""
        if self.is_zero:
            return (0,) * self.d
        return tuple(int(v) for v in np.max(np.abs(self.ks), axis=0))

    @classmethod
    def zero(cls, d: int) -> "TrigPolynomial":
        return cls(np.empty((0, d), dtype=np.int64), np.empty(0, dtype=np.complex128))

    @classmethod
    def sum_of(cls, d: int, parts) -> "TrigPolynomial":
        """The sum of the d-dimensional polynomials ``parts``, canonicalized
        once instead of once per pairwise addition."""
        parts = [cls.zero(d), *parts]
        if any(f.d != d for f in parts):
            raise ParameterError("dimension mismatch")
        return cls(np.concatenate([f.ks for f in parts]), np.concatenate([f.cs for f in parts]))

    def coefficient(self, k) -> complex:
        k = np.asarray(k, dtype=np.int64).reshape(-1)
        if k.size != self.d:
            raise ParameterError(f"frequency has {k.size} coordinates, expected {self.d}")
        hit = np.flatnonzero(np.all(self.ks == k, axis=1))
        return complex(self.cs[hit[0]]) if hit.size else 0.0 + 0.0j

    def octaves(self) -> np.ndarray:
        """Per-coefficient octave indices: sigma_j = bit length of |k_j|
        (zero coordinates give sigma_j = 0)."""
        mag = np.abs(self.ks)
        # float64 rounding can carry the exponent one octave too high
        est = np.frexp(mag.astype(np.float64))[1]
        return est - ((est > 0) & (mag >> np.maximum(est - 1, 0) == 0))

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
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != self.d:
            raise ParameterError(f"shift has {x0.size} coordinates, expected {self.d}")
        if not np.all(np.isfinite(x0)):
            raise ParameterError(f"shift must be finite, got {x0}")
        return TrigPolynomial._canonical(self.ks, self.cs * np.exp(-1j * (self.ks @ x0)))

    def restrict(self, mask) -> "TrigPolynomial":
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.size != self.n_terms:
            raise ParameterError("mask length must equal the term count")
        return TrigPolynomial._canonical(self.ks[mask], self.cs[mask])

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        """Values at arbitrary points, shape (m, d) -> (m,), chunked so the
        intermediate phase matrix stays within a fixed op budget."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x.reshape(1, -1)
        if x.shape[1] != self.d:
            raise ParameterError(f"points have {x.shape[1]} coordinates, expected {self.d}")
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
        folded mod G.  Only the lines along the last axis that hold a folded
        frequency are transformed along it; the other axes follow in the
        order ``np.fft.ifftn`` uses, so the values are bit-identical to
        ``ifftn`` of the dense folded spectrum times the grid size.  Peak
        memory (``ru_maxrss`` at 2^24 points) is 48 B a point in 1-D: the
        output plus 32 B of scratch that numpy's in-place FFT of one 2^24
        line allocates.  In 2-D it is 16 B a point for the output plus 16 B
        times the fraction of occupied lines (16 to 26 B measured).
        """
        sides = np.atleast_1d(np.asarray(grid_shape)).tolist()
        if not all(isinstance(g, (int, float)) and math.isfinite(g) and g == int(g)
                   for g in sides):
            raise ParameterError(f"grid sides must be integers, got {grid_shape}")
        grid_shape = tuple(int(g) for g in sides)
        if len(grid_shape) == 1 and self.d > 1:
            grid_shape = grid_shape * self.d
        if len(grid_shape) != self.d:
            raise ParameterError(f"grid has {len(grid_shape)} axes, expected {self.d}")
        if any(g < 1 for g in grid_shape):
            raise ParameterError("grid sides must be positive")
        total = math.prod(grid_shape)
        if total > (1 << 26):
            raise CapacityError(f"grid of {total} points exceeds the memory cap 2^26")
        if self.is_zero:
            return np.zeros(grid_shape, dtype=np.complex128)
        side = grid_shape[-1]
        folded = [np.mod(self.ks[:, j], grid_shape[j]) for j in range(self.d)]
        if self.d > 1:
            # the occupied lines: distinct folded prefixes over axes 0..d-2
            lines, row = np.unique(np.ravel_multi_index(folded[:-1], grid_shape[:-1]),
                                   return_inverse=True)
        else:
            lines, row = np.zeros(1, dtype=np.intp), 0
        flat = row * side + folded[-1]
        del folded, row
        vals = np.empty((lines.size, side), dtype=np.complex128)
        vals.real[...] = np.bincount(flat, weights=self.cs.real,
                                     minlength=vals.size).reshape(vals.shape)
        vals.imag[...] = np.bincount(flat, weights=self.cs.imag,
                                     minlength=vals.size).reshape(vals.shape)
        del flat
        np.fft.ifft(vals, axis=-1, out=vals)
        if lines.size < total // side:
            dense = np.zeros(grid_shape, dtype=np.complex128)
            dense.reshape(-1, side)[lines] = vals
            vals = dense
        vals = vals.reshape(grid_shape)
        if self.d > 1:
            np.fft.ifftn(vals, axes=tuple(range(self.d - 1)), out=vals)
        vals *= total
        return vals


# -- random sampling -----------------------------------------------------


def random_in_spectrum(spectrum, seed=0, law: str = "gaussian") -> TrigPolynomial:
    """Random polynomial supported on the given frequencies.

    ``law='gaussian'`` draws independent complex normal coefficients;
    ``law='unit_complex'`` puts every coefficient on the unit circle with a
    uniform phase.  ``seed`` feeds a dedicated generator, so results are
    reproducible and independent of call order.
    """
    if isinstance(spectrum, SpectrumSet):
        ks = spectrum.materialize()
    else:
        ks = np.asarray(spectrum, dtype=np.int64)
        if ks.ndim == 1:
            ks = ks.reshape(-1, 1)
    rng = np.random.default_rng(seed)
    n = ks.shape[0]
    if law == "gaussian":
        cs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    elif law == "unit_complex":
        cs = np.exp(2j * np.pi * rng.random(n))
    else:
        raise ParameterError(f"unknown coefficient law {law!r}")
    return TrigPolynomial(ks, cs)


# -- Lp norms ------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for norm evaluation.

    mode 'auto' picks Parseval for p=2, exact sampling for even integer p
    when the exact grid has at most ``max_points`` points, and adaptive
    refinement otherwise.  Forcing a specific mode raises ParameterError when
    it does not apply.  ``max_points`` caps the size of every grid.
    ``max_grid`` (a power of two) caps each axis of the refined grids only:
    the adaptive mean starts at most one doubling below it, and the sup
    estimate refines up to it; exact even-p grids ignore it.
    """

    mode: str = "auto"
    rel_tol: float = 1e-6
    max_grid: int = 4096
    max_points: int = 1 << 26

    def __post_init__(self):
        if self.mode not in ("auto", "exact_parseval", "even_power_exact", "adaptive_grid"):
            raise ParameterError(f"unknown quadrature mode {self.mode!r}")
        if not (0 < self.rel_tol < 1):
            raise ParameterError("rel_tol must lie in (0, 1)")
        if self.max_grid < 8 or self.max_grid & (self.max_grid - 1):
            raise ParameterError("max_grid must be a power of two, at least 8")
        if self.max_points < 8:
            raise ParameterError("max_points too small")


def _abs_power_mean(values: np.ndarray, p: float) -> float:
    if p == int(p) and int(p) % 2 == 0:
        half = int(p) // 2
        mag2 = values.real ** 2 + values.imag ** 2
        return float(np.mean(mag2 ** half))
    return float(np.mean(np.abs(values) ** p))


def _even_exact_grid(f: TrigPolynomial, p: int, quad: QuadratureSpec):
    grid = tuple(max(8, pow2ceil(p * df + 1)) for df in f.degrees)
    return grid if math.prod(grid) <= quad.max_points else None


def _double_within_caps(grid, quad: QuadratureSpec):
    new = list(grid)
    changed = False
    for j in range(len(new)):
        if new[j] * 2 <= quad.max_grid:
            trial = new.copy()
            trial[j] = new[j] * 2
            if math.prod(trial) <= quad.max_points:
                new[j] *= 2
                changed = True
    return (tuple(new), changed)


def _fit_points(grid, quad: QuadratureSpec):
    grid = list(grid)
    while math.prod(grid) > quad.max_points:
        grid[int(np.argmax(grid))] //= 2
        if max(grid) < 8:
            raise CapacityError("cannot fit a starting grid under max_points")
    return tuple(grid)


def _sup_start_grid(f: TrigPolynomial, quad: QuadratureSpec):
    grid = []
    for df in f.degrees:
        g = pow2ceil(4 * (2 * df + 1))
        if g > quad.max_grid:
            g = max(8, quad.max_grid // 4)
        grid.append(max(8, g))
    return _fit_points(grid, quad)


def _even_subgrid(coarse, fine):
    """Index of the points of grid ``coarse`` inside its doubling ``fine``:
    every second point on the axes that doubled."""
    return tuple(slice(None, None, b // a) for a, b in zip(coarse, fine))


def _adaptive_mean(f: TrigPolynomial, p: float, quad: QuadratureSpec) -> float:
    # the Nyquist size of |f|^2, kept one doubling below the axis cap; its
    # estimate is read off the first doubling instead of a grid of its own
    start = _fit_points([max(8, min(pow2ceil(2 * df + 1), quad.max_grid // 2))
                         for df in f.degrees], quad)
    grid, changed = _double_within_caps(start, quad)
    vals = f.evaluate_grid(grid)
    est = _abs_power_mean(vals, p) ** (1.0 / p)
    prev = _abs_power_mean(vals[_even_subgrid(start, grid)], p) ** (1.0 / p) if changed else None
    del vals
    while True:
        if prev is not None and abs(est - prev) <= quad.rel_tol * max(est, 1e-300):
            return est
        grid, changed = _double_within_caps(grid, quad)
        if not changed:
            raise QuadratureAccuracyError(
                f"L_{p} quadrature did not reach rel_tol={quad.rel_tol} "
                f"within grid caps (last grid {grid})", best_estimate=est)
        prev, est = est, _abs_power_mean(f.evaluate_grid(grid), p) ** (1.0 / p)


def _sup_estimate(f: TrigPolynomial, quad: QuadratureSpec) -> float:
    start = _sup_start_grid(f, quad)
    grid, _ = _double_within_caps(start, quad)
    mag = np.abs(f.evaluate_grid(grid))
    est = float(np.max(mag[_even_subgrid(start, grid)]))
    new = float(np.max(mag))
    del mag
    while True:
        done = abs(new - est) <= quad.rel_tol * max(new, 1e-300)
        est = max(est, new)
        if done:
            return est
        grid, changed = _double_within_caps(grid, quad)
        if not changed:
            return est
        new = float(np.max(np.abs(f.evaluate_grid(grid))))


def lp_norm(f: TrigPolynomial, p: float, quad: QuadratureSpec | None = None) -> float:
    """L_p norm under the normalized measure, 1 <= p <= inf.

    p = 2 is exact (Parseval).  Even integer p is exact when a grid finer
    than the degree of |f|^p has at most ``max_points`` points.  Fractional
    and odd p start at the Nyquist grid of |f|^2 and double each axis (up to
    ``max_grid``, within ``max_points``) until the relative change is below
    ``rel_tol``; this stop rule is a heuristic, so the result is an estimate.
    The start grid's estimate is the mean over the even-index points of the
    first doubled grid, so the start grid is evaluated on its own only when
    no axis can double.  QuadratureAccuracyError (with the best estimate
    attached) is raised when the caps are hit before ``rel_tol``, at once
    when the start grid cannot double.  p = inf refines a sampled maximum
    the same way but never raises: the result is the largest sampled value,
    a lower estimate of the true sup.
    """
    quad = quad or QuadratureSpec()
    if f.is_zero:
        return 0.0
    if p != math.inf and not (p >= 1):
        raise ParameterError(f"need p >= 1 or p = inf, got {p}")

    if quad.mode == "exact_parseval" and p != 2:
        raise ParameterError("exact_parseval applies only to p = 2")
    if quad.mode == "even_power_exact" and not (p != math.inf and p == int(p) and int(p) % 2 == 0):
        raise ParameterError("even_power_exact applies only to even integer p")

    if p == 2 and quad.mode in ("auto", "exact_parseval"):
        return float(np.sqrt(np.sum(f.cs.real ** 2 + f.cs.imag ** 2)))

    if p == math.inf:
        return _sup_estimate(f, quad)

    if p == int(p) and int(p) % 2 == 0 and quad.mode in ("auto", "even_power_exact"):
        grid = _even_exact_grid(f, int(p), quad)
        if grid is not None:
            return _abs_power_mean(f.evaluate_grid(grid), p) ** (1.0 / p)
        if quad.mode == "even_power_exact":
            raise CapacityError(
                f"exact grid for p={p} with degrees {f.degrees} exceeds the caps")

    return _adaptive_mean(f, p, quad)


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
    if not (1 <= q) or not (q < p):
        raise ParameterError(f"need 1 <= q < p, got q={q}, p={p}")
    lhs = lp_norm(f, p, quad)
    rhs_q = lp_norm(f, q, quad)
    inv_p = 0.0 if p == math.inf else 1.0 / p
    factor = 2.0 ** f.d
    for nj in f.degrees:
        factor *= max(nj, 1) ** (1.0 / q - inv_p)
    return NikolskiiResult(lhs=lhs, rhs=factor * rhs_q, q=q, p=p)

"""Classical summation kernels and the dyadic band machinery built on them.

All constructions are coordinatewise tensor products.  The band multiplier
for index s is a de la Vallee Poussin difference supported on
2^{s-1} < |k| <= 2^{s+1} - 1, peaking at |k| = 2^s with linear ramps on both
sides; a frequency in octave sigma is touched only by the bands s in
{sigma - 1, sigma}, and the family over s in [1, S]^d telescopes to exactly
1 on frequencies |k_j| <= 2^S (ramp values are dyadic rationals, so the sum
is exact in floating point).
"""

from __future__ import annotations

import math

import numpy as np

from . import indexsets
from .errors import ParameterError, check_int, check_point
from .majorant import check_box_index
from .trigpoly import TrigPolynomial, _frequencies

__all__ = [
    "fejer_coefficient",
    "vp_coefficient",
    "fejer",
    "vallee_poussin",
    "band_multiplier",
    "band_kernel",
    "band_apply",
    "ks_vector",
    "k_packet",
]


def fejer_coefficient(n: int, k) -> np.ndarray:
    """Fejer spectrum: 1 - |k|/(n+1) on |k| <= n, zero beyond."""
    n = check_int(n, "kernel order")
    k = np.abs(np.asarray(k, dtype=np.float64))
    return np.where(k <= n, 1.0 - k / (n + 1), 0.0)


def vp_coefficient(n: int, k) -> np.ndarray:
    """De la Vallee Poussin spectrum: 1 on |k| <= n, linear ramp
    (2n - |k|)/n on n < |k| <= 2n - 1, zero beyond."""
    n = check_int(n, "kernel order")
    k = np.abs(np.asarray(k, dtype=np.float64))
    ramp = (2.0 * n - k) / n
    return np.where(k <= n, 1.0, np.where(k <= 2 * n - 1, ramp, 0.0))


def fejer(n: int) -> TrigPolynomial:
    """The univariate Fejer kernel of order n; K_n(0) = n + 1, L1 norm 1."""
    n = check_int(n, "kernel order")
    indexsets._check_cap(2 * n + 1, "kernel")
    ks = np.arange(-n, n + 1, dtype=np.int64)
    return TrigPolynomial(ks.reshape(-1, 1), fejer_coefficient(n, ks))


def vallee_poussin(n: int) -> TrigPolynomial:
    """The univariate de la Vallee Poussin kernel of order n; V_n(0) = 3n."""
    n = check_int(n, "kernel order")
    indexsets._check_cap(4 * n - 1, "kernel")
    ks = np.arange(-(2 * n - 1), 2 * n, dtype=np.int64)
    return TrigPolynomial(ks.reshape(-1, 1), vp_coefficient(n, ks))


def _band_factor(sj: int, k: np.ndarray) -> np.ndarray:
    # Octave 1 keeps the full V_2 profile (DC included); deeper octaves use
    # the telescoping difference, supported on 2^{s-1} < |k| <= 2^{s+1} - 1,
    # in a closed form exact on its dyadic values (no 2^{s+1}-entry table).
    a = np.abs(np.asarray(k, dtype=np.float64))
    if sj == 1:
        x = np.minimum(2.0 - 0.5 * a, 1.0)
    else:
        x = a * 2.0 ** (1 - sj) - 1.0
        np.minimum(x, 2.0 - a * 2.0 ** -sj, out=x)
    return np.maximum(x, 0.0, out=x)


def band_multiplier(s, ks) -> np.ndarray:
    """Tensor band multiplier values at the given frequencies (m, d)."""
    s = check_box_index(s)
    ks = _frequencies(ks)
    if ks.ndim == 1:
        ks = ks.reshape(-1, len(s))
    if ks.shape[1] != len(s):
        raise ParameterError(f"frequencies have {ks.shape[1]} coordinates, expected {len(s)}")
    out = np.ones(ks.shape[0])
    for j, sj in enumerate(s):
        out *= _band_factor(sj, ks[:, j])
    return out


def band_kernel(s) -> TrigPolynomial:
    """The band multiplier materialized as a polynomial: ``band_multiplier``
    on the tensor product of the per-axis supports."""
    s = check_box_index(s)
    # nonzero profile values per axis: |k| <= 3 for s_j = 1, else
    # 2^{s_j - 1} < |k| <= 2^{s_j + 1} - 1
    indexsets._check_cap(math.prod(7 if sj == 1 else 3 * 2 ** sj - 2 for sj in s), "kernel")
    axes = []
    for sj in s:
        hi = 2 ** (sj + 1) - 1
        k = np.arange(-hi, hi + 1, dtype=np.int64)
        axes.append(k[_band_factor(sj, k) != 0])
    ks = indexsets._tensor_rows(axes)
    return TrigPolynomial(ks, band_multiplier(s, ks))


def band_apply(f: TrigPolynomial, s) -> TrigPolynomial:
    """Multiply f's coefficients by the band multiplier for octave s (which
    validates s against f's dimension)."""
    return TrigPolynomial._canonical(f.ks, f.cs * band_multiplier(s, f.ks))


def ks_vector(s) -> np.ndarray:
    """The anchor frequency of octave s: 3 * 2^{s_j - 2} when s_j >= 2
    (midpoint of the dyadic block), 1 when s_j = 1."""
    s = check_box_index(s)
    return np.array([3 * 2 ** (sj - 2) if sj >= 2 else 1 for sj in s], dtype=np.int64)


def k_packet(s, x_center=None, u=None) -> TrigPolynomial:
    """A modulated Fejer packet inside octave s.

    The spectrum is the cube k^s + [-u, u]^d around the anchor k^s, with
    tensor Fejer weights w(delta) = prod(1 - |delta_j|/(u_j + 1)) and phases
    e^{-i (delta, x_center)}, so the modulus peaks at x_center with value
    prod(u_j + 1).  The default u_j = 2^{s_j - 2} (needs s_j >= 2) keeps the
    packet inside the two octaves at and above s.  A given u is one width
    for every axis or one per axis, each an integer >= 1 by
    ``errors.check_int``.  Frequencies with a zero coordinate are rejected.
    """
    s = check_box_index(s)
    d = len(s)
    if u is None:
        if any(sj < 2 for sj in s):
            raise ParameterError(
                f"default packet width needs every s_j >= 2, got {s}")
        us = [2 ** (sj - 2) for sj in s]
    else:
        us = list(u) if np.iterable(u) else [u] * d
        if len(us) != d:
            raise ParameterError(f"packet width has {len(us)} values, expected {d}")
        us = [check_int(uj, "packet width") for uj in us]
    indexsets._check_cap(math.prod(2 * uj + 1 for uj in us), "kernel")
    anchor = ks_vector(s)
    x_center = np.zeros(d) if x_center is None else check_point(x_center, "center", d)

    for j, (aj, uj) in enumerate(zip(anchor, us)):
        if aj - uj <= 0:
            raise ParameterError(
                f"packet width {uj} reaches a zero frequency coordinate "
                f"(anchor {int(aj)} in coordinate {j})")

    deltas = indexsets._tensor_rows([np.arange(-uj, uj + 1, dtype=np.int64) for uj in us])
    weights = np.ones(deltas.shape[0])
    for j, uj in enumerate(us):
        weights *= fejer_coefficient(uj, deltas[:, j])
    phases = np.exp(-1j * (deltas.astype(float) @ x_center))
    return TrigPolynomial(anchor[None, :] + deltas, weights * phases)

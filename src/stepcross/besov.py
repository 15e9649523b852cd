"""Mixed-smoothness Besov-type norms driven by the power-log majorant.

Two computable forms are provided.  The block form measures the dyadic
coefficient blocks delta_s(f) directly:

    ||f|| = ( sum_s omega(2^{-s})^{-theta} ||delta_s f||_p^theta )^{1/theta},

with the sup over s at theta = inf.  The smoothed form replaces delta_s by
the de la Vallee Poussin band pieces, which is the standard equivalent
expression at the integrability endpoints; the dispatcher uses blocks for
1 < p < inf and bands for p in {1, inf}.  Values of the two forms differ
(they are equivalent, not equal); each is deterministic.  One engine serves
both forms, in the norms and in the battery's equivalence check alike:
``besov_terms`` computes the weighted terms and ``combine`` sums them.  It
sorts the coefficients by octave once and gathers each band piece from the
at most 2^d blocks it touches.

Functions with a frequency on a coordinate hyperplane (some k_j = 0) carry
no octave index and are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .kernels import band_apply
from .majorant import MajorantParams, omega_dyadic
from .trigpoly import QuadratureSpec, TrigPolynomial, _lex_less, lp_norm

__all__ = [
    "BesovParams",
    "dyadic_blocks",
    "besov_terms",
    "combine",
    "besov_norm_blocks",
    "besov_norm_vp",
    "besov_norm",
    "normalize_to_ball",
]


@dataclass(frozen=True)
class BesovParams:
    """Integrability p and summation exponent theta, both in [1, inf]."""

    p: float
    theta: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("theta", self.theta)):
            if v != math.inf and not (1 <= v < math.inf):
                raise ParameterError(f"{name} must lie in [1, inf], got {v}")


def _octave_rows(f: TrigPolynomial) -> dict[tuple[int, ...], np.ndarray]:
    """Increasing row indices of f per occupied octave, keys in lex order."""
    if f.is_zero:
        return {}
    octs = f.octaves()
    flat = np.flatnonzero(np.any(octs == 0, axis=1))
    if flat.size:
        k = tuple(int(v) for v in f.ks[flat[0]])
        raise ParameterError(
            f"frequency {k} has a zero coordinate and belongs to no dyadic octave")
    order = np.lexsort(octs.T[::-1])
    grouped = octs[order]
    starts = np.flatnonzero(np.r_[True, _lex_less(grouped[:-1], grouped[1:])])
    return {tuple(int(v) for v in grouped[i]): rows
            for i, rows in zip(starts, np.split(order, starts[1:]))}


def dyadic_blocks(f: TrigPolynomial) -> dict[tuple[int, ...], TrigPolynomial]:
    """Split f into octave blocks delta_s, keyed by the octave index in lex order."""
    return {s: TrigPolynomial._canonical(f.ks[rows], f.cs[rows])
            for s, rows in _octave_rows(f).items()}


def _band_pieces(f: TrigPolynomial):
    """Nonzero band pieces (s, piece) in lex order.  Band s touches only the
    octaves sigma with sigma_j in {s_j, s_j + 1}: at most 2^d blocks."""
    touched: dict[tuple[int, ...], list[np.ndarray]] = {}
    for sigma, rows in _octave_rows(f).items():
        for s in itertools.product(*[sorted({max(1, sj - 1), sj}) for sj in sigma]):
            touched.setdefault(s, []).append(rows)
    for s in sorted(touched):
        rows = np.sort(np.concatenate(touched[s]))
        piece = band_apply(TrigPolynomial._canonical(f.ks[rows], f.cs[rows]), s)
        if not piece.is_zero:
            yield s, piece


def besov_terms(f: TrigPolynomial, omega: MajorantParams, p: float, form: str,
                quad: QuadratureSpec | None = None) -> tuple[list[tuple[int, ...]], list[float]]:
    """The octave indices s, in lex order, and the weighted terms
    ||piece_s||_p / omega(2^{-s}) of the block or band form."""
    if f.d != omega.d:
        raise ParameterError(f"function has dimension {f.d}, majorant expects {omega.d}")
    if form not in ("blocks", "bands"):
        raise ParameterError(f"unknown norm form {form!r}; choose 'blocks' or 'bands'")
    indices, terms = [], []
    for s, piece in dyadic_blocks(f).items() if form == "blocks" else _band_pieces(f):
        indices.append(s)
        terms.append(lp_norm(piece, p, quad) / omega_dyadic(omega, s))
    return indices, terms


def combine(terms, theta: float) -> float:
    """The l_theta sum of the norm terms (their max at theta = inf)."""
    if theta == math.inf:
        return max(terms, default=0.0)
    return sum(t ** theta for t in terms) ** (1.0 / theta)


def besov_norm_blocks(f: TrigPolynomial, omega: MajorantParams, bp: BesovParams,
                      quad: QuadratureSpec | None = None) -> float:
    """The coefficient-block form of the norm."""
    return combine(besov_terms(f, omega, bp.p, "blocks", quad)[1], bp.theta)


def besov_norm_vp(f: TrigPolynomial, omega: MajorantParams, bp: BesovParams,
                  quad: QuadratureSpec | None = None) -> float:
    """The band form of the norm: de la Vallee Poussin pieces in place of
    raw blocks."""
    return combine(besov_terms(f, omega, bp.p, "bands", quad)[1], bp.theta)


def besov_norm(f: TrigPolynomial, omega: MajorantParams, bp: BesovParams,
               quad: QuadratureSpec | None = None) -> float:
    """Dispatch: block form for 1 < p < inf, band form at p in {1, inf}."""
    if 1 < bp.p < math.inf:
        return besov_norm_blocks(f, omega, bp, quad)
    return besov_norm_vp(f, omega, bp, quad)


def normalize_to_ball(f: TrigPolynomial, omega: MajorantParams, bp: BesovParams,
                      quad: QuadratureSpec | None = None) -> tuple[TrigPolynomial, float]:
    """Scale f onto the unit ball of the norm; returns (scaled f, original norm)."""
    norm = besov_norm(f, omega, bp, quad)
    if norm == 0.0:
        raise ParameterError("cannot normalize the zero function")
    return f * (1.0 / norm), norm

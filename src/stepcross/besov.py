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
``besov_terms`` computes the weighted terms for one or several p and
``combine`` sums them.  It reads the rows of each octave box from the one
split of the polynomial's rows (``trigpoly._box_rows``, which keeps the
split of the last rows array it grouped, so the block and band forms of one
polynomial, and its scaled copy on the unit ball, group its rows once),
gathers each band piece from the at most 2^d blocks it touches, builds each
piece with one constructor (its rows times the band multiplier, pruned
once), takes each piece's norms for every p from one grid pass, and weighs
all its pieces with one ``majorant.log2_weight`` call that leaves log2
space through the majorant's one range rule.

Functions with a frequency on a coordinate hyperplane (some k_j = 0), or
with a coordinate -2^63 past the deepest octave ``MAX_OCTAVE``, carry no
octave index and are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_exponent, check_exponents
from .kernels import band_multiplier
from .majorant import MAX_OCTAVE, MajorantParams, _exp2, log2_weight
# lp_norm stays a name of this module: bench/tests checks that the bench
# tracer wraps it here, as in the other modules that bind it
from .trigpoly import QuadratureSpec, TrigPolynomial, _box_rows, lp_norm, lp_norms  # noqa: F401

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
        check_exponent(self.p, "p")
        check_exponent(self.theta, "theta")


def _octave_rows(f: TrigPolynomial):
    """``_box_rows(f.ks)``, refused when a frequency has a coordinate in no
    octave 1..``MAX_OCTAVE``: a zero, or -2^63 (octave 64)."""
    boxes = _box_rows(f.ks)
    outside = [int(rows[0]) for s, rows in boxes.items() if 0 in s or max(s) > MAX_OCTAVE]
    if outside:
        raise ParameterError(f"frequency {tuple(f.ks[min(outside)].tolist())} has a coordinate "
                             f"of 0 or -2^63 and belongs to no dyadic octave 1..{MAX_OCTAVE}")
    return boxes


def dyadic_blocks(f: TrigPolynomial) -> dict[tuple[int, ...], TrigPolynomial]:
    """Split f into octave blocks delta_s, keyed by the octave index in lex order."""
    return {s: TrigPolynomial._canonical(f.ks.take(rows, axis=0), f.cs.take(rows))
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
        ks = f.ks.take(rows, axis=0)
        piece = TrigPolynomial._canonical(ks, f.cs.take(rows) * band_multiplier(s, ks))
        if not piece.is_zero:
            yield s, piece


def besov_terms(f: TrigPolynomial, omega: MajorantParams, ps, form: str,
                quad: QuadratureSpec | None = None
                ) -> tuple[list[tuple[int, ...]], tuple[list[float], ...]]:
    """The octave indices s, in lex order, and for each p of the sequence
    ``ps`` the weighted terms ||piece_s||_p / omega(2^{-s}) of the block or
    band form.  Each piece is built once, and one ``lp_norms`` call gives
    its norms for every p."""
    if f.d != omega.d:
        raise ParameterError(f"function has dimension {f.d}, majorant expects {omega.d}")
    if form not in ("blocks", "bands"):
        raise ParameterError(f"unknown norm form {form!r}; choose 'blocks' or 'bands'")
    ps = check_exponents(ps, "p")
    indices, norms = [], []
    for s, piece in dyadic_blocks(f).items() if form == "blocks" else _band_pieces(f):
        indices.append(s)
        norms.append(lp_norms(piece, ps, quad))
    weights = _exp2(-log2_weight(omega, np.reshape(indices, (-1, f.d))))
    terms = np.reshape(norms, (len(indices), len(ps))) / weights[:, None]
    return indices, tuple(column.tolist() for column in terms.T)


def combine(terms, theta: float) -> float:
    """The l_theta sum of the norm terms (their max at theta = inf)."""
    theta = check_exponent(theta, "theta")
    if theta == math.inf:
        return max(terms, default=0.0)
    return sum(t ** theta for t in terms) ** (1.0 / theta)


def besov_norm_blocks(f: TrigPolynomial, omega: MajorantParams, bp: BesovParams,
                      quad: QuadratureSpec | None = None) -> float:
    """The coefficient-block form of the norm."""
    return combine(besov_terms(f, omega, (bp.p,), "blocks", quad)[1][0], bp.theta)


def besov_norm_vp(f: TrigPolynomial, omega: MajorantParams, bp: BesovParams,
                  quad: QuadratureSpec | None = None) -> float:
    """The band form of the norm: de la Vallee Poussin pieces in place of
    raw blocks."""
    return combine(besov_terms(f, omega, (bp.p,), "bands", quad)[1][0], bp.theta)


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

"""Projection onto the step hyperbolic cross, theoretical error rates, and
numerical rate experiments.

The rate of best approximation by M cross frequencies splits into three
regimes by the relation between the error metric q and the ball metric p:
a mean-square-like regime for p >= 2, a small-integrability regime for
p <= 2 (they agree at p = 2), and a separate uniform regime for q = inf.
Rates are M^{-rho} (log2 M)^{lambda} with regime-specific exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import BesovParams, besov_norm, normalize_to_ball
from .errors import ParameterError, UnsupportedRegimeError, check_exponent, check_int, check_real
from .extremal import WITNESS_BUILDERS, WitnessConfig
from .indexsets import SpectrumSet, _check_n, _members, _shell, in_cross, q_set, q_size
from .majorant import MajorantParams, _exp2
from .trigpoly import (QuadratureSpec, TrigPolynomial, _box_rows, _draw, lp_norm,
                       random_in_spectrum)

__all__ = [
    "RateRegime",
    "classify_regime",
    "theoretical_rate",
    "project_q",
    "approx_error",
    "ExperimentRecord",
    "rate_experiment",
    "RateFit",
    "fit_rate",
    "SAMPLE_FAMILIES",
]

SAMPLE_FAMILIES = ("random_ball", "shell", "g3", "g5", "g7")


@dataclass(frozen=True)
class RateRegime:
    """A resolved error regime: the metric pair, the tag, and the exponents
    of the predicted rate M^{-main} (log2 M)^{log_expo}."""

    p: float
    q: float
    theta: float
    tag: str
    main_exponent: float
    log_exponent: float


def _plus(x: float) -> float:
    return x if x > 0 else 0.0


def classify_regime(omega: MajorantParams, p: float, q: float, theta_: float) -> RateRegime:
    """Pick the regime for error metric q against the ball B_{p,theta}.

    q = inf needs p < inf and r > 1/p (uniform regime); finite q needs
    q <= p, with p = 1, q = 1 excluded from the small-integrability regime.
    Anything else has no supported rate.
    """
    for name, v in (("p", p), ("q", q), ("theta", theta_)):
        check_exponent(v, name)
    d, r, b = omega.d, omega.r, omega.b

    if q == math.inf:
        if p == math.inf:
            raise UnsupportedRegimeError("uniform-error regime needs p < inf")
        if not (r > 1.0 / p):
            raise UnsupportedRegimeError(
                f"uniform-error regime needs r > 1/p, got r={r}, p={p}")
        main = r - 1.0 / p
        lam = -sum(b) + (d - 1) * (r + 1.0 - 1.0 / p - 1.0 / theta_)
        return RateRegime(p, q, theta_, "sup_norm", main, lam)

    if p == math.inf:
        raise UnsupportedRegimeError("finite-q rates need p < inf")
    if q > p:
        raise UnsupportedRegimeError(
            f"no supported rate for q > p (q={q}, p={p})")
    if p >= 2:
        main = r
        lam = -sum(b) + (d - 1) * (r + _plus(0.5 - 1.0 / theta_))
        return RateRegime(p, q, theta_, "large_p", main, lam)
    if p == 1 and q == 1:
        raise UnsupportedRegimeError("the pair p = q = 1 has no supported rate")
    main = r
    lam = -sum(b) + (d - 1) * (r + _plus(1.0 / p - 1.0 / theta_))
    return RateRegime(p, q, theta_, "small_p", main, lam)


def theoretical_rate(omega: MajorantParams, regime: RateRegime, m: int) -> float:
    """Predicted error M^{-main} (log2 M)^{log_expo} for M >= 4 frequencies."""
    m = _check_count(m)
    check = classify_regime(omega, regime.p, regime.q, regime.theta)
    if (check.main_exponent, check.log_exponent) != (regime.main_exponent, regime.log_exponent):
        raise ParameterError("regime exponents do not match the given majorant")
    return float(m) ** (-regime.main_exponent) * math.log2(m) ** regime.log_exponent


def _check_count(m) -> int:
    """The frequency count M of a rate, an integer >= 4 by ``check_int``."""
    return check_int(m, "the frequency count M", lo=4)


def _cross_mask(f: TrigPolynomial, omega: MajorantParams, n: float) -> np.ndarray:
    """Per-coefficient membership of f's frequencies in the cross Q(N), decided
    once per octave box of ``_box_rows(f.ks)`` and scattered to the box's rows."""
    n = _check_n(n)
    if f.is_zero:
        return np.zeros(0, dtype=bool)
    if f.d != omega.d:
        raise ParameterError(f"function has dimension {f.d}, majorant expects {omega.d}")
    boxes = _box_rows(f.ks)
    keys = np.array(list(boxes))
    # octaves are >= 0, so a key without a zero coordinate is all >= 1
    inside = in_cross(omega, keys, n) & keys.all(axis=1)
    mask = np.zeros(f.n_terms, dtype=bool)
    mask[np.concatenate(list(boxes.values()))] = inside.repeat([len(r) for r in boxes.values()])
    return mask


def project_q(f: TrigPolynomial, omega: MajorantParams, n: float) -> TrigPolynomial:
    """Keep exactly the coefficients whose frequencies lie in the cross Q(N).

    Membership is decided per octave box by ``in_cross``, so no enumeration
    of Q(N) takes place.  Frequencies with a zero coordinate belong to no
    octave box and are always dropped.
    """
    return f.restrict(_cross_mask(f, omega, n))


def approx_error(f: TrigPolynomial, omega: MajorantParams, n: float, q: float,
                 quad: QuadratureSpec | None = None) -> float:
    """L_q distance from f to its cross projection.

    The residual f - project_q(f) is the restriction of f to the
    coefficients outside Q(N) (frequencies with a zero coordinate
    included), taken with the mask ``project_q`` uses, so nothing is
    concatenated or re-sorted; it is bit-identical to the difference.
    """
    return lp_norm(f.restrict(~_cross_mask(f, omega, n)), q, quad)


@dataclass(frozen=True)
class ExperimentRecord:
    """One grid point of a rate experiment."""

    n: float
    m: int
    error: float
    theory: float

    @property
    def ratio(self) -> float:
        return self.error / self.theory if self.theory > 0 else math.inf


def _shell_sample(omega: MajorantParams, bp: BesovParams, n: float,
                  rng: np.random.Generator, quad) -> TrigPolynomial:
    """The sum over the boxes s of theta(N) of omega(2^{-s}) times a random
    block on rho(s) of unit L_p norm (one of norm 0 dropped), bit for bit,
    built from one ``materialize`` of the union: the boxes and their weights
    come from ``indexsets._shell``, the ``_box_rows`` split of the union's
    rows lists each box's rows as ``rho(s)`` does, and each box's draws are
    scaled in place.  The sample holds those very rows, so its norm and
    projection find their split kept, unless a dropped box pruned them."""
    boxes, log2w = _shell(omega, n)
    if len(boxes) == 0:
        raise ParameterError(f"shell is empty at N={n}")
    ks = SpectrumSet(omega.d, _members(boxes)).materialize()
    split, cs = _box_rows(ks), np.zeros(len(ks), dtype=np.complex128)
    # the split's keys and the shell's rows are the same boxes in lex order
    for rows, weight in zip(split.values(), _exp2(-log2w).tolist()):
        draws = _draw(rng, len(rows), "gaussian")
        norm = lp_norm(TrigPolynomial._canonical(ks.take(rows, axis=0), draws), bp.p, quad)
        if norm != 0.0:
            cs[rows] = draws * complex(weight / norm)
    return TrigPolynomial._canonical(ks, cs)


def _validate_family(family: str, regime: RateRegime, bp: BesovParams):
    if family not in SAMPLE_FAMILIES:
        raise ParameterError(
            f"unknown sample family {family!r}; choose one of {SAMPLE_FAMILIES}")
    if family == "g3" and not (regime.tag == "large_p" and bp.theta >= 2):
        raise UnsupportedRegimeError(
            "the shell-mode witness targets the large-p regime with theta >= 2")
    if family == "g5" and not (regime.tag == "small_p" and bp.theta >= bp.p):
        raise UnsupportedRegimeError(
            "the packet-cloud witness targets the small-p regime with theta >= p")
    if family == "g7" and regime.tag != "sup_norm":
        raise UnsupportedRegimeError(
            "the packet-stack witness targets the uniform-error regime")


def rate_experiment(omega: MajorantParams, bp: BesovParams, q: float, family: str,
                    n_grid, samples: int = 1, seed: int = 0,
                    quad: QuadratureSpec | None = None) -> list[ExperimentRecord]:
    """Measure projection error against the predicted rate over an N grid.

    Every sample is normalized onto the unit ball before its error is taken;
    with several samples per N the worst error is recorded.  Witness
    families are deterministic, so their sample loop collapses to one
    evaluation.  Per-(N, sample) generator streams keep results independent
    of evaluation order.
    """
    regime = classify_regime(omega, bp.p, q, bp.theta)
    _validate_family(family, regime, bp)
    n_grid = [_check_n(v) for v in n_grid]
    if not n_grid:
        raise ParameterError("empty N grid")
    samples = check_int(samples, "samples")
    seed = check_int(seed, "seed", lo=0)

    records = []
    eff_samples = 1 if family in WITNESS_BUILDERS else samples
    for i, n in enumerate(n_grid):
        m = q_size(omega, n)
        theory = theoretical_rate(omega, regime, m)
        worst = 0.0
        # the samples at one N share one spectrum, and so its rows and layout
        spectrum = q_set(omega, n * 2.0 ** omega.l) if family == "random_ball" else None
        for j in range(eff_samples):
            if family == "random_ball":
                f = random_in_spectrum(
                    spectrum, seed=np.random.default_rng([seed, i, j]), law="gaussian")
            elif family == "shell":
                f = _shell_sample(omega, bp, n, np.random.default_rng([seed, i, j]), quad)
            else:
                f = WITNESS_BUILDERS[family](WitnessConfig(omega=omega, bp=bp, n=n))
            f, _ = normalize_to_ball(f, omega, bp, quad)
            worst = max(worst, approx_error(f, omega, n, q, quad))
        records.append(ExperimentRecord(n=n, m=m, error=worst, theory=theory))
    return records


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log2 error = c - rho log2 M + lam log2 log2 M."""

    rho_hat: float
    log_hat: float
    intercept: float
    residual_rms: float
    condition: float
    two_point_slope: float

    @property
    def collinear_warning(self) -> bool:
        return self.condition > 1e4


def fit_rate(records: list[ExperimentRecord]) -> RateFit:
    """Recover the main and logarithmic exponents from experiment records.

    Needs at least 5 records spanning at least 3 octaves in M, each with
    M >= 4 and a finite positive error.  The two-point slope across the
    largest span is reported alongside as a design-insensitive check; the
    regression condition number flags a near-collinear log-log design.
    """
    if len(records) < 5:
        raise ParameterError(f"need at least 5 records, got {len(records)}")
    errors = np.array([check_real(rec.error, "a record error", lo=0) for rec in records])
    ms = np.array([_check_count(rec.m) for rec in records], dtype=float)
    if np.max(ms) / np.min(ms) < 8:
        raise ParameterError("records must span at least 3 octaves in M")

    lm = np.log2(ms)
    llm = np.log2(lm)
    design = np.stack([np.ones_like(lm), lm, llm], axis=1)
    y = np.log2(errors)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = design @ coef - y
    cond = float(np.linalg.cond(design))

    i_lo = int(np.argmin(ms))
    i_hi = int(np.argmax(ms))
    slope = (y[i_hi] - y[i_lo]) / (lm[i_hi] - lm[i_lo])
    return RateFit(
        rho_hat=float(-coef[1]),
        log_hat=float(coef[2]),
        intercept=float(coef[0]),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        condition=cond,
        two_point_slope=float(-slope),
    )

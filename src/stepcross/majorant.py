"""Power-log smoothness majorant and its numerical audit.

The weight function treated throughout the library is

    omega(t) = prod_j  t_j^r / max(1, log2(1/t_j))^{b_j},   t in [0,1]^d,

with omega(t) = 0 as soon as some t_j = 0.  All logarithms in this library
are base 2.  On dyadic points t = 2^{-s} with integer s_j >= 1 this reduces
to ``prod_j 2^{-r s_j} s_j^{-b_j}``, the form used by every index-set
computation downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, check_int, check_point, check_real

# the audit probes t = 2^-m for m = 0..PROBE_DEPTH
PROBE_DEPTH = 20
# the octave of the largest int64 frequency, 2^63 - 1: the deepest box whose
# frequencies (and anchor 3 * 2^{s_j - 2}) are int64
MAX_OCTAVE = 63

__all__ = [
    "MajorantParams",
    "MAX_OCTAVE",
    "check_box_index",
    "omega_eval",
    "omega_dyadic",
    "log2_omega_dyadic",
    "log2_weight",
    "MajorantAuditReport",
    "verify_majorant_axioms",
]


@dataclass(frozen=True)
class MajorantParams:
    """Parameters (d, r, b, l) of the power-log majorant.

    Constraints: d >= 1, 0 < r < l, and a finite b_j < r for every
    coordinate.  ``b`` may be given as a scalar and is broadcast to all
    coordinates; negative entries are allowed.
    """

    d: int
    r: float
    b: tuple[float, ...]
    l: int

    def __post_init__(self):
        object.__setattr__(self, "d", check_int(self.d, "dimension d"))
        object.__setattr__(self, "l", check_int(self.l, "l"))
        object.__setattr__(self, "r", check_real(self.r, "r", 0, self.l))
        b = self.b if np.iterable(self.b) else (self.b,) * self.d
        object.__setattr__(self, "b", tuple(check_point(b, "b", self.d, hi=self.r).tolist()))

    def to_json(self) -> dict:
        return {"d": self.d, "r": self.r, "b": list(self.b), "l": self.l}

    @classmethod
    def from_json(cls, obj: dict) -> "MajorantParams":
        try:
            return cls(d=obj["d"], r=obj["r"], b=obj["b"], l=obj["l"])
        except (KeyError, TypeError) as exc:  # a missing key, or obj not a mapping
            raise ParameterError(
                f"majorant config must map each of d, r, b, l to a value, got {obj!r}") from exc


def _factor(r: float, b: float, t: float) -> float:
    # One coordinate's contribution t^r / max(1, log2(1/t))^b for t > 0.
    lg = max(1.0, -math.log2(t)) if t < 1.0 else 1.0
    return t ** r / lg ** b


def omega_eval(params: MajorantParams, t) -> float:
    """Evaluate the majorant at a point t with nonnegative coordinates.

    Returns 0 when any coordinate vanishes.  Coordinates above 1 are legal
    (the log clamp makes the factor plain ``t^r`` there), negative ones are
    rejected.
    """
    t = check_point(t, "point", params.d)
    if np.any(t < 0):
        raise ParameterError("majorant argument coordinates must be >= 0")
    if np.any(t == 0):
        return 0.0
    out = 1.0
    for tj, bj in zip(t, params.b):
        out *= _factor(params.r, bj, float(tj))
    return out


def check_box_index(s, d: int | None = None) -> tuple[int, ...]:
    """A box index as a tuple of Python ints, the one check every entry point
    that takes an octave index uses.

    Accepts a scalar or a flat sequence of coordinates that
    ``errors.check_int`` takes in [1, ``MAX_OCTAVE``] (2.0 is box 2); raises
    ParameterError for any other coordinate, an empty index, and, when ``d``
    is given, an index without d coordinates.
    """
    if isinstance(s, np.ndarray):
        s = s.tolist()
    out = tuple(check_int(x, "box index coordinate", 1, MAX_OCTAVE)
                for x in (s if np.iterable(s) else (s,)))
    if not out or (d is not None and len(out) != d):
        raise ParameterError(f"box index has {len(out)} coordinates, expected {d or 'at least 1'}")
    return out


def omega_dyadic(params: MajorantParams, s) -> float:
    """omega at the dyadic point 2^{-s}: prod_j 2^{-r s_j} s_j^{-b_j}."""
    return 2.0 ** log2_omega_dyadic(params, s)


def log2_omega_dyadic(params: MajorantParams, s) -> float:
    """log2 of omega_dyadic, that is -log2 w(s) for one validated box index."""
    return float(-log2_weight(params, [check_box_index(s, params.d)])[0])


def log2_weight(params: MajorantParams, boxes) -> np.ndarray:
    """log2 w(s) = r |s|_1 + sum_j b_j log2 s_j for every row of an (m, d)
    array of box indices (all s_j >= 1, unchecked).  This is the only place
    the box weight is computed; cross membership compares it against log2 N
    through ``indexsets.in_cross``."""
    boxes = np.asarray(boxes, dtype=float)
    b = np.asarray(params.b)
    return params.r * boxes.sum(axis=1) + (b * np.log2(boxes)).sum(axis=1)


@dataclass
class MajorantAuditReport:
    """Outcome of the dyadic-grid audit of the majorant's structural conditions."""

    params: MajorantParams
    alpha: float
    gamma: float
    monotone_ok: bool
    scaling_ok: bool
    s_condition_ok: bool
    sl_condition_ok: bool
    c1: float
    c2: float
    violations: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.monotone_ok and self.scaling_ok and self.s_condition_ok and self.sl_condition_ok


def _pair_constants(values: np.ndarray):
    # values[m] = psi(2^{-m}); smallest C1 with psi(m1) <= C1 psi(m2) over m1 >= m2,
    # and largest C2 with psi(m1) >= C2 psi(m2) over the same pairs.
    running_min = np.minimum.accumulate(values)
    running_max = np.maximum.accumulate(values)
    c1 = float(max(1.0, np.max(values / running_min)))
    c2 = float(min(1.0, np.min(values / running_max)))
    return c1, c2


def verify_majorant_axioms(params: MajorantParams, alpha: float,
                           gamma: float) -> MajorantAuditReport:
    """Audit monotonicity, the scaled-growth inequality, and both almost-
    monotonicity conditions on dyadic probe grids.

    Per coordinate, psi_S(m) = factor(2^{-m}) * 2^{alpha m} must be almost
    increasing in tau = 2^{-m} (constant C1) and psi_L(m) = factor * 2^{gamma m}
    almost decreasing (constant C2).  A condition is flagged when its constant
    is still growing as the probe grid deepens (compared at half depth), which
    is the finite-grid signature of an unbounded ratio.  Violations are report
    content, not exceptions.
    """
    alpha = check_real(alpha, "alpha", lo=0)
    gamma = check_real(gamma, "gamma", 0, params.l)

    violations: list[str] = []
    grow_tol = 1.0 + 1e-9

    # Condition 2: each factor nondecreasing in t on the dyadic grid.
    monotone_ok = True
    for j, bj in enumerate(params.b):
        vals = [_factor(params.r, bj, 2.0 ** -m) for m in range(PROBE_DEPTH + 1)]
        for m in range(PROBE_DEPTH):
            if vals[m + 1] > vals[m] * (1 + 1e-12):
                monotone_ok = False
                violations.append(
                    f"monotonicity: coordinate {j} increases from t=2^-{m + 1} to t=2^-{m}")
                break

    # Condition 3: omega(m*t) <= (prod m_j)^l * omega(t) for integer multipliers.
    scaling_ok = True
    mults = (1, 2, 3, 4, 5, 8, 16, 32, 64, 2 ** PROBE_DEPTH)
    depths = (1, 2, 3, 5, 8, PROBE_DEPTH)
    for j in range(params.d):
        for m_exp in depths:
            t = np.full(params.d, 0.5)
            t[j] = 2.0 ** -m_exp
            base = omega_eval(params, t)
            for mult in mults:
                scaled = np.minimum(t * np.where(np.arange(params.d) == j, mult, 1), 1.0)
                if mult * t[j] > 1.0:
                    continue
                lhs = omega_eval(params, scaled)
                if lhs > mult ** params.l * base * (1 + 1e-12):
                    scaling_ok = False
                    violations.append(
                        f"scaling: coordinate {j}, t_j=2^-{m_exp}, multiplier {mult}")

    # (S) and its counterpart, per coordinate on tau = 2^-m, m = 0..depth.
    s_ok = True
    sl_ok = True
    c1_all = 1.0
    c2_all = 1.0
    half = PROBE_DEPTH // 2
    for j, bj in enumerate(params.b):
        m_grid = np.arange(PROBE_DEPTH + 1, dtype=float)
        factors = np.array([_factor(params.r, bj, 2.0 ** -m) for m in m_grid])
        psi_s = factors * 2.0 ** (alpha * m_grid)
        psi_l = factors * 2.0 ** (gamma * m_grid)
        c1_full, _ = _pair_constants(psi_s)
        c1_half, _ = _pair_constants(psi_s[: half + 1])
        _, c2_full = _pair_constants(psi_l)
        _, c2_half = _pair_constants(psi_l[: half + 1])
        c1_all = max(c1_all, c1_full)
        c2_all = min(c2_all, c2_full)
        if c1_full > c1_half * grow_tol:
            s_ok = False
            violations.append(
                f"(S): coordinate {j}, C1 grows with depth ({c1_half:.6g} -> {c1_full:.6g})")
        if c2_full < c2_half / grow_tol:
            sl_ok = False
            violations.append(
                f"(S_l): coordinate {j}, C2 shrinks with depth ({c2_half:.6g} -> {c2_full:.6g})")

    return MajorantAuditReport(
        params=params, alpha=alpha, gamma=gamma,
        monotone_ok=monotone_ok, scaling_ok=scaling_ok,
        s_condition_ok=s_ok, sl_condition_ok=sl_ok,
        c1=c1_all, c2=c2_all, violations=violations)

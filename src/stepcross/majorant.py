"""Power-log smoothness majorant and its numerical audit.

The weight function treated throughout the library is

    omega(t) = prod_j  t_j^r / max(1, log2(1/t_j))^{b_j},   t in [0,1]^d,

with omega(t) = 0 as soon as some t_j = 0.  All logarithms in this library
are base 2.  On dyadic points t = 2^{-s} with integer s_j >= 1 this reduces
to ``prod_j 2^{-r s_j} s_j^{-b_j}``, the form used by every index-set
computation downstream.

Every weight is computed in log2 by one function, ``_axis_log2_weight``: the
per-axis term r sigma + b log2 max(1, sigma) at sigma = log2(1/t), which at
an octave index sigma = s_j is the box term r s_j + b_j log2 s_j.  The
majorant, the box weight, the cross tables, the tail series and the audit
all read it, and every value that leaves log2 space goes through one range
rule, ``_exp2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ParameterError, check_int, check_point, check_real

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


def _axis_log2_weight(r: float, b, sigma) -> np.ndarray:
    """The per-axis term r sigma + b log2 max(1, sigma) of -log2 omega at
    sigma = log2(1/t_j), elementwise over an array ``sigma`` (``b`` a scalar
    or one exponent per coordinate of the last axis).  The one spelling of
    the weight: at an octave index sigma = s_j >= 1 it is the box term
    r s_j + b_j log2 s_j."""
    term = np.maximum(sigma, 1.0)
    np.log2(term, out=term)
    term *= b
    term += r * sigma
    return term


def _exp2(y):
    """2^y for a float or an array of exponents, the one way a weight leaves
    log2 space.  A value that underflows to 0 (y <= -1075) would vanish
    silently and one that overflows (y >= 1024) is inf, so either raises
    CapacityError."""
    if isinstance(y, float):
        if -1075 < y < 1024:
            return 2.0 ** y
    elif -1075 < y.min(initial=0.0) and y.max(initial=0.0) < 1024:
        return np.exp2(y)
    raise CapacityError("a weight term 2^y underflows to 0 or overflows the float range")


def omega_eval(params: MajorantParams, t) -> float:
    """Evaluate the majorant at a point t with nonnegative coordinates.

    Returns 0 when any coordinate vanishes.  Coordinates above 1 are legal
    (the log clamp makes the factor plain ``t^r`` there), negative ones are
    rejected.  A value outside the float range raises CapacityError.
    """
    t = check_point(t, "point", params.d)
    if np.any(t < 0):
        raise ParameterError("majorant argument coordinates must be >= 0")
    if np.any(t == 0):
        return 0.0
    return _exp2(-float(_axis_log2_weight(params.r, params.b, -np.log2(t)).sum()))


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
    """omega at the dyadic point 2^{-s}: prod_j 2^{-r s_j} s_j^{-b_j}.  A
    value outside the float range raises CapacityError."""
    return _exp2(log2_omega_dyadic(params, s))


def log2_omega_dyadic(params: MajorantParams, s) -> float:
    """log2 of omega_dyadic, that is -log2 w(s) for one validated box index:
    ``log2_weight`` of the one-row array holding s."""
    return -float(log2_weight(params, [check_box_index(s, params.d)])[0])


def log2_weight(params: MajorantParams, boxes) -> np.ndarray:
    """log2 w(s) = sum_j (r s_j + b_j log2 s_j) for every row of an (m, d)
    array of box indices (all s_j >= 1, unchecked), the row sum of
    ``_axis_log2_weight``.  Cross membership compares it against log2 N
    through ``indexsets.in_cross``."""
    boxes = np.asarray(boxes)
    out = np.zeros(len(boxes))
    # one column at a time: no (m, d) temporary
    for j, bj in enumerate(params.b):
        out += _axis_log2_weight(params.r, bj, boxes[:, j])
    return out


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
    c1: float  # 2^log2_c1, inf past the float range
    c2: float  # 2^log2_c2, 0.0 where it underflows
    log2_c1: float
    log2_c2: float
    violations: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.monotone_ok and self.scaling_ok and self.s_condition_ok and self.sl_condition_ok


def _log2_c1(lv: np.ndarray) -> float:
    # lv[m] = log2 psi(2^{-m}): log2 of the smallest C1 with psi(m1) <= C1 psi(m2)
    # over m1 >= m2 (>= 0, from m1 = m2).  -_log2_c1(-lv) is log2 of the largest
    # C2 with psi(m1) >= C2 psi(m2) over the same pairs.
    return float(np.max(lv - np.minimum.accumulate(lv)))


def _constant(y: float) -> float:
    # an audit constant 2^y; one past the float range is reported as inf
    return 2.0 ** y if y < 1024 else math.inf


def _growth(name: str, half: float, full: float) -> str:
    # the constants 2^half -> 2^full of a growth line, or their log2 values
    # where one of them overflows to inf or underflows to 0
    if all(0 < _constant(y) < math.inf for y in (half, full)):
        return f"({_constant(half):.6g} -> {_constant(full):.6g})"
    return f"(log2 {name} {half:.6g} -> {full:.6g})"


def verify_majorant_axioms(params: MajorantParams, alpha: float,
                           gamma: float) -> MajorantAuditReport:
    """Audit monotonicity, the scaled-growth inequality, and both almost-
    monotonicity conditions on dyadic probe grids.

    Per coordinate, psi_S(m) = factor(2^{-m}) * 2^{alpha m} must be almost
    increasing in tau = 2^{-m} (constant C1) and psi_L(m) = factor * 2^{gamma m}
    almost decreasing (constant C2).  A condition is flagged when its constant
    is still growing as the probe grid deepens (compared at half depth), which
    is the finite-grid signature of an unbounded ratio.  Every comparison is
    made between log2 values, so no valid majorant makes the audit raise;
    the report carries both constants in log2 as well, and a growth line with
    a constant past the float range prints the log2 values instead.
    Violations are report content, not exceptions.
    """
    alpha = check_real(alpha, "alpha", lo=0)
    gamma = check_real(gamma, "gamma", 0, params.l)

    violations: list[str] = []
    # the relative tolerances 1 + 1e-12 of a comparison and 1 + 1e-9 of a growth
    tol, grow_tol = math.log2(1 + 1e-12), math.log2(1 + 1e-9)
    r = params.r
    m_grid = np.arange(PROBE_DEPTH + 1, dtype=float)
    # log2 of each coordinate's factor at the probes t = 2^-m, m = 0..depth
    probes = [-_axis_log2_weight(r, bj, m_grid) for bj in params.b]

    # Condition 2: each factor nondecreasing in t on the dyadic grid.
    monotone_ok = True
    for j, lf in enumerate(probes):
        rises = np.flatnonzero(np.diff(lf) > tol)
        if rises.size:
            monotone_ok = False
            violations.append(
                f"monotonicity: coordinate {j} increases from t=2^-{rises[0] + 1} to t=2^-{rises[0]}")

    # Condition 3: omega(m*t) <= (prod m_j)^l * omega(t) for integer multipliers,
    # one coordinate at a time at t_j = 2^-depth with mult * t_j <= 1; the
    # other factors cancel.
    scaling_ok = True
    depth, mult = np.array([(m_exp, k) for m_exp in (1, 2, 3, 5, 8, PROBE_DEPTH)
                            for k in (1, 2, 3, 4, 5, 8, 16, 32, 64, 2 ** PROBE_DEPTH)
                            if k <= 2 ** m_exp], dtype=float).T
    log2_mult = np.log2(mult)
    for j, bj in enumerate(params.b):
        gain = _axis_log2_weight(r, bj, depth) - _axis_log2_weight(r, bj, depth - log2_mult)
        for i in np.flatnonzero(gain > params.l * log2_mult + tol):
            scaling_ok = False
            violations.append(
                f"scaling: coordinate {j}, t_j=2^-{int(depth[i])}, multiplier {int(mult[i])}")

    # (S) and its counterpart, per coordinate on tau = 2^-m, m = 0..depth.
    s_ok = sl_ok = True
    log2_c1 = log2_c2 = 0.0
    half = PROBE_DEPTH // 2 + 1
    for j, lf in enumerate(probes):
        psi_s, neg_psi_l = lf + alpha * m_grid, -(lf + gamma * m_grid)
        c1_half, c1_full = _log2_c1(psi_s[:half]), _log2_c1(psi_s)
        c2_half, c2_full = -_log2_c1(neg_psi_l[:half]), -_log2_c1(neg_psi_l)
        log2_c1, log2_c2 = max(log2_c1, c1_full), min(log2_c2, c2_full)
        if c1_full - c1_half > grow_tol:
            s_ok = False
            violations.append(
                f"(S): coordinate {j}, C1 grows with depth {_growth('C1', c1_half, c1_full)}")
        if c2_half - c2_full > grow_tol:
            sl_ok = False
            violations.append(
                f"(S_l): coordinate {j}, C2 shrinks with depth {_growth('C2', c2_half, c2_full)}")

    return MajorantAuditReport(
        params=params, alpha=alpha, gamma=gamma,
        monotone_ok=monotone_ok, scaling_ok=scaling_ok,
        s_condition_ok=s_ok, sl_condition_ok=sl_ok,
        c1=_constant(log2_c1), c2=_constant(log2_c2), log2_c1=log2_c1, log2_c2=log2_c2,
        violations=violations)

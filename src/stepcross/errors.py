"""Exception types shared across the library, and the three input rules
every entry point applies: ``check_int`` for counts and indices,
``check_exponent`` for integrability and summation exponents, with its
sequence form ``check_exponents``, and ``check_real`` for thresholds,
tolerances and majorant parameters, with its vector form ``check_point``
for shifts, centres and evaluation points.

The CLI maps these onto process exit codes: parameter/usage problems -> 2,
quadrature tolerance failures -> 3, capacity overruns -> 4.
"""

import math
import numbers

import numpy as np

__all__ = ["ParameterError", "UnsupportedRegimeError", "CapacityError", "QuadratureAccuracyError"]


class ParameterError(ValueError):
    """A argument violates a documented precondition."""


class UnsupportedRegimeError(ParameterError):
    """The (p, q, theta) combination matches no supported rate regime."""


class CapacityError(RuntimeError):
    """A requested enumeration or grid exceeds the configured desk-scale caps."""


class QuadratureAccuracyError(RuntimeError):
    """Grid quadrature hit its size cap before reaching the requested tolerance.

    Carries the best available estimate so callers can decide whether to use it.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def check_int(x, what: str, lo: int = 1, hi: int | None = None) -> int:
    """x as a Python int in [lo, hi] (no upper end when ``hi`` is None).

    Any integral finite real counts (2.0 and np.int64(2) are 2); a bool, a
    fraction, NaN, an infinity or a string raises ParameterError."""
    real = isinstance(x, (int, float, numbers.Real))  # int, float skip the slow ABC check
    try:
        v = int(x) if real and not isinstance(x, bool) else None
    except (OverflowError, ValueError):  # an infinity, NaN
        v = None
    if v is None or v != x or v < lo or (hi is not None and v > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ParameterError(f"{what} takes integers {span}, got {x!r}")
    return v


def check_exponent(x, what: str) -> float:
    """x as a float in [1, inf]; NaN, a bool or a string raises ParameterError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not x >= 1:
        raise ParameterError(f"need {what} >= 1 or {what} = inf, got {x!r}")
    return float(x)


def check_exponents(xs, what: str) -> tuple:
    """xs as a tuple of exponents, each taken by ``check_exponent`` and kept
    as given; a scalar or a string raises ParameterError."""
    if isinstance(xs, str) or not np.iterable(xs):
        raise ParameterError(f"{what} takes a sequence of exponents, got {xs!r}")
    xs = tuple(xs)
    for x in xs:
        check_exponent(x, what)
    return xs


def check_real(x, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """x as a finite float with lo < x < hi; a bool, a string, NaN or an
    infinity raises ParameterError."""
    v = x
    if type(v) is not float:  # a float needs no conversion
        real = isinstance(x, (int, numbers.Real))  # int skips the slow ABC check
        try:
            v = float(x) if real and not isinstance(x, bool) else math.nan
        except OverflowError:  # an int past the float range
            v = math.nan
    if not lo < v < hi:  # also false for NaN and for an infinity
        need = ("finite and positive" if (lo, hi) == (0, math.inf)
                else f"a finite number in ({lo}, {hi})")
        raise ParameterError(f"{what} must be {need}, got {x!r}")
    return v


def check_point(x, what: str, d: int, lo: float = -math.inf, hi: float = math.inf) -> np.ndarray:
    """A vector of R^d as floats: a scalar when d = 1, or a flat sequence or
    array of d coordinates that ``check_real`` takes in (lo, hi)."""
    if isinstance(x, np.ndarray):
        x = x.reshape(-1).tolist()
    v = [check_real(c, f"{what} coordinate", lo, hi) for c in (x if np.iterable(x) else (x,))]
    if len(v) != d:
        raise ParameterError(f"{what} has {len(v)} coordinates, expected {d}")
    return np.array(v)

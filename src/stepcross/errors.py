"""Exception types shared across the library, and the two input rules every
entry point applies: ``check_int`` for counts and indices, ``check_exponent``
for integrability and summation exponents.

The CLI maps these onto process exit codes: parameter/usage problems -> 2,
quadrature tolerance failures -> 3, capacity overruns -> 4.
"""

import numbers


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

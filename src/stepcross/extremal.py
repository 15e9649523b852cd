"""Extremal test functions living on the boundary shell of the cross.

Each construction concentrates mass on the balanced shell subfamily so that
the projection onto the cross annihilates it (for b >= 0 every shell octave
has weight above N), making the approximation error computable in closed
form up to a norm evaluation.  Three families target the three error
regimes: single modes and mode sums for mean-square error, localized packet
clouds for small integrability, and nonnegative packet stacks for the
uniform error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .besov import BesovParams
from .errors import ParameterError, check_real
from .indexsets import _tensor_rows, theta, theta_prime
from .kernels import k_packet, ks_vector
from .majorant import MajorantParams
from .trigpoly import TrigPolynomial

__all__ = [
    "WitnessConfig",
    "PacketLayout",
    "g1_single_mode",
    "g2_shell_modes",
    "g3_shell_normalized",
    "g4_packet_cloud",
    "g5_packet_normalized",
    "g6_packet_stack",
    "g6_peak_value",
    "g7_stack_normalized",
    "packet_layout",
    "WITNESS_BUILDERS",
]


@dataclass(frozen=True)
class WitnessConfig:
    """Inputs shared by the witness families.

    The normalized families g3, g5, g7 take the constants C5, C6, C7 of
    their unit-ball scalings as 1, so experiments report raw ratios.
    """

    omega: MajorantParams
    bp: BesovParams
    n: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_real(self.n, "witness threshold N", lo=1))

    @property
    def log_n(self) -> float:
        return math.log2(self.n)


def _shell_family(cfg: WitnessConfig):
    fam = theta_prime(cfg.omega, cfg.n)
    if len(fam) == 0:
        raise ParameterError(
            f"balanced shell subfamily is empty at N={cfg.n}; increase N")
    return fam


def g1_single_mode(cfg: WitnessConfig) -> TrigPolynomial:
    """N^{-1} times one exponential at the anchor of the lex-smallest shell
    box; the minimal witness for mean-square lower bounds."""
    fam = theta(cfg.omega, cfg.n)
    if len(fam) == 0:
        raise ParameterError(f"shell is empty at N={cfg.n}")
    anchor = ks_vector(fam.members[0])
    return TrigPolynomial(anchor.reshape(1, -1), [1.0 / cfg.n])


def g2_shell_modes(cfg: WitnessConfig) -> TrigPolynomial:
    """Sum of unit exponentials at the anchors of the balanced shell family."""
    fam = _shell_family(cfg)
    ks = np.stack([ks_vector(s) for s in fam])
    return TrigPolynomial(ks, np.ones(len(fam), dtype=complex))


def g3_shell_normalized(cfg: WitnessConfig) -> TrigPolynomial:
    """g2 scaled by N^{-1} (log2 N)^{-(d-1)/theta}: unit-ball size for the
    mean-square regime."""
    d, th = cfg.omega.d, cfg.bp.theta
    expo = -(d - 1) / th
    return g2_shell_modes(cfg) * (1.0 / cfg.n * cfg.log_n ** expo)


@dataclass(frozen=True)
class PacketLayout:
    """Geometry backing the packet cloud: common half-width u, cube side v,
    the v^d shell boxes used, and their assigned centers."""

    u: int
    v: int
    boxes: tuple[tuple[int, ...], ...]
    centers: np.ndarray = field(repr=False)


def _integer_root(m: int, d: int) -> int:
    v = max(1, round(m ** (1.0 / d)))
    while v ** d > m:
        v -= 1
    while (v + 1) ** d <= m:
        v += 1
    return v


def packet_layout(cfg: WitnessConfig) -> PacketLayout:
    fam = _shell_family(cfg)
    m = len(fam)
    d = cfg.omega.d
    u = 1 << ((m.bit_length() - 1) // d)
    v = _integer_root(m, d)
    boxes = fam.members[: v ** d]
    min_s = min(min(s) for s in boxes)
    if u >= 2 ** (min_s - 1):
        raise ParameterError(
            f"packet width u={u} collides with octave floor 2^{min_s - 1}; "
            f"the shell at N={cfg.n} is too shallow for a packet cloud")
    centers = _tensor_rows([(np.arange(v) + 0.5) * (2 * math.pi / v)] * d)
    return PacketLayout(u=u, v=v, boxes=boxes, centers=centers)


def g4_packet_cloud(cfg: WitnessConfig) -> TrigPolynomial:
    """One modulated packet per shell box, centers spread over a uniform
    cube so the peaks do not pile up."""
    layout = packet_layout(cfg)
    return TrigPolynomial.sum_of(cfg.omega.d, (
        k_packet(s, x_center=center, u=layout.u)
        for s, center in zip(layout.boxes, layout.centers)))


def g5_packet_normalized(cfg: WitnessConfig) -> TrigPolynomial:
    """g4 scaled by N^{-1} (log2 N)^{(d-1)(1/p - 1 - 1/theta)}: unit-ball
    size for the small-integrability regime."""
    d, p, th = cfg.omega.d, cfg.bp.p, cfg.bp.theta
    expo = (d - 1) * (1.0 / p - 1.0 - 1.0 / th)
    return g4_packet_cloud(cfg) * (1.0 / cfg.n * cfg.log_n ** expo)


def g6_packet_stack(cfg: WitnessConfig) -> TrigPolynomial:
    """Unmodulated default-width packets summed over the balanced shell;
    every box needs min s_j >= 2.  All coefficients are nonnegative, so the
    modulus peaks at the origin with the closed-form value g6_peak_value."""
    fam = _shell_family(cfg)
    if min(min(s) for s in fam) < 2:
        raise ParameterError(
            f"packet stack needs every shell coordinate >= 2 at N={cfg.n}")
    return TrigPolynomial.sum_of(cfg.omega.d, (k_packet(s) for s in fam))


def g6_peak_value(cfg: WitnessConfig) -> float:
    """Exact peak sum_s prod_j (2^{s_j - 2} + 1) of the packet stack."""
    fam = _shell_family(cfg)
    return float(sum(math.prod(2 ** (sj - 2) + 1 for sj in s) for s in fam))


def g7_stack_normalized(cfg: WitnessConfig) -> TrigPolynomial:
    """g6 scaled by N^{-1} (N^{1/r} (log2 N)^{-sum(b)/r})^{1/p - 1}
    (log2 N)^{-(d-1)/theta}: unit-ball size for the uniform regime."""
    om, p, th = cfg.omega, cfg.bp.p, cfg.bp.theta
    if p == math.inf:
        raise ParameterError("the uniform-regime witness needs p < inf")
    cross_size = cfg.n ** (1.0 / om.r) * cfg.log_n ** (-sum(om.b) / om.r)
    scale = 1.0 / cfg.n * cross_size ** (1.0 / p - 1.0) * cfg.log_n ** (-(om.d - 1) * (1.0 / th))
    return g6_packet_stack(cfg) * scale


WITNESS_BUILDERS = {
    "g1": g1_single_mode,
    "g2": g2_shell_modes,
    "g3": g3_shell_normalized,
    "g4": g4_packet_cloud,
    "g5": g5_packet_normalized,
    "g6": g6_packet_stack,
    "g7": g7_stack_normalized,
}

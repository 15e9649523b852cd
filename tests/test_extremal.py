import math

import numpy as np
import pytest

from stepcross.besov import BesovParams, besov_norm
from stepcross.errors import ParameterError
from stepcross.indexsets import theta_prime
from stepcross.extremal import (
    WitnessConfig,
    g1_single_mode,
    g2_shell_modes,
    g3_shell_normalized,
    g4_packet_cloud,
    g5_packet_normalized,
    g6_packet_stack,
    g6_peak_value,
    g7_stack_normalized,
    packet_layout,
)
from stepcross.kernels import k_packet
from stepcross.majorant import MajorantParams
from stepcross.trigpoly import TrigPolynomial


def cfg_for(d=1, r=1.0, b=0.0, l=2, n=8.0, p=2.0, theta=2.0, **kw):
    return WitnessConfig(omega=MajorantParams(d=d, r=r, b=b, l=l),
                         bp=BesovParams(p, theta), n=n, **kw)


class TestSingleMode:
    def test_frozen_example(self):
        g = g1_single_mode(cfg_for())
        assert g.n_terms == 1
        assert g.coefficient((12,)) == pytest.approx(0.125)

    def test_2d_anchor(self):
        g = g1_single_mode(cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12))
        # lex-smallest shell box is (1, 12): anchors 1 and 3 * 2^10
        assert g.coefficient((1, 3072)) == pytest.approx(2.0 ** -12)


class TestShellModes:
    def test_balanced_anchors(self):
        g = g2_shell_modes(cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12))
        assert g.n_terms == 4
        for s in [(3, 10), (4, 9), (5, 8), (6, 7)]:
            k = tuple(3 * 2 ** (sj - 2) for sj in s)
            assert g.coefficient(k) == 1.0

    def test_normalized_scale(self):
        n = 2 ** 12
        g = g3_shell_normalized(cfg_for(d=2, b=(0.0, 0.0), n=n, theta=2.0))
        expected = (1.0 / n) * 12.0 ** -0.5
        assert abs(g.cs[0]) == pytest.approx(expected, rel=1e-13)

    def test_c5_scales_linearly(self):
        a = g3_shell_normalized(cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12, c5=3.0))
        b = g3_shell_normalized(cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12))
        np.testing.assert_allclose(a.cs, 3.0 * b.cs)

    def test_empty_shell_rejected(self):
        with pytest.raises(ParameterError):
            g2_shell_modes(cfg_for(d=3, b=(0.0, 0.0, 0.0), r=1.5, n=2.0))


class TestPacketCloud:
    def test_layout(self):
        lay = packet_layout(cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12))
        assert lay.u == 2 and lay.v == 2
        assert len(lay.boxes) == 4
        assert lay.centers.shape == (4, 2)
        # centers form the offset grid (i + 1/2) * 2 pi / v
        np.testing.assert_allclose(lay.centers[0], [math.pi / 2, math.pi / 2])

    def test_peak_near_center(self):
        # each center carries its own packet's full mass (u+1)^d plus the
        # other packets' tails, which shift it by a bounded fraction
        cfg = cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12)
        lay = packet_layout(cfg)
        g = g4_packet_cloud(cfg)
        nominal = (lay.u + 1) ** 2
        center_vals = np.abs(g.evaluate(lay.centers))
        assert np.all(center_vals > 0.5 * nominal)
        assert np.all(center_vals < 1.5 * nominal)

    def test_spectrum_avoids_axes(self):
        g = g4_packet_cloud(cfg_for(d=2, b=(0.0, 0.0), n=2 ** 14))
        assert not np.any(g.ks == 0)

    def test_g5_scale(self):
        n = 2 ** 12
        g4 = g4_packet_cloud(cfg_for(d=2, b=(0.0, 0.0), n=n, p=2.0, theta=3.0))
        g5 = g5_packet_normalized(cfg_for(d=2, b=(0.0, 0.0), n=n, p=2.0, theta=3.0))
        expo = (2 - 1) * (1 / 2 - 1 - 1 / 3)
        np.testing.assert_allclose(g5.cs, g4.cs * (1 / n) * 12.0 ** expo)


class TestPacketStack:
    def test_peak_closed_form(self):
        cfg = cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12)
        expected = sum((2 ** (s1 - 2) + 1) * (2 ** (s2 - 2) + 1)
                       for s1, s2 in [(3, 10), (4, 9), (5, 8), (6, 7)])
        assert g6_peak_value(cfg) == expected
        g = g6_packet_stack(cfg)
        assert g.evaluate(np.zeros((1, 2)))[0].real == pytest.approx(expected, rel=1e-12)

    def test_peak_dominates_grid(self):
        cfg = cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12)
        g = g6_packet_stack(cfg)
        vals = np.abs(g.evaluate_grid((256, 256)))
        assert np.max(vals) == pytest.approx(g6_peak_value(cfg), rel=1e-12)

    def test_nonnegative_coefficients(self):
        g = g6_packet_stack(cfg_for(d=2, b=(0.0, 0.0), n=2 ** 12))
        assert np.all(g.cs.real >= 0) and np.all(g.cs.imag == 0)

    def test_shallow_shell_rejected(self):
        # at tiny N the shell still has boxes with s_j = 1
        with pytest.raises(ParameterError):
            g6_packet_stack(cfg_for(d=2, b=(0.0, 0.0), n=4.0))

    def test_g7_scale(self):
        n, r = 2 ** 12, 1.5
        cfg = cfg_for(d=2, r=r, b=(0.0, 0.0), n=n, p=2.0, theta=2.0)
        g6 = g6_packet_stack(cfg)
        g7 = g7_stack_normalized(cfg)
        cross = n ** (1 / r)
        scale = (1 / n) * cross ** (1 / 2 - 1) * 12.0 ** (-1 / 2)
        np.testing.assert_allclose(g7.cs, g6.cs * scale)

    def test_g7_needs_finite_p(self):
        with pytest.raises(ParameterError):
            g7_stack_normalized(cfg_for(d=1, n=2 ** 10, p=math.inf))


def pairwise_sum(d, parts):
    total = TrigPolynomial.zero(d)
    for part in parts:
        total = total + part
    return total


def assert_bit_identical(f, g):
    assert np.array_equal(f.ks, g.ks)
    assert f.cs.tobytes() == g.cs.tobytes()


class TestOnePassSum:
    # the families sum their packets in one canonicalization; the result
    # must equal the running pairwise sum bit for bit

    @pytest.mark.parametrize("n", [2 ** 12, 2 ** 15, 2 ** 18])
    def test_cloud(self, n):
        cfg = cfg_for(d=2, b=(0.0, 0.0), n=n, p=1.0)
        layout = packet_layout(cfg)
        want = pairwise_sum(2, [k_packet(s, x_center=c, u=layout.u)
                                for s, c in zip(layout.boxes, layout.centers)])
        assert_bit_identical(g4_packet_cloud(cfg), want)

    @pytest.mark.parametrize("n", [2 ** 12, 2 ** 15, 2 ** 18])
    def test_stack(self, n):
        cfg = cfg_for(d=2, r=1.5, b=(0.0, 0.0), n=n)
        fam = theta_prime(cfg.omega, n)
        assert_bit_identical(g6_packet_stack(cfg), pairwise_sum(2, [k_packet(s) for s in fam]))


class TestBallSize:
    # each normalized witness should have norm of order one, uniformly in N
    @pytest.mark.parametrize("n", [2 ** 10, 2 ** 14, 2 ** 18])
    def test_g3_norm_order_one(self, n):
        cfg = cfg_for(d=2, r=1.5, b=(0.0, 0.0), n=n, p=2.0, theta=2.0)
        val = besov_norm(g3_shell_normalized(cfg), cfg.omega, cfg.bp)
        assert 0.05 < val < 20.0

    @pytest.mark.parametrize("n", [2 ** 12, 2 ** 16])
    def test_g7_norm_order_one(self, n):
        cfg = cfg_for(d=2, r=1.5, b=(0.0, 0.0), n=n, p=2.0, theta=2.0)
        val = besov_norm(g7_stack_normalized(cfg), cfg.omega, cfg.bp)
        assert 0.02 < val < 50.0

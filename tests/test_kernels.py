import math

import numpy as np
import pytest

from stepcross import indexsets
from stepcross.errors import CapacityError, ParameterError
from stepcross.kernels import (
    band_apply,
    band_kernel,
    band_multiplier,
    fejer,
    fejer_coefficient,
    k_packet,
    ks_vector,
    vallee_poussin,
    vp_coefficient,
)
from stepcross.besov import BesovParams
from stepcross.extremal import WitnessConfig, packet_layout
from stepcross.trigpoly import TrigPolynomial, QuadratureSpec, lp_norm
from stepcross.verify import PLAIN_2D


class TestClassicalKernels:
    def test_vp_order_one_profile(self):
        # V_1(t) = 1 + 2 cos t: coefficients 1 at k in {-1, 0, 1}.
        v = vallee_poussin(1)
        assert v.ks.reshape(-1).tolist() == [-1, 0, 1]
        np.testing.assert_allclose(v.cs, 1.0)

    def test_vp_ramp_value(self):
        assert vp_coefficient(4, 6) == pytest.approx(0.5)
        assert vp_coefficient(4, [4, 7, 8]).tolist() == [1.0, 0.25, 0.0]

    def test_vp_peak(self):
        for n in (1, 2, 5, 32):
            v = vallee_poussin(n)
            assert v.evaluate(np.zeros((1, 1))).real[0] == pytest.approx(3 * n, rel=1e-13)

    def test_fejer_profile(self):
        np.testing.assert_allclose(fejer_coefficient(2, [0, 1, 2, 3]),
                                   [1.0, 2 / 3, 1 / 3, 0.0], atol=1e-15)

    def test_fejer_peak_and_mass(self):
        for n in (1, 3, 10):
            k = fejer(n)
            assert k.evaluate(np.zeros((1, 1))).real[0] == pytest.approx(n + 1, rel=1e-13)
            # nonnegative kernel: L1 norm equals the DC coefficient, exactly 1
            assert lp_norm(k, 1, QuadratureSpec(rel_tol=1e-9)) == pytest.approx(1.0, rel=1e-8)

    def test_fejer_nonnegative(self):
        vals = fejer(7).evaluate_grid((256,))
        assert np.min(vals.real) > -1e-12
        assert np.max(np.abs(vals.imag)) < 1e-12


class TestBandMultiplier:
    def test_octave_two_profile(self):
        ks = np.array([[1], [2], [3], [4], [5], [6], [7], [8]])
        vals = band_multiplier((2,), ks)
        assert vals.tolist() == [0.0, 0.0, 0.5, 1.0, 0.75, 0.5, 0.25, 0.0]

    def test_octave_one_keeps_dc(self):
        ks = np.array([[0], [1], [2], [3], [4]])
        vals = band_multiplier((1,), ks)
        assert vals.tolist() == [1.0, 1.0, 1.0, 0.5, 0.0]

    def test_plateau_at_octave_top(self):
        # the per-coordinate factor peaks at exactly |k| = 2^s
        for s in (2, 3, 5):
            vals = band_multiplier((s,), np.array([[2 ** s], [-(2 ** s)]]))
            np.testing.assert_array_equal(vals, 1.0)

    def test_support_window(self):
        s = 4
        ks = np.arange(-40, 41).reshape(-1, 1)
        vals = band_multiplier((s,), ks)
        inside = (np.abs(ks[:, 0]) > 2 ** (s - 1)) & (np.abs(ks[:, 0]) <= 2 ** (s + 1) - 1)
        assert np.all((vals > 0) == inside)

    def test_range(self):
        rng = np.random.default_rng(2)
        ks = rng.integers(-40, 41, size=(300, 2))
        vals = band_multiplier((3, 4), ks)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_partition_of_unity(self):
        # sum over s in [1, S]^d equals 1 exactly for |k_j| <= 2^{S-1}
        S = 5
        rng = np.random.default_rng(7)
        ks = rng.integers(-(2 ** (S - 1)), 2 ** (S - 1) + 1, size=(200, 2))
        total = np.zeros(ks.shape[0])
        for s1 in range(1, S + 1):
            for s2 in range(1, S + 1):
                total += band_multiplier((s1, s2), ks)
        np.testing.assert_array_equal(total, 1.0)

    def test_band_kernel_matches_multiplier(self):
        bk = band_kernel((2, 3))
        np.testing.assert_allclose(bk.cs.real, band_multiplier((2, 3), bk.ks), atol=0)
        assert not np.any(bk.cs == 0)

    def test_band_apply(self):
        f = TrigPolynomial([[1], [8], [16]], [1.0, 1.0, 1.0])
        g = band_apply(f, (3,))
        assert g.coefficient((8,)) == 1.0   # plateau at 2^s
        assert g.coefficient((1,)) == 0.0   # below the band
        assert g.coefficient((16,)) == 0.0  # beyond 2^{s+1} - 1 = 15

    def test_band_apply_ramp_value(self):
        f = TrigPolynomial([[12]], [1.0])
        g = band_apply(f, (3,))
        assert g.coefficient((12,)) == pytest.approx(0.5)

    def test_band_apply_validates_index(self):
        f = TrigPolynomial([[3, 5]], [1.0])
        for s in ((3,), (3, 2, 1), (0, 2)):
            with pytest.raises(ParameterError):
                band_apply(f, s)
        with pytest.raises(ParameterError):
            band_apply(TrigPolynomial.zero(2), (3,))


class TestKsVector:
    def test_values(self):
        assert ks_vector((3, 1)).tolist() == [6, 1]
        assert ks_vector((2,)).tolist() == [3]
        assert ks_vector((5, 4, 2)).tolist() == [24, 12, 3]

    def test_lands_in_own_octave(self):
        for s in [(1,), (2,), (6, 3), (2, 2, 4)]:
            k = ks_vector(s)
            for kj, sj in zip(k, s):
                assert 2 ** (sj - 1) <= kj < 2 ** sj


class TestPacket:
    def test_1d_profile(self):
        p = k_packet((3,))
        assert p.ks.reshape(-1).tolist() == [4, 5, 6, 7, 8]
        np.testing.assert_allclose(p.cs.real, [1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3], atol=1e-15)

    def test_peak_at_center(self):
        x0 = np.array([1.1, -0.4])
        p = k_packet((4, 5), x_center=x0)
        peak = abs(p.evaluate(x0.reshape(1, -1))[0])
        assert peak == pytest.approx((4 + 1) * (8 + 1), rel=1e-12)

    def test_peak_dominates(self):
        p = k_packet((4,), x_center=(0.3,))
        grid = np.linspace(0, 2 * math.pi, 512, endpoint=False).reshape(-1, 1)
        assert np.max(np.abs(p.evaluate(grid))) <= 5.0 + 1e-9

    def test_explicit_width(self):
        p = k_packet((5, 5), u=2)
        assert p.n_terms == 25
        assert p.coefficient((24, 24)) == pytest.approx(1.0)

    @pytest.mark.parametrize("s, u", [
        ((4,), [2.5]), ((4, 4), [2.7, 1.2]), ((4,), True), ((4,), 2.5),
        ((4, 4), [True, 2]), ((4, 4), [2]), ((4,), "2"), ((4,), float("nan")), ((4,), 0)])
    def test_width_checked_not_truncated(self, s, u):
        with pytest.raises(ParameterError):
            k_packet(s, u=u)

    def test_width_takes_an_integral_float(self):
        got, want = k_packet((4, 4), u=[2.0, np.int64(1)]), k_packet((4, 4), u=[2, 1])
        assert np.array_equal(got.ks, want.ks) and np.array_equal(got.cs, want.cs)
        assert got.n_terms == 15

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ParameterError):
            k_packet((2,), u=3)  # anchor 3, width 3 reaches k = 0

    def test_default_needs_deep_octave(self):
        with pytest.raises(ParameterError):
            k_packet((1, 3))

    def test_spectrum_stays_near_anchor(self):
        s = (4, 6)
        p = k_packet(s)
        anchor = ks_vector(s)
        for j in range(2):
            lo, hi = anchor[j] - 2 ** (s[j] - 2), anchor[j] + 2 ** (s[j] - 2)
            col = p.ks[:, j]
            assert col.min() == lo and col.max() == hi


@pytest.mark.parametrize("build, fits, too_big", [
    (fejer, 10, 11),                     # 2n + 1 terms
    (vallee_poussin, 5, 6),              # 4n - 1
    (band_kernel, (3,), (1, 3)),         # 22 and 7 * 22
    (k_packet, (4,), (4, 4)),            # (2 u + 1)^d, u = 4
])
def test_kernel_term_cap(monkeypatch, build, fits, too_big):
    # the term count is checked in Python ints before anything is allocated
    monkeypatch.setattr(indexsets, "MATERIALIZE_CAP", 22)
    assert build(fits).n_terms <= 22
    with pytest.raises(CapacityError):
        build(too_big)


class TestReferenceConstructions:
    """band_kernel and k_packet against the outer-product and weight-loop
    constructions they replaced, bit for bit."""

    @staticmethod
    def tensor(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @pytest.mark.parametrize("s", [(1,), (2,), (5,), (3, 4), (1, 7), (2, 2, 3)])
    def test_band_kernel(self, s):
        axes = []
        for sj in s:
            hi = 2 ** (sj + 1) - 1
            k = np.arange(-hi, hi + 1, dtype=np.int64)
            if sj == 1:
                v = vp_coefficient(2, k)
            else:
                v = vp_coefficient(2 ** sj, k) - vp_coefficient(2 ** (sj - 1), k)
            axes.append((k[v != 0], v[v != 0]))
        prof = axes[0][1]
        for _, v in axes[1:]:
            prof = np.multiply.outer(prof, v)
        got = band_kernel(s)
        assert np.array_equal(got.ks, self.tensor([k for k, _ in axes]))
        assert np.array_equal(got.cs, prof.reshape(-1))

    def test_k_packet_on_the_cloud_layout(self):
        layout = packet_layout(WitnessConfig(omega=PLAIN_2D, bp=BesovParams(2.0, 3.0), n=2.0 ** 12))
        for s, center in zip(layout.boxes, layout.centers):
            anchor = np.array([3 * 2 ** (sj - 2) if sj >= 2 else 1 for sj in s], dtype=np.int64)
            deltas = self.tensor([np.arange(-layout.u, layout.u + 1, dtype=np.int64)] * 2)
            weights = np.ones(deltas.shape[0])
            for j in range(2):
                weights *= 1.0 - np.abs(deltas[:, j]) / (layout.u + 1.0)
            phases = np.exp(-1j * (deltas.astype(float) @ center))
            got = k_packet(s, x_center=center, u=layout.u)
            assert np.array_equal(got.ks, anchor + deltas)
            assert np.array_equal(got.cs, weights * phases)

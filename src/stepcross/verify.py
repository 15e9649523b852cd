"""End-to-end verification battery.

Each section checks one distributable claim of the package: exact norm and
kernel identities, cardinality of the hyperbolic cross and its boundary
shell, tail domination, the different-metrics inequality, equivalence of
the two Besov-norm forms, and the measured approximation rates against the
predicted ones, including the extremal witness families.

Sections return plain data (a ``SectionResult``), so the same battery backs
the test suite and the command line.  All computations route through
FFT-based grid quadrature and fixed generator streams; nothing here depends
on evaluation order or thread count, so a report renders byte-identically
across runs.

``quick=True`` shrinks sample counts and grids for smoke runs; the checks
themselves are unchanged, but slow-to-stabilize assertions (the fitted rate
exponent) are reported without being enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .approx import classify_regime, fit_rate, project_q, rate_experiment, theoretical_rate
from .besov import BesovParams, besov_norm, besov_terms, combine, dyadic_blocks
from .errors import ParameterError
from .indexsets import (_tensor_rows, q_set, q_size, rho, size_prediction, tail_sum, theta,
                        theta_sum)
from .kernels import band_multiplier, fejer, vallee_poussin
from .majorant import MajorantParams
from .trigpoly import QuadratureSpec, TrigPolynomial, lp_norm, nikolskii_check, pow2ceil, random_in_spectrum
from .extremal import WitnessConfig, g5_packet_normalized, g6_peak_value, g7_stack_normalized

__all__ = [
    "SectionResult",
    "SECTION_NAMES",
    "fmt_value",
    "run_section",
    "run_verification",
    "format_report",
]

# The three majorant configurations exercised throughout: a plain 2-d
# cross, a 2-d cross with mixed logarithmic weights, and a plain 3-d cross.
PLAIN_2D = MajorantParams(d=2, r=1.0, b=(0.0, 0.0), l=2)
MIXED_2D = MajorantParams(d=2, r=1.5, b=(0.5, 0.25), l=2)
PLAIN_3D = MajorantParams(d=3, r=1.0, b=(0.0, 0.0, 0.0), l=2)
# Unweighted r = 1.5 variant for the rate experiments and uniform witness.
SMOOTH_2D = MajorantParams(d=2, r=1.5, b=(0.0, 0.0), l=2)

CONFIGS = (("plain2", PLAIN_2D), ("mixed2", MIXED_2D), ("plain3", PLAIN_3D))

IDENTITY_RTOL = 1e-10
KERNEL_L1_TOL = 1e-9
SIZE_BAND = 4.0
SHELL_BAND = 4.0
TAIL_BAND = 4.0
TAIL_CERT = 1e-6
EQUIV_BAND = 10.0
SHELL_RATE_BAND = 5.0
RHO_TOL = 0.15
G3_RATIO_BAND = 8.0
WITNESS_NORM_BAND = 4.0
WITNESS_RATIO_BAND = 8.0
PEAK_BAND = 4.0


@dataclass
class SectionResult:
    name: str
    passed: bool
    summary: str
    header: tuple[str, ...]
    rows: list[tuple]
    details: list[str] = field(default_factory=list)


def _band(values) -> float:
    lo, hi = min(values), max(values)
    if not (lo > 0 and math.isfinite(hi)):
        return math.inf
    return hi / lo


def _octave_range(lo: int, hi: int):
    return [2.0 ** e for e in range(lo, hi + 1)]


def _sample_polys(quick: bool):
    """Seeded test polynomials: 1-d octave blocks and 2-d cross spectra."""
    count = 3 if quick else 50
    polys = []
    for i in range(count):
        law = "gaussian" if i % 2 == 0 else "unit_complex"
        polys.append(random_in_spectrum(rho((3 + i % 4,)), seed=100 + i, law=law))
        polys.append(random_in_spectrum(q_set(PLAIN_2D, 64.0), seed=200 + i, law=law))
    return polys


# -- exact identities ------------------------------------------------------


def _profile_deviation() -> float:
    """Kernel and band coefficient profiles against their closed forms;
    both sides share the same arithmetic so the match must be bitwise."""
    from .kernels import fejer_coefficient, vp_coefficient

    dev = 0.0
    for n in (1, 2, 5, 16, 100):
        k = np.arange(-2 * n + 1, 2 * n)
        want_f = np.where(np.abs(k) <= n, 1.0 - np.abs(k) / (n + 1.0), 0.0)
        want_v = np.where(np.abs(k) <= n, 1.0,
                          np.clip((2.0 * n - np.abs(k)) / n, 0.0, None))
        dev = max(dev, float(np.max(np.abs(fejer_coefficient(n, k) - want_f))))
        dev = max(dev, float(np.max(np.abs(vp_coefficient(n, k) - want_v))))
    for s in (1, 2, 3, 5, 8):
        n = 1 << s
        k = np.arange(1, 2 * n).reshape(-1, 1)
        got = band_multiplier((s,), k)
        if s == 1:
            want = vp_coefficient(2, k[:, 0])
        else:
            want = vp_coefficient(n, k[:, 0]) - vp_coefficient(n // 2, k[:, 0])
        dev = max(dev, float(np.max(np.abs(got - want))))
    return dev


def check_identities(quick: bool = False) -> SectionResult:
    """Parseval and Littlewood-Paley p=2 identities on seeded polynomials,
    even-power exactness, kernel coefficient profiles, kernel peak and mass
    identities, and the exact partition of unity of the band system."""
    rows, details = [], []

    polys = _sample_polys(quick)
    dev_parseval = 0.0
    dev_lp = 0.0
    for f in polys:
        exact = lp_norm(f, 2)
        # twice the Nyquist grid of |f|^2
        shape = tuple(pow2ceil(2 * n + 1) * 2 for n in f.degrees)
        vals = f.evaluate_grid(shape)
        sampled = float(np.mean(vals.real ** 2 + vals.imag ** 2)) ** 0.5
        dev_parseval = max(dev_parseval, abs(sampled - exact) / exact)
        blocks = float(sum(lp_norm(g, 2) ** 2 for g in dyadic_blocks(f).values()))
        dev_lp = max(dev_lp, abs(blocks - exact ** 2) / exact ** 2)
    rows.append(("parseval_vs_grid", len(polys), dev_parseval, IDENTITY_RTOL))
    rows.append(("littlewood_paley_p2", len(polys), dev_lp, IDENTITY_RTOL))

    dev_even = 0.0
    for f in polys:
        exact = lp_norm(f, 4)
        shape = tuple(pow2ceil(4 * max(n, 1) + 1) * 2 for n in f.degrees)
        refined = float(np.mean(np.abs(f.evaluate_grid(shape)) ** 4)) ** 0.25
        dev_even = max(dev_even, abs(refined - exact) / exact)
    rows.append(("even_power_vs_fine_grid", len(polys), dev_even, IDENTITY_RTOL))

    dev_profile = _profile_deviation()
    rows.append(("coefficient_profiles", 5 + 5, dev_profile, 0.0))

    n_top = 64 if quick else 1024
    dev_peak = 0.0
    for n in range(1, n_top + 1):
        kp = float(np.sum(fejer(n).cs).real)
        vp = float(np.sum(vallee_poussin(n).cs).real)
        dev_peak = max(dev_peak, abs(kp - (n + 1)) / (n + 1), abs(vp - 3 * n) / (3 * n))
    rows.append(("kernel_peaks", 2 * n_top, dev_peak, IDENTITY_RTOL))

    l1_orders = (1, 3, 16) if quick else (1, 2, 3, 16, 100, 341, 1024)
    dev_l1 = max(abs(lp_norm(fejer(n), 1) - 1.0) for n in l1_orders)
    rows.append(("fejer_unit_mass", len(l1_orders), dev_l1, KERNEL_L1_TOL))

    # Partition of unity over the 8-band system, d = 2: dyadic multipliers
    # sum to 1 without rounding on the full grid |k_j| <= 128, plus spot
    # frequencies out to the plateau edge 256.
    side = np.arange(-128, 129)
    if quick:
        side = np.arange(-32, 33)
    extra = np.array([-256, -255, -129, 129, 255, 256])
    axis = np.unique(np.concatenate([side, extra]))
    pts = _tensor_rows([axis, axis])
    total = np.zeros(len(pts))
    for s1 in range(1, 9):
        for s2 in range(1, 9):
            total += band_multiplier((s1, s2), pts)
    partition_exact = bool(np.all(total == 1.0))
    rows.append(("band_partition_exact", len(pts), 0.0 if partition_exact else 1.0, 0.0))
    details.append(f"partition grid: {len(pts)} frequencies, 64 bands, exact: {partition_exact}")

    passed = (dev_parseval <= IDENTITY_RTOL and dev_lp <= IDENTITY_RTOL
              and dev_even <= IDENTITY_RTOL and dev_profile == 0.0
              and dev_peak <= IDENTITY_RTOL and dev_l1 <= KERNEL_L1_TOL
              and partition_exact)
    summary = (f"max deviations: parseval {dev_parseval:.3e}, block-sum {dev_lp:.3e}, "
               f"even {dev_even:.3e}, profiles {dev_profile:.1e}, peaks {dev_peak:.3e}, "
               f"mass {dev_l1:.3e}; partition exact: {partition_exact}")
    return SectionResult("identities", passed, summary,
                         ("check", "cases", "max_dev", "tol"), rows, details)


# -- cardinalities ---------------------------------------------------------


def _size_section(name: str, count, predict, tol: float) -> SectionResult:
    """count(om, n) / predict(om, n) over N = 2^6..2^20 for every config,
    passing when each config's ratio band stays within ``tol``."""
    rows, bands = [], {}
    for label, om in CONFIGS:
        ratios = []
        for n in _octave_range(6, 20):
            m = count(om, n)
            pred = predict(om, n)
            ratio = m / pred
            ratios.append(ratio)
            rows.append((label, n, m, pred, ratio))
        bands[label] = _band(ratios)
    passed = all(v <= tol for v in bands.values())
    summary = "ratio bands: " + ", ".join(
        f"{k} {v:.3f}" for k, v in bands.items()) + f" (tol {tol})"
    return SectionResult(name, passed, summary,
                         ("config", "n", "count", "predicted", "ratio"), rows)


def check_cross_size(quick: bool = False) -> SectionResult:
    """Measured cross cardinality against N^{1/r} L^{(d-1) - sum(b)/r}."""
    return _size_section("cross-size", q_size, size_prediction, SIZE_BAND)


def check_shell_size(quick: bool = False) -> SectionResult:
    """Boundary shell cardinality against L^{d-1}."""
    return _size_section("shell-size", lambda om, n: len(theta(om, n)),
                         lambda om, n: math.log2(n) ** (om.d - 1), SHELL_BAND)


# -- tail domination -------------------------------------------------------


def check_tail_domination(quick: bool = False) -> SectionResult:
    """The certified tail beyond the cross is dominated by the boundary
    shell sum, uniformly in N, for p in {1, 2} and shifts beta in {0, r/2}."""
    rows = []
    worst_band = 0.0
    worst_cert = 0.0
    c_uniform = 0.0
    for label, om in CONFIGS:
        for p in (1.0, 2.0):
            for beta in (0.0, om.r / 2):
                ratios = []
                for n in _octave_range(6, 20):
                    res = tail_sum(om, n, p, beta)
                    th = theta_sum(om, n, p, beta)
                    ratio = res.value / th
                    ratios.append(ratio)
                    worst_cert = max(worst_cert, res.relative_bound)
                    rows.append((label, p, beta, n, res.value, th, ratio, res.relative_bound))
                worst_band = max(worst_band, _band(ratios))
                c_uniform = max(c_uniform, max(ratios))
    passed = worst_band <= TAIL_BAND and worst_cert <= TAIL_CERT
    summary = (f"uniform constant C = {c_uniform:.4f}, worst series band {worst_band:.3f} "
               f"(tol {TAIL_BAND}), worst certification {worst_cert:.2e} (tol {TAIL_CERT})")
    return SectionResult("tail-domination", passed, summary,
                         ("config", "p", "beta", "n", "tail", "shell_sum", "ratio", "cert"), rows)


# -- different-metrics inequality ------------------------------------------


def check_nikolskii(quick: bool = False) -> SectionResult:
    """No seeded polynomial violates the degree-weighted norm comparison."""
    combos = ((1.0, 2.0), (1.5, 4.0), (2.0, math.inf))
    per_combo = 2 if quick else 84
    # near-zeros of |f| slow the grid quadrature to first order; 1e-5 is
    # ample next to the factor-2^d slack in the inequality itself
    quad = QuadratureSpec(rel_tol=1e-5)
    rows = []
    total_violations = 0
    for ci, (q, p) in enumerate(combos):
        for d in (1, 2):
            violations = 0
            min_margin = math.inf
            for i in range(per_combo):
                if d == 1:
                    spec = rho((2 + i % 4,))
                else:
                    spec = rho((1 + i % 3, 1 + (i // 3) % 3))
                law = "gaussian" if i % 2 == 0 else "unit_complex"
                f = random_in_spectrum(spec, seed=7000 + 997 * ci + 10 * i + d, law=law)
                res = nikolskii_check(f, q, p, quad)
                if not res.passed:
                    violations += 1
                min_margin = min(min_margin, res.margin)
            total_violations += violations
            rows.append((q, p, d, per_combo, violations, min_margin))
    passed = total_violations == 0
    summary = (f"{len(rows) * per_combo} polynomials, {total_violations} violations; "
               f"tightest margin {min(r[5] for r in rows):.4f}")
    return SectionResult("nikolskii", passed, summary,
                         ("q", "p", "d", "cases", "violations", "min_margin"), rows)


# -- equivalence of the two norm forms -------------------------------------


def check_besov_equivalence(quick: bool = False) -> SectionResult:
    """Block form vs band form of the smoothness norm on random cross
    polynomials: the ratio stays within a fixed band for every (p, theta)."""
    om = PLAIN_2D
    n_spec = 2.0 ** 10 if quick else 2.0 ** 12
    count = 4 if quick else 200
    ps = (1.5, 2.0, 4.0)
    thetas = (1.0, 2.0, math.inf)
    quad = QuadratureSpec(rel_tol=1e-3)
    spectrum = q_set(om, n_spec)

    ratios = {(p, t): [] for p in ps for t in thetas}
    for i in range(count):
        f = random_in_spectrum(spectrum, seed=3000 + i, law="gaussian")
        block_terms = besov_terms(f, om, ps, "blocks", quad)[1]
        band_terms = besov_terms(f, om, ps, "bands", quad)[1]
        for p, blocks, bands in zip(ps, block_terms, band_terms):
            for t in thetas:
                ratios[(p, t)].append(combine(blocks, t) / combine(bands, t))

    rows = []
    worst = 0.0
    for p in ps:
        for t in thetas:
            vals = ratios[(p, t)]
            band = _band(vals)
            worst = max(worst, band)
            rows.append((p, t, min(vals), max(vals), band))
    passed = worst <= EQUIV_BAND
    summary = (f"{count} polynomials on the cross at N={n_spec:.0f}; "
               f"worst ratio band {worst:.3f} (tol {EQUIV_BAND})")
    return SectionResult("besov-equivalence", passed, summary,
                         ("p", "theta", "ratio_min", "ratio_max", "band"), rows)


# -- measured rates ---------------------------------------------------------


def check_mean_square_rates(quick: bool = False) -> SectionResult:
    """Shell-family projection errors track the predicted mean-square rate;
    the fitted main exponent recovers r; the deterministic shell witness
    stays within a fixed band of the prediction."""
    hi = 13 if quick else 18
    n_grid = _octave_range(8, hi)
    rows, details = [], []
    bands = {}
    rho_ok = True
    for label, om in (("smooth2", SMOOTH_2D), ("mixed2", MIXED_2D)):
        records = rate_experiment(om, BesovParams(2.0, 2.0), 2.0, "shell",
                                  n_grid, samples=3, seed=7)
        for rec in records:
            rows.append((label + "/shell", rec.n, rec.m, rec.error, rec.theory, rec.ratio))
        bands[label] = _band([rec.ratio for rec in records])
        if label == "smooth2":
            fit = fit_rate(records)
            details.append(
                f"fitted exponents on smooth2: rho_hat={fit.rho_hat:.4f} (target 1.5), "
                f"log_hat={fit.log_hat:.3f}, two_point={fit.two_point_slope:.4f}, "
                f"cond={fit.condition:.1f}")
            rho_ok = abs(fit.rho_hat - 1.5) <= RHO_TOL

    g3_records = rate_experiment(SMOOTH_2D, BesovParams(2.0, 4.0), 2.0, "g3",
                                 n_grid, samples=1, seed=0)
    for rec in g3_records:
        rows.append(("smooth2/g3", rec.n, rec.m, rec.error, rec.theory, rec.ratio))
    g3_band = _band([rec.ratio for rec in g3_records])

    shell_ok = all(v <= SHELL_RATE_BAND for v in bands.values())
    if quick:
        rho_ok = True  # preasymptotic at short ranges; reported, not enforced
    passed = shell_ok and rho_ok and g3_band <= G3_RATIO_BAND
    summary = ("shell ratio bands: "
               + ", ".join(f"{k} {v:.3f}" for k, v in bands.items())
               + f" (tol {SHELL_RATE_BAND}); g3 band {g3_band:.3f} (tol {G3_RATIO_BAND})")
    return SectionResult("mean-square-rates", passed, summary,
                         ("family", "n", "m", "error", "theory", "ratio"), rows, details)


def check_averaged_witness(quick: bool = False) -> SectionResult:
    """The packet-cloud witness: bounded norm, zero cross projection, and
    L1 error within a fixed band of the predicted rate at the p = 2 edge
    of the small-integrability regime."""
    om, bp, q = PLAIN_2D, BesovParams(2.0, 3.0), 1.0
    hi = 14 if quick else 18
    quad = QuadratureSpec(rel_tol=1e-3)
    regime = classify_regime(om, bp.p, q, bp.theta)
    rows = []
    norms, ratios, proj_zero = [], [], True
    for n in _octave_range(12, hi):
        cfg = WitnessConfig(omega=om, bp=bp, n=n)
        f = g5_packet_normalized(cfg)
        proj_zero &= project_q(f, om, n).is_zero
        bnorm = besov_norm(f, om, bp)
        err = lp_norm(f, q, quad)
        m = q_size(om, n)
        thy = theoretical_rate(om, regime, m)
        norms.append(bnorm)
        ratios.append(err / thy)
        rows.append((n, m, bnorm, err, thy, err / thy))
    norm_band = _band(norms)
    ratio_band = _band(ratios)
    passed = proj_zero and norm_band <= WITNESS_NORM_BAND and ratio_band <= WITNESS_RATIO_BAND
    summary = (f"projection vanishes: {proj_zero}; norm band {norm_band:.3f} "
               f"(tol {WITNESS_NORM_BAND}); error/theory band {ratio_band:.3f} "
               f"(tol {WITNESS_RATIO_BAND})")
    return SectionResult("averaged-witness", passed, summary,
                         ("n", "m", "norm", "error", "theory", "ratio"), rows)


def check_uniform_witness(quick: bool = False) -> SectionResult:
    """The packet-stack witness: bounded norm, peak tracking the cross
    cardinality, zero projection, and sup error within a fixed band of the
    predicted uniform rate."""
    om, bp, q = SMOOTH_2D, BesovParams(2.0, 2.0), math.inf
    hi = 14 if quick else 18
    regime = classify_regime(om, bp.p, q, bp.theta)
    rows = []
    norms, ratios, peaks, proj_zero = [], [], [], True
    dev_closed = 0.0
    for n in _octave_range(12, hi):
        cfg = WitnessConfig(omega=om, bp=bp, n=n)
        f = g7_stack_normalized(cfg)
        proj_zero &= project_q(f, om, n).is_zero
        bnorm = besov_norm(f, om, bp)
        err = lp_norm(f, q)
        # nonnegative coefficients peak at the origin, so the sampled sup
        # must match the closed-form coefficient sum
        closed = float(np.sum(f.cs).real)
        dev_closed = max(dev_closed, abs(err - closed) / closed)
        peak_ratio = g6_peak_value(cfg) / size_prediction(om, n)
        m = q_size(om, n)
        thy = theoretical_rate(om, regime, m)
        norms.append(bnorm)
        ratios.append(err / thy)
        peaks.append(peak_ratio)
        rows.append((n, m, bnorm, peak_ratio, err, thy, err / thy))
    norm_band = _band(norms)
    peak_band = _band(peaks)
    ratio_band = _band(ratios)
    passed = (proj_zero and dev_closed <= 1e-9 and norm_band <= WITNESS_NORM_BAND
              and peak_band <= PEAK_BAND and ratio_band <= WITNESS_RATIO_BAND)
    summary = (f"projection vanishes: {proj_zero}; sup vs closed form {dev_closed:.2e}; "
               f"norm band {norm_band:.3f}, peak band {peak_band:.3f} (tol {PEAK_BAND}), "
               f"error/theory band {ratio_band:.3f} (tol {WITNESS_RATIO_BAND})")
    return SectionResult("uniform-witness", passed, summary,
                         ("n", "m", "norm", "peak_ratio", "error", "theory", "ratio"), rows)


# -- driver -----------------------------------------------------------------


_SECTIONS = {
    "identities": check_identities,
    "cross-size": check_cross_size,
    "shell-size": check_shell_size,
    "tail-domination": check_tail_domination,
    "nikolskii": check_nikolskii,
    "besov-equivalence": check_besov_equivalence,
    "mean-square-rates": check_mean_square_rates,
    "averaged-witness": check_averaged_witness,
    "uniform-witness": check_uniform_witness,
}

SECTION_NAMES = tuple(_SECTIONS)


def run_section(name: str, quick: bool = False) -> SectionResult:
    if name not in _SECTIONS:
        raise ParameterError(
            f"unknown section {name!r}; choose from {', '.join(SECTION_NAMES)}")
    return _SECTIONS[name](quick)


def run_verification(names=None, quick: bool = False) -> list[SectionResult]:
    names = list(names) if names is not None else list(SECTION_NAMES)
    if not names:
        raise ParameterError(f"no section named; choose from {', '.join(SECTION_NAMES)}")
    return [run_section(name, quick) for name in names]


def fmt_value(value) -> str:
    """Stable scalar formatting shared by every text emitter."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return str(value)


def format_report(results: list[SectionResult], quick: bool = False) -> str:
    """Render results as a stable plain-text report (no timestamps, no
    environment echoes, so repeated runs compare byte for byte)."""
    lines = ["# verification report", f"# mode: {'quick' if quick else 'full'}"]
    for res in results:
        lines.append("")
        lines.append(f"== {res.name} ==")
        lines.append(",".join(res.header))
        for row in res.rows:
            lines.append(",".join(fmt_value(v) for v in row))
        for det in res.details:
            lines.append(f"# {det}")
        lines.append(f"# {res.summary}")
        lines.append(f"result: {'PASS' if res.passed else 'FAIL'}")
    n_pass = sum(res.passed for res in results)
    lines.append("")
    lines.append(f"overall: {'PASS' if n_pass == len(results) else 'FAIL'} "
                 f"({n_pass}/{len(results)} sections)")
    return "\n".join(lines) + "\n"

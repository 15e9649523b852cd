"""The benchmark's workloads: inputs built from a seed, items, and checks.

A workload is a closed loop: one caller runs items back to back.  Items
come in passes, a fixed list per pass, and the runner stops at a pass
boundary once the run time is used, so every count per pass is exact.
An item returns the list of its failed checks (empty when it passes);
``end_of_pass`` adds checks that span several items of a pass.

Every stepcross call goes through a module attribute (``sc.lp_norm``, not a
name imported at load time), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import stepcross as sc
import stepcross.cli  # noqa: F401  (battery_quick calls sc.cli.main)
import stepcross.verify as battery

HERE = Path(__file__).resolve().parent

# -- besov_equiv -------------------------------------------------------------

BESOV_OMEGA = battery.PLAIN_2D
BESOV_N = 2.0 ** 12
BESOV_PS = (1.5, 2.0, 4.0)
BESOV_THETA = 2.0
BESOV_REL_TOL = 1e-3
# Values at rel_tol=1e-3 must lie within this many rel_tol of the 1e-6
# references; adaptive refinement stops on a step change, not an error bound.
REF_MULTIPLE = 2.0
POOL_SEEDS = tuple(range(3000, 3016))
REFS_FILE = HERE / "besov_refs.json"

# -- cross_sets --------------------------------------------------------------

CROSS_CONFIGS = (
    ("plain2", battery.PLAIN_2D),
    ("mixed2", battery.MIXED_2D),
    ("plain3", battery.PLAIN_3D),
    ("mixed3", sc.MajorantParams(d=3, r=1.5, b=(0.5, 0.25, -0.25), l=2)),
    ("thirds2", sc.MajorantParams(d=2, r=1.0, b=(1 / 3, 1 / 3), l=2)),
)
CROSS_EXPONENTS = range(6, 41)
# The projection step runs where Q(2^l N) holds at most this many terms.
PROJECTION_MAX_TERMS = 1 << 16

# -- rates_witness -----------------------------------------------------------

SMALL_P_EXPONENTS = range(8, 15)
LARGE_P_EXPONENTS = range(8, 19)
WITNESS_EXPONENTS = range(12, 19)
LARGE_P_SAMPLES = 3
G7_CLOSED_TOL = 1e-9

# Failures the seed commit is known to produce: (item label, check) -> cause.
# They count in ``failed``; any failure not listed here makes ``correct`` false.
KNOWN_FAILURES = {
    **{(f"mixed2/N=2^{e}", "tail_sum p=2 beta=0"): "CapacityError refusal"
       for e in range(30, 41)},
    ("thirds2/N=2^7", "projection size"): "tie at w(s) = N",
    ("thirds2/N=2^7", "theta set"): "tie at w(s) = N",
    **{(f"mixed3/N=2^{e}", "theta set"): "tie at w(s) = N"
       for e in (25, 28, 30, 35, 37)},
}


def derived_seed(*parts: int) -> int:
    """A 32-bit seed that depends on every part."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def mixed_order(items: list) -> list:
    """Items in one fixed pseudo-random order.  Machine speed drifts over
    seconds, so a pass that ran similar items back to back would time its
    median item in one stretch of that drift; mixed, the median samples the
    whole run.  The order is the same in every run and pass because the
    allocator's peak footprint depends on it."""
    out = list(items)
    random.Random(0).shuffle(out)
    return out


@dataclass
class Item:
    label: str
    group: str
    run: Callable[[], list]
    data: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: Callable[[int], list]
    end_of_pass: Callable[[list], dict] = lambda records: {}


def _band(values) -> float:
    """max/min of positive values; inf when that is undefined."""
    lo, hi = min(values), max(values)
    return hi / lo if lo > 0 and math.isfinite(hi) else math.inf


# -- besov_equiv -------------------------------------------------------------


def load_refs() -> dict:
    return json.loads(REFS_FILE.read_text())["refs"]


def build_besov_equiv(seed: int) -> Workload:
    """Gaussian polynomials on the plain 2-d cross Q(2^12), in an order
    drawn from the seed; one pass is one polynomial at every p."""
    refs = load_refs()
    order = random.Random(seed).sample(POOL_SEEDS, len(POOL_SEEDS))
    spectrum = sc.q_set(BESOV_OMEGA, BESOV_N)
    polys = [(s, sc.random_in_spectrum(spectrum, seed=s, law="gaussian")) for s in order]
    quad = sc.QuadratureSpec(rel_tol=BESOV_REL_TOL)
    tol = REF_MULTIPLE * BESOV_REL_TOL

    def item(poly_seed, f, p):
        bp = sc.BesovParams(p, BESOV_THETA)
        data = {}

        def run():
            blocks = sc.besov_norm_blocks(f, BESOV_OMEGA, bp, quad)
            bands = sc.besov_norm_vp(f, BESOV_OMEGA, bp, quad)
            ref_blocks, ref_bands = refs[str(poly_seed)][repr(p)]
            data["ratio"] = blocks / bands
            bad = []
            if not abs(blocks / ref_blocks - 1.0) <= tol:
                bad.append(f"blocks {blocks!r} vs reference {ref_blocks!r}")
            if not abs(bands / ref_bands - 1.0) <= tol:
                bad.append(f"bands {bands!r} vs reference {ref_bands!r}")
            if not (1.0 / battery.EQUIV_BAND <= data["ratio"] <= battery.EQUIV_BAND):
                bad.append(f"block/band ratio {data['ratio']!r}")
            return bad

        return Item(f"poly{poly_seed}/p={p}", f"p={p}", run, data)

    def items(pass_no):
        poly_seed, f = polys[pass_no % len(polys)]
        return [item(poly_seed, f, p) for p in BESOV_PS]

    ratios: dict[str, list] = {}

    def end_of_pass(records):
        # the block/band ratio band over every item of the run so far
        out = {}
        for rec in records:
            if "ratio" in rec.data:
                ratios.setdefault(rec.group, []).append(rec.data["ratio"])
        for group, vals in ratios.items():
            band = _band(vals)
            if band > battery.EQUIV_BAND:
                for rec in records:
                    if rec.group == group:
                        out.setdefault(rec.label, []).append(f"ratio band {band!r}")
        return out

    return Workload(items, end_of_pass)


# -- cross_sets --------------------------------------------------------------


def build_cross_sets(seed: int) -> Workload:
    """Five majorants over octave N = 2^6 .. 2^40; one pass is every
    (config, N), in a fixed mixed order."""
    plan = []
    for ci, (label, om) in enumerate(CROSS_CONFIGS):
        for e in CROSS_EXPONENTS:
            plan.append((label, om, e, derived_seed(seed, ci, e)))

    def item(label, om, e, poly_seed):
        n = 2.0 ** e

        def run():
            bad = []
            inner = sc.chi(om, n)
            shell = sc.theta(om, n)
            balanced = sc.theta_prime(om, n)
            m = sc.q_size(om, n)
            sc.size_prediction(om, n)
            outer = sc.chi(om, n * 2.0 ** om.l)
            if set(shell.members) != set(outer.members) - set(inner.members):
                bad.append("theta set")
            if not set(balanced.members) <= set(shell.members):
                bad.append("theta_prime subset")
            for p in (1.0, 2.0):
                for beta in (0.0, om.r / 2):
                    tag = f"tail_sum p={p:g} beta={beta:g}"
                    try:
                        res = sc.tail_sum(om, n, p, beta)
                    except sc.CapacityError:
                        bad.append(tag)
                    else:
                        if not res.relative_bound <= battery.TAIL_CERT:
                            bad.append(tag)
                    shell_sum = sc.theta_sum(om, n, p, beta)
                    if not (math.isfinite(shell_sum) and shell_sum >= 0):
                        bad.append(f"theta_sum p={p:g} beta={beta:g}")
            spectrum = sc.SpectrumSet(d=om.d, boxes=outer.members)  # Q(2^l N)
            if spectrum.size <= PROJECTION_MAX_TERMS:
                f = sc.random_in_spectrum(spectrum, seed=poly_seed, law="gaussian")
                if sc.project_q(f, om, n).n_terms != m:
                    bad.append("projection size")
            return bad

        return Item(f"{label}/N=2^{e}", label, run)

    def items(pass_no):
        return mixed_order([item(*row) for row in plan])

    return Workload(items)


# -- rates_witness -----------------------------------------------------------


def build_rates_witness(seed: int) -> Workload:
    """Rate experiments and the witnesses: one pass is every (experiment, N)
    record of the four parts, in a fixed mixed order."""
    om_s, om_m, om_p = battery.SMOOTH_2D, battery.MIXED_2D, battery.PLAIN_2D
    quad = sc.QuadratureSpec(rel_tol=1e-3)
    plan = []
    for e in SMALL_P_EXPONENTS:
        plan.append(("small_p/smooth2", om_s, e))
    for label, om in (("large_p/smooth2", om_s), ("large_p/mixed2", om_m)):
        for e in LARGE_P_EXPONENTS:
            plan.append((label, om, e))
    for e in WITNESS_EXPONENTS:
        plan.append(("g5", om_p, e))
    for e in WITNESS_EXPONENTS:
        plan.append(("g7", om_s, e))

    def rate_item(group, om, e, bp, q, samples, run_seed, q_spec):
        data = {}

        def run():
            (rec,) = sc.rate_experiment(om, bp, q, "shell", [2.0 ** e],
                                        samples=samples, seed=run_seed, quad=q_spec)
            data["record"] = rec
            return [] if rec.error > 0 and math.isfinite(rec.ratio) else ["record"]

        return Item(f"{group}/N=2^{e}", group, run, data)

    def g5_item(om, e):
        bp = sc.BesovParams(2.0, 3.0)
        regime = sc.classify_regime(om, bp.p, 1.0, bp.theta)
        data = {}

        def run():
            n = 2.0 ** e
            cfg = sc.WitnessConfig(omega=om, bp=bp, n=n)
            f = sc.g5_packet_normalized(cfg)
            bad = [] if sc.project_q(f, om, n).is_zero else ["projection vanishes"]
            data["norm"] = sc.besov_norm(f, om, bp)
            err = sc.lp_norm(f, 1.0, quad)
            data["ratio"] = err / sc.theoretical_rate(om, regime, sc.q_size(om, n))
            return bad

        return Item(f"g5/N=2^{e}", "g5", run, data)

    def g7_item(om, e):
        bp = sc.BesovParams(2.0, 2.0)
        regime = sc.classify_regime(om, bp.p, math.inf, bp.theta)
        data = {}

        def run():
            n = 2.0 ** e
            cfg = sc.WitnessConfig(omega=om, bp=bp, n=n)
            f = sc.g7_stack_normalized(cfg)
            bad = [] if sc.project_q(f, om, n).is_zero else ["projection vanishes"]
            data["norm"] = sc.besov_norm(f, om, bp)
            err = sc.lp_norm(f, math.inf)
            # g7 is g6 times this scale, and g6 peaks at g6_peak_value
            log_n = math.log2(n)
            cross = n ** (1.0 / om.r) * log_n ** (-sum(om.b) / om.r)
            scale = cross ** (1.0 / bp.p - 1.0) * log_n ** (-(om.d - 1) / bp.theta) / n
            closed = scale * sc.g6_peak_value(cfg)
            if not abs(err - closed) <= G7_CLOSED_TOL * closed:
                bad.append(f"sup {err!r} vs closed form {closed!r}")
            data["ratio"] = err / sc.theoretical_rate(om, regime, sc.q_size(om, n))
            return bad

        return Item(f"g7/N=2^{e}", "g7", run, data)

    def items(pass_no):
        out = []
        for k, (group, om, e) in enumerate(plan):
            run_seed = derived_seed(seed, pass_no, k)
            if group.startswith("small_p"):
                out.append(rate_item(group, om, e, sc.BesovParams(1.5, 2.0), 1.0, 1,
                                     run_seed, quad))
            elif group.startswith("large_p"):
                out.append(rate_item(group, om, e, sc.BesovParams(2.0, 2.0), 2.0,
                                     LARGE_P_SAMPLES, run_seed, None))
            elif group == "g5":
                out.append(g5_item(om, e))
            else:
                out.append(g7_item(om, e))
        return mixed_order(out)

    def end_of_pass(records):
        fails: dict[str, list] = {}
        groups: dict[str, list] = {}
        for rec in records:
            groups.setdefault(rec.group, []).append(rec)

        def fail_group(group, why):
            for rec in groups[group]:
                fails.setdefault(rec.label, []).append(why)

        for group, recs in groups.items():
            if any(not rec.data for rec in recs):
                continue  # an item raised; it already counts as failed
            if group.startswith(("small_p", "large_p")):
                band = _band([rec.data["record"].ratio for rec in recs])
                if band > battery.SHELL_RATE_BAND:
                    fail_group(group, f"ratio band {band!r}")
            else:
                nb = _band([rec.data["norm"] for rec in recs])
                rb = _band([rec.data["ratio"] for rec in recs])
                if nb > battery.WITNESS_NORM_BAND:
                    fail_group(group, f"norm band {nb!r}")
                if rb > battery.WITNESS_RATIO_BAND:
                    fail_group(group, f"ratio band {rb!r}")
        recs = groups.get("large_p/smooth2", [])
        if recs and all(rec.data for rec in recs):
            fit = sc.fit_rate([rec.data["record"] for rec in recs])
            if not abs(fit.rho_hat - om_s.r) <= battery.RHO_TOL:
                fail_group("large_p/smooth2", f"rho_hat {fit.rho_hat!r}")
        return fails

    return Workload(items, end_of_pass)


# -- battery_quick -----------------------------------------------------------


def build_battery_quick(seed: int) -> Workload:
    """``stepcross verify-all --quick`` in-process; the battery's inputs are
    fixed, so the seed changes nothing."""
    first: list[str] = []

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sc.cli.main(["verify-all", "--quick"])
        text = out.getvalue()
        if not first:
            first.append(text)
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if "overall: PASS (9/9 sections)" not in text:
            bad.append("overall verdict")
        if text != first[0]:
            bad.append("report differs from the first pass")
        return bad

    def items(pass_no):
        return [Item("verify-all --quick", "battery", run)]

    return Workload(items)


SETUPS = {
    "besov_equiv": build_besov_equiv,
    "cross_sets": build_cross_sets,
    "rates_witness": build_rates_witness,
    "battery_quick": build_battery_quick,
}
WORKLOADS = tuple(SETUPS)

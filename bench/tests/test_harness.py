"""Tests of the benchmark harness itself: span arithmetic, the wrapper
installer, and every workload at a tiny size.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads
import stepcross as sc
from tracing import Span

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, work=None, error=None, label=None):
    return Span(name, start, end, parent, 0, label, work, error)


# -- span arithmetic ------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 4.0, parent=0),      # overlaps a: the union counts once
        span("c", 8.0, 12.0, parent=0),     # runs past the parent: clipped
        span("leaf", 1.5, 2.5, parent=1),   # a grandchild does not touch root
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_self_time_of_leaf_and_empty():
    assert tracing.self_times([span("x", 2.0, 2.5)]) == pytest.approx([0.5])
    assert tracing.self_times([]) == []


def test_layer_ratios_on_synthetic_tree():
    spans = [
        span("besov.besov_norm_blocks", 0.0, 10.0),
        span("trigpoly.lp_norm", 1.0, 4.0, parent=0),
        span("trigpoly.evaluate_grid", 1.0, 2.0, parent=1, work=64),
        span("trigpoly.evaluate_grid", 2.0, 3.0, parent=1, work=256),
        span("trigpoly.lp_norm", 5.0, 6.0, parent=0),   # Parseval: no grid
        span("trigpoly.lp_norm", 7.0, 8.0, parent=0, error="QuadratureAccuracyError"),
        span("trigpoly.evaluate_grid", 7.0, 7.5, parent=5, work=64),
        span("kernels.band_apply", 11.0, 12.0, work=True),
        span("kernels.band_apply", 12.0, 13.0, work=False),
        span("approx.project_q", 13.0, 14.0, work=(3, 12)),
        span("indexsets.tail_sum", 14.0, 15.0, error="CapacityError"),
        span("verify.run_section", 15.0, 17.0, label="nikolskii"),
    ]
    out = tracing.layer_metrics(spans, passes=2)
    assert out["trigpoly.lp_norm.calls"] == 1.5
    assert out["trigpoly.lp_norm.grids_per_call"] == 1.5       # 3 grids / 2 sampling calls
    assert out["trigpoly.lp_norm.accuracy_errors"] == 0.5
    assert out["trigpoly.evaluate_grid.points"] == 192
    assert out["trigpoly.evaluate_grid.bytes_computed"] == 192 * tracing.GRID_BYTES_PER_POINT
    assert out["trigpoly.lp_norm.self_s"] == pytest.approx((1.0 + 1.0 + 0.5) / 2)
    assert out["besov.besov_norm_blocks.self_s"] == pytest.approx((10.0 - 5.0) / 2)
    assert out["besov.terms_per_norm"] == 3.0
    assert out["kernels.band_apply.zero_frac"] == 0.5
    assert out["approx.project_q.kept_frac"] == 0.25
    assert out["indexsets.tail_sum.refused"] == 0.5
    assert out["verify.nikolskii.wall_s"] == 1.0


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert run.percentile(list(range(11)), 90) == 9.0
    assert run.percentile([7.0], 90) == 7.0


# -- the wrapper installer --------------------------------------------------------


def _value(container, key):
    return container[key] if isinstance(container, dict) else vars(container)[key]


def test_install_wraps_every_binding_and_restores():
    targets = tracing.traced_originals()
    before = [(c, k, v) for c, k, v, _ in tracing.bindings()]
    held = [(c, k, v) for c, k, v in before if id(v) in targets and targets[id(v)][0] is v]
    names = {name for _, name in targets.values()}
    for want in ("trigpoly.init", "trigpoly.add", "trigpoly.evaluate_grid", "trigpoly.lp_norm",
                 "indexsets.materialize", "indexsets.chi", "verify.run_section", "cli.main"):
        assert want in names
    # a span name never stands for two functions
    assert len(names) == len(targets)
    # lp_norm is bound in trigpoly, besov, approx, verify, cli and the package
    lp_bindings = {getattr(c, "__name__", "") for c, _, v in held if v is sc.trigpoly.lp_norm}
    assert {"stepcross", "stepcross.trigpoly", "stepcross.besov", "stepcross.approx"} <= lp_bindings

    with tracing.Tracer():
        for c, k, v in held:
            now = _value(c, k)
            assert now is not v and now.__wrapped__ is v, (c, k)
        # no binding anywhere still holds an unwrapped target
        for c, k, v, _ in tracing.bindings():
            assert not (id(v) in targets and targets[id(v)][0] is v), (c, k)
    for c, k, v in before:
        assert _value(c, k) is v, (c, k)


def test_spans_follow_calls_through_every_binding():
    om = sc.MajorantParams(d=2, r=1.0, b=(0.0, 0.0), l=2)
    f = sc.random_in_spectrum(sc.q_set(om, 16.0), seed=1)
    with tracing.Tracer() as t:
        t.item = 7
        sc.besov_norm_blocks(f, om, sc.BesovParams(1.5, 2.0))
    names = [s.name for s in t.spans]
    assert names[0] == "besov.besov_norm_blocks"
    lp = [i for i, s in enumerate(t.spans) if s.name == "trigpoly.lp_norm"]
    assert lp and all(t.spans[i].parent == 0 for i in lp)
    assert "trigpoly.evaluate_grid" in names and "trigpoly.init" in names
    assert {s.item for s in t.spans} == {7}
    assert all(s.end >= s.start for s in t.spans)


def test_span_records_the_raised_error():
    om = sc.verify.MIXED_2D
    with tracing.Tracer() as t:
        with pytest.raises(sc.CapacityError):
            sc.tail_sum(om, 2.0 ** 30, 2.0, 0.0)
    top = t.spans[0]
    assert top.name == "indexsets.tail_sum" and top.error == "CapacityError"


# -- workloads at tiny size ---------------------------------------------------------


def _expected_known(labels):
    return {key for key in workloads.KNOWN_FAILURES if key[0] in labels}


TINY = {
    "besov_equiv": {"BESOV_PS": (2.0,)},
    "cross_sets": {"CROSS_EXPONENTS": range(6, 10)},
    "rates_witness": {"SMALL_P_EXPONENTS": range(8, 10), "WITNESS_EXPONENTS": range(12, 14)},
    "battery_quick": {},
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_tiny_reports_every_metric(name, monkeypatch):
    for attr, value in TINY[name].items():
        monkeypatch.setattr(workloads, attr, value)
    with tracing.Tracer() as t:
        wl = workloads.SETUPS[name](3)
        result = worker.run_passes(wl, 0.0, workloads.KNOWN_FAILURES, t)
    assert result["passes"] == 1
    result["peak_rss_mib"] = 1.0
    summary = run.summarize(result, [0.5])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(summary["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    layers = tracing.layer_metrics(t.spans, result["passes"])
    layers["harness.traced_items_per_s"] = summary["metrics"]["items_per_s"]
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    assert all(np.isfinite(v) for v in layers.values())

    labels = {r["label"] for r in result["records"]}
    seen = {(f["item"], f["check"]) for f in summary["failures"]}
    assert all(f["known"] for f in summary["failures"]), summary["failures"]
    assert seen == _expected_known(labels)
    assert summary["failed"] == len({item for item, _ in seen})


def test_cross_sets_fails_exactly_the_known_defects():
    result = worker.run_passes(workloads.build_cross_sets(1), 0.0, workloads.KNOWN_FAILURES)
    seen = {(r["label"], f["check"]) for r in result["records"] for f in r["failures"]}
    assert seen == set(workloads.KNOWN_FAILURES)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    table = tracing.layer_metric_table()
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == table


def test_section_metrics_name_every_battery_section():
    assert tracing.SECTION_NAMES == sc.verify.SECTION_NAMES


def test_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cross_sets",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

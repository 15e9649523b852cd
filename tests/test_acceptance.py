"""Acceptance battery: ten claims, one verification section (or CLI run)
each, one printed pass/fail line per claim.

Sections run in full mode exactly once (cached) and report bounded-ratio
bands or exact identities with pinned tolerances; the wall-clock budgets
are generous and part of each claim.
"""

import functools
import os
import subprocess
import sys
import time

import pytest

from stepcross.verify import run_section

pytestmark = pytest.mark.slow

BUDGETS = {
    "identities": 60.0,
    "cross-size": 60.0,
    "shell-size": 60.0,
    "tail-domination": 60.0,
    "nikolskii": 300.0,
    "besov-equivalence": 600.0,
    "mean-square-rates": 900.0,
    "averaged-witness": 1200.0,
    "uniform-witness": 1200.0,
}


@functools.lru_cache(maxsize=None)
def timed_section(name):
    t0 = time.perf_counter()
    res = run_section(name)
    return res, time.perf_counter() - t0


def report(capsys, res, elapsed, budget):
    verdict = "PASS" if res.passed and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance {res.name}: {verdict} [{elapsed:.1f}s / {budget:.0f}s] "
              f"{res.summary}")


def run_and_assert(capsys, name):
    res, elapsed = timed_section(name)
    budget = BUDGETS[name]
    report(capsys, res, elapsed, budget)
    assert res.passed, f"{name}: {res.summary}"
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"
    return res


def test_exact_identities(capsys):
    res = run_and_assert(capsys, "identities")
    by_check = {row[0]: row for row in res.rows}
    assert by_check["parseval_vs_grid"][1] == 100
    assert by_check["littlewood_paley_p2"][2] <= 1e-10
    assert by_check["coefficient_profiles"][2] == 0.0
    assert by_check["kernel_peaks"][1] == 2048
    assert by_check["band_partition_exact"][2] == 0.0


def test_cross_cardinality_band(capsys):
    res = run_and_assert(capsys, "cross-size")
    configs = {row[0] for row in res.rows}
    assert configs == {"plain2", "mixed2", "plain3"}
    assert {row[1] for row in res.rows} == {2.0 ** e for e in range(6, 21)}


def test_shell_cardinality_band(capsys):
    res = run_and_assert(capsys, "shell-size")
    # the unweighted 3-d count is exactly the square of the level
    plain3 = [row for row in res.rows if row[0] == "plain3"]
    assert all(abs(row[4] - 1.0) < 1e-12 for row in plain3)


def test_tail_domination(capsys):
    res = run_and_assert(capsys, "tail-domination")
    assert all(row[7] <= 1e-6 for row in res.rows)  # certified brackets
    assert "uniform constant C" in res.summary


def test_nikolskii_battery(capsys):
    res = run_and_assert(capsys, "nikolskii")
    assert sum(row[3] for row in res.rows) >= 500
    assert all(row[4] == 0 for row in res.rows)


def test_besov_norm_equivalence(capsys):
    res = run_and_assert(capsys, "besov-equivalence")
    assert len(res.rows) == 9  # p in {1.5, 2, 4} x theta in {1, 2, inf}
    assert all(row[4] <= 10.0 for row in res.rows)


def test_mean_square_rates(capsys):
    res = run_and_assert(capsys, "mean-square-rates")
    fitted = next(d for d in res.details if d.startswith("fitted"))
    rho_hat = float(fitted.split("rho_hat=")[1].split()[0])
    assert abs(rho_hat - 1.5) <= 0.15


def test_averaged_error_witness(capsys):
    res = run_and_assert(capsys, "averaged-witness")
    assert {row[0] for row in res.rows} == {2.0 ** e for e in range(12, 19)}


def test_uniform_error_witness(capsys):
    res = run_and_assert(capsys, "uniform-witness")
    assert {row[0] for row in res.rows} == {2.0 ** e for e in range(12, 19)}


def test_deterministic_reports(capsys, tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for threads, name in (("1", "a.txt"), ("4", "b.txt")):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "stepcross.cli", "verify-all", "--quick",
             "--out", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "OMP_NUM_THREADS": threads,
                 "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - t0
    identical = outputs[0] == outputs[1]
    verdict = "PASS" if identical else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance determinism: {verdict} [{elapsed:.1f}s] "
              f"verify-all twice under thread counts 1 and 4, "
              f"{len(outputs[0])} bytes each, byte-identical: {identical}")
    assert identical

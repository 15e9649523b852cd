"""CLI behavior: output shape, config merging, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from stepcross.cli import main
from stepcross.extremal import WitnessConfig, g6_peak_value
from stepcross.besov import BesovParams
from stepcross.indexsets import q_size, size_prediction
from stepcross.kernels import fejer
from stepcross.majorant import MajorantParams
from stepcross.polyio import loads_polynomial, write_polynomial
from stepcross.trigpoly import TrigPolynomial, lp_norm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sets_matches_library(capsys):
    code, out, _ = run_cli(capsys, "sets", "--d", "2", "--r", "1", "--b", "0",
                           "--n-min", "64", "--n-max", "256")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# stepcross 0.1.0"
    assert lines[3] == "n,chi_count,theta_count,theta_prime_count,q_size,size_prediction,ratio"
    om = MajorantParams(d=2, r=1.0, b=(0.0, 0.0), l=2)
    data = [row.split(",") for row in lines[4:]]
    assert [float(row[0]) for row in data] == [64.0, 128.0, 256.0]
    for row in data:
        n = float(row[0])
        assert int(row[4]) == q_size(om, n)
        assert float(row[5]) == pytest.approx(size_prediction(om, n), rel=1e-9)


def test_lemmas_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "lemmas", "--d", "2", "--r", "1", "--b", "0",
                           "--n-max", "256")
    assert code == 0
    assert "lower_condition: True" in out
    # a negative log weight breaks the lower condition at alpha = r
    code, out, _ = run_cli(capsys, "lemmas", "--d", "1", "--r", "0.5", "--b", "-1",
                           "--l", "2", "--n-max", "256")
    assert code == 3
    assert "lower_condition: False" in out


def test_norms_roundtrip(tmp_path, capsys):
    f = TrigPolynomial([[1, 2], [3, 1]], [1.0, -2.0j])
    path = tmp_path / "f.txt"
    write_polynomial(f, path)
    code, out, _ = run_cli(capsys, "norms", "--poly", str(path), "--p", "2,inf",
                           "--r", "1", "--b", "0", "--theta", "2")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if ln.startswith("lp,")]
    vals = {row[1]: float(row[2]) for row in rows}
    assert vals["2"] == pytest.approx(lp_norm(f, 2), rel=1e-9)
    assert vals["inf"] <= 3.0 + 1e-9  # sup of |e^i..| pair is at most sum of moduli
    assert any(ln.startswith("besov,2,2,") for ln in out.splitlines())


def test_norms_requires_poly(capsys):
    code, _, err = run_cli(capsys, "norms")
    assert code == 2
    assert "poly" in err


def test_norms_has_no_dimension_flag(tmp_path, capsys):
    # the dimension comes from the polynomial file
    path = tmp_path / "f.txt"
    write_polynomial(TrigPolynomial([[1, 2]], [1.0]), path)
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--poly", str(path), "--d", "2"])
    assert exc.value.code == 2
    assert "--d" in capsys.readouterr().err


def test_norms_non_finite_poly_exit_2(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("d=1\n1 nan 0\n2 inf 0\n")
    code, out, err = run_cli(capsys, "norms", "--poly", str(path), "--p", "2")
    assert code == 2
    assert "non-finite coefficient" in err
    assert "lp," not in out


def test_kernels_output_parses_back(capsys):
    code, out, _ = run_cli(capsys, "kernels", "--family", "fejer", "--n", "5")
    assert code == 0
    g = loads_polynomial(out)  # '#' header lines are skipped by the reader
    want = fejer(5)
    assert np.array_equal(g.ks, want.ks)
    assert np.array_equal(g.cs, want.cs)


def test_kernels_packet_zero_reach(capsys):
    code, _, err = run_cli(capsys, "kernels", "--family", "packet", "--s", "1,1")
    assert code == 2
    assert "s_j" in err or "octave" in err


def test_rates_csv_consistent(capsys):
    code, out, _ = run_cli(capsys, "rates", "--family", "shell", "--d", "2",
                           "--r", "1.5", "--b", "0", "--p", "2", "--theta", "2",
                           "--q", "2", "--n-min", "256", "--n-max", "1024",
                           "--samples", "2", "--seed", "3")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()
            if ln and not ln.startswith("#") and ln[0].isdigit()]
    assert len(rows) == 3
    for row in rows:
        n, m, err_v, thy, ratio = (float(v) for v in row)
        assert ratio == pytest.approx(err_v / thy, rel=1e-9)
    assert any(ln.startswith("# fit: skipped") for ln in out.splitlines())


def test_witness_reports_peak(capsys):
    code, out, _ = run_cli(capsys, "witness", "--family", "g6", "--d", "2",
                           "--r", "1", "--b", "0", "--n", "4096")
    assert code == 0
    cfg = WitnessConfig(omega=MajorantParams(d=2, r=1.0, b=(0.0, 0.0), l=2),
                        bp=BesovParams(2.0, 2.0), n=4096.0)
    peak = g6_peak_value(cfg)
    line = next(ln for ln in out.splitlines() if ln.startswith("# stack_peak:"))
    assert float(line.split()[2]) == peak


def test_witness_out_includes_polynomial(tmp_path, capsys):
    path = tmp_path / "w.txt"
    code, _, _ = run_cli(capsys, "witness", "--family", "g1", "--d", "1",
                         "--r", "1", "--b", "0", "--n", "256", "--out", str(path))
    assert code == 0
    f = loads_polynomial(path.read_text())
    assert f.n_terms == 1


def test_config_defaults_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 1.5, "n_max": 1024.0}))
    code, out, _ = run_cli(capsys, "sets", "--config", str(cfg), "--d", "3", "--b", "0")
    assert code == 0
    params = next(ln for ln in out.splitlines() if ln.startswith("# params:"))
    assert "r=1.5" in params and "d=3" in params and "n_max=1024" in params


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "sets", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_config_unreadable(capsys):
    code, _, err = run_cli(capsys, "sets", "--config", "/nonexistent.json")
    assert code == 2
    assert "config" in err


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--family", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_parameter_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "sets", "--d", "0")
    assert code == 2
    assert "dimension" in err


def test_verify_subset_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--quick",
                           "--sections", "identities,cross-size")
    assert code == 0
    assert out.count("result: PASS") == 2
    assert "overall: PASS (2/2 sections)" in out


def test_verify_all_quick_deterministic(capsys):
    argv = ["verify-all", "--quick", "--sections", "identities,tail-domination"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "stepcross.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "stepcross 0.1.0" in proc.stdout

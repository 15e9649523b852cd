"""CLI behavior: output shape, config merging, exit codes, determinism."""

import json
import math
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stepcross.approx import rate_experiment
from stepcross.cli import main
from stepcross.errors import UnsupportedRegimeError
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


@pytest.mark.parametrize("args, want", [
    (("--r", "1", "--l", "2", "--alpha", "1000"), "lower_condition: False (log2 c1 19980)"),
    (("--r", "60", "--l", "61", "--gamma", "0.5"), "upper_condition: False (log2 c2 -1190)"),
    (("--r", "60", "--l", "61", "--gamma", "59"), "upper_condition: False (c2 9.536743164e-07)"),
])
def test_lemmas_prints_a_constant_past_the_float_range_in_log2(capsys, args, want):
    code, out, _ = run_cli(capsys, "lemmas", "--d", "1", "--b", "0", "--n-max", "128", *args)
    assert code == 3
    assert want in out.splitlines()


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


def test_norms_header_echoes_the_majorant(tmp_path, capsys):
    # the majorant behind the besov row is part of the header
    path = tmp_path / "f.txt"
    write_polynomial(TrigPolynomial([[1, 2], [3, 1]], [1.0, -2.0j]), path)
    headers = []
    for r in ("1", "1.4"):
        code, out, _ = run_cli(capsys, "norms", "--poly", str(path), "--r", r, "--b", "0")
        assert code == 0
        headers.append(next(ln for ln in out.splitlines() if ln.startswith("# params:")))
    assert headers[0] != headers[1]
    assert " b=0 l=2 " in headers[0] and " r=1 " in headers[0] and " r=1.4 " in headers[1]


def test_norms_quadrature_short_of_tolerance_exit_3(tmp_path, capsys):
    # at p = 1 the kink of |1 + e^{16ix}| keeps the grid from settling
    path = tmp_path / "f.txt"
    path.write_text("d=1\n0 1 0\n16 1 0\n")
    code, out, err = run_cli(capsys, "norms", "--poly", str(path), "--p", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: L_1.0 quadrature did not reach")


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


@pytest.mark.parametrize("p", ["0.5", "nan", "2,0.5"])
def test_norms_invalid_exponent_on_zero_poly_exit_2(tmp_path, capsys, p):
    # a file holding only the dimension line is the zero polynomial
    path = tmp_path / "zero.txt"
    path.write_text("d=1\n")
    code, out, err = run_cli(capsys, "norms", "--poly", str(path), "--p", p)
    assert code == 2
    assert "need p >= 1" in err
    assert "lp," not in out


def exit_code(capsys, *argv):
    """main's exit code, also when argparse exits; any other exception
    propagates and fails the test."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


MALFORMED_POLYS = {
    "no_header": "1 1.0 0.0\n",
    "empty": "",
    "bad_dimension": "d=two\n",
    "zero_dimension": "d=0\n",
    "short_row": "d=2\n1 1.0 0.0\n",
    "long_row": "d=1\n1 2 1.0 0.0\n",
    "fractional_frequency": "d=1\n1.5 1.0 0.0\n",
    "word_coefficient": "d=1\n1 one 0.0\n",
    "overflowing_coefficient": "d=1\n1 1e400 0.0\n",
    "frequency_past_int64": "d=1\n99999999999999999999 1.0 0.0\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POLYS))
def test_norms_malformed_poly_exit_2(tmp_path, capsys, name):
    path = tmp_path / "f.poly"
    path.write_text(MALFORMED_POLYS[name])
    code, err = exit_code(capsys, "norms", "--poly", str(path), "--p", "1.5,4,inf")
    assert code == 2
    assert err.startswith("error:")


def test_norms_int64_min_frequency_exit_0(tmp_path, capsys):
    # -2^63 is an int64 frequency: |k| = 2^63 is exact, and |e^{ikx}| = 1
    path = tmp_path / "f.poly"
    path.write_text("d=1\n-9223372036854775808 1.0 0.0\n")
    code, out, err = run_cli(capsys, "norms", "--poly", str(path), "--p", "1.5,4,inf")
    assert (code, err) == (0, "")
    assert out.splitlines()[3:] == [
        "terms: 1", "degrees: 9223372036854775808", "lp,1.5,1", "lp,4,1", "lp,inf,1"]


@pytest.mark.parametrize("target", ["missing", "directory", "binary"])
def test_norms_unreadable_poly_exit_2(tmp_path, capsys, target):
    path = tmp_path / "f.poly"
    if target == "directory":
        path.mkdir()
    elif target == "binary":
        path.write_bytes(b"\xff\xfe\x00d=1")
    code, err = exit_code(capsys, "norms", "--poly", str(path))
    assert code == 2
    assert "cannot read polynomial" in err


FREQUENCY_TOKENS = ["0", "1", "-3", "2.5", "abc", str(2 ** 63 - 1), str(2 ** 63), str(-2 ** 63),
                    str(10 ** 20)]
COEFFICIENT_PAIRS = ["1.5 -2", "0 1", "-0.25 0", "nan 0", "1 1e400", "abc 1"]


# capsys is drained by every call, so sharing it between examples is safe
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_norms_poly_text_exits_0_or_2(capsys, data):
    # rows of the right shape, so each token reaches the parser's checks
    d = data.draw(st.sampled_from((1, 2)), label="d")
    rows = data.draw(st.lists(st.tuples(
        st.lists(st.sampled_from(FREQUENCY_TOKENS), min_size=d, max_size=d),
        st.sampled_from(COEFFICIENT_PAIRS)), max_size=4), label="rows")
    text = "\n".join([f"d={d}"] + [" ".join([*ks, cs]) for ks, cs in rows]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.poly"
        path.write_text(text)
        # p = 2 is Parseval, so no accuracy or capacity limit can end the run
        code, _ = exit_code(capsys, "norms", "--poly", str(path), "--p", "2")
    assert code in (0, 2)


MALFORMED_CONFIGS = {
    "not_json": "{d: 3",
    "empty": "",
    "array": "[1, 2]",
    "unknown_key": '{"bogus": 1}',
    "word_for_int": '{"d": "two"}',
    "fraction_for_int": '{"d": 2.5}',
    "bool_for_int": '{"d": true}',
    "null_for_float": '{"n_min": null}',
    "object_value": '{"r": {"x": 1}}',
    "bad_list": '{"b": "zero"}',
    "infinite_range": '{"n_max": "inf"}',
    "string_for_switch": '{"quick": "yes"}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exit_2(tmp_path, capsys, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(MALFORMED_CONFIGS[name])
    command = ["verify-all"] if name == "string_for_switch" else ["sets"]
    code, err = exit_code(capsys, *command, "--config", str(cfg))
    assert code == 2
    assert "error:" in err


def test_config_witness_family_checked(tmp_path, capsys):
    # argparse does not check defaults against the choices
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"family": "g99"}')
    code, err = exit_code(capsys, "witness", "--config", str(cfg))
    assert code == 2
    assert "g99" in err


def test_config_lists_and_numbers_read_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # quick belongs to verify-all: it must not reach the sets header
    cfg.write_text(json.dumps({"b": [0.5, 0.25], "r": 1.5, "n_max": 256, "quick": True}))
    _, from_config, _ = run_cli(capsys, "sets", "--config", str(cfg))
    _, from_flags, _ = run_cli(capsys, "sets", "--b", "0.5,0.25", "--r", "1.5",
                               "--n-max", "256")
    assert from_config == from_flags


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


# argparse reads the flag, so its abbreviation loads the file too (once ignored)
@pytest.mark.parametrize("spelling", [("--config", "{}"), ("--config={}",), ("--conf", "{}")])
def test_config_defaults_flags_override(tmp_path, capsys, spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 1.5, "n_max": 1024.0}))
    code, out, _ = run_cli(capsys, "sets", *[t.format(cfg) for t in spelling],
                           "--d", "3", "--b", "0")
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


def test_unsupported_regime_exit_2(capsys):
    # g5 targets the small-p regime; p = 3 > q = 2 is the large-p one
    with pytest.raises(UnsupportedRegimeError) as exc:
        rate_experiment(MajorantParams(d=2, r=1.5, b=0.0, l=2), BesovParams(3.0, 2.0),
                        2.0, "g5", [256.0])
    code, out, err = run_cli(capsys, "rates", "--family", "g5", "--p", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: {exc.value}\n"


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_exit_2(tmp_path, capsys, target):
    # once a raw FileNotFoundError / IsADirectoryError, exit 1
    out = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
    code, err = exit_code(capsys, "sets", "--n-max", "128", "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write output file {out}:")


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    path = tmp_path / "sets.csv"
    assert run_cli(capsys, "sets", "--n-max", "256", "--out", str(path)) == (0, "", "")
    _, out, _ = run_cli(capsys, "sets", "--n-max", "256")
    assert path.read_text() == out


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # each `stepcross ...` line of README's "Command line" block, in order
    # (norms reads the packet file that kernels writes)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("stepcross ")]
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert (line, code, err) == (line, 0, "")


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--family", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("--family", "band", "--s", "40"),
    ("--family", "packet", "--s", "45"),
    ("--family", "fejer", "--n", "100000000000"),
])
def test_kernels_past_the_term_cap_exit_4(capsys, argv):
    code, err = exit_code(capsys, "kernels", *argv)
    assert code == 4
    assert "exceeding the cap" in err


@pytest.mark.parametrize("argv", [
    ("--family", "packet", "--s", "64", "--u", "1"),
    ("--family", "packet", "--s", "3,64"),
    ("--family", "band", "--s", "64"),
])
def test_kernels_index_past_the_deepest_octave_exit_2(capsys, argv):
    code, err = exit_code(capsys, "kernels", *argv)
    assert code == 2
    assert "[1, 63]" in err


def test_parameter_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "sets", "--d", "0")
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize("argv", [
    ("lemmas", "--p", "inf", "--n-max", "256"),  # once a ZeroDivisionError, exit 1
    ("lemmas", "--alpha", "inf", "--n-max", "256"),  # once a NaN constant, exit 0
    ("lemmas", "--gamma", "nan", "--n-max", "256"),
    ("kernels", "--family", "fejer", "--n", "0"),
    ("kernels", "--family", "vp", "--n", "-3"),
    ("kernels", "--family", "packet", "--s", "4", "--u", "0"),
    ("rates", "--family", "random_ball", "--seed", "-1"),  # once a raw ValueError
    ("rates", "--samples", "0"),
    ("norms", "--poly", "-", "--p", "2", "--theta", "0.5", "--r", "1"),
    ("norms", "--poly", "-", "--rel-tol", "1"),
    ("lemmas", "--beta", "nan", "--n-max", "256"),
    ("lemmas", "--beta", "1", "--r", "1", "--n-max", "256"),  # needs beta < r
    ("lemmas", "--alpha", "0", "--n-max", "256"),
    ("sets", "--r", "inf"),
    ("sets", "--b", "1", "--r", "1"),  # needs b_j < r
    ("sets", "--n-min", "nan"),
    ("sets", "--n-max", "inf"),
    ("witness", "--n", "1"),
])
def test_refused_numbers_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "f.poly"
    path.write_text("d=2\n1 2 1.0 0.0\n")
    code, err = exit_code(capsys, *[str(path) if a == "-" else a for a in argv])
    assert code == 2
    assert err.startswith("error:")


def test_steep_majorant_exit_4(capsys):
    # omega at b = -1e4 overflows: once a ZeroDivisionError in the audit, exit 1
    code, err = exit_code(capsys, "lemmas", "--d", "1", "--b=-1e4")
    assert code == 4
    assert "float range" in err


@pytest.mark.parametrize("argv, want", [
    (("--d", "3", "--n-min", "1.5", "--n-max", "1.5"), 0),
    (("--d", "1", "--r", "1.9", "--b", "1.8", "--alpha", "0.1", "--gamma", "0.2"), 3),
])
def test_lemmas_empty_shell_ratio_is_inf(capsys, argv, want):
    # 2^l N below the weight of box (1, ..., 1) leaves the shell empty:
    # once a ZeroDivisionError at tail / shell, exit 1
    code, out, _ = run_cli(capsys, "lemmas", *argv)
    assert code == want
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    empty = [row for row in rows if row[3] == "0"]
    assert empty and all(row[4] == "inf" for row in empty)
    assert all(row[4] != "inf" for row in rows if row[3] != "0")


def test_underflowed_tail_exit_4(capsys):
    # every tail term underflows to 0: once a ZeroDivisionError, exit 1
    code, err = exit_code(capsys, "lemmas", "--beta=-1e3", "--n-max", "256")
    assert code == 4
    assert "underflows" in err


@pytest.mark.parametrize("family", ["band", "packet"])
def test_kernels_integral_float_index(capsys, family):
    # check_box_index takes 2.0 as box 2; --s once parsed it with int
    code, out, _ = run_cli(capsys, "kernels", "--family", family, "--s", "2.0,3")
    assert code == 0
    _, want, _ = run_cli(capsys, "kernels", "--family", family, "--s", "2,3")
    assert out.replace("s=2.0,3", "s=2,3") == want
    code, err = exit_code(capsys, "kernels", "--family", family, "--s", "2.5,3")
    assert code == 2
    assert "box index coordinate takes integers in [1, 63], got 2.5" in err


@pytest.mark.parametrize("b", ["nan,0", "-inf,0"])
def test_non_finite_log_weight_exit_2(capsys, b):
    code, err = exit_code(capsys, "sets", "--d", "2", "--r", "1", f"--b={b}",
                          "--n-min", "16", "--n-max", "256")
    assert code == 2
    assert "finite number" in err


def test_verify_subset_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--quick",
                           "--sections", "identities,cross-size")
    assert code == 0
    assert out.count("result: PASS") == 2
    assert "overall: PASS (2/2 sections)" in out


def test_verify_naming_no_section_exit_2(capsys):
    # a selection of only separators names no section: nothing ran, no pass
    code, err = exit_code(capsys, "verify-all", "--quick", "--sections", ",")
    assert code == 2
    assert "no section named" in err


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


def test_package_runs_as_module():
    # python -m stepcross, as from a checkout with src on the path
    proc = subprocess.run(
        [sys.executable, "-m", "stepcross", "verify-all", "--quick", "--sections", "cross-size"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: PASS (1/1 sections)" in proc.stdout

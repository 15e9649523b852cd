"""Command-line interface.

Subcommands
-----------
sets        tabulate cross, shell and balanced-shell cardinalities over N
lemmas      audit the majorant conditions and tabulate certified tail sums
norms       compute L_p and smoothness norms of a polynomial file
kernels     emit kernel polynomials (Fejer, de la Vallee Poussin, bands, packets)
rates       run a projection-error rate experiment, CSV output
witness     construct an extremal witness family member and report its size
verify-all  run the full verification battery

Every emitter writes deterministic text: a ``#`` header echoing the version,
command and parameters (never a timestamp), then CSV rows.  Repeated runs
with the same arguments produce byte-identical output, whatever the thread
count of the numeric libraries.

Exit codes: 0 success, 2 usage or parameter error, 3 a verified tolerance or
condition failed, 4 a capacity cap was hit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .approx import SAMPLE_FAMILIES, fit_rate, rate_experiment
from .besov import BesovParams, besov_norm
from .errors import CapacityError, ParameterError, QuadratureAccuracyError, check_real
from .extremal import WITNESS_BUILDERS, WitnessConfig, g6_peak_value
from .indexsets import chi, q_size, size_prediction, tail_sum, theta, theta_prime, theta_sum
from .kernels import band_kernel, fejer, k_packet, vallee_poussin
from .majorant import MajorantParams, verify_majorant_axioms
from .polyio import dumps_polynomial, read_polynomial
from .trigpoly import QuadratureSpec, lp_norm, lp_norms
from .verify import SECTION_NAMES, fmt_value, format_report, run_verification


def _parse_b(value: str) -> tuple[float, ...] | float:
    vals = _parse_list(value, float, "log-weight")
    return vals[0] if len(vals) == 1 else vals


def _parse_list(value, kind, what: str) -> tuple:
    """A comma-separated list of ``kind`` values; ParameterError if malformed."""
    try:
        vals = tuple(kind(p) for p in str(value).split(",") if p.strip())
    except ValueError:
        vals = ()
    if not vals:
        raise ParameterError(f"cannot parse {what} list from {value!r}")
    return vals


def _omega(args) -> MajorantParams:
    return MajorantParams(d=args.d, r=args.r, b=_parse_b(args.b), l=args.l)


def _n_grid(n_min: float, n_max: float) -> list[float]:
    if not check_real(n_min, "n_min", lo=1) <= check_real(n_max, "n_max"):
        raise ParameterError(f"need n_min <= n_max, got {n_min}, {n_max}")
    grid, n = [], float(n_min)
    while n <= n_max * (1 + 1e-12):
        grid.append(n)
        n *= 2.0
    return grid


def _header(command: str, params: dict) -> list[str]:
    echo = " ".join(f"{k}={fmt_value(v)}" for k, v in sorted(params.items()))
    return [f"# stepcross {__version__}", f"# command: {command}", f"# params: {echo}"]


def _emit(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


def _cmd_sets(args) -> int:
    om = _omega(args)
    lines = _header("sets", dict(d=om.d, r=om.r, b=args.b, l=om.l,
                                 n_min=args.n_min, n_max=args.n_max))
    lines.append("n,chi_count,theta_count,theta_prime_count,q_size,size_prediction,ratio")
    for n in _n_grid(args.n_min, args.n_max):
        m = q_size(om, n)
        pred = size_prediction(om, n)
        row = (n, len(chi(om, n)), len(theta(om, n)), len(theta_prime(om, n)),
               m, pred, m / pred)
        lines.append(",".join(fmt_value(v) for v in row))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_lemmas(args) -> int:
    om = _omega(args)
    alpha = om.r if args.alpha is None else args.alpha
    gamma = om.r if args.gamma is None else args.gamma
    audit = verify_majorant_axioms(om, alpha, gamma)
    lines = _header("lemmas", dict(d=om.d, r=om.r, b=args.b, l=om.l, alpha=alpha,
                                   gamma=gamma, p=args.p, beta=args.beta,
                                   n_min=args.n_min, n_max=args.n_max))
    lines.append(f"monotone: {audit.monotone_ok}")
    lines.append(f"scaling: {audit.scaling_ok}")
    for side, ok, name, value, log2_value in (
            ("lower", audit.s_condition_ok, "c1", audit.c1, audit.log2_c1),
            ("upper", audit.sl_condition_ok, "c2", audit.c2, audit.log2_c2)):
        shown = (f"{name} {fmt_value(value)}" if 0 < value < math.inf
                 else f"log2 {name} {fmt_value(log2_value)}")
        lines.append(f"{side}_condition: {ok} ({shown})")
    for v in audit.violations:
        lines.append(f"# violation: {v}")
    lines.append("n,tail,tail_bound,shell_sum,ratio")
    for n in _n_grid(args.n_min, args.n_max):
        res = tail_sum(om, n, args.p, args.beta)
        shell = theta_sum(om, n, args.p, args.beta)
        # an empty shell (2^l N below the weight of box (1, ..., 1)) sums to 0
        row = (n, res.value, res.bound, shell, res.value / shell if shell else math.inf)
        lines.append(",".join(fmt_value(v) for v in row))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0 if audit.all_ok else 3


def _cmd_norms(args) -> int:
    if not args.poly:
        raise ParameterError("norms needs --poly FILE")
    f = read_polynomial(args.poly)
    quad = QuadratureSpec(rel_tol=args.rel_tol)
    lines = _header("norms", dict(poly=args.poly, p=args.p, theta=args.theta,
                                  rel_tol=args.rel_tol))
    lines.append(f"terms: {f.n_terms}")
    lines.append(f"degrees: {','.join(str(v) for v in f.degrees)}")
    ps = _parse_list(args.p, float, "exponent")
    for p, value in zip(ps, lp_norms(f, ps, quad)):
        lines.append(f"lp,{fmt_value(p)},{fmt_value(value)}")
    if args.r is not None:
        om = MajorantParams(d=f.d, r=args.r, b=_parse_b(args.b), l=args.l)
        bp = BesovParams(ps[0], args.theta)
        lines.append(
            f"besov,{fmt_value(ps[0])},{fmt_value(args.theta)},"
            f"{fmt_value(besov_norm(f, om, bp, quad))}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_kernels(args) -> int:
    if args.family in ("fejer", "vp"):
        f = fejer(args.n) if args.family == "fejer" else vallee_poussin(args.n)
        params = dict(family=args.family, n=args.n)
    elif args.family == "band":
        s = _parse_list(args.s, float, "octave index")
        f = band_kernel(s)
        params = dict(family="band", s=args.s)
    elif args.family == "packet":
        s = _parse_list(args.s, float, "octave index")
        f = k_packet(s, u=args.u)
        params = dict(family="packet", s=args.s, u="default" if args.u is None else args.u)
    else:
        raise ParameterError(f"unknown kernel family {args.family!r}")
    lines = _header("kernels", params)
    lines.append(f"# terms: {f.n_terms}")
    _emit(args.out, "\n".join(lines) + "\n" + dumps_polynomial(f))
    return 0


def _cmd_rates(args) -> int:
    om = _omega(args)
    bp = BesovParams(args.p, args.theta)
    quad = QuadratureSpec(rel_tol=args.rel_tol)
    records = rate_experiment(om, bp, args.q, args.family,
                              _n_grid(args.n_min, args.n_max),
                              samples=args.samples, seed=args.seed, quad=quad)
    lines = _header("rates", dict(d=om.d, r=om.r, b=args.b, l=om.l, p=args.p,
                                  theta=args.theta, q=args.q, family=args.family,
                                  n_min=args.n_min, n_max=args.n_max,
                                  samples=args.samples, seed=args.seed,
                                  rel_tol=args.rel_tol))
    lines.append("n,m,error,theory,ratio")
    for rec in records:
        lines.append(",".join(fmt_value(v)
                              for v in (rec.n, rec.m, rec.error, rec.theory, rec.ratio)))
    try:
        fit = fit_rate(records)
        lines.append(f"# fit: rho_hat={fmt_value(fit.rho_hat)} "
                     f"log_hat={fmt_value(fit.log_hat)} "
                     f"two_point={fmt_value(fit.two_point_slope)} "
                     f"cond={fmt_value(fit.condition)}")
    except ParameterError as exc:
        lines.append(f"# fit: skipped ({exc})")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_witness(args) -> int:
    if args.family not in WITNESS_BUILDERS:
        raise ParameterError(f"unknown witness family {args.family!r}")
    om = _omega(args)
    bp = BesovParams(args.p, args.theta)
    cfg = WitnessConfig(omega=om, bp=bp, n=args.n)
    f = WITNESS_BUILDERS[args.family](cfg)
    lines = _header("witness", dict(family=args.family, d=om.d, r=om.r, b=args.b,
                                    l=om.l, p=args.p, theta=args.theta, n=args.n))
    # properties stay '#'-prefixed so the --out file is a valid polynomial file
    lines.append(f"# terms: {f.n_terms}")
    lines.append(f"# degrees: {','.join(str(v) for v in f.degrees)}")
    lines.append(f"# l2_norm: {fmt_value(lp_norm(f, 2.0))}")
    lines.append(f"# besov_norm: {fmt_value(besov_norm(f, om, bp))}")
    if args.family in ("g6", "g7"):
        lines.append(f"# stack_peak: {fmt_value(g6_peak_value(cfg))}")
    body = "\n".join(lines) + "\n"
    if args.out:
        _emit(args.out, body + dumps_polynomial(f))
    else:
        _emit(None, body)
    return 0


def _cmd_verify_all(args) -> int:
    names = [s for s in args.sections.split(",") if s] if args.sections else None
    results = run_verification(names, quick=args.quick)
    header = _header("verify-all", dict(
        quick=args.quick, sections=args.sections or "all"))
    _emit(args.out, "\n".join(header) + "\n" + format_report(results, quick=args.quick))
    return 0 if all(res.passed for res in results) else 3


# -- parser -----------------------------------------------------------------


def _add_omega_flags(sub, d=2, r=1.0, b="0", l=2):
    sub.add_argument("--d", type=int, default=d, help="dimension")
    sub.add_argument("--r", type=float, default=r, help="power exponent of the majorant")
    sub.add_argument("--b", default=b, help="log exponents, comma separated")
    sub.add_argument("--l", type=int, default=l, help="difference order / shell width")


def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="JSON file of flat key=value defaults; flags override")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The argument parser, with ``config`` (flat ``--config`` defaults) set
    on every subcommand; explicit flags still override them, and a key no
    subcommand knows is a ParameterError."""
    parser = argparse.ArgumentParser(
        prog="stepcross",
        description="Step hyperbolic cross approximation toolkit")
    parser.add_argument("--version", action="version", version=f"stepcross {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sets", help="tabulate index-set cardinalities")
    _add_omega_flags(p)
    p.add_argument("--n-min", type=float, default=2.0 ** 6)
    p.add_argument("--n-max", type=float, default=2.0 ** 20)
    _add_common(p)
    p.set_defaults(func=_cmd_sets)

    p = subs.add_parser("lemmas", help="audit majorant conditions, certified tails")
    _add_omega_flags(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="lower-condition exponent (default r)")
    p.add_argument("--gamma", type=float, default=None,
                   help="upper-condition exponent (default r)")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--n-min", type=float, default=2.0 ** 6)
    p.add_argument("--n-max", type=float, default=2.0 ** 20)
    _add_common(p)
    p.set_defaults(func=_cmd_lemmas)

    p = subs.add_parser("norms", help="norms of a polynomial file")
    p.add_argument("--poly", default=None, help="polynomial text file")
    p.add_argument("--p", default="2", help="L_p exponents, comma separated (inf allowed)")
    p.add_argument("--theta", type=float, default=2.0)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--r", type=float, default=None,
                   help="majorant power; enables the smoothness norm")
    p.add_argument("--b", default="0")
    p.add_argument("--l", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_norms)

    p = subs.add_parser("kernels", help="emit kernel polynomials")
    p.add_argument("--family", choices=("fejer", "vp", "band", "packet"), default="fejer")
    p.add_argument("--n", type=int, default=4, help="kernel order (fejer, vp)")
    p.add_argument("--s", default="2", help="octave indices, comma separated (band, packet)")
    p.add_argument("--u", type=int, default=None, help="packet half-width (default 2^{s-2})")
    _add_common(p)
    p.set_defaults(func=_cmd_kernels)

    p = subs.add_parser("rates", help="projection-error rate experiment")
    _add_omega_flags(p, r=1.5)
    p.add_argument("--family", choices=SAMPLE_FAMILIES, default="shell")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--n-min", type=float, default=2.0 ** 8)
    p.add_argument("--n-max", type=float, default=2.0 ** 14)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=_cmd_rates)

    p = subs.add_parser("witness", help="construct an extremal witness")
    p.add_argument("--family", choices=sorted(WITNESS_BUILDERS), default="g3")
    _add_omega_flags(p, r=1.5)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--theta", type=float, default=2.0)
    p.add_argument("--n", type=float, default=2.0 ** 12)
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("verify-all", help="run the verification battery")
    p.add_argument("--quick", action="store_true", help="reduced sample sizes")
    p.add_argument("--sections", default=None,
                   help=f"comma list from: {','.join(SECTION_NAMES)}")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_all)

    if config:
        defaults = {}  # every dest a subcommand parses into, with its default
        for sub in subs.choices.values():
            defaults.update(vars(sub.parse_args([])))
        unknown = set(config) - (set(defaults) - {"func", "config"})
        if unknown:
            raise ParameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
        config = {key: _config_token(key, value, defaults[key])
                  for key, value in config.items()}
        # subcommands parse into a fresh namespace, so defaults must land on
        # each subparser, not on the root parser
        for sub in subs.choices.values():
            sub.set_defaults(**config)
    return parser


def _config_token(key: str, value, default):
    """A config value as its flag would spell it.  argparse runs string
    defaults through the option's type when the subcommand parses, so a
    malformed value is a usage error of that subcommand, as on the command
    line.  Switches take JSON booleans; lists become comma lists."""
    def scalar(v):
        return isinstance(v, (int, float, str)) and not isinstance(v, bool)

    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
    elif isinstance(value, list) and value and all(map(scalar, value)):
        return ",".join(map(str, value))
    elif scalar(value):
        return str(value)
    raise ParameterError(f"config key {key!r} has an unusable value {value!r}")


def _load_config(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"config {path} must hold one flat JSON object")
    return data


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = {}
        for i, token in enumerate(argv):
            if token == "--config" and i + 1 < len(argv):
                config = _load_config(argv[i + 1])
            elif token.startswith("--config="):
                config = _load_config(token.split("=", 1)[1])
        parser = build_parser(config)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureAccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

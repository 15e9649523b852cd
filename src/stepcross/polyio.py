"""Plain-text serialization of trigonometric polynomials.

Format: a header line ``d=<dim>``, then one line per coefficient holding d
integers and two floats, ``k_1 ... k_d re im``, whitespace separated.
Floats are written with shortest round-trip formatting, so write/read is
lossless for every int64 frequency, -2^63 included; the constructor
refuses one outside int64.  Lines starting with ``#`` and blank lines are
ignored on read.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ParameterError, check_int
from .trigpoly import TrigPolynomial

__all__ = ["read_polynomial", "write_polynomial", "dumps_polynomial", "loads_polynomial"]


def dumps_polynomial(f: TrigPolynomial) -> str:
    lines = [f"d={f.d}"]
    for k, c in zip(f.ks, f.cs):
        coords = " ".join(str(int(v)) for v in k)
        z = complex(c)
        lines.append(f"{coords} {z.real!r} {z.imag!r}")
    return "\n".join(lines) + "\n"


def loads_polynomial(text: str) -> TrigPolynomial:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("d="):
        raise ParameterError("polynomial text must start with a 'd=<dim>' line")
    try:
        d = check_int(int(lines[0][2:]), "dimension d")
    except ValueError as exc:  # ParameterError included
        raise ParameterError(f"bad dimension line {lines[0]!r}: {exc}") from exc
    ks, cs = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != d + 2:
            raise ParameterError(
                f"expected {d} frequencies + re + im per line, got {ln!r}")
        try:
            ks.append([int(p) for p in parts[:d]])
            cs.append(complex(float(parts[d]), float(parts[d + 1])))
        except ValueError as exc:
            raise ParameterError(f"bad coefficient line {ln!r}") from exc
        if not np.isfinite(cs[-1]):
            raise ParameterError(f"non-finite coefficient on line {ln!r}")
    if not ks:
        return TrigPolynomial.zero(d)
    return TrigPolynomial(np.asarray(ks), np.asarray(cs))


def write_polynomial(f: TrigPolynomial, target) -> None:
    """Write to a path or text stream."""
    text = dumps_polynomial(f)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    elif hasattr(target, "write"):
        target.write(text)
    else:
        raise ParameterError(f"cannot write polynomial to {target!r}")


def read_polynomial(source) -> TrigPolynomial:
    """Read from a path or text stream."""
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read polynomial file {source}: {exc}") from exc
        return loads_polynomial(text)
    if hasattr(source, "read"):
        return loads_polynomial(source.read())
    raise ParameterError(f"cannot read polynomial from {source!r}")

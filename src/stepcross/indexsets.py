"""Dyadic index sets driven by the majorant: octave boxes, the step
hyperbolic cross, its boundary shells, and the tail sums they control.

Everything here works in log2 space.  A box index s in N^d (all s_j >= 1)
carries the weight w(s) = prod_j 2^{r s_j} s_j^{b_j}, and
log2 w(s) = sum_j (r s_j + b_j log2 s_j) is the row sum that
``majorant.log2_weight`` takes of the majorant's one per-axis term; the
per-axis tables and the tail series read the same term.
``in_cross`` is the only place a box is judged inside or outside a cross,
here and in ``approx.project_q``: s lies in chi(N) when

    log2 w(s) <= log2 N + TIE_RTOL * max(1, log2 N).

The slack is far above the rounding of the sum and far below any gap
between distinct weights at these sizes, so a box whose weight equals N
exactly, even through an irrational identity such as
2^{16.5} 24^{-1/2} 9^{1/4} = 2^{15}, counts as inside everywhere.  Per-axis
weight tables only bound the candidates that ``in_cross`` then filters.

Each cross is enumerated once per (majorant, N): ``_cross`` keeps the
lex-sorted rows of chi(N) and their ``log2_weight``, both read-only, in an
LRU cache of two entries.  ``chi``, ``q_size`` and ``tail_sum`` read it at
N; ``theta`` and ``theta_sum`` read it at 2^l N and split off the shell
with the same comparison ``in_cross`` makes.  One shell or tail computation
asks for no other key than N and 2^l N, so two entries serve every call
made at one N.  After a call returns the cache holds at most
2 x ``ENUMERATION_CAP`` rows of d int64 plus one float64 weight each.

The series of the tail-domination lemma share one summand,
w(s)^{-p} 2^{beta p |s|_1} = 2^{-p (log2 w(s) - beta |s|_1)}.  ``theta_sum``
takes it from the cached weights of the shell rows.  ``tail_sum`` adds only
positive terms: it splits the boxes outside chi(N) by the first axis where
they leave the cross rows and sums each piece from per-axis prefix and
suffix sums, so nothing is subtracted.  That prefix split depends on the
cross rows alone, so ``_prefix_split`` builds it once per (majorant, N),
read-only, in a second LRU cache of two entries keyed like ``_cross``; the
four tail sums one item takes at N, one per (p, beta), share it and differ
only in their (d, s_max) tables of axis terms.  A split holds at most
d (d + 3) / 2 int64 per cross row.  Both series, like the shell top
2^l N, leave log2 space through the majorant's one range rule: a term that
underflows to 0 or overflows raises CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CapacityError, ParameterError, check_exponent, check_real
from .majorant import MajorantParams, _axis_log2_weight, _exp2, check_box_index, log2_weight

__all__ = [
    "SpectrumSet",
    "IndexFamily",
    "rho",
    "in_cross",
    "chi",
    "theta",
    "theta_prime",
    "q_set",
    "q_size",
    "size_prediction",
    "TailSumResult",
    "tail_sum",
    "theta_sum",
]

MATERIALIZE_CAP = 1 << 22
# tail_sum's truncation target, relative to the value
TAIL_REL_BOUND = 1e-6
ENUMERATION_CAP = 5_000_000
TIE_RTOL = 1e-12
EPS = math.ulp(1.0)


@dataclass(frozen=True)
class SpectrumSet:
    """A union of disjoint dyadic octave boxes in Z^d.

    The box with index s holds the frequencies k with
    2^{s_j - 1} <= |k_j| < 2^{s_j} and k_j != 0 in every coordinate, so it
    contains exactly 2^{|s|_1} points.  Cardinality is exact (Python ints);
    materialization is guarded by a point-count cap.  ``size`` and ``len``
    count the boxes as given: only ``from_boxes``, ``rho`` and
    ``materialize`` check them.
    """

    d: int
    boxes: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_boxes(d: int, boxes) -> "SpectrumSet":
        cleaned = sorted({check_box_index(s, d) for s in boxes})
        return SpectrumSet(d=d, boxes=tuple(cleaned))

    @cached_property
    def size(self) -> int:
        return sum(1 << sum(s) for s in self.boxes)

    def __len__(self) -> int:
        return self.size

    def materialize(self) -> np.ndarray:
        """All member frequencies as an (n, d) int64 array in row-lex order,
        at most ``MATERIALIZE_CAP`` of them.

        The rows are written in order into one preallocated array (see
        ``_fill``), so nothing is sorted and the peak memory is about one
        copy of the rows.  A box that ``check_box_index`` rejects at d, or a
        box given twice, raises ParameterError."""
        boxes = [check_box_index(s, self.d) for s in self.boxes]
        if len(set(boxes)) < len(boxes):
            raise ParameterError("a box is given twice")
        size = sum(1 << sum(s) for s in boxes)
        _check_cap(size, "spectrum")
        out = np.empty((size, self.d), dtype=np.int64)
        _fill(out, boxes)
        return out


def _check_cap(count: int, what: str) -> None:
    """Refuse more than ``MATERIALIZE_CAP`` rows, counted before they are allocated."""
    if count > MATERIALIZE_CAP:
        raise CapacityError(f"{what} holds {count} rows, exceeding the cap {MATERIALIZE_CAP}")


def _fill(out: np.ndarray, boxes) -> None:
    """Write the union of the disjoint octave ``boxes`` into the (n, k) view
    ``out`` in row-lex order, n being their point count and k their length.

    The boxes are grouped by their first octave o.  Every first coordinate v
    of octave o carries the same rows of the group's other coordinates, so
    the rows that start with v form one block.  The values v run over the
    negative halves of the octaves, the largest octave first, and then over
    the positive halves, upwards: each group fills one stretch of the lower
    half of ``out`` and one of the upper half.  Its sub-rows are written
    once, recursively, after its first positive v, and copied by broadcast
    after every other v."""
    width = out.shape[1]
    if not width:
        return
    groups: dict[int, list[tuple[int, ...]]] = {}
    for s in boxes:
        groups.setdefault(s[0], []).append(s[1:])
    neg = pos = len(out) // 2
    for o in sorted(groups):
        sub = groups[o]
        vals = np.arange(1 << (o - 1), 1 << o, dtype=np.int64)
        m = sum(1 << sum(t) for t in sub)
        size = len(vals) * m
        neg -= size
        # splitting the row axis of a view is itself a view: writes land in out
        lower = out[neg:neg + size].reshape(len(vals), m, width)
        upper = out[pos:pos + size].reshape(len(vals), m, width)
        pos += size
        lower[:, :, 0] = -vals[::-1, None]
        upper[:, :, 0] = vals[:, None]
        rows = upper[0, :, 1:]
        _fill(rows, sub)
        upper[1:, :, 1:] = rows
        lower[:, :, 1:] = rows


def _tensor_rows(axes) -> np.ndarray:
    """Every combination of the 1-D ``axes``, one row each, the last axis
    varying fastest: row-lex order when every axis increases.  The one
    tensor-grid builder of the package."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def rho(s) -> SpectrumSet:
    """The single octave box with index s (see ``majorant.check_box_index``)."""
    s = check_box_index(s)
    return SpectrumSet(d=len(s), boxes=(s,))


@dataclass(frozen=True)
class IndexFamily:
    """A finite family of box indices, sorted lexicographically."""

    members: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, s) -> bool:
        return tuple(s) in self.members

    def as_array(self) -> np.ndarray:
        if not self.members:
            return np.empty((0, 0), dtype=np.int64)
        return np.asarray(self.members, dtype=np.int64)


def _turning_point(r: float, b: float) -> int:
    # w(s) = 2^{rs} s^b decreases until s* = -b/(r ln 2) when b < 0.
    if b >= 0:
        return 1
    return max(1, math.ceil(-b / (r * math.log(2))))


def _axis_table(r: float, b: float, limit: float):
    """Octaves s = 1..K of one axis and their terms r s + b log2 s, with K
    past the turning point and its term above ``limit``: no larger s has a
    term at or below ``limit``."""
    k = max(8, _turning_point(r, b) + 1)
    while True:
        s = np.arange(1, k + 1)
        w = _axis_log2_weight(r, b, s)
        if w[-1] > limit:
            return s, w
        if k > 10 ** 6:
            raise CapacityError("coordinate scan exceeded 10^6 octaves")
        k *= 2


def _check_n(n: float) -> float:
    """The threshold N of every cross, shell and projection entry point."""
    return check_real(n, "threshold N", 0)


def _log2_limit(n: float, slacks: int = 1) -> float:
    target = math.log2(n)
    return target + slacks * TIE_RTOL * max(1.0, target)


def _inside(log2w: np.ndarray, n: float) -> np.ndarray:
    # the membership rule, on weights already taken with log2_weight
    return log2w <= _log2_limit(n)


def in_cross(params: MajorantParams, boxes, n: float) -> np.ndarray:
    """Whether each row of an (m, d) array of box indices lies in chi(N):
    log2 w(s) <= log2 N + TIE_RTOL * max(1, log2 N), so exact ties are in."""
    return _inside(log2_weight(params, boxes), _check_n(n))


def _members(rows: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*rows.T.tolist()))


@lru_cache(maxsize=2)
def _cross(params: MajorantParams, n: float) -> tuple[np.ndarray, np.ndarray]:
    """The boxes of chi(N) as a lex-sorted (m, d) int64 array and their
    ``log2_weight``, both read-only.

    Candidates grow one coordinate at a time: a prefix keeps a value s when
    its table terms plus the smallest terms of the later axes stay under the
    prune limit.  The membership rule of ``in_cross`` then decides."""
    r, b = params.r, params.b
    # the second slack covers the rounding of the ``later`` lower bound on
    # the axes before the last
    limit = _log2_limit(n, slacks=2)
    mins = [_axis_table(r, bj, -math.inf)[1].min() for bj in b]
    rows = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1)
    for i, bj in enumerate(b):
        if not len(rows):
            rows = np.empty((0, params.d), dtype=np.int64)
            break
        later = sum(mins[i + 1:])
        s, w = _axis_table(r, bj, limit - used.min() - later)
        keep_row, keep_s = np.nonzero(used[:, None] + w + later <= limit)
        if keep_row.size > ENUMERATION_CAP:
            raise CapacityError(
                f"hyperbolic cross at N={n} exceeds {ENUMERATION_CAP} boxes")
        rows = np.column_stack([rows.take(keep_row, axis=0), s.take(keep_s)])
        used = used.take(keep_row) + w.take(keep_s)
    # ``used`` adds log2_weight's terms in its column order from 0.0: its bits
    keep = _inside(used, n)
    rows, log2w = rows.compress(keep, axis=0), used.compress(keep)
    rows.setflags(write=False)
    log2w.setflags(write=False)
    return rows, log2w


def chi(params: MajorantParams, n: float) -> IndexFamily:
    """Box indices of the step hyperbolic cross: all s with w(s) <= N."""
    n = _check_n(n)
    return IndexFamily(_members(_cross(params, n)[0]))


def _shell(params: MajorantParams, n: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of chi(2^l N) outside chi(N) and their ``log2_weight``."""
    rows, log2w = _cross(params, n * float(_exp2(float(params.l))))
    out = ~_inside(log2w, n)
    return rows.compress(out, axis=0), log2w.compress(out)


def theta(params: MajorantParams, n: float) -> IndexFamily:
    """The boundary shell: box indices with N < w(s) <= 2^l N."""
    n = _check_n(n)
    return IndexFamily(_members(_shell(params, n)[0]))


def theta_prime(params: MajorantParams, n: float) -> IndexFamily:
    """A balanced subfamily of the shell with all coordinates comparable.

    The first d-1 coordinates range over [ceil(L/(2rd)), floor(L/(rd))] with
    L = floor(log2 N); the last coordinate is the smallest one pushing the
    box out of chi(N).  Members outside chi(2^l N), or whose last coordinate
    falls below the common lower bound, are discarded.  In dimension one
    this is the shell itself.  A grid of more than ``MATERIALIZE_CAP``
    prefixes raises CapacityError before it is built.
    """
    n = _check_n(n)
    if params.d == 1:
        return theta(params, n)

    big_l = math.floor(math.log2(n))
    r, d = params.r, params.d
    lo = max(1, math.ceil(big_l / (2 * r * d)))
    hi = math.floor(big_l / (r * d))
    if hi < lo:
        return IndexFamily(())
    _check_cap((hi - lo + 1) ** (d - 1), "balanced-shell prefix grid")
    prefixes = _tensor_rows([np.arange(lo, hi + 1)] * (d - 1))
    # mark the cross rows of each prefix (row-lex order is ravel order) by
    # their last coordinate; the first unmarked s >= 1 is outside chi(N)
    rows = _cross(params, n)[0]
    inner = [(c >= lo) & (c <= hi) for c in rows.T[:-1]]
    rows = rows.compress(np.logical_and.reduce(inner), axis=0)
    inside = np.zeros((len(prefixes), rows[:, -1].max(initial=0) + 2), dtype=bool)
    inside[np.ravel_multi_index(tuple((rows[:, :-1] - lo).T), (hi - lo + 1,) * (d - 1)),
           rows[:, -1]] = True
    last = inside[:, 1:].argmin(axis=1) + 1
    rows = np.column_stack([prefixes, last])
    rows = rows.compress(in_cross(params, rows, n * _exp2(float(params.l))) & (last >= lo), axis=0)
    return IndexFamily(_members(rows))


def q_set(params: MajorantParams, n: float) -> SpectrumSet:
    """Frequencies of the step hyperbolic cross Q(N): the union of octave
    boxes over chi(N)."""
    fam = chi(params, n)
    return SpectrumSet(d=params.d, boxes=fam.members)


def q_size(params: MajorantParams, n: float) -> int:
    """Exact cardinality of Q(N) as a Python integer."""
    rows, _ = _cross(params, _check_n(n))
    # c boxes with |s|_1 = t hold c 2^t points
    return sum(c << t for t, c in enumerate(np.bincount(sum(rows.T)).tolist()))


def size_prediction(params: MajorantParams, n: float) -> float:
    """The closed-form cardinality scale N^{1/r} L^{d-1-sum(b)/r}, L=log2 N."""
    n = _check_n(n)
    big_l = max(1.0, math.log2(n))
    expo = (params.d - 1) - sum(params.b) / params.r
    try:
        return n ** (1.0 / params.r) * big_l ** expo
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class TailSumResult:
    """Certified evaluation of the weight-series tail outside the cross."""

    value: float
    bound: float
    s_max: int

    @property
    def relative_bound(self) -> float:
        return self.bound / self.value if self.value > 0 else math.inf


def _check_series(params: MajorantParams, n: float, p: float, beta: float) -> float:
    check_real(beta, "beta", hi=params.r)
    if check_exponent(p, "p") == math.inf:
        raise ParameterError("the tail series needs a finite p, got p = inf")
    return _check_n(n)


@lru_cache(maxsize=2)
def _prefix_split(params: MajorantParams, n: float) -> tuple[tuple[np.ndarray, ...], ...]:
    """The rows of chi(N) grouped by their first k coordinates, for each axis
    k, as ``tail_sum`` reads them: for each group P, the index lo - 1 and hi
    of its interval [lo, hi] of s_k, and P's coordinates minus 1 on the axes
    before k as a (k, groups) array.  Empty when chi(N) is.  Read-only, and
    cached like ``_cross`` but apart from it, since a shell reads
    ``_cross`` at 2^l N and never splits it."""
    rows, _ = _cross(params, n)
    split = []
    # the first row of each group of equal k-prefixes, the one group at k = 0
    first = np.arange(len(rows)) == 0
    for k in range(params.d if len(rows) else 0):
        last = np.append(first[1:], True)
        head = rows.T[:k + 1].compress(first, axis=1) - 1
        group = (head[k], rows[:, k].compress(last), head[:k])
        for arr in group:
            arr.setflags(write=False)
        split.append(group)
        first[1:] |= rows[1:, k] != rows[:-1, k]
    return tuple(split)


def tail_sum(params: MajorantParams, n: float, p: float, beta: float) -> TailSumResult:
    """Sum of w(s)^{-p} 2^{beta p |s|_1} over all boxes s outside chi(N),
    with a bound that covers truncation and rounding.  Only positive terms
    are added.

    The summand is prod_j g_j(s_j) with g_j(s) = 2^{-p (r s + b_j log2 s -
    beta s)}.  A box leaves chi(N) at the first axis k where its prefix
    stops being a prefix of a cross row.  For a prefix P of cross rows the
    values of s_k that stay inside form an interval [lo, hi], because each
    axis term r s + b log2 s is increasing for b >= 0 and convex for b < 0.
    So, with pre_k[i] the sum of g_k over s <= i, suf_k[i] the sum over
    s > i and full_j = suf_j[0],

        tail = sum_k sum_P prod_{j<k} g_j(P_j) (pre_k[lo-1] + suf_k[hi])
                   prod_{j>k} full_j.

    Each suffix is summed up to s_max; past it the term ratio is at most
    2^{-a} (a = (r-beta)p) when b_j >= 0 and at most 2^{-a/2} once s exceeds
    2|b_j| p / (a ln 2), so a geometric series bounds the remainder.  s_max
    doubles until every remainder is at most TAIL_REL_BOUND/(2d) of the
    smallest suffix it pads; every term has at most d suffix factors, so the
    truncation is at most value ((1 + worst)^d - 1).  ``bound`` adds to it a
    rounding allowance of a few ulps per summed term and per factor, and the
    true value lies in [value, value + bound].

    The terms g_j, the prefix sums and the suffix sums of all d axes are one
    (d, s_max) array each, and the groups P with their [lo, hi] come from
    ``_prefix_split``, built once per (majorant, N) whatever p and beta, so
    a call adds per axis k one gather and product over the groups.
    """
    n = _check_series(params, n, p, beta)
    rows, _ = _cross(params, n)
    split = _prefix_split(params, n)
    d, r, a = params.d, params.r, (params.r - beta) * p
    s_star = [math.ceil(-2 * bj * p / (a * math.log(2))) for bj in params.b if bj < 0]
    # the smallest suffix used on axis k starts past the largest s_k in the cross
    top = np.array([col.max(initial=0) for col in rows.T])
    s_max = max([8, int(top.max()) + 1, *s_star])
    b = np.array(params.b, dtype=float)[:, None]
    ratio = np.array([2.0 ** (-a if bj >= 0 else -a / 2) for bj in params.b])
    while True:
        # row j holds axis j's terms g_j(s), s = 1..s_max, and their sums:
        # pre[j, i] over s <= i and suf[j, i] over s > i
        s = np.arange(1, s_max + 1)
        g = _exp2(-p * (_axis_log2_weight(r, b, np.broadcast_to(s, (d, s_max))) - beta * s))
        pre = np.zeros((d, s_max + 1))
        np.cumsum(g, axis=1, out=pre[:, 1:])
        suf = np.zeros((d, s_max + 1))
        suf[:, :-1] = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
        worst = float((g[:, -1] * ratio / (1 - ratio) / suf[np.arange(d), top]).max())
        if worst <= TAIL_REL_BOUND / (2 * d):
            break
        if s_max > 10 ** 6:
            raise CapacityError("tail sum failed to certify below the requested bound")
        s_max *= 2

    full = suf[:, 0].tolist()
    value = 0.0 if split else math.prod(full)
    for k, (below, hi, heads) in enumerate(split):
        head = np.prod(g[np.arange(k)[:, None], heads], axis=0)
        part = head * (pre[k, below] + suf[k, hi])
        value += float(part.sum()) * math.prod(full[k + 1:])
    # Rounding, in units of eps.  A factor g_j(s) is exp2 of an argument
    # |y| <= y_max that carries a few ulps of |y|, so it is off by at most
    # 2 y_max + 1 eps; a prefix or suffix sum adds s_max more.  A term
    # multiplies d such factors and is summed over the prefix rows and the
    # d axes.  Every term is positive, so the same count bounds the value.
    y_max = p * ((r + abs(beta)) * s_max + max(map(abs, params.b)) * math.log2(s_max))
    ulps = d * (2 * y_max + 3 + s_max) + len(rows) + 2 * d
    bound = value * (math.expm1(d * math.log1p(worst)) + ulps * EPS)
    return TailSumResult(value=value, bound=bound, s_max=s_max)


def theta_sum(params: MajorantParams, n: float, p: float, beta: float) -> float:
    """The tail_sum summand w(s)^{-p} 2^{beta p |s|_1}, summed over the
    boundary shell."""
    rows, log2w = _shell(params, _check_series(params, n, p, beta))
    return float(_exp2(-p * (log2w - beta * sum(rows.T))).sum())

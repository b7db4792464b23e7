"""Weighted family construction via geometric weight-class rounding.

Elements are bucketed into classes U_i = {u : gamma^i <= w(u) < gamma^(i+1)}
with gamma = 1 + delta/2.  Per class, an unweighted family is built on the
re-indexed class universe; for each occupied index k the classes of a window
ending at k are combined as a Cartesian product, each entry unioned with the
prefix W_k, the union of all occupied classes below the window.

The window is sized from the instance's own weights.  Let B be the family's
target (beta for extension, alpha for covering), zeta the inner target and R
the largest heaviest/lightest weight ratio inside any occupied class
(R < gamma).  Window k starts after the longest prefix of lighter occupied
classes of total weight at most (B - R*zeta) * min w(U_k), and always holds
k.  Why T = W_k | T_i over the window's classes serves every S whose
heaviest class is k:
  - class i's unit-weight zeta-entry, scaled by its weights, gives
    w(T_i) + alpha * w(S_i - T_i) <= R * zeta * w(S_i);
  - S weighs at least min w(U_k), so w(W_k) <= (B - R*zeta) * w(S);
  - adding up, w(T) + alpha * w(S - T) <= B * w(S).
The test is decided in exact integer arithmetic, so rounding never admits a
prefix that fails it.  Each window is one slice of the sorted occupied
indices, and W_k is the running OR of the class masks before that slice.

Both builders take one path, _build: partition, score the builder's
ordered candidates for the inner target by the cost of every window's
product before deduplication (_choose_inner), combine the windows of the
first cheapest (_combine) and assemble the schedule; the argument above
needs only R*zeta <= B and class families built at the zeta of the test.
Covering partitions at the fixed split delta = (alpha-1)/(alpha+1) and
passes zeta'_1 = (alpha+1)/2 first.  Extension keeps the paper's split
delta = beta/zeta' - 1, zeta' from _select_inner_beta, and passes zeta'
first.  At zeta', B - R*zeta' > (delta/2) * zeta', so the paper's window
[k - d, k], d = ceil((2/delta) * log2(2n/delta)), has a prefix that passes
the same test: each of zeta''s windows is a suffix of the paper's, and the
chosen family costs at most zeta''s before deduplication.

Uniform weights skip the rounding: scaled by its one weight, an S meets
the inequalities exactly when it meets them under unit weights, so the
unweighted family built at the target itself, alpha or beta, is valid as
it is, with Esmer et al.'s unweighted guarantee.  It is not compared with
a zeta family.

Covering's class families enter _combine as budget-0 (T, 0) entries.
Every class family starts with (0, 0), layer 0 of families._layered, which
the lift keeps, so a window's block holds the block of each shorter window
of its start, and _combine builds only the longest window of each start.
_combine works on the int64 ts and ells columns of the class families: a
block is a broadcast OR of the T masks and a broadcast sum of the budgets,
class by class, row-major with the first class outermost.  The blocks are
deduplicated once, in first-seen order with one stable np.lexsort, and
handed to families._Family._built.  So both builders refuse n > 63, and a
family whose built blocks hold more than 2^cap rows, with
ResourceCapError.  The uniform path refuses n > 63 and n > cap the same
way; a family on n <= cap elements holds at most 2^n entries.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate

import numpy as np

from . import bounds, families
from .bounds import _check_factors
from .families import (
    DEFAULT_CAP,
    CoveringFamily,
    ExtensionFamily,
    _check_weights,
    _check_word,
    _distinct,
    subset_sums,
)

__all__ = [
    "WeightClassPartition",
    "WeightedFamilyReport",
    "partition_by_weight",
    "build_weighted_covering",
    "build_weighted_extension",
]


@dataclass(frozen=True)
class WeightClassPartition:
    gamma: float
    delta: float
    classes: dict[int, tuple[int, ...]]  # class index -> sorted element ids
    index_set: tuple[int, ...]


@dataclass
class WeightedFamilyReport:
    family: CoveringFamily | ExtensionFamily
    schedule: dict
    cost_log: float | None = None


def _class_index(w: int, gamma: float) -> int:
    """Largest i with gamma^i <= w, computed robustly against float log error."""
    i = max(0, math.floor(math.log(w, gamma)))
    while gamma ** (i + 1) <= w:
        i += 1
    while i > 0 and gamma**i > w:
        i -= 1
    return i


def partition_by_weight(weights, delta: float) -> WeightClassPartition:
    """Bucket elements into geometric weight classes with gamma = 1 + delta/2."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    gamma = 1.0 + delta / 2.0
    if gamma == 1.0:
        raise ValueError(f"delta = {delta!r} is too small: gamma = 1 + delta/2 rounds to 1")
    _check_weights(weights)
    classes: dict[int, list[int]] = {}
    for u, w in enumerate(weights):
        classes.setdefault(_class_index(w, gamma), []).append(u)
    return WeightClassPartition(
        gamma=gamma,
        delta=delta,
        classes={i: tuple(us) for i, us in classes.items()},
        index_set=tuple(sorted(classes)),
    )


def _class_weights(weights, part: WeightClassPartition):
    """The occupied classes in exact integers: each one's lightest weight,
    the running totals of the classes, and the spread R as (top, low).

    The weights are scaled to integers by their common denominator, each
    read exactly (numpy floats too); the window test is homogeneous in them.
    """
    ratios = [
        (w if hasattr(w, "as_integer_ratio") else Fraction(w)).as_integer_ratio() for w in weights
    ]
    scale = math.lcm(*(q for _, q in ratios))
    exact = [int(p) * (scale // int(q)) for p, q in ratios]  # Python ints, whatever w was
    groups = [[exact[u] for u in part.classes[i]] for i in part.index_set]
    lows = list(map(min, groups))
    top, low = 1, 1  # R = top / low
    for hi, lo in zip(map(max, groups), lows):
        if hi * low > top * lo:
            top, low = hi, lo
    return lows, list(accumulate(map(sum, groups), initial=0)), (top, low)


def _slack(spread: tuple[int, int], target: float, zeta: float) -> tuple[int, int]:
    """target - R*zeta as an integer ratio (num, den) with den > 0."""
    (top, low), (b, b_den), (z, z_den) = spread, target.as_integer_ratio(), zeta.as_integer_ratio()
    return b * z_den * low - top * z * b_den, b_den * z_den * low


def _starts(lows, totals, slack: tuple[int, int]) -> list[int]:
    """Window j starts after the longest prefix of classes below it of total
    weight at most slack times the lightest weight of class j, never after j;
    the bound is floored against the integer totals, so the test is exact."""
    num, den = slack
    return [bisect_right(totals, num * lo // den, 1, j + 1) - 1 for j, lo in enumerate(lows)]


# A solve with a fresh target factor never hits these caches, so a large
# bound only grows the process by a few KB per solve.  Every inner-target
# candidate asks a class cache: the bench's weighted-mix, with classes of
# 1..12 elements, four oracle (alpha, c) and 21 candidates, can ask for 1008
# extension keys (it asked for 364 in a 20 s run), whose families have only
# 164 distinct layer shapes; its covering ops asked for 146 covering keys in
# 8000 ops, of 19 more distinct shapes.
@lru_cache(maxsize=256)
def _unweighted_covering_cached(n: int, alpha: float, cap: int) -> tuple:
    """The budget-0 (T, ell) columns of build_unweighted_covering(n, alpha)
    and its cost ln |F|, shared by the targets of equal layer shapes."""
    shapes = tuple((min(n, math.floor(alpha * s)), 0) for s in range(n + 1))
    return _layered_cached(n, shapes, 1.0, cap)


@lru_cache(maxsize=1024)
def _unweighted_extension_cached(
    n: int, alpha: float, c: float, beta: float, cap: int
) -> tuple:
    """The (T, ell) columns of build_unweighted_extension(n, alpha, c, beta)
    and its cost ln sum(c^ell), shared by the targets of equal layer shapes."""
    shapes = tuple(families._extension_layer_shape(n, s, alpha, beta, c) for s in range(n + 1))
    return _layered_cached(n, shapes, c, cap)


@lru_cache(maxsize=256)
def _layered_cached(n: int, shapes: tuple, c: float, cap: int) -> tuple:
    """The layered family whose layer s has shape shapes[s], as read-only
    (T, ell) columns, and its cost."""
    columns = families._layered(n, shapes.__getitem__, cap, c)
    return *columns, families.log_cost(columns[1], c)


def _combine(part: WeightClassPartition, starts, inner, cap: int):
    """Lift each class's family, combine the windows and deduplicate.

    inner(m) gives the (T, ell) columns of the unweighted family on m
    elements, which start with (0, 0), and window j holds the classes
    starts[j]..j, so only the longest window of each start is built.
    Returns the entries, in first-seen order, as (2, N) int64 (T, ell)
    columns, and each class's family size.  A family whose built blocks
    hold more than 2^cap rows before deduplication is refused.
    """
    lifted, prefix = [], [0]  # each class's (T, ell) columns; the running OR
    for i in part.index_set:
        local, ells = inner(len(part.classes[i]))
        spread = subset_sums([1 << e for e in part.classes[i]], np.int64)  # lifts a class mask
        lifted.append((spread[local], ells))
        prefix.append(prefix[-1] | int(spread[-1]))
    sizes = [len(ts) for ts, _ in lifted]
    ends = dict(zip(starts, range(len(starts))))  # each start's last, longest window
    size = sum(math.prod(sizes[start : j + 1]) for start, j in ends.items())
    if size > 1 << cap:
        raise families.ResourceCapError(f"weighted family of up to {size} entries exceeds 2^{cap}")
    blocks = []
    for start, j in ends.items():  # row-major, the first class outermost
        ts, ells = np.array([[prefix[start]], [0]], dtype=np.int64)
        for class_ts, class_ells in lifted[start : j + 1]:
            ts = (ts[:, None] | class_ts).ravel()
            ells = (ells[:, None] + class_ells).ravel()
        blocks.append((ts, ells))
    entries = np.stack([np.concatenate(cols) for cols in zip(*blocks)])
    return entries.take(_distinct(*entries), axis=1), sizes


def _uniform_schedule(target: float, size: int, **own) -> dict:
    """The schedule of a uniform-weight family of size entries, built at the
    family's own target: one class, whose window starts at itself."""
    return {
        "delta": 0.0, "inner": target, "gamma": 1.0, "spread": 1.0, **own,
        "class_family_sizes": {0: size}, "starts": {0: 0},
    }


def _build(weights, delta: float, target: float, candidates, inner, cap: int, **own):
    """Both builders' path: partition at delta, choose the inner target, and
    return its combined entries and the schedule: delta, inner, gamma, spread,
    the builder's own keys, each candidate's predicted ln cost, each class's
    family size and the class where each window starts."""
    part = partition_by_weight(weights, delta)
    zeta, starts, spread, predicted = _choose_inner(weights, part, target, candidates, inner)
    entries, sizes = _combine(part, starts, lambda m: inner(m, zeta)[:2], cap)
    schedule = {
        "delta": delta, "inner": zeta, "gamma": part.gamma, "spread": spread, **own,
        "predicted": predicted,
        "class_family_sizes": dict(zip(part.index_set, sizes)),
        "starts": {k: part.index_set[start] for k, start in zip(part.index_set, starts)},
    }
    return entries, schedule


def _choose_inner(weights, part: WeightClassPartition, target: float, candidates, inner):
    """The inner target of least predicted cost, its window starts, the
    spread R and each scored candidate's predicted ln cost.

    inner(m, zeta)[2] is the ln cost ln sum(c^ell) of the class family on m
    elements at zeta.  A window's family is the product of its classes'
    families under one prefix, so it costs the product of their costs C_i.
    The score is families._log_sum_exp over every window, ln sum_k prod_{i in
    window k} C_i, shorter windows of a shared start too, though _combine
    builds only the longest: scoring the built blocks alone picked costlier
    families.  A candidate with R*zeta > target is skipped, by the exact
    test of the windows, except the first, which the split target = (1 +
    delta) * zeta and R < gamma keep below target.  The first candidate of
    least predicted cost wins, so the chosen family costs at most the
    first's before deduplication, and deduplication only lowers it.
    """
    lows, totals, spread = _class_weights(weights, part)
    sizes = [len(part.classes[i]) for i in part.index_set]
    best, predicted = None, {}
    for zeta in candidates:
        slack = _slack(spread, target, zeta)
        if best and slack[0] < 0:
            continue
        starts = _starts(lows, totals, slack)
        cost = {m: inner(m, zeta)[2] for m in set(sizes)}
        logs = list(accumulate((cost[m] for m in sizes), initial=0.0))
        predicted[zeta] = families._log_sum_exp(logs[j + 1] - logs[s] for j, s in enumerate(starts))
        if not best or predicted[zeta] < predicted[best[0]]:
            best = zeta, starts
    return *best, spread[0] / spread[1], predicted


def _ladder(beta: float, j: int) -> float:
    """The inner-target probe zeta_j = 1 + (beta - 1) * 2^-j."""
    return 1.0 + (beta - 1.0) * 2.0**-j


def build_weighted_covering(
    weights, alpha: float, cap: int = DEFAULT_CAP
) -> WeightedFamilyReport:
    """alpha-covering family of an arbitrarily weighted universe.

    Uniform weights are built as the unweighted family at alpha itself.
    Otherwise the classes come from the fixed split delta = (alpha-1)/(alpha+1),
    and the inner target is the first candidate of least predicted cost
    (see _choose_inner): zeta'_1 = (alpha+1)/2, with (1 + delta) * zeta'_1 =
    alpha, then alpha - 1/log2(n) and the ladder zeta_j = 1 + (alpha-1) * 2^-j,
    j = 2..7, each when above 1.  A class costs its family's size, so each
    predicted ln cost is ln of the entry count of the candidate's window
    products before deduplication.
    """
    _check_factors(strict=True, alpha=alpha)
    n = len(weights)
    _check_word(n)
    _check_weights(weights)
    if len(set(weights)) <= 1:
        fam = families.build_unweighted_covering(n, alpha, cap=cap)
        return WeightedFamilyReport(family=fam, schedule=_uniform_schedule(alpha, fam.ts.size))
    zetas = [alpha - 1.0 / math.log2(n)] if n >= 3 else []
    zetas += [_ladder(alpha, j) for j in range(2, 8)]
    candidates = list(dict.fromkeys([(alpha + 1.0) / 2.0, *(z for z in zetas if z > 1.0)]))
    inner = lambda m, zeta: _unweighted_covering_cached(m, zeta, cap)
    delta = (alpha - 1.0) / (alpha + 1.0)
    entries, schedule = _build(weights, delta, alpha, candidates, inner, cap)
    fam = CoveringFamily._built(n, alpha, columns=entries[:1])
    return WeightedFamilyReport(family=fam, schedule=schedule)


# Slack of a coarse decision for the full-precision values' own error.
_TIE = 2 * bounds.BoundParams.precision

# Tolerances of the coarse searches a test of the inner target tries, loosest
# first, before the full-precision values decide it.
_RUNGS = (1e-2, bounds._COARSE_TOL)


def _amls(alpha: float, c: float, beta: float) -> float:
    return bounds.amls_bound(bounds.BoundParams(alpha=alpha, c=c, beta=beta)).value


@lru_cache(maxsize=4096)
def _select_inner_beta(alpha: float, c: float, beta: float, eps: float) -> float:
    """Inner target zeta' in (1, beta) with amls within eps/2 of the target bound.

    The walk starts at its fallback, the midpoint zeta'_1 = (1 + beta)/2, and
    moves to the probes zeta'_j = 1 + (beta - 1) * 2^-j, j = 2, 3, ..., toward
    1 while each is within eps/2 and leaves delta = beta/zeta' - 1 below 1:
    a deeper probe means a wider rounding slack and a narrower combination
    window.  zeta'_1 itself is never tested, since amls falls as its target
    rises: when zeta'_1 fails, every deeper probe fails too, and the walk
    would fall back to zeta'_1 anyway.

    Each test amls(zeta'_j) <= amls(beta) + eps/2 climbs the _RUNGS: it is
    settled from coarse values to 1e-2, else to 1e-4, when their margin
    exceeds both certificates plus _TIE; nearer a tie, the full-precision
    values decide it.  The certificates hold at any tolerance, so a settled
    test has the outcome the full-precision values give, and the choice is
    the one they alone would make.  The beta side is searched once per rung
    and at full precision once.
    """
    bases: dict[float, tuple[float, float]] = {}  # rung -> beta's coarse (value, err)
    target = cache(lambda: _amls(alpha, c, beta) + eps / 2.0)  # the full-precision bound

    def within(zeta: float) -> bool:
        for tol in _RUNGS:
            if tol not in bases:
                bases[tol] = bounds._coarse_amls(alpha, c, beta, tol)
            base, base_err = bases[tol]
            value, err = bounds._coarse_amls(alpha, c, zeta, tol)
            margin = base + eps / 2.0 - value
            if abs(margin) > base_err + err + _TIE:
                return margin > 0
        return _amls(alpha, c, zeta) <= target()

    chosen = (1.0 + beta) / 2.0
    for j in range(2, 21):
        zeta = _ladder(beta, j)
        if zeta <= beta / 2.0 or zeta <= 1.0 or not within(zeta):
            break
        chosen = zeta
    return chosen


def build_weighted_extension(
    weights,
    alpha: float,
    c: float,
    beta: float,
    eps: float = 0.05,
    cap: int = DEFAULT_CAP,
) -> WeightedFamilyReport:
    """(alpha, beta)-extension family of an arbitrarily weighted universe.

    Uniform weights are built as the unweighted family at beta itself.
    Otherwise the classes come from the paper's split delta = beta/zeta' - 1,
    zeta' = _select_inner_beta, and the inner target zeta is the candidate
    of least predicted cost (see _choose_inner).  The schedule records
    zeta' as paper_inner and each scored candidate's predicted ln cost.
    """
    _check_factors(alpha=alpha, c=c)
    _check_factors(strict=True, beta=beta)
    _check_factors(0.0, strict=True, eps=eps)
    n = len(weights)
    _check_word(n)
    _check_weights(weights)
    if len(set(weights)) <= 1:
        fam = families.build_unweighted_extension(n, alpha, c, beta, cap=cap)
        return WeightedFamilyReport(
            family=fam, schedule=_uniform_schedule(beta, fam.ts.size, eps=eps),
            cost_log=families.family_cost(fam, c),
        )
    paper = _select_inner_beta(alpha, c, beta, eps)
    zetas = (_ladder(beta, j) for j in range(1, 8))
    candidates = list(dict.fromkeys([paper, *(z for z in zetas if z > 1.0)]))
    inner = lambda m, zeta: _unweighted_extension_cached(m, alpha, c, zeta, cap)
    entries, schedule = _build(
        weights, beta / paper - 1.0, beta, candidates, inner, cap, eps=eps, paper_inner=paper
    )
    fam = ExtensionFamily._built(n, alpha, beta, columns=entries)
    return WeightedFamilyReport(
        family=fam, schedule=schedule, cost_log=families.family_cost(fam, c)
    )


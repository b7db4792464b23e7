"""Covering and extension families over an unweighted universe.

Subsets of the universe {0..n-1} are encoded as int bitmasks.  A covering
family answers: for every S there is a member T with S subseteq T and
w(T) <= alpha * w(S).  An extension family is a list of (T, ell) query pairs
such that every S has a pair with |S \\ T| <= ell and
w(T) + alpha * w(S \\ T) <= beta * w(S).

A family holds its entries in order as read-only int64 columns: ts, and for
an extension family ells; sets and entries are list views of them.  So n is
at most 63.  The public constructors name the first entry whose T leaves the
universe (ts >> n != 0, negative masks too), whose ell is outside [0, n], or
that repeats, in that order; builders hand _Family._built columns distinct
and in range by construction, unchecked.  log_cost adds one term per
distinct budget, ascending, in _log_sum_exp, the one log-sum-exp, with no
sum(): a cost depends on the budgets alone, not on their order.

An alpha-covering family is the (1, alpha)-extension family with every
budget 0: then S subseteq T and w(T) + w(S \\ T) = w(T).  So one layer loop
builds, and one exhaustive core verifies, both kinds.

Constructions here are layered greedy covers, one layer per cardinality s of
the covered set S; validity is certified by the exhaustive verifiers, which
are deliberately independent of the construction code.

Both builders share one greedy set-cover kernel, _greedy_cover: Chvatal's
(1979) greedy with exact gains over int64 arrays of row and column masks.
covers(R, C) is the blockwise rows x columns cover test, and the caller
supplies each row's start gain, the number of columns it covers; np.argmax
picks the first best row.  A cover of at most _CHUNK_PAIRS row x column
pairs is tested once, into a dense float32 table: each pick zeroes its
columns in a float32 vector of the columns still uncovered, and the gains
are the table times that vector, one matrix-vector product.  Every gain is
an integer of at most _CHUNK_PAIRS = 2^16 < 2^24, so float32 holds every
partial sum exactly, in any summation order, and the picks are those of
exact integer gains.  The table is 4 bytes per pair (256 kB), beside the
test's temporaries.  A larger cover keeps its memory bounded instead: each
pick subtracts from every row the columns that pick newly covers, so each
column is tested against all rows once, in chunks of _CHUNK_PAIRS pairs (or
one row, if longer), about 9 bytes of temporaries per pair: under 1 MB, and
under 2 MB at n = 20 where a row holds up to C(20, 10) columns.  (The
largest layer at n = 16 has C(16, 8)^2 = 166M pairs: 660 MB as a table.)

A layer's rows are its t-sets in combinations order, which is descending bit
reversal: _layered reads that order of all masks once, off the 2^n int64
bit-reversal table backwards (reversal is its own inverse), and a layer keeps
the masks of size t.  Its columns are its s-subsets.  T covers S iff
|S \\ T| <= ell, read from a 2^n bool table of popcount <= ell (2^n bytes, as
is the popcount table).  Every t-set misses j elements of exactly
C(n - t, j) * C(t, s - j) s-subsets, so every row starts with the same gain,
the sum of these over j <= min(ell, s), _start_gain, read off one binomial
table per n; it is C(n, s) when ell >= s.  A start gain of 0 falls back
early.

An extension layer's shape is chosen by that count.  Every s-subset lies
within ell of the same number of t-sets, so the least fractional cover
weighs C(n, s)/start, and Chvatal's greedy picks at most 1 + ln start times
that many rows.  So layer s takes, of every t in 0..min(n, floor(beta*s))
with ell = min(floor((beta*s - t)/alpha), n) and a nonzero start gain, the
(t, ell) of least counting bound C(n, s)/start * c^ell, the larger t on a
tie; the bounds are compared exactly, in integers.  A built layer that costs
at least C(n, s), picks * c^ell >= C(n, s), falls back to the s-sets, so an
extension family never costs more than the power set, n ln 2.  A covering
layer (ell = 0, t > s) covers C(t, s) > 1 columns with its first pick and at
least one with each later pick, so it never meets that fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .bounds import _check_factors

__all__ = [
    "CoveringFamily",
    "ExtensionFamily",
    "Verdict",
    "ResourceCapError",
    "DEFAULT_CAP",
    "subset_sums",
    "build_unweighted_covering",
    "build_unweighted_extension",
    "verify_covering",
    "verify_extension",
    "family_cost",
    "dump_family",
    "parse_family",
]

DEFAULT_CAP = 20

# Row x column pairs per chunk of the greedy cover test, and the most pairs
# a dense cover table holds; each pair costs about 9 bytes of temporaries
# (int64 AND, bool lookup).
_CHUNK_PAIRS = 1 << 16


class ResourceCapError(RuntimeError):
    """Universe too large for exhaustive enumeration."""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceCapError(f"universe size {n} exceeds enumeration cap {cap}")


# Subset masks are int64 in the drivers, the oracle batches and the weighted
# class combination.
_WORD_BITS = 63


def _check_word(n: int) -> None:
    if n < 0:
        raise ValueError(f"universe_size must be >= 0, got {n}")
    if n > _WORD_BITS:
        raise ResourceCapError(
            f"n = {n} exceeds the {_WORD_BITS}-element limit of int64 subset masks"
        )


def _mask(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _elements(mask: int) -> list[int]:
    """Bits of `mask` in ascending order."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _entry_columns(n: int, rows, width: int) -> np.ndarray:
    """The rows (T, or T and ell for width 2) as read-only int64 columns.
    A value outside int64 reads as -1, which fails the range and budget tests."""
    _check_word(n)
    try:
        given = table = np.array(rows, dtype=np.int64).reshape(-1, width)
    except OverflowError:
        given = np.array(rows, dtype=object).reshape(-1, width)
        table = np.where(abs(given) >> 63 == 0, given, -1).astype(np.int64)
    outside = table[:, 0] >> n != 0
    unbudgeted = ((table[:, 1:] < 0) | (table[:, 1:] > n)).any(axis=1)
    firsts = np.bincount(_distinct(*table.T), minlength=len(table))  # 1 at each first occurrence
    bad = outside | unbudgeted | (firsts == 0)
    if bad.any():
        i = int(np.argmax(bad))
        t, ell = (*given[i].tolist(), 0)[:2]  # a covering set has budget 0
        if outside[i]:
            raise ValueError(f"set {t:#x} not contained in the universe")
        if unbudgeted[i]:
            raise ValueError(f"budget {ell} out of range for entry {t:#x}")
        raise ValueError(f"duplicate set {t:#x}" if width == 1 else f"duplicate entry ({t:#x}, {ell})")
    return _frozen(table.T)


def _frozen(columns) -> np.ndarray:
    """The int64 columns, C-contiguous (copied only if they are not) and read-only."""
    columns = np.ascontiguousarray(columns, dtype=np.int64)
    columns.flags.writeable = False
    return columns


class _Family:
    """Equality and repr over the header and the entry columns."""

    @classmethod
    def _built(cls, *header, columns):
        """The family of the header (n and the factors, in constructor order)
        and a builder's distinct, in-range entry columns, unchecked."""
        family = cls.__new__(cls)
        vars(family).update(zip(("universe_size", "alpha", "beta"), header))
        vars(family).update(zip(("ts", "ells"), _frozen(columns)))
        return family

    def __eq__(self, other) -> bool:
        same = type(other) is type(self)
        return same and all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class CoveringFamily(_Family):
    """An alpha-covering family of {0..universe_size-1}; sets views ts."""

    def __init__(self, universe_size: int, alpha: float, sets) -> None:
        _check_factors(alpha=alpha)
        self.universe_size, self.alpha = universe_size, alpha
        (self.ts,) = _entry_columns(universe_size, sets, 1)

    @property
    def sets(self) -> list[int]:
        return self.ts.tolist()


class ExtensionFamily(_Family):
    """An (alpha, beta)-extension family; entries views ts and ells."""

    def __init__(self, universe_size: int, alpha: float, beta: float, entries) -> None:
        _check_factors(alpha=alpha, beta=beta)
        self.universe_size, self.alpha, self.beta = universe_size, alpha, beta
        self.ts, self.ells = _entry_columns(universe_size, entries, 2)

    @property
    def entries(self) -> list[tuple[int, int]]:
        return list(zip(self.ts.tolist(), self.ells.tolist()))


@dataclass
class Verdict:
    ok: bool
    violating_set: int | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def subset_sums(values, dtype) -> np.ndarray:
    """sums[m] = sum of values[i] over the bits i of m, for every mask m.

    Built by doubling, so each sum adds its values in ascending bit order;
    subset_sums([1] * n, np.uint8) is the popcount table.
    """
    sums = np.zeros(1 << len(values), dtype=dtype)
    for i, v in enumerate(values):
        sums[1 << i : 2 << i] = sums[: 1 << i] + v
    return sums


def _runs(columns) -> tuple[np.ndarray, np.ndarray]:
    """A stable np.lexsort of the rows of equal-length 1-D columns, which brings
    equal rows together in index order, and the head of each run of them."""
    order = np.lexsort(columns)
    head = np.zeros(order.size, dtype=bool)
    head[:1] = True
    for col in columns:
        col = col[order]
        head[1:] |= col[1:] != col[:-1]
    return order, head


def _distinct(*columns: np.ndarray) -> np.ndarray:
    """The index of each distinct row's first occurrence, ascending."""
    order, head = _runs(columns)
    return np.sort(order[head])


def _first_seen(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_distinct's indices, and for every row the position of its own among them."""
    order, head = _runs(columns)
    firsts = order[head]
    seen = np.argsort(firsts, kind="stable")
    position = np.empty_like(seen)
    position[seen] = np.arange(seen.size)
    inverse = np.empty_like(order)
    inverse[order] = position[np.cumsum(head) - 1]
    return firsts[seen], inverse


def _greedy_cover(rows: np.ndarray, cols: np.ndarray, covers, gains: np.ndarray):
    """Indices of the greedy rows that cover every column, in pick order.

    See the module docstring.  gains[j] must be the number of columns row j
    covers; it is updated in place.  Returns None when columns remain that
    no row covers.  There must be at least one row.
    """
    picks: list[int] = []
    left = len(cols)
    dense = len(rows) * left <= _CHUNK_PAIRS
    if dense:
        table = covers(rows, cols).astype(np.float32)
        alive = np.ones(left, dtype=np.float32)
    while left > 0:
        j = int(np.argmax(gains))
        if gains[j] <= 0:
            return None
        left -= int(gains[j])
        if dense:
            alive[table[j] > 0] = 0
            gains[:] = table @ alive
        else:
            hit = covers(rows[j : j + 1], cols)[0]
            newly = cols[hit]
            step = max(1, _CHUNK_PAIRS // len(newly))
            for i in range(0, len(rows), step):
                gains[i : i + step] -= covers(rows[i : i + step], newly).sum(axis=1)
            cols = cols[~hit]
        picks.append(j)
    return picks


@cache
def _binomials(n: int) -> tuple[tuple[int, ...], ...]:
    """C(k, j) as rows[k][j], for 0 <= j <= k <= n."""
    return tuple(tuple(math.comb(k, j) for j in range(k + 1)) for k in range(n + 1))


def _start_gain(n: int, s: int, t: int, ell: int) -> int:
    """The number of s-subsets S with |S \\ T| <= ell for one t-set T: T
    misses j elements of C(n - t, j) * C(t, s - j) of them.  With ell >= s
    every j counts, and the sum is C(n, s) (Vandermonde)."""
    comb = _binomials(n)
    if ell >= s:
        return comb[n][s]
    js = range(max(0, s - t), min(ell, n - t) + 1)
    return sum(comb[n - t][j] * comb[t][s - j] for j in js)


def _greedy_layer(n: int, s: int, t: int, ell: int, popcount, ordered) -> np.ndarray | None:
    """Greedy t-sets until every s-subset S has a pick T with |S \\ T| <= ell;
    None when some s-subset has no such t-set."""
    start = _start_gain(n, s, t, ell)
    if start == 0:
        return None
    rows = ordered[popcount[ordered] == t]  # the t-sets in combinations order
    within = popcount <= ell  # T covers S iff within[S & ~T]
    picks = _greedy_cover(
        rows,
        np.flatnonzero(popcount == s),
        lambda r, c: within[c & ~r[:, None]],
        np.full(len(rows), start, dtype=np.int64),
    )
    return None if picks is None else rows[picks]


def _layered(n: int, shape, cap: int, c: float = 1.0) -> np.ndarray:
    """Layered greedy (T, ell) entries, deduplicated in first-pick order, as
    read-only (2, N) int64 columns.

    shape(s) gives layer s its target size t and budget ell.  Layer s picks
    t-sets until every s-subset S has a pick T with |S \\ T| <= ell; a layer
    that cannot make progress, whose only choice is T = S, or whose picks
    cost picks * c^ell >= C(n, s), falls back to the always-valid
    {(S, 0) : |S| = s}.
    """
    _check_cap(n, cap)
    _check_word(n)
    popcount = subset_sums([1] * n, np.uint8)
    ordered = subset_sums([1 << (n - 1 - i) for i in range(n)], np.int64)[::-1]
    layers = []
    for s in range(n + 1):
        t, ell = shape(s)
        picks = None if (t, ell) == (s, 0) else _greedy_layer(n, s, t, ell, popcount, ordered)
        if picks is None or len(picks) * Fraction(c) ** ell >= math.comb(n, s):
            picks, ell = np.flatnonzero(popcount == s), 0
        layers.append((picks, np.full_like(picks, ell)))
    columns = np.stack([np.concatenate(cols) for cols in zip(*layers)])
    return _frozen(columns.take(_distinct(*columns), axis=1))


def build_unweighted_covering(
    n: int, alpha: float, cap: int = DEFAULT_CAP
) -> CoveringFamily:
    """Greedy layered alpha-covering family of {0..n-1} under uniform weights.

    The budget-0 extension family whose layer s covers all s-subsets by sets
    of size min(n, floor(alpha * s)).
    """
    _check_factors(strict=True, alpha=alpha)
    entries = _layered(n, lambda s: (min(n, math.floor(alpha * s)), 0), cap)
    return CoveringFamily._built(n, alpha, columns=entries[:1])


def _extension_layer_shape(
    n: int, s: int, alpha: float, beta: float, c: float
) -> tuple[int, int]:
    """Target set size t and budget ell for the cardinality-s layer.

    Of every t in 0..min(n, floor(beta*s)) with a nonzero start gain, the
    one of least counting bound C(n, s)/start * c^ell, the larger t on a tie.
    The budget floor((beta*s - t)/alpha) makes the weight inequality hold by
    construction for any S the layer covers.  It is capped at n, the largest
    budget an entry may carry: a smaller budget covers fewer S and keeps the
    inequality for those it covers.
    """
    if s == 0:
        return 0, 0
    top = min(n, math.floor(beta * s))

    def budget(t: int) -> int:
        return min(math.floor((beta * s - t) / alpha), n)

    # A t with ell >= s covers all C(n, s) s-subsets, so its bound is c^ell.
    # The budget falls as t grows, so of these t the largest has the least
    # bound and wins their ties: the search starts there, or at 0 if none.
    low = 0
    while low < top and budget(low + 1) >= s:
        low += 1
    # With c = p/q the bound is C(n, s)/q^n times the integer p^ell q^(n - ell) / start.
    p, q = Fraction(c).as_integer_ratio()
    best = None
    for t in range(low, top + 1):
        ell = budget(t)
        start = _start_gain(n, s, t, ell)
        if start:
            cost = p**ell * q ** (n - ell)
            if best is None or cost * best[1] <= best[0] * start:
                best = cost, start, t, ell
    return best[2:]


def build_unweighted_extension(
    n: int, alpha: float, c: float, beta: float, cap: int = DEFAULT_CAP
) -> ExtensionFamily:
    """Greedy layered (alpha, beta)-extension family under uniform weights."""
    _check_factors(alpha=alpha, c=c)
    _check_factors(strict=True, beta=beta)
    entries = _layered(n, lambda s: _extension_layer_shape(n, s, alpha, beta, c), cap, c)
    return ExtensionFamily._built(n, alpha, beta, columns=entries)


def _check_weights(weights) -> None:
    """ValueError naming the first weight that is not finite and >= 1."""
    for w in weights:
        if not 1 <= w < math.inf:  # NaN fails both comparisons
            raise ValueError(f"weights must be finite and >= 1, got {w!r}")


def _verify(family, weights, ells, alpha: float, beta: float, cap: int) -> Verdict:
    """Exhaustive check that every S has an entry (T, ell), T from family.ts
    and ell from ells, with |S \\ T| <= ell and w(T) + alpha * w(S \\ T) <= beta * w(S)."""
    n = family.universe_size
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    _check_weights(weights)
    _check_cap(n, cap)
    size = 1 << n
    w = subset_sums(weights, np.float64)
    pc = subset_sums([1] * n, np.uint8)
    masks = np.arange(size)
    covered = np.zeros(size, dtype=bool)
    for t, ell in zip(family.ts.tolist(), ells.tolist()):
        inside = masks & t  # S & T
        covered |= (pc[masks ^ inside] <= ell) & (
            w[t] + alpha * (w - w[inside]) <= beta * w + 1e-9
        )
    if covered.all():
        return Verdict(ok=True, checked=size)
    return Verdict(ok=False, violating_set=int(np.argmin(covered)), checked=size)


def verify_covering(
    family: CoveringFamily, weights, cap: int = DEFAULT_CAP
) -> Verdict:
    """Exhaustively check the covering property for every S under `weights`.

    The sets are checked as budget-0 entries with inner factor 1: for S
    inside T, w(S) - w(S & T) is exactly 0.0.
    """
    return _verify(family, weights, np.zeros_like(family.ts), 1.0, family.alpha, cap)


def verify_extension(
    family: ExtensionFamily, weights, cap: int = DEFAULT_CAP
) -> Verdict:
    """Exhaustively check both extension-family inequalities for every S."""
    return _verify(family, weights, family.ells, family.alpha, family.beta, cap)


def family_cost(family: ExtensionFamily, c: float) -> float:
    """ln of the c-cost sum(c^ell) over entries, via log-sum-exp."""
    return log_cost(family.ells, c)


def _log_sum_exp(exponents, counts=None) -> float:
    """ln sum(counts_i * e^x_i), every count 1 by default; -inf when empty.
    The terms, scaled by the largest x_i, are added left to right by a loop,
    not by sum(), whose float rounding changed in Python 3.12."""
    exponents = list(exponents)
    if not exponents:
        return -math.inf
    top, total = max(exponents), 0.0
    for i, x in enumerate(exponents):
        total += math.exp(x - top) * (1 if counts is None else counts[i])
    return top + math.log(total)


def log_cost(ells, c: float) -> float:
    """ln sum(c^ell) over the budgets ell; -inf when empty.  One _log_sum_exp
    over the distinct budgets, ascending, each term times its count, so the
    cost depends on the budgets alone, not on their order."""
    _check_factors(c=c)
    ells = np.asarray(ells, dtype=np.int64)
    if ells.size and (low := int(ells.min())) < 0:
        raise ValueError(f"budgets must be >= 0, got {low}")
    values, counts = np.unique(ells, return_counts=True)
    return _log_sum_exp([ell * math.log(c) for ell in values.tolist()], counts.tolist())


def _factor(x: float) -> str:
    """x as {:g} when that reads back as x, else its round-tripping repr."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def dump_family(
    family: CoveringFamily | ExtensionFamily, schedule: str | None = None
) -> str:
    """Line-oriented dump: header, optional schedule comment, one entry per line."""
    head = f"n={family.universe_size} alpha={_factor(family.alpha)}"
    if isinstance(family, CoveringFamily):
        lines = [f"family covering {head}"] + [f"{t:#x}" for t in family.ts.tolist()]
    else:
        lines = [f"family extension {head} beta={_factor(family.beta)}"]
        lines += [f"{t:#x} {ell}" for t, ell in zip(family.ts.tolist(), family.ells.tolist())]
    if schedule:
        lines.insert(1, f"# schedule {schedule}")
    return "\n".join(lines) + "\n"


def _read(read, text: str, what: str):
    """read(text), or a ValueError naming what could not be read."""
    try:
        return read(text)
    except ValueError:
        raise ValueError(f"bad {what}: {text!r}") from None


def parse_family(text: str) -> CoveringFamily | ExtensionFamily:
    """Inverse of dump_family; schedule comments are ignored.  A bad header
    value names its field, and a bad entry its 1-based line and text."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip() and ln[0] != "#"]
    if not lines:
        raise ValueError("empty family dump")
    header = lines[0][1]
    head = header.split()
    if len(head) < 3 or head[0] != "family" or not all("=" in part for part in head[2:]):
        raise ValueError(f"bad family header: {header!r}")
    kind, kv = head[1], dict(part.split("=", 1) for part in head[2:])
    if kind not in ("covering", "extension"):
        raise ValueError(f"unknown family kind {kind!r}")
    try:
        n = _read(int, kv["n"], "family header n")
        alpha = _read(float, kv["alpha"], "family header alpha")
        beta = _read(float, kv["beta"], "family header beta") if kind == "extension" else None
    except KeyError as exc:
        raise ValueError(f"family header lacks {exc.args[0]}=: {header!r}") from None
    bases = (16,) if kind == "covering" else (16, 10)  # T in hex, then ell

    def entry(line: str) -> list[int]:
        return [int(word, base) for word, base in zip(line.split(), bases, strict=True)]

    rows = [_read(entry, ln, f"{kind} entry on line {i}") for i, ln in lines[1:]]
    if kind == "covering":
        return CoveringFamily(universe_size=n, alpha=alpha, sets=rows)
    return ExtensionFamily(universe_size=n, alpha=alpha, beta=beta, entries=rows)

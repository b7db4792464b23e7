"""Covering and extension families over an unweighted universe.

Subsets of the universe {0..n-1} are encoded as int bitmasks.  A covering
family answers: for every S there is a member T with S subseteq T and
w(T) <= alpha * w(S).  An extension family is a list of (T, ell) query pairs
such that every S has a pair with |S \\ T| <= ell and
w(T) + alpha * w(S \\ T) <= beta * w(S).

An alpha-covering family is the (1, alpha)-extension family with every
budget 0: then S subseteq T and w(T) + w(S \\ T) = w(T).  So one layer loop
builds, and one exhaustive core verifies, both kinds.

Constructions here are layered greedy covers, one layer per cardinality s of
the covered set S; validity is certified by the exhaustive verifiers, which
are deliberately independent of the construction code.

Both builders share one greedy set-cover kernel, _greedy_cover: Chvatal's
(1979) greedy with exact incremental gains over int64 arrays of row and
column masks.  covers(R, C) is the blockwise rows x columns cover test, and
the caller supplies each row's start gain, the number of columns it covers.
Each pick subtracts from every row the columns that pick newly covers, so
each column is tested against all rows once, and np.argmax picks the first
best row.  The test runs in chunks of _CHUNK_PAIRS pairs (or one row, if
longer), about 9 bytes of temporaries per pair: under 1 MB, and under 2 MB
at n = 20 where a row holds up to C(20, 10) columns.

A layer's rows are its t-sets in combinations order, and its columns its
s-subsets.  T covers S iff |S \\ T| <= ell, read from a 2^n bool table of
popcount <= ell (2^n bytes, as is the popcount table).  Every t-set misses
j elements of exactly C(n - t, j) * C(t, s - j) s-subsets, so every row
starts with the same gain, the sum of these over j <= min(ell, s).  A layer
whose start gain is 0 falls back before it lists any candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from . import bounds
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

# Row x column pairs per chunk of the greedy cover test; each pair costs
# about 9 bytes of temporaries (int64 AND, bool lookup).
_CHUNK_PAIRS = 1 << 16


class ResourceCapError(RuntimeError):
    """Universe too large for exhaustive enumeration."""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceCapError(f"universe size {n} exceeds enumeration cap {cap}")


def _mask(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _check_entries(n: int, sets, budgets, keys: list, duplicate: str) -> None:
    """Reject a negative n, and entry i when sets[i] leaves the universe,
    budgets[i] is out of range or keys[i] repeats; the error names the first
    bad entry.

    set(keys) hashes every key in C; the Python loop hashes keys itself only
    when that set is short, to name the first repeat.
    """
    if n < 0:
        raise ValueError(f"universe_size must be >= 0, got {n}")
    repeats = len(set(keys)) < len(keys)
    outside = ~((1 << n) - 1)
    seen = set()
    for t, ell, key in zip(sets, budgets, keys):
        if t & outside:
            raise ValueError(f"set {t:#x} not contained in the universe")
        if not 0 <= ell <= n:
            raise ValueError(f"budget {ell} out of range for entry {t:#x}")
        if repeats:
            if key in seen:
                raise ValueError(duplicate.format(t=t, ell=ell))
            seen.add(key)


@dataclass
class CoveringFamily:
    universe_size: int
    alpha: float
    sets: list[int]

    def __post_init__(self) -> None:
        _check_factors(alpha=self.alpha)
        _check_entries(
            self.universe_size, self.sets, repeat(0), self.sets, "duplicate set {t:#x}"
        )


@dataclass
class ExtensionFamily:
    universe_size: int
    alpha: float
    beta: float
    entries: list[tuple[int, int]]

    def __post_init__(self) -> None:
        _check_factors(alpha=self.alpha, beta=self.beta)
        _check_entries(
            self.universe_size,
            [t for t, _ in self.entries],
            [ell for _, ell in self.entries],
            self.entries,
            "duplicate entry ({t:#x}, {ell})",
        )


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


def _greedy_cover(rows: np.ndarray, cols: np.ndarray, covers, gains: np.ndarray):
    """Indices of the greedy rows that cover every column, in pick order.

    See the module docstring.  gains[j] must be the number of columns row j
    covers; it is updated in place.  Returns None when columns remain that
    no row covers.  There must be at least one row.
    """
    picks: list[int] = []
    while len(cols):
        j = int(np.argmax(gains))
        if gains[j] <= 0:
            return None
        hit = covers(rows[j : j + 1], cols)[0]
        newly = cols[hit]
        step = max(1, _CHUNK_PAIRS // len(newly))
        for i in range(0, len(rows), step):
            gains[i : i + step] -= covers(rows[i : i + step], newly).sum(axis=1)
        cols = cols[~hit]
        picks.append(j)
    return picks


def _greedy_layer(n: int, s: int, t: int, ell: int, popcount: np.ndarray) -> list[int] | None:
    """Greedy t-sets until every s-subset S has a pick T with |S \\ T| <= ell;
    None when some s-subset has no such t-set."""
    start = sum(math.comb(n - t, j) * math.comb(t, s - j) for j in range(min(ell, s) + 1))
    if start == 0:
        return None
    rows = np.array([_mask(c) for c in combinations(range(n), t)], dtype=np.int64)
    within = popcount <= ell  # T covers S iff within[S & ~T]
    picks = _greedy_cover(
        rows,
        np.flatnonzero(popcount == s),
        lambda r, c: within[c & ~r[:, None]],
        np.full(len(rows), start, dtype=np.int64),
    )
    return None if picks is None else rows[picks].tolist()


def _layered(n: int, shape, cap: int) -> list[tuple[int, int]]:
    """Layered greedy (T, ell) entries, deduplicated in first-pick order.

    shape(s) gives layer s its target size t and budget ell.  Layer s picks
    t-sets until every s-subset S has a pick T with |S \\ T| <= ell; a layer
    that cannot make progress, or whose only choice is T = S, falls back to
    the always-valid {(S, 0) : |S| = s}.
    """
    _check_cap(n, cap)
    popcount = subset_sums([1] * n, np.uint8)
    entries: dict[tuple[int, int], None] = {}
    for s in range(n + 1):
        t, ell = shape(s)
        picks = None if (t, ell) == (s, 0) else _greedy_layer(n, s, t, ell, popcount)
        if picks is None:
            picks, ell = np.flatnonzero(popcount == s).tolist(), 0
        entries.update(dict.fromkeys((pick, ell) for pick in picks))
    return list(entries)


def build_unweighted_covering(
    n: int, alpha: float, cap: int = DEFAULT_CAP
) -> CoveringFamily:
    """Greedy layered alpha-covering family of {0..n-1} under uniform weights.

    The budget-0 extension family whose layer s covers all s-subsets by sets
    of size min(n, floor(alpha * s)).
    """
    _check_factors(strict=True, alpha=alpha)
    entries = _layered(n, lambda s: (min(n, math.floor(alpha * s)), 0), cap)
    return CoveringFamily(universe_size=n, alpha=alpha, sets=[t for t, _ in entries])


def _extension_layer_shape(
    n: int, s: int, alpha: float, beta: float, c: float
) -> tuple[int, int]:
    """Target set size t and budget ell for the cardinality-s layer.

    The sampled-set fraction tau* at kappa = s/n comes from the saddle-point
    machinery; the budget floor((beta*s - t)/alpha) makes the weight
    inequality hold by construction for any S the layer covers.  It is
    capped at n, the largest budget an entry may carry: a smaller budget
    covers fewer S and keeps the inequality for those it covers.

    t = round(tau* n) is read off a coarse bracket that holds g_star's tau*
    when both ends round alike; only otherwise does g_star search on.
    """
    if s == 0:
        return 0, 0
    kappa = s / n
    if kappa <= 1.0 / beta:
        lo, hi, _ = bounds._coarse_g_star(alpha, beta, c, kappa)
        t = round(lo * n)
        if round(hi * n) != t:
            _, tau = bounds.g_star(alpha, beta, c, kappa)
            t = round(tau * n)
    else:
        t = s
    t = max(0, min(t, math.floor(beta * s), n))
    ell = min(math.floor((beta * s - t) / alpha), n)
    return t, ell


def build_unweighted_extension(
    n: int, alpha: float, c: float, beta: float, cap: int = DEFAULT_CAP
) -> ExtensionFamily:
    """Greedy layered (alpha, beta)-extension family under uniform weights."""
    _check_factors(alpha=alpha, c=c)
    _check_factors(strict=True, beta=beta)
    entries = _layered(n, lambda s: _extension_layer_shape(n, s, alpha, beta, c), cap)
    return ExtensionFamily(universe_size=n, alpha=alpha, beta=beta, entries=entries)


def _check_weights(weights) -> None:
    """ValueError naming the first weight that is not finite and >= 1."""
    for w in weights:
        if not 1 <= w < math.inf:  # NaN fails both comparisons
            raise ValueError(f"weights must be finite and >= 1, got {w!r}")


def _verify(n: int, weights, entries, alpha: float, beta: float, cap: int) -> Verdict:
    """Exhaustive check that every S has an entry (T, ell) with |S \\ T| <= ell
    and w(T) + alpha * w(S \\ T) <= beta * w(S)."""
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    _check_weights(weights)
    _check_cap(n, cap)
    size = 1 << n
    w = subset_sums(weights, np.float64)
    pc = subset_sums([1] * n, np.uint8)
    masks = np.arange(size)
    covered = np.zeros(size, dtype=bool)
    for t, ell in entries:
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
    entries = [(t, 0) for t in family.sets]
    return _verify(family.universe_size, weights, entries, 1.0, family.alpha, cap)


def verify_extension(
    family: ExtensionFamily, weights, cap: int = DEFAULT_CAP
) -> Verdict:
    """Exhaustively check both extension-family inequalities for every S."""
    return _verify(
        family.universe_size, weights, family.entries, family.alpha, family.beta, cap
    )


def family_cost(family: ExtensionFamily, c: float) -> float:
    """ln of the c-cost sum(c^ell) over entries, via log-sum-exp."""
    _check_factors(c=c)
    return log_cost(family.entries, c)


def log_cost(entries, c: float) -> float:
    """ln sum(c^ell) over (T, ell) pairs, via log-sum-exp; -inf when empty."""
    if not entries:
        return -math.inf
    logc = math.log(c)
    terms = [ell * logc for _, ell in entries]
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def _factor(x: float) -> str:
    """x as {:g} when that reads back as x, else its round-tripping repr."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def dump_family(
    family: CoveringFamily | ExtensionFamily, schedule: str | None = None
) -> str:
    """Line-oriented dump: header, optional schedule comment, one entry per line."""
    head = f"n={family.universe_size} alpha={_factor(family.alpha)}"
    if isinstance(family, CoveringFamily):
        lines = [f"family covering {head}"] + [f"{t:#x}" for t in family.sets]
    else:
        lines = [f"family extension {head} beta={_factor(family.beta)}"]
        lines += [f"{t:#x} {ell}" for t, ell in family.entries]
    if schedule:
        lines.insert(1, f"# schedule {schedule}")
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> CoveringFamily | ExtensionFamily:
    """Inverse of dump_family; schedule comments are ignored."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty family dump")
    head = lines[0].split()
    if len(head) < 3 or head[0] != "family" or not all("=" in part for part in head[2:]):
        raise ValueError(f"bad family header: {lines[0]!r}")
    kind = head[1]
    kv = dict(part.split("=", 1) for part in head[2:])
    try:
        n, alpha = int(kv["n"]), float(kv["alpha"])
        beta = float(kv["beta"]) if kind == "extension" else None
    except KeyError as exc:
        raise ValueError(f"family header lacks {exc.args[0]}=: {lines[0]!r}") from None
    if kind == "covering":
        sets = [int(ln, 16) for ln in lines[1:]]
        return CoveringFamily(universe_size=n, alpha=alpha, sets=sets)
    if kind == "extension":
        entries = [(int(t, 16), int(ell)) for t, ell in map(str.split, lines[1:])]
        return ExtensionFamily(universe_size=n, alpha=alpha, beta=beta, entries=entries)
    raise ValueError(f"unknown family kind {kind!r}")

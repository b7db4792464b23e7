"""Weighted problem instances: Vertex Cover, d-Hitting Set, Feedback Vertex Set.

Each instance exposes a monotone membership predicate over vertex subsets
(bitmask encoded) and an exhaustive exact optimizer used as the test oracle.
Partial Vertex Cover ships as a membership predicate only.

Each instance fact is stated once.  _SCHEMA gives every kind its class,
constraint field and header numbers, for both parse_instance and
emit_instance.  All kinds share one weights check, and VC, PVC and FVS one
edge normaliser.  VC, HS and PVC store their constraints once as int masks,
and S hits a constraint m iff S & m, so Vertex Cover is 2-Hitting Set.

membership_many is the predicate over an int64 array of masks (so n <= 63):
one `arr & m != 0` test per constraint mask, and for FVS a forest peel that
shares no code with the oracles' 2-core peel; membership_table caches it over
all 2^n masks.  weigh_many is the one kernel that weighs and counts masks,
and rank_subsets the one weight -> cardinality -> bitmask ranking.
membership_check (union-find for FVS) and weight_of stay the independent
scalar references.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .families import DEFAULT_CAP, ResourceCapError, _check_cap, _mask, subset_sums

__all__ = [
    "WeightedVCInstance",
    "WeightedHSInstance",
    "WeightedFVSInstance",
    "WeightedPVCInstance",
    "ParseError",
    "membership_check",
    "membership_many",
    "membership_table",
    "exact_opt",
    "weight_of",
    "weigh_many",
    "rank_subsets",
    "parse_instance",
    "emit_instance",
    "random_instance",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_weights(instance) -> None:
    for w in instance.weights:
        if type(w) is not int or w < 1:
            raise ValueError(f"weights must be integers >= 1, got {w!r}")
    if len(instance.weights) != instance.n:
        raise ValueError("need exactly n weights")


def _set_edges(instance, simple: bool) -> None:
    """Store range-checked edges as sorted (min, max) pairs.  A simple graph
    also rejects self-loops, drops repeats and stores its constraint masks."""
    n = instance.n
    norm = []
    for u, v in instance.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if simple and u == v:
            raise ValueError(f"self-loop at {u} not allowed in {instance.kind}")
        norm.append((min(u, v), max(u, v)))
    edges = tuple(sorted(set(norm) if simple else norm))
    object.__setattr__(instance, "edges", edges)
    if simple:
        object.__setattr__(instance, "masks", tuple(map(_mask, edges)))


# Constraint masks live on the instance, out of eq, hash and repr.  A cache
# keyed on the instance would hash it on every lookup, which costs about as
# much as a whole membership check.
def _masks_field():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class WeightedVCInstance:
    """Vertex cover as the d = 2 hitting set of its edges."""

    n: int
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    masks: tuple[int, ...] = _masks_field()

    def __post_init__(self):
        _check_weights(self)
        _set_edges(self, simple=True)

    kind = "wvc"
    d = 2


@dataclass(frozen=True)
class WeightedHSInstance:
    n: int
    weights: tuple[int, ...]
    d: int
    sets: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = _masks_field()

    def __post_init__(self):
        _check_weights(self)
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        norm = set()
        for s in self.sets:
            ss = tuple(sorted(set(s)))
            if not ss:
                raise ValueError("empty hyperedge")
            if len(ss) > self.d:
                raise ValueError(f"hyperedge {ss} larger than d = {self.d}")
            if any(not 0 <= e < self.n for e in ss):
                raise ValueError(f"hyperedge {ss} out of range")
            norm.add(ss)
        object.__setattr__(self, "sets", tuple(sorted(norm)))
        object.__setattr__(self, "masks", tuple(map(_mask, self.sets)))

    kind = "whs"


@dataclass(frozen=True)
class WeightedFVSInstance:
    """Multigraph semantics: parallel edges and self-loops each form a cycle."""

    n: int
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_weights(self)
        _set_edges(self, simple=False)

    kind = "wfvs"


@dataclass(frozen=True)
class WeightedPVCInstance:
    """Partial vertex cover: S is a solution iff it covers at least t edges."""

    n: int
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    t: int
    masks: tuple[int, ...] = _masks_field()

    def __post_init__(self):
        _check_weights(self)
        if self.t < 0:
            raise ValueError("threshold t must be >= 0")
        _set_edges(self, simple=True)
        if self.t > len(self.edges):
            raise ValueError("threshold t exceeds the number of edges")

    kind = "wpvc"


Instance = WeightedVCInstance | WeightedHSInstance | WeightedFVSInstance | WeightedPVCInstance


def _fvs_acyclic(n: int, edges, surviving_mask: int) -> bool:
    """Union-find acyclicity of the surviving multigraph."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if not (surviving_mask >> u & 1 and surviving_mask >> v & 1):
            continue
        if u == v:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def membership_check(instance: Instance, subset: int) -> bool:
    """True iff `subset` (bitmask) is a solution of the instance's set system."""
    if subset & ~((1 << instance.n) - 1):
        raise ValueError("subset contains out-of-range elements")
    if isinstance(instance, (WeightedVCInstance, WeightedHSInstance)):
        return all(subset & m for m in instance.masks)
    if isinstance(instance, WeightedFVSInstance):
        remaining = ~subset & ((1 << instance.n) - 1)
        return _fvs_acyclic(instance.n, instance.edges, remaining)
    if isinstance(instance, WeightedPVCInstance):
        return sum(1 for m in instance.masks if subset & m) >= instance.t
    raise TypeError(f"unsupported instance type {type(instance)!r}")


# Rows per chunk of the vectorised FVS peel: at most 2 MB of float64 degrees.
_PEEL_ROWS = 1 << 12


def _fvs_forests(instance: WeightedFVSInstance, alive: np.ndarray) -> np.ndarray:
    """True where the multigraph induced on alive[i] is a forest.

    Each round removes every live vertex of live degree <= 1, where parallel
    edges count each and a self-loop counts 2: so a vertex goes iff it has no
    self-loop, at most one distinct live neighbour and no live parallel edge.
    A set is a forest iff the rounds empty it.  The degrees of a round are
    one matmul of the 0/1 live matrix with the edge multiplicities.
    """
    n = instance.n
    mult = np.zeros((n, n))
    for u, v in instance.edges:
        mult[u, v] += 1
        mult[v, u] += 1
    out = np.empty(alive.size, dtype=bool)
    for lo in range(0, alive.size, _PEEL_ROWS):
        octets = alive[lo : lo + _PEEL_ROWS].astype("<i8").view(np.uint8)
        bits = np.unpackbits(octets.reshape(-1, 8), axis=1, bitorder="little")
        live = bits[:, :n].astype(np.float64)
        while True:
            peeled = live * (live @ mult > 1)
            if np.array_equal(peeled, live):
                break
            live = peeled
        out[lo : lo + _PEEL_ROWS] = ~live.any(axis=1)
    return out


def membership_many(instance: Instance, subsets: np.ndarray) -> np.ndarray:
    """membership_check over a 1-D int64 array of subset masks (n <= 63)."""
    subsets = np.asarray(subsets, dtype=np.int64)
    full = (1 << instance.n) - 1
    if np.any(subsets & ~full):
        raise ValueError("subset contains out-of-range elements")
    if isinstance(instance, (WeightedVCInstance, WeightedHSInstance)):
        ok = np.ones(subsets.shape, dtype=bool)
        for m in instance.masks:
            ok &= subsets & m != 0
        return ok
    if isinstance(instance, WeightedFVSInstance):
        return _fvs_forests(instance, ~subsets & full)
    if isinstance(instance, WeightedPVCInstance):
        covered = np.zeros(subsets.shape, dtype=np.int64)
        for m in instance.masks:
            covered += subsets & m != 0
        return covered >= instance.t
    raise TypeError(f"unsupported instance type {type(instance)!r}")


@lru_cache(maxsize=256)
def membership_table(instance: Instance, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Boolean membership of every subset mask; cached per instance."""
    _check_cap(instance.n, cap)
    return membership_many(instance, np.arange(1 << instance.n))


# Subset masks and their weights are int64 in the drivers and in the exact
# weight tables, which would wrap silently.
_WORD_BITS = 63


def _check_int64(instance: Instance) -> None:
    if instance.n > _WORD_BITS:
        raise ResourceCapError(
            f"n = {instance.n} exceeds the {_WORD_BITS}-element limit of the int64 "
            "driver arrays"
        )
    if sum(instance.weights) >> _WORD_BITS:
        raise ResourceCapError("total weight exceeds the int64 range of the driver arrays")


def weight_of(instance: Instance, subset: int) -> int:
    return sum(w for i, w in enumerate(instance.weights) if subset >> i & 1)


_POPCOUNT8 = subset_sums([1] * 8, np.uint8)


@lru_cache(maxsize=64)
def _byte_weights(weights: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The int64 subset-sum table of each 8-element slice of `weights`, indexed
    by a mask byte: at most 8 tables of up to 2 KB (n <= 63), read-only since
    every caller shares them."""
    tables = [subset_sums(weights[lo : lo + 8], np.int64) for lo in range(0, len(weights), 8)]
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def weigh_many(instance: Instance, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int64 weights, uint8 sizes) of an int64 array of subset masks (n <= 63),
    by one lookup per mask byte in 256-entry weight and popcount tables."""
    weight = np.zeros(subsets.shape, dtype=np.int64)
    size = np.zeros(subsets.shape, dtype=np.uint8)
    for lo, table in zip(range(0, instance.n, 8), _byte_weights(tuple(instance.weights))):
        octet = subsets >> lo & 0xFF
        weight += table[octet]
        size += _POPCOUNT8[octet]
    return weight, size


def rank_subsets(instance: Instance, subsets: np.ndarray) -> tuple[np.ndarray, ...]:
    """An int64 array of subset masks sorted by weight, then cardinality, then
    mask, the tie-break of every exact answer: (masks, weights, sizes)."""
    weight, size = weigh_many(instance, subsets)
    order = np.lexsort((subsets, size, weight))
    return subsets[order], weight[order], size[order]


def exact_opt(instance: Instance, cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """Exhaustive minimum-weight solution; ties broken by size then mask.

    Returns (subset mask, weight).  Raises ResourceCapError above `cap` or
    past the int64 weight range.
    """
    _check_int64(instance)
    sols, w, _ = rank_subsets(instance, np.flatnonzero(membership_table(instance, cap)))
    return int(sols[0]), int(w[0])


# --- instance grammar -------------------------------------------------------
#
#   p wvc <n> <m>  |  p whs <n> <m> <d>  |  p wfvs <n> <m>  |  p wpvc <n> <m> <t>
#   w <vertex 1-based> <weight >= 1>     (exactly n lines)
#   e <u> <v>  or  s <k> <e1> ... <ek>   (exactly m lines)

# kind -> (class, constraint field, header numbers after n and m).  Edges
# are written as e lines, sets as s lines.
_SCHEMA = {
    "wvc": (WeightedVCInstance, "edges", ()),
    "whs": (WeightedHSInstance, "sets", ("d",)),
    "wfvs": (WeightedFVSInstance, "edges", ()),
    "wpvc": (WeightedPVCInstance, "edges", ("t",)),
}


def parse_instance(text: str) -> Instance:
    header = None
    weights: dict[int, int] = {}
    rows: dict[str, list] = {"edges": [], "sets": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "p":
                if header is not None:
                    raise ParseError("duplicate problem line", lineno)
                kind, nums = parts[1], [int(x) for x in parts[2:]]
                if kind not in _SCHEMA:
                    raise ParseError(f"unknown problem kind {kind!r}", lineno)
                arity = 2 + len(_SCHEMA[kind][2])
                if len(nums) != arity:
                    raise ParseError(f"p {kind} takes {arity} numbers, got {len(nums)}", lineno)
                header = kind, nums
            elif tag == "w":
                v, w = map(int, parts[1:])
                if w < 1:
                    raise ParseError("weights must be >= 1", lineno)
                if v in weights:
                    raise ParseError(f"duplicate weight for vertex {v}", lineno)
                weights[v] = w
            elif tag == "e":
                u, v = map(int, parts[1:])
                rows["edges"].append((u - 1, v - 1))
            elif tag == "s":
                k = int(parts[1])
                elems = [int(x) - 1 for x in parts[2:]]
                if len(elems) != k:
                    raise ParseError(f"set line declares {k} elements, has {len(elems)}", lineno)
                rows["sets"].append(tuple(elems))
            else:
                raise ParseError(f"unknown line tag {tag!r}", lineno)
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"malformed line: {raw!r}", lineno) from exc
    if header is None:
        raise ParseError("missing problem line")
    kind, (n, m, *extra_values) = header
    cls, constraints, extra = _SCHEMA[kind]
    if sorted(weights) != list(range(1, n + 1)):
        raise ParseError(f"need weight lines for exactly vertices 1..{n}")
    for name, got in rows.items():
        want = m if name == constraints else 0
        if len(got) != want:
            raise ParseError(f"expected {want} {name}, got {len(got)}")
    fields = dict(zip(extra, extra_values), n=n, weights=tuple(weights[v] for v in range(1, n + 1)))
    fields[constraints] = tuple(rows[constraints])
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def emit_instance(instance: Instance) -> str:
    _, constraints, extra = _SCHEMA[instance.kind]
    rows = getattr(instance, constraints)
    head = ["p", instance.kind, instance.n, len(rows), *(getattr(instance, f) for f in extra)]
    lines = [" ".join(map(str, head))]
    lines += [f"w {v} {w}" for v, w in enumerate(instance.weights, start=1)]
    for row in rows:
        elems = " ".join(str(e + 1) for e in row)
        lines.append(f"s {len(row)} {elems}" if constraints == "sets" else f"e {elems}")
    return "\n".join(lines) + "\n"


def random_instance(
    kind: str,
    n: int,
    density: float,
    weight_range: tuple[int, int] = (1, 100),
    seed: int = 0,
    d: int = 3,
) -> Instance:
    """Seeded Erdos-Renyi graphs / random <=d-sets with uniform integer weights."""
    if n < 0 or not 0 <= density <= 1:
        raise ValueError("need n >= 0 and density in [0, 1]")
    lo, hi = weight_range
    rng = random.Random(seed)
    weights = tuple(rng.randint(lo, hi) for _ in range(n))
    if kind in ("wvc", "wfvs"):
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        )
        return _SCHEMA[kind][0](n=n, weights=weights, edges=edges)
    if kind == "whs":
        n_sets = max(1, round(density * n * 2)) if n else 0
        sets = []
        for _ in range(n_sets):
            size = rng.randint(1, min(d, n))
            sets.append(tuple(sorted(rng.sample(range(n), size))))
        return WeightedHSInstance(n=n, weights=weights, d=d, sets=tuple(sets))
    raise ValueError(f"unknown instance kind {kind!r}")

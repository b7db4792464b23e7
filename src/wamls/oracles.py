"""Extension oracles: exact enumeration, bounded branching, and local ratio.

An oracle answers a batch of queries at once: int64 arrays of subsets S and
budgets ell in, one int64 extension X per query out, with X | S a solution.
A single query (S, ell) is a batch of one.  Every oracle answers X = 0, the
empty set, when S is already a solution.  The exact and branching oracles
return the cheapest X with |X| <= ell, or the full complement of S when no
such X exists, so the ell = 0 queries of a batch take one vectorised test
of S.  The local-ratio oracles ignore ell and return their answer on the
residual instance, within alpha of the best extension of any size.  Ties
are broken by weight, then cardinality, then the bitmask itself, so every
oracle is deterministic.

ExtensionOracleHandle.extend_many answers a batch and records every query
in the handle's ledger, (|S|, ell) in batch order, under one timer, as one
appended block of the ledger's (N, 2) int64 array, whose buffer grows by
doubling; it refuses a batch with a negative S or ell, or, on a handle
from oracle_for, which knows n, an S of 2^n or more, before asking or
recording any of its queries.  wrap_with_ledger turns a user's scalar
(S, ell) -> X function into a batch function with a loop.

The exact oracle reads the instance's one ranked solution list, which
exact_opt also reads, and answers a query with the first listed solution Y
that contains S and has at most |S| + ell elements, less S; the queries of
a batch scan the list together, in chunks, whatever their budgets.

Vertex Cover is served as 2-Hitting Set: the branching and local-ratio
oracles work on the instance's constraint masks, so VC gets c = d = 2
branching and alpha = d = 2 local ratio from the same code as d-HS.  Both
read the instance's one residual, unhit(S): the constraints S leaves unhit,
as int64 words of 63 constraints each, from one lookup per byte of S.  Since
unhit(S | X) = unhit(S) & unhit(X), an answer depends on S only through
unhit(S) (and ell, for branching), and each distinct residual of a batch is
solved once.  Branching splits on the lowest unhit constraint.  Local ratio
runs Bar-Yehuda-Even and the reverse delete over all distinct residuals of
a batch together, one array step per constraint and per element.  The FVS
local-ratio oracle keys each query by the 2-core of G - S, taken for the
whole batch by problems' chunked peel, and solves each distinct core once.

Subsets are int64 masks, and the local-ratio residual weights int64, so
every oracle refuses n > 63 and total weights of 2^63 or more, as the
drivers do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import _WORD_BITS, DEFAULT_CAP, _elements, _first_seen, _mask, log_cost
from .problems import (
    Instance,
    WeightedFVSInstance,
    WeightedHSInstance,
    WeightedPVCInstance,
    WeightedVCInstance,
    _check_int64,
    _fvs_cores,
    _pack_rows,
    _popcount,
    membership_table,
)

__all__ = [
    "QueryLedger",
    "ExtensionOracleHandle",
    "BatchOracle",
    "exact_extension_oracle",
    "branching_vc_oracle",
    "local_ratio_vc_oracle",
    "branching_hs_oracle",
    "local_ratio_hs_oracle",
    "local_ratio_fvs_oracle",
    "wrap_with_ledger",
    "oracle_for",
]

OracleFn = Callable[[int, int], int]
BatchFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Query x solution pairs per chunk of the exact oracle's scan; each pair
# costs 11 bytes of temporaries, one int64 and three bool, at most 9 of
# them alive at once.
_CHUNK_PAIRS = 1 << 14


def _one(many: BatchFn, subset: int, ell: int) -> int:
    """Answer one query as a batch of one."""
    batch = many(np.array([subset], dtype=np.int64), np.array([ell], dtype=np.int64))
    return int(batch[0])


@dataclass(frozen=True)
class BatchOracle:
    """A built-in oracle: many(subsets, budgets) answers a batch, and calling
    the oracle answers one query (S, ell)."""

    many: BatchFn

    def __call__(self, subset: int, ell: int) -> int:
        return _one(self.many, subset, ell)


class QueryLedger:
    """The queries asked, in order, as the (|S|, ell) rows of an (N, 2) int64
    array, ``queries``.  The rows live in a buffer that doubles when full, so
    recording a query costs amortised O(1) however the queries are batched.
    Ledgers compare by identity."""

    def __init__(self, queries=np.zeros((0, 2)), wall_time: float = 0.0) -> None:
        self._rows = np.array(queries, dtype=np.int64)  # a copy: appends write into it
        self._count = len(self._rows)
        self.wall_time = wall_time

    @property
    def queries(self) -> np.ndarray:
        return self._rows[: self._count]

    def append(self, sizes: np.ndarray, budgets: np.ndarray) -> None:
        """Record the queries (sizes[i], budgets[i]) after those already recorded."""
        start = self._count
        end = start + len(sizes)
        if end > len(self._rows):
            grown = np.empty((max(end, 2 * len(self._rows)), 2), dtype=np.int64)
            grown[:start] = self._rows[:start]
            self._rows = grown
        self._rows[start:end, 0] = sizes
        self._rows[start:end, 1] = budgets
        self._count = end

    def cost_log(self, c: float) -> float:
        """ln sum(c^ell) over recorded queries (log-sum-exp; -inf when empty)."""
        return log_cost(self.queries[:, 1], c)


@dataclass
class ExtensionOracleHandle:
    """An oracle batch function with its declared (alpha, c) and query ledger,
    and the size n of its instance's universe when known."""

    oracle: BatchFn
    declared_alpha: float
    declared_c: float
    ledger: QueryLedger
    universe_size: int | None = None

    def extend_many(self, subsets, budgets) -> np.ndarray:
        """The answers to (subsets[i], budgets[i]) for every i, as int64; the
        ledger records each query, in order.  Raises ValueError, before any
        query is asked or recorded, when some S or ell is negative, or some
        S is 2^n or more for a known universe size n."""
        subsets = np.asarray(subsets, dtype=np.int64)
        budgets = np.asarray(budgets, dtype=np.int64)
        bad = (subsets < 0) | (budgets < 0)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"query {i} has a negative S or ell: ({subsets[i]}, {budgets[i]})")
        n = self.universe_size
        if n is not None and (outside := subsets >> n != 0).any():
            i = int(outside.argmax())
            raise ValueError(f"query {i} has S = {subsets[i]:#x} outside the {n}-element universe")
        t0 = time.perf_counter()
        out = self.oracle(subsets, budgets)
        self.ledger.wall_time += time.perf_counter() - t0
        self.ledger.append(_popcount(subsets), budgets)
        return out

    def extend(self, subset: int, ell: int) -> int:
        return _one(self.extend_many, subset, ell)


def wrap_with_ledger(
    oracle: BatchOracle | OracleFn,
    c: float,
    alpha: float = 1.0,
    universe_size: int | None = None,
) -> ExtensionOracleHandle:
    """Attach a fresh query ledger to an oracle.  A BatchOracle answers each
    batch in one call; any other (S, ell) -> X function is asked once per
    query.  With a universe_size n, the handle refuses masks of 2^n or more."""
    if isinstance(oracle, BatchOracle):
        many = oracle.many
    else:

        def many(subsets: np.ndarray, budgets: np.ndarray) -> np.ndarray:
            answers = map(oracle, subsets.tolist(), budgets.tolist())
            return np.fromiter(answers, dtype=np.int64, count=subsets.size)

    return ExtensionOracleHandle(
        oracle=many, declared_alpha=alpha, declared_c=c, ledger=QueryLedger(),
        universe_size=universe_size,
    )


def exact_extension_oracle(instance: Instance, cap: int = DEFAULT_CAP) -> BatchOracle:
    """Minimum-weight extension by exhaustive scan (alpha = 1).

    The queries with ell > 0 whose S is not a solution scan the instance's
    ranked solution list in chunks, budgets mixed: the answer is X = Y & ~S
    for the first listed Y with S <= Y and |Y| <= |S| + ell.  X -> S | X maps
    the admissible X one-to-one onto these Y and adds the constants w(S),
    |S| and S to weight, size and mask, so the order is the same.  Raises
    ResourceCapError above `cap` or past the int64 weight range.
    """
    _check_int64(instance)
    table = membership_table(instance, cap)
    sols, size = instance._solutions
    full = (1 << instance.n) - 1
    step = max(1, _CHUNK_PAIRS // sols.size)

    def many(subsets: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        solved = table[subsets]
        out = np.where(solved, 0, full & ~subsets)
        todo = np.flatnonzero((budgets > 0) & ~solved)
        # |S| + ell, the most elements Y may have; ell past n cannot wrap it.
        room = _popcount(subsets[todo]) + np.minimum(budgets[todo], instance.n)
        for lo in range(0, todo.size, step):
            chunk = todo[lo : lo + step]
            s = subsets[chunk, None]
            ok = (sols & s == s) & (size <= room[lo : lo + step, None])
            first = ok.argmax(axis=1)
            found = ok[np.arange(chunk.size), first]
            out[chunk[found]] = sols[first[found]] & ~s[found, 0]
        return out

    return BatchOracle(many)


def _join(words: list[int]) -> int:
    """The constraint index bits of one row of unhit words."""
    return sum(w << _WORD_BITS * k for k, w in enumerate(words))


def branching_hs_oracle(instance: WeightedHSInstance | WeightedVCInstance) -> BatchOracle:
    """d-way branching on the lowest-indexed unhit set (alpha=1, c=d).

    Exact among extensions of size <= ell.  Branches follow the sorted
    elements of the constraint at the lowest unhit bit; VC is the d = 2
    case.  A batch searches each distinct (unhit(S), ell) with ell > 0 and S
    not a solution once.
    """
    _check_int64(instance)
    full = (1 << instance.n) - 1
    weights = instance.weights
    elements, hits, _ = residual = instance._residual

    def search(left: int, ell: int) -> int:
        """The best X of size <= ell hitting every constraint in `left`, or -1."""
        best: tuple[int, int, int] | None = None

        def rec(chosen: int, left: int, chosen_w: int, depth: int) -> None:
            nonlocal best
            if not left:
                key = (chosen_w, chosen.bit_count(), chosen)
                if best is None or key < best:
                    best = key
                return
            if depth >= ell:
                return
            if best is not None and chosen_w >= best[0]:
                return  # any completion only adds weight
            for v in elements[(left & -left).bit_length() - 1]:
                rec(chosen | 1 << v, left & ~hits[v], chosen_w + weights[v], depth + 1)

        rec(0, left, 0, 0)
        return -1 if best is None else best[2]

    def many(subsets: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        left = residual.unhit(subsets)
        solved = ~left.any(axis=1)
        out = np.where(solved, 0, full & ~subsets)
        todo = np.flatnonzero((budgets > 0) & ~solved)
        keep, inverse = _first_seen(*left[todo].T, budgets[todo])
        rows = todo[keep]
        pairs = zip(left[rows].tolist(), budgets[rows].tolist())
        xs = np.array([search(_join(row), ell) for row, ell in pairs], dtype=np.int64)
        xs = xs[inverse]
        found = xs >= 0
        out[todo[found]] = xs[found]
        return out

    return BatchOracle(many)


def local_ratio_hs_oracle(instance: WeightedHSInstance | WeightedVCInstance) -> BatchOracle:
    """Bar-Yehuda/Even local ratio over the unhit sets (alpha=d, c=1).

    The budget is ignored; the weight guarantee is inherited from
    d * OPT(residual) <= d * (any size-restricted optimum).  Each unhit
    constraint, in index order, lowers the residual weights of its elements
    by their least; the elements that reach 0 are then dropped in reverse
    order while the rest still hit every unhit constraint.  The answer
    depends only on unhit(S), so a batch runs both passes, in integers, over
    all its distinct residuals at once.  VC is the d = 2 case.
    """
    _check_int64(instance)
    n = instance.n
    weights = np.array(instance.weights, dtype=np.int64)
    residual = instance._residual
    elements = [np.array(elems) for elems in residual.elements]

    def many(subsets: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        words = residual.unhit(subsets)
        keep, inverse = _first_seen(*words.T)
        left = words[keep]
        res = np.repeat(weights[:, None], len(left), axis=1)  # res[v]: v's residual weights
        for i, elems in enumerate(elements):
            live = left[:, i // _WORD_BITS] >> i % _WORD_BITS & 1  # 1 where i is unhit
            sub = res[elems]
            res[elems] = sub - live * sub.min(axis=0)
        # Weights are >= 1, so only elements of unhit sets reach 0: none is in S.
        mask = _pack_rows((res == 0).T)
        for v in reversed(range(n)):
            has = mask >> v & 1 == 1
            if has.any():
                trial = mask & ~(1 << v)
                drop = has & ~(left & residual.unhit(trial)).any(axis=1)
                mask = np.where(drop, trial, mask)
        return mask[inverse]

    return BatchOracle(many)


branching_vc_oracle = branching_hs_oracle
local_ratio_vc_oracle = local_ratio_hs_oracle


def local_ratio_fvs_oracle(instance: WeightedFVSInstance) -> BatchOracle:
    """Degree-weighted local ratio for feedback vertex set (alpha=2, c=1).

    Becker-Geiger scheme: after pruning degree <= 1 vertices and forcing
    self-loop vertices, subtract gamma * deg(v) with the largest gamma keeping
    all residuals nonnegative; zeroed vertices are stacked and a reverse
    delete pass restores minimality.  Residuals are integers over one shared
    positive denominator, so the zero test and the pick order are exact.

    Every cycle of G - S lies in its 2-core C, so the answer depends on C
    alone (C - X is acyclic iff G - S - X is).  A batch takes the 2-cores of
    all its queries from one chunked peel and solves each distinct C once.
    Degrees follow the multigraph semantics of the instance.
    """
    _check_int64(instance)
    n = instance.n
    weights = instance.weights
    mult = instance._multiplicity
    loops = _mask(np.flatnonzero(mult.diagonal()).tolist())
    # layers[v][k]: the neighbours joined to v by more than k edges.
    k = int(mult.max(initial=0))
    above = mult * (1 - np.eye(n)) > np.arange(k)[:, None, None]  # above[i, v, u]
    packed = _pack_rows(above.transpose(1, 0, 2).reshape(n * k, n)).reshape(n, k).tolist()
    layers = [[m for m in row if m] for row in packed]
    nbr = [layer[0] if layer else 0 for layer in layers]
    par = [layer[1] if len(layer) > 1 else 0 for layer in layers]

    def core(alive: int) -> int:
        """The 2-core of the multigraph induced on `alive` (a bitmask)."""
        todo = alive & ~loops
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            nb = nbr[v] & alive
            if nb & (nb - 1) or par[v] & alive:
                continue  # degree >= 2
            alive ^= low
            todo |= nb & ~loops  # the one neighbour lost a degree
        return alive

    def solve(cyclic: int) -> int:
        stack = _elements(cyclic & loops)  # self-loop vertices are forced
        alive = core(cyclic & ~loops)
        res = list(weights)
        while alive:
            verts = _elements(alive)
            deg = [sum((m & alive).bit_count() for m in layers[v]) for v in verts]
            # argmin of res/deg, cross-multiplied; the denominator cancels.
            i = 0
            for j in range(1, len(verts)):
                if res[verts[j]] * deg[i] < res[verts[i]] * deg[j]:
                    i = j
            ru, du = res[verts[i]], deg[i]
            zeroed = 0
            for v, dv in zip(verts, deg):
                res[v] = r = res[v] * du - ru * dv  # the denominator gains du
                if not r:
                    zeroed |= 1 << v
            stack.extend(_elements(zeroed))
            alive = core(alive & ~zeroed)
        mask = _mask(stack)
        for v in reversed(stack):  # reverse delete, keeping C - mask acyclic
            trial = mask & ~(1 << v)
            if not core(cyclic & ~trial):
                mask = trial
        return mask

    full = (1 << n) - 1

    def many(subsets: np.ndarray, budgets: np.ndarray) -> np.ndarray:
        cores = _fvs_cores(instance, ~subsets & full)
        keep, inverse = _first_seen(cores)
        return np.array([solve(c) for c in cores[keep].tolist()], dtype=np.int64)[inverse]

    return BatchOracle(many)


def oracle_for(
    instance: Instance, name: str, cap: int = DEFAULT_CAP
) -> ExtensionOracleHandle:
    """Named oracle with its honest declared (alpha, c), on a handle that
    knows the instance's n."""
    if name == "exact":
        oracle, c, alpha = exact_extension_oracle(instance, cap), 2.0, 1.0
    elif name not in ("branching", "local-ratio"):
        raise ValueError(f"unknown oracle {name!r}")
    elif isinstance(instance, WeightedPVCInstance):
        raise ValueError(
            f"wpvc has no {name} extension oracle; solve it with --model membership"
            " (or --oracle exact)"
        )
    elif isinstance(instance, WeightedFVSInstance):
        if name == "branching":
            raise ValueError(f"no branching oracle for {instance.kind}")
        oracle, c, alpha = local_ratio_fvs_oracle(instance), 1.0, 2.0
    elif name == "branching":
        oracle, c, alpha = branching_hs_oracle(instance), float(instance.d), 1.0
    else:
        oracle, c, alpha = local_ratio_hs_oracle(instance), 1.0, float(instance.d)
    return wrap_with_ledger(oracle, c=c, alpha=alpha, universe_size=instance.n)

"""Extension oracles: exact enumeration, bounded branching, and local ratio.

An oracle is a callable (S, ell) -> X with X | S a solution, where w(X) is
within the oracle's declared factor alpha of the best extension of size at
most ell (if none exists the weight bound is vacuous and the oracle returns
the full complement).  Ties are broken by weight, then cardinality, then the
bitmask itself, so every oracle is deterministic.

Vertex Cover is served as 2-Hitting Set: the branching and local-ratio
oracles work on the instance's constraint masks, so VC gets c = d = 2
branching and alpha = d = 2 local ratio from the same code as d-HS.

The local-ratio oracles ignore the budget, and their answer depends only on
the residual instance: the constraints S leaves unhit, or the 2-core of
G - S for FVS.  Each oracle keys its queries by that residual, computed with
int bitmask operations, and solves each distinct residual once; the memo
belongs to the oracle and goes with it.  The ledger above the oracle still
records every query.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .families import DEFAULT_CAP, _mask, log_cost
from .problems import (
    Instance,
    WeightedFVSInstance,
    WeightedHSInstance,
    WeightedPVCInstance,
    WeightedVCInstance,
    _check_int64,
    membership_table,
    rank_subsets,
)

__all__ = [
    "QueryLedger",
    "ExtensionOracleHandle",
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


@dataclass
class QueryLedger:
    queries: list[tuple[int, int]] = field(default_factory=list)
    wall_time: float = 0.0

    def cost_log(self, c: float) -> float:
        """ln sum(c^ell) over recorded queries (log-sum-exp; -inf when empty)."""
        return log_cost(self.queries, c)


@dataclass
class ExtensionOracleHandle:
    extend: OracleFn
    declared_alpha: float
    declared_c: float
    ledger: QueryLedger


def wrap_with_ledger(
    oracle: OracleFn, c: float, alpha: float = 1.0
) -> ExtensionOracleHandle:
    """Attach a fresh query ledger to a bare oracle function."""
    ledger = QueryLedger()

    def extend(subset: int, ell: int) -> int:
        t0 = time.perf_counter()
        out = oracle(subset, ell)
        ledger.wall_time += time.perf_counter() - t0
        ledger.queries.append((subset.bit_count(), ell))
        return out

    return ExtensionOracleHandle(
        extend=extend, declared_alpha=alpha, declared_c=c, ledger=ledger
    )


def exact_extension_oracle(instance: Instance, cap: int = DEFAULT_CAP) -> OracleFn:
    """Minimum-weight extension by exhaustive scan (alpha = 1).

    All 2^n subsets are ranked once; a query returns the first ranked X
    disjoint from S with |X| <= ell and S | X a solution.  Raises
    ResourceCapError above `cap` or past the int64 weight range.
    """
    _check_int64(instance)
    table = membership_table(instance, cap)
    n = instance.n
    ranked, _, size = rank_subsets(instance, np.arange(1 << n))
    full = (1 << n) - 1

    def extend(subset: int, ell: int) -> int:
        if ell == 0:
            return 0 if table[subset] else full & ~subset
        ok = (ranked & subset == 0) & (size <= ell) & table[ranked | subset]
        first = ok.argmax()
        return int(ranked[first]) if ok[first] else full & ~subset

    return extend


def _elements(mask: int) -> list[int]:
    """Bits of `mask` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def branching_hs_oracle(instance: WeightedHSInstance | WeightedVCInstance) -> OracleFn:
    """d-way branching on the lowest-indexed unhit set (alpha=1, c=d).

    Exact among extensions of size <= ell.  Branches follow the sorted
    elements of the first unhit constraint mask; VC is the d = 2 case.
    """
    full = (1 << instance.n) - 1
    weights = instance.weights
    constraints = [(m, _elements(m)) for m in instance.masks]

    def extend(subset: int, ell: int) -> int:
        best: list[tuple[int, int, int] | None] = [None]

        def rec(chosen: int, chosen_w: int, depth: int) -> None:
            cur = subset | chosen
            for m, unhit in constraints:
                if not cur & m:
                    break
            else:
                key = (chosen_w, chosen.bit_count(), chosen)
                if best[0] is None or key < best[0]:
                    best[0] = key
                return
            if depth >= ell:
                return
            if best[0] is not None and chosen_w >= best[0][0]:
                return  # any completion only adds weight
            for v in unhit:
                rec(chosen | 1 << v, chosen_w + weights[v], depth + 1)

        rec(0, 0, 0)
        if best[0] is None:
            return full & ~subset
        return best[0][2]

    return extend


def _solve_once(key_of: Callable[[int], object], solve: Callable) -> OracleFn:
    """Oracle answering (S, ell) with solve(key_of(S)), each distinct key solved once.

    For oracles that ignore the budget and whose answer depends only on the
    residual instance left by S; the memo lives and dies with the oracle.
    """
    solved: dict = {}

    def extend(subset: int, ell: int) -> int:
        key = key_of(subset)
        x = solved.get(key)
        if x is None:
            x = solved[key] = solve(key)
        return x

    return extend


def local_ratio_hs_oracle(instance: WeightedHSInstance | WeightedVCInstance) -> OracleFn:
    """Bar-Yehuda/Even local ratio over the unhit sets (alpha=d, c=1).

    The budget is ignored; the weight guarantee is inherited from
    d * OPT(residual) <= d * (any size-restricted optimum).  The answer
    depends only on the constraints S leaves unhit, so each distinct
    residual is solved once.  VC is the d = 2 case.
    """
    n = instance.n
    weights = instance.weights
    masks = instance.masks
    elements = [_elements(m) for m in masks]
    # hit[k][b]: the constraints (index bits) hit by byte b of S at bit 8k.
    hit = []
    for k in range(0, n, 8):
        table = [0]
        for v in range(k, min(k + 8, n)):
            h = _mask(i for i, m in enumerate(masks) if m >> v & 1)
            table += [t | h for t in table]
        hit.append(table)
    every = (1 << len(masks)) - 1

    def unhit(subset: int) -> int:
        out = every
        for table in hit:
            out &= ~table[subset & 255]
            subset >>= 8
        return out

    def solve(unhit_bits: int) -> int:
        residual = _elements(unhit_bits)
        res = list(weights)
        for i in residual:
            elems = elements[i]
            low = min([res[e] for e in elems])
            if low > 0:
                for e in elems:
                    res[e] -= low
        # Weights are >= 1, so only elements of unhit sets reach 0: none is in S.
        hitters = [v for v in range(n) if res[v] == 0]
        return _reverse_delete(hitters, lambda mask: not unhit_bits & unhit(mask))

    return _solve_once(unhit, solve)


branching_vc_oracle = branching_hs_oracle
local_ratio_vc_oracle = local_ratio_hs_oracle


def _reverse_delete(candidates: list[int], is_feasible) -> int:
    """Drop candidates in reverse order while feasibility is preserved."""
    mask = _mask(candidates)
    for v in reversed(candidates):
        trial = mask & ~(1 << v)
        if is_feasible(trial):
            mask = trial
    return mask


def local_ratio_fvs_oracle(instance: WeightedFVSInstance) -> OracleFn:
    """Degree-weighted local ratio for feedback vertex set (alpha=2, c=1).

    Becker-Geiger scheme: after pruning degree <= 1 vertices and forcing
    self-loop vertices, subtract gamma * deg(v) with the largest gamma keeping
    all residuals nonnegative; zeroed vertices are stacked and a reverse
    delete pass restores minimality.  Residuals are integers over one shared
    positive denominator, so the zero test and the pick order are exact.

    Every cycle of G - S lies in its 2-core C, so the answer depends on C
    alone (C - X is acyclic iff G - S - X is), and each distinct C is solved
    once.  Degrees follow the multigraph semantics of the instance.
    """
    n = instance.n
    weights = instance.weights
    loops = 0
    # layers[v][k]: the neighbours joined to v by more than k edges.
    layers: list[list[int]] = [[] for _ in range(n)]
    for (u, v), k in Counter(instance.edges).items():
        if u == v:
            loops |= 1 << u
            continue
        for a, b in ((u, v), (v, u)):
            layer = layers[a]
            layer.extend([0] * (k - len(layer)))
            for i in range(k):
                layer[i] |= 1 << b
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
        return _reverse_delete(stack, lambda mask: not core(cyclic & ~mask))

    full = (1 << n) - 1
    return _solve_once(lambda subset: core(full & ~subset), solve)


def oracle_for(
    instance: Instance, name: str, cap: int = DEFAULT_CAP
) -> ExtensionOracleHandle:
    """Named oracle with its honest declared (alpha, c)."""
    if name == "exact":
        return wrap_with_ledger(exact_extension_oracle(instance, cap), c=2.0)
    if name not in ("branching", "local-ratio"):
        raise ValueError(f"unknown oracle {name!r}")
    if isinstance(instance, WeightedPVCInstance):
        raise ValueError(
            f"wpvc has no {name} extension oracle; solve it with --model membership"
            " (or --oracle exact)"
        )
    hitting_set = isinstance(instance, (WeightedVCInstance, WeightedHSInstance))
    if name == "branching":
        if hitting_set:
            return wrap_with_ledger(branching_hs_oracle(instance), c=float(instance.d))
        raise ValueError(f"no branching oracle for {instance.kind}")
    if hitting_set:
        return wrap_with_ledger(
            local_ratio_hs_oracle(instance), c=1.0, alpha=float(instance.d)
        )
    return wrap_with_ledger(local_ratio_fvs_oracle(instance), c=1.0, alpha=2.0)

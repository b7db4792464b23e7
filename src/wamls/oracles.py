"""Extension oracles: exact enumeration, bounded branching, and local ratio.

An oracle is a callable (S, ell) -> X with X | S a solution, where w(X) is
within the oracle's declared factor alpha of the best extension of size at
most ell (if none exists the weight bound is vacuous and the oracle returns
the full complement).  Ties are broken by weight, then cardinality, then the
bitmask itself, so every oracle is deterministic.

Vertex Cover is served as 2-Hitting Set: the branching and local-ratio
oracles work on the instance's constraint masks, so VC gets c = d = 2
branching and alpha = d = 2 local ratio from the same code as d-HS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .families import DEFAULT_CAP, log_cost, subset_sums
from .problems import (
    Instance,
    WeightedFVSInstance,
    WeightedHSInstance,
    WeightedVCInstance,
    membership_table,
    _fvs_acyclic,
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

    Raises ResourceCapError above `cap`.
    """
    table = membership_table(instance, cap)
    n = instance.n
    subsets = np.arange(1 << n)
    w = subset_sums(instance.weights, np.int64)
    pc = subset_sums([1] * n, np.uint8)
    full = (1 << n) - 1

    def extend(subset: int, ell: int) -> int:
        if ell == 0:
            return 0 if table[subset] else full & ~subset
        free = subsets & subset == 0
        feasible = np.flatnonzero(free & (pc <= ell) & table[subsets | subset])
        if feasible.size == 0:
            return full & ~subset
        order = np.lexsort((feasible, pc[feasible], w[feasible]))
        return int(feasible[order[0]])

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


def local_ratio_hs_oracle(instance: WeightedHSInstance | WeightedVCInstance) -> OracleFn:
    """Bar-Yehuda/Even local ratio over the unhit sets (alpha=d, c=1).

    The budget is ignored; the weight guarantee is inherited from
    d * OPT(residual) <= d * (any size-restricted optimum).  VC is the
    d = 2 case.
    """
    n = instance.n
    weights = instance.weights
    constraints = [(m, _elements(m)) for m in instance.masks]

    def extend(subset: int, ell: int) -> int:
        res = list(weights)
        residual = []
        for m, elems in constraints:
            if subset & m:
                continue
            residual.append(m)
            low = min([res[e] for e in elems])
            if low > 0:
                for e in elems:
                    res[e] -= low
        hitters = [v for v in range(n) if not subset >> v & 1 and res[v] == 0]
        return _reverse_delete(hitters, lambda mask: all(mask & m for m in residual))

    return extend


branching_vc_oracle = branching_hs_oracle
local_ratio_vc_oracle = local_ratio_hs_oracle


def _reverse_delete(candidates: list[int], is_feasible) -> int:
    """Drop candidates in reverse order while feasibility is preserved."""
    mask = 0
    for v in candidates:
        mask |= 1 << v
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
    delete pass restores minimality.  Exact rational arithmetic keeps the
    zero test and the pick order deterministic.
    """
    n = instance.n
    all_edges = instance.edges
    weights = instance.weights

    def extend(subset: int, ell: int) -> int:
        active = set(v for v in range(n) if not subset >> v & 1)
        edges = [e for e in all_edges if e[0] in active and e[1] in active]
        res = {v: Fraction(weights[v]) for v in active}
        stack: list[int] = []

        def degrees():
            deg = {v: 0 for v in active}
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1  # a self-loop contributes 2
            return deg

        while True:
            # Prune: degree <= 1 vertices are on no cycle.
            while True:
                deg = degrees()
                low = [v for v in active if deg[v] <= 1]
                if not low:
                    break
                active.difference_update(low)
                edges = [e for e in edges if e[0] in active and e[1] in active]
            if not active:
                break
            looped = sorted({a for a, b in edges if a == b})
            if looped:
                v = looped[0]
                stack.append(v)
                active.remove(v)
                edges = [e for e in edges if v not in e]
                continue
            deg = degrees()
            gamma = min(res[v] / deg[v] for v in active)
            for v in active:
                res[v] -= gamma * deg[v]
            zeroed = sorted(v for v in active if res[v] == 0)
            stack.extend(zeroed)
            active.difference_update(zeroed)
            edges = [e for e in edges if e[0] in active and e[1] in active]

        surviving_base = ((1 << n) - 1) & ~subset
        residual_edges = [
            e for e in all_edges if not (subset >> e[0] & 1 or subset >> e[1] & 1)
        ]
        return _reverse_delete(
            stack,
            lambda mask: _fvs_acyclic(n, residual_edges, surviving_base & ~mask),
        )

    return extend


def oracle_for(
    instance: Instance, name: str, cap: int = DEFAULT_CAP
) -> ExtensionOracleHandle:
    """Named oracle with its honest declared (alpha, c)."""
    hitting_set = isinstance(instance, (WeightedVCInstance, WeightedHSInstance))
    if name == "exact":
        return wrap_with_ledger(exact_extension_oracle(instance, cap), c=2.0)
    if name == "branching":
        if hitting_set:
            return wrap_with_ledger(branching_hs_oracle(instance), c=float(instance.d))
        raise ValueError(f"no branching oracle for {instance.kind}")
    if name == "local-ratio":
        if hitting_set:
            return wrap_with_ledger(
                local_ratio_hs_oracle(instance), c=1.0, alpha=float(instance.d)
            )
        if isinstance(instance, WeightedFVSInstance):
            return wrap_with_ledger(local_ratio_fvs_oracle(instance), c=1.0, alpha=2.0)
    raise ValueError(f"unknown oracle {name!r} for {instance.kind}")

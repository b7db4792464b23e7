"""Tests for extension oracles: contracts, agreement, and cost accounting."""

import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamls import oracles, problems
from wamls.oracles import (
    QueryLedger,
    branching_hs_oracle,
    branching_vc_oracle,
    exact_extension_oracle,
    local_ratio_fvs_oracle,
    local_ratio_hs_oracle,
    local_ratio_vc_oracle,
    oracle_for,
    wrap_with_ledger,
)
from wamls.problems import (
    WeightedFVSInstance,
    WeightedHSInstance,
    WeightedPVCInstance,
    WeightedVCInstance,
    membership_check,
    membership_table,
    parse_instance,
    random_instance,
    weight_of,
)

TRIANGLE = ((0, 1), (1, 2), (0, 2))


def restricted_opt(instance, subset, ell):
    """Minimum weight over extensions of size <= ell, or None when infeasible."""
    exact = exact_extension_oracle(instance)
    x = exact(subset, ell)
    if x.bit_count() > ell:
        return None
    return weight_of(instance, x)


class TestExactOracle:
    def test_solution_needs_nothing(self):
        inst = WeightedVCInstance(n=3, weights=(1, 2, 3), edges=TRIANGLE)
        extend = exact_extension_oracle(inst)
        assert extend(0b011, 3) == 0

    def test_triangle_budget_two(self):
        inst = WeightedVCInstance(n=3, weights=(1, 2, 3), edges=TRIANGLE)
        extend = exact_extension_oracle(inst)
        x = extend(0, 2)
        assert x == 0b011  # vertices 0 and 1, total weight 3
        assert weight_of(inst, x) == 3

    def test_no_feasible_extension_returns_complement(self):
        inst = WeightedVCInstance(n=3, weights=(1, 2, 3), edges=TRIANGLE)
        extend = exact_extension_oracle(inst)
        assert extend(0, 0) == 0b111  # no size-0 cover exists

    @pytest.mark.parametrize("kind", ["wvc", "whs", "wfvs"])
    def test_matches_scalar_reference(self, kind):
        # Weights 1..2 make ties, so the cardinality and mask tie-breaks count.
        inst = random_instance(kind, 6, 0.4, weight_range=(1, 2), seed=1)
        extend = exact_extension_oracle(inst)
        masks = range(1 << inst.n)

        def rank(x):
            return weight_of(inst, x), x.bit_count(), x

        for s in masks:
            for ell in range(inst.n + 1):
                fits = [
                    x for x in masks
                    if not x & s and x.bit_count() <= ell and membership_check(inst, s | x)
                ]
                assert extend(s, ell) == min(fits, key=rank, default=masks[-1] & ~s)

    @pytest.mark.parametrize("kind", ["wvc", "whs", "wfvs"])
    def test_budget_above_n_is_budget_n(self, kind):
        # Every subset has at most n elements, so a larger budget adds no candidate.
        inst = random_instance(kind, 6, 0.4, weight_range=(1, 2), seed=3)
        extend = exact_extension_oracle(inst)
        for s in range(1 << inst.n):
            want = extend(s, inst.n)
            assert extend(s, inst.n + 1) == want
            assert extend(s, inst.n + 5) == want
            assert extend(s, (1 << 63) - 1) == want  # |S| + ell would wrap int64

    def test_deterministic(self):
        inst = random_instance("wvc", 8, 0.4, seed=12)
        extend = exact_extension_oracle(inst)
        assert [extend(s, 2) for s in range(16)] == [extend(s, 2) for s in range(16)]


class TestBranchingOracles:
    def test_edgeless_residual(self):
        inst = WeightedVCInstance(n=3, weights=(1, 1, 1), edges=((0, 1),))
        extend = branching_vc_oracle(inst)
        assert extend(0b001, 2) == 0

    def test_triangle_budget_one_fallback(self):
        inst = WeightedVCInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE)
        extend = branching_vc_oracle(inst)
        x = extend(0, 1)
        assert x == 0b111  # no single vertex covers a triangle

    def test_path_picks_middle(self):
        inst = WeightedVCInstance(n=3, weights=(3, 1, 3), edges=((0, 1), (1, 2)))
        extend = branching_vc_oracle(inst)
        assert extend(0, 1) == 0b010

    def test_agrees_with_exact_vc(self):
        for seed in range(6):
            inst = random_instance("wvc", 8, 0.35, seed=seed)
            branch = branching_vc_oracle(inst)
            exact = exact_extension_oracle(inst)
            for s in (0, 1, 0b1010, 0b11000):
                for ell in range(5):
                    assert weight_of(inst, branch(s, ell)) == weight_of(
                        inst, exact(s, ell)
                    )

    def test_agrees_with_exact_hs(self):
        for seed in range(6):
            inst = random_instance("whs", 8, 0.4, seed=seed, d=3)
            branch = branching_hs_oracle(inst)
            exact = exact_extension_oracle(inst)
            for s in (0, 0b11, 0b10100):
                for ell in range(4):
                    assert weight_of(inst, branch(s, ell)) == weight_of(
                        inst, exact(s, ell)
                    )

    @pytest.mark.parametrize("kind", ["wvc", "whs"])
    @pytest.mark.parametrize("weight_range", [(1, 100), (1, 2)])
    def test_same_answer_as_exact(self, kind, weight_range):
        # The same X, not just the same weight: both break ties by weight,
        # then cardinality, then mask.  Weights 1..2 make many ties.
        for seed in range(8):
            inst = random_instance(kind, 7, 0.4, weight_range=weight_range, seed=seed, d=3)
            branch = branching_hs_oracle(inst)
            exact = exact_extension_oracle(inst)
            for s in range(1 << inst.n):
                for ell in range(inst.n + 1):
                    assert branch(s, ell) == exact(s, ell), (seed, s, ell)

    def test_single_set_budget_one(self):
        inst = WeightedHSInstance(n=3, weights=(5, 1, 9), d=3, sets=((0, 1, 2),))
        extend = branching_hs_oracle(inst)
        assert extend(0, 1) == 0b010


class TestLocalRatioOracles:
    def test_single_edge_picks_lighter(self):
        inst = WeightedVCInstance(n=2, weights=(1, 5), edges=((0, 1),))
        extend = local_ratio_vc_oracle(inst)
        assert extend(0, 0) == 0b01

    def test_edgeless(self):
        inst = WeightedVCInstance(n=3, weights=(1, 1, 1), edges=())
        extend = local_ratio_vc_oracle(inst)
        assert extend(0, 5) == 0

    def test_star_within_factor_two(self):
        inst = WeightedVCInstance(
            n=4, weights=(2, 1, 1, 1), edges=((0, 1), (0, 2), (0, 3))
        )
        extend = local_ratio_vc_oracle(inst)
        x = extend(0, 4)
        assert membership_check(inst, x)
        assert weight_of(inst, x) <= 2 * 2  # OPT is the center, weight 2

    def test_hs_single_set(self):
        inst = WeightedHSInstance(n=3, weights=(5, 1, 9), d=3, sets=((0, 1, 2),))
        extend = local_ratio_hs_oracle(inst)
        x = extend(0, 3)
        assert membership_check(inst, x)
        assert weight_of(inst, x) <= 3 * 1

    def test_hs_disjoint_sets(self):
        inst = WeightedHSInstance(
            n=6, weights=(4, 1, 2, 8, 1, 1), d=3, sets=((0, 1, 2), (3, 4, 5))
        )
        extend = local_ratio_hs_oracle(inst)
        x = extend(0, 6)
        assert membership_check(inst, x)
        assert weight_of(inst, x) <= 3 * 2  # per-set minima 1 + 1

    def test_fvs_forest_residual(self):
        inst = WeightedFVSInstance(n=4, weights=(1, 1, 1, 1), edges=((0, 1), (1, 2)))
        extend = local_ratio_fvs_oracle(inst)
        assert extend(0, 4) == 0

    def test_fvs_triangle(self):
        inst = WeightedFVSInstance(n=3, weights=(1, 4, 9), edges=TRIANGLE)
        extend = local_ratio_fvs_oracle(inst)
        x = extend(0, 3)
        assert membership_check(inst, x)
        assert weight_of(inst, x) <= 2 * 1

    def test_fvs_two_triangles(self):
        edges = TRIANGLE + ((3, 4), (4, 5), (3, 5))
        inst = WeightedFVSInstance(n=6, weights=(2, 3, 5, 1, 7, 9), edges=edges)
        extend = local_ratio_fvs_oracle(inst)
        x = extend(0, 6)
        assert membership_check(inst, x)
        assert weight_of(inst, x) <= 2 * 3  # OPT picks weights 2 and 1

    def test_fvs_self_loop_forced(self):
        inst = WeightedFVSInstance(n=2, weights=(10, 1), edges=((0, 0), (0, 1)))
        extend = local_ratio_fvs_oracle(inst)
        x = extend(0, 2)
        assert x & 0b01  # the looped vertex must be deleted
        assert membership_check(inst, x)


class TestContracts:
    """Every oracle: feasibility always, weight within declared alpha."""

    CONFIGS = {
        "wvc": ["exact", "branching", "local-ratio"],
        "whs": ["exact", "branching", "local-ratio"],
        "wfvs": ["exact", "local-ratio"],
    }

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_contract_against_exact(self, kind):
        rng = random.Random(hash(kind) & 0xFFFF)
        for seed in range(8):
            inst = random_instance(kind, 7, 0.35, seed=seed)
            full = (1 << inst.n) - 1
            for name in self.CONFIGS[kind]:
                handle = oracle_for(inst, name)
                for _ in range(20):
                    s = rng.randrange(full + 1)
                    ell = rng.randrange(inst.n + 1)
                    x = handle.extend(s, ell)
                    assert membership_check(inst, s | x)
                    opt = restricted_opt(inst, s, ell)
                    if opt is not None:
                        assert (
                            weight_of(inst, x)
                            <= handle.declared_alpha * opt + 1e-9
                        )

    def test_unknown_oracle_rejected(self):
        inst = random_instance("wvc", 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            oracle_for(inst, "magic")

    @pytest.mark.parametrize("name", ["branching", "local-ratio"])
    def test_pvc_error_names_membership_model(self, name):
        vc = random_instance("wvc", 4, 0.5, seed=0)
        pvc = WeightedPVCInstance(n=4, weights=vc.weights, edges=vc.edges, t=1)
        with pytest.raises(ValueError, match=f"wpvc has no {name} extension oracle"):
            oracle_for(pvc, name)
        assert oracle_for(pvc, "exact").declared_alpha == 1.0

    def test_no_branching_for_fvs(self):
        inst = random_instance("wfvs", 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            oracle_for(inst, "branching")


class TestVCAsTwoHittingSet:
    """A VC instance and the d = 2 HS instance on its edges are one problem."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_answers(self, seed):
        vc = random_instance("wvc", 8, 0.35, seed=seed)
        hs = WeightedHSInstance(n=vc.n, weights=vc.weights, d=2, sets=vc.edges)
        full = (1 << vc.n) - 1
        assert [membership_check(vc, s) for s in range(full + 1)] == [
            membership_check(hs, s) for s in range(full + 1)
        ]
        assert (membership_table(vc) == membership_table(hs)).all()
        rng = random.Random(seed)
        queries = [(rng.randrange(full + 1), rng.randrange(vc.n + 1)) for _ in range(40)]
        for name in ("exact", "branching", "local-ratio"):
            a, b = oracle_for(vc, name), oracle_for(hs, name)
            assert (a.declared_alpha, a.declared_c) == (b.declared_alpha, b.declared_c)
            assert [a.extend(s, ell) for s, ell in queries] == [
                b.extend(s, ell) for s, ell in queries
            ]

    def test_declared_factors(self):
        vc = random_instance("wvc", 5, 0.5, seed=3)
        for name, factors in (("branching", (1.0, 2.0)), ("local-ratio", (2.0, 1.0))):
            handle = oracle_for(vc, name)
            assert (handle.declared_alpha, handle.declared_c) == factors


class TestResidualKernel:
    @pytest.mark.parametrize("kind,n", [("wvc", 11), ("whs", 11), ("whs", 8), ("wvc", 0)])
    def test_unhit_and_elements(self, kind, n):
        # n = 11 reads two byte tables, n = 8 exactly one.
        inst = random_instance(kind, n, 0.3, seed=n, d=4)
        self.check_kernel(inst)

    def test_more_than_63_constraints(self):
        # 108 edges: the unhit words span two int64 columns.
        inst = random_instance("wvc", 16, 0.9, seed=3)
        assert len(inst.masks) > 63
        self.check_kernel(inst, step=7)

    def test_branching_and_local_ratio_share_one_residual(self, count_builds):
        built = count_builds(problems._Constrained, "_residual")
        inst = random_instance("whs", 9, 0.3, seed=5, d=3)
        handles = [oracle_for(inst, "branching"), oracle_for(inst, "local-ratio")]
        residual = inst._residual
        subsets = np.arange(1 << inst.n)
        for handle in handles:
            outs = subsets | handle.extend_many(subsets, np.full(subsets.size, 2))
            assert all(membership_check(inst, s) for s in outs.tolist())
            # the batch function holds the instance's residual itself
            cells = [cell.cell_contents for cell in handle.oracle.__closure__]
            assert any(cell is residual for cell in cells)
        assert built == [inst] and inst._residual is residual

    @staticmethod
    def check_kernel(inst, step=1):
        elements, hits, _ = residual = inst._residual
        assert [sum(1 << e for e in elems) for elems in elements] == list(inst.masks)
        assert all(list(elems) == sorted(elems) for elems in elements)
        assert list(hits) == [
            sum(1 << i for i, m in enumerate(inst.masks) if m >> v & 1) for v in range(inst.n)
        ]
        subsets = np.arange(0, 1 << inst.n, step)
        words = residual.unhit(subsets)
        for s, row in zip(subsets.tolist(), words.tolist()):
            want = sum(1 << i for i, m in enumerate(inst.masks) if not s & m)
            assert sum(w << 63 * k for k, w in enumerate(row)) == want


class TestLedger:
    def test_empty_ledger_sentinel(self):
        assert QueryLedger().cost_log(2.0) == -math.inf

    def test_compared_by_identity(self):
        led = QueryLedger(queries=np.array([[0, 1]]))
        assert led == led and led != QueryLedger(queries=np.array([[0, 1]]))

    def test_zero_budget_queries(self):
        led = QueryLedger(queries=np.array([[0, 0], [1, 0], [2, 0]]))
        assert led.cost_log(2.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_mixed_budget_queries(self):
        led = QueryLedger(queries=np.array([[0, 3], [1, 1]]))
        assert led.cost_log(2.0) == pytest.approx(math.log(10), abs=1e-12)

    def test_wrapper_records_queries(self):
        inst = WeightedVCInstance(n=2, weights=(1, 5), edges=((0, 1),))
        handle = wrap_with_ledger(local_ratio_vc_oracle(inst), c=1.0, alpha=2.0)
        handle.extend(0, 0)
        handle.extend(0b10, 1)
        assert handle.ledger.queries.tolist() == [[0, 0], [1, 1]]
        assert handle.ledger.queries.dtype == np.int64
        assert handle.ledger.cost_log(1.0) == pytest.approx(math.log(2), abs=1e-12)
        assert handle.ledger.wall_time >= 0.0

    def test_mixed_calls_append_in_order(self):
        # Scalar calls and batches of several sizes, so the buffer grows
        # past a batch and also fills up between batches.
        inst = WeightedVCInstance(n=3, weights=(1, 2, 3), edges=((0, 1), (1, 2)))
        handle = oracle_for(inst, "exact")
        rng = random.Random(5)
        rows, seen = [], []
        for size in (1, 3, 1, 1, 0, 7, 1, 2, 40, 1):
            batch = [(rng.randrange(8), rng.randrange(4)) for _ in range(size)]
            if size == 1:
                handle.extend(*batch[0])
            else:
                subsets, budgets = np.array(batch, dtype=np.int64).reshape(-1, 2).T
                handle.extend_many(subsets, budgets)
            rows += [[s.bit_count(), ell] for s, ell in batch]
            seen.append(handle.ledger.queries)
            assert handle.ledger.queries.tolist() == rows
        assert handle.ledger.queries.dtype == np.int64
        # A ledger read earlier still holds the queries asked up to then.
        assert [q.tolist() for q in seen] == [rows[: len(q)] for q in seen]

ORACLES = {
    "wvc": ("exact", "branching", "local-ratio"),
    "whs": ("exact", "branching", "local-ratio"),
    "wfvs": ("exact", "local-ratio"),
}


@st.composite
def small_instances(draw):
    """wvc, whs with d in 2..4, and wfvs multigraphs with self-loops, parallel
    edges and isolated vertices, on n <= 7 elements."""
    kind = draw(st.sampled_from(sorted(ORACLES)))
    n = draw(st.integers(0, 7))
    weights = tuple(draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
    elems = st.integers(0, max(n - 1, 0))
    if kind == "whs":
        d = draw(st.integers(2, 4))
        sets = st.lists(elems, min_size=1, max_size=d)
        rows = draw(st.lists(sets, max_size=12 if n else 0))
        return WeightedHSInstance(n=n, weights=weights, d=d, sets=tuple(map(tuple, rows)))
    if kind == "wvc":
        pairs = st.tuples(elems, elems).filter(lambda e: e[0] != e[1])
        rows = draw(st.lists(pairs, max_size=2 * n if n > 1 else 0))
        return WeightedVCInstance(n=n, weights=weights, edges=tuple(rows))
    # Repeated pairs are parallel edges, (u, u) a self-loop.
    rows = draw(st.lists(st.tuples(elems, elems), max_size=2 * n))
    return WeightedFVSInstance(n=n, weights=weights, edges=tuple(rows))


def brute_extension(inst, s, ell):
    """The cheapest X (weight, size, mask) disjoint from S with |X| <= ell and
    S | X a solution, else the complement of S."""
    full = (1 << inst.n) - 1
    fits = [
        x for x in range(full + 1)
        if not x & s and x.bit_count() <= ell and membership_check(inst, s | x)
    ]
    return min(fits, key=lambda x: (weight_of(inst, x), x.bit_count(), x), default=full & ~s)


def local_ratio_reference(inst, s):
    """Bar-Yehuda/Even plus the reverse delete over the constraints S leaves
    unhit, one residual at a time in Python ints."""
    unhit = [m for m in inst.masks if not s & m]
    res = list(inst.weights)
    for m in unhit:
        elems = [v for v in range(inst.n) if m >> v & 1]
        low = min(res[v] for v in elems)
        for v in elems:
            res[v] -= low
    mask = sum(1 << v for v in range(inst.n) if res[v] == 0)
    for v in reversed(range(inst.n)):
        trial = mask & ~(1 << v)
        if mask >> v & 1 and all(trial & m for m in unhit):
            mask = trial
    return mask


def check_batch(inst, queries):
    """extend_many equals extend query by query for every oracle, the ledger
    records each query in order, and the answers match their references."""
    subsets = np.array([q for q, _ in queries], dtype=np.int64)
    budgets = np.array([ell for _, ell in queries], dtype=np.int64)
    answers = {}
    for name in ORACLES[inst.kind]:
        batch, single = oracle_for(inst, name), oracle_for(inst, name)
        got = batch.extend_many(subsets, budgets)
        assert got.dtype == np.int64 and got.shape == subsets.shape
        answers[name] = got.tolist()
        assert answers[name] == [single.extend(q, ell) for q, ell in queries]
        recorded = [[q.bit_count(), ell] for q, ell in queries]
        assert batch.ledger.queries.tolist() == single.ledger.queries.tolist() == recorded
    if "branching" in answers:
        assert answers["branching"] == answers["exact"]
    for (q, ell), x in zip(queries, answers["local-ratio"]):
        assert not q & x and membership_check(inst, q | x)
        if inst.kind != "wfvs":
            assert x == local_ratio_reference(inst, q)
    return answers


NEGATIVE_QUERIES = [
    ([-1], [1], 0),
    ([0], [-1], 0),
    ([1, 2, -2, 3], [1, 0, 1, -4], 2),
    ([1, 2, 0], [1, 0, -1], 2),
]


class TestNegativeQueries:
    """A negative S or ell is refused by the handle before the oracle runs
    and before the ledger records anything."""

    @pytest.mark.parametrize("kind", ["wvc", "whs", "wfvs", "wpvc"])
    @pytest.mark.parametrize("subsets,budgets,first", NEGATIVE_QUERIES)
    def test_rejected_by_every_handle(self, kind, subsets, budgets, first):
        inst = random_instance("wvc" if kind == "wpvc" else kind, 6, 0.4, seed=2)
        if kind == "wpvc":
            inst = WeightedPVCInstance(n=6, weights=inst.weights, edges=inst.edges, t=2)
        calls = []
        scalar = wrap_with_ledger(lambda s, ell: calls.append((s, ell)) or 0, c=2.0)
        names = ORACLES.get(kind, ("exact",))
        for handle in [oracle_for(inst, name) for name in names] + [scalar]:
            with pytest.raises(ValueError, match=f"query {first} has a negative"):
                handle.extend_many(subsets, budgets)
            if len(subsets) == 1:
                with pytest.raises(ValueError, match="query 0 has a negative"):
                    handle.extend(subsets[0], budgets[0])
            assert handle.ledger.queries.shape == (0, 2)
            assert handle.ledger.wall_time == 0.0
        assert calls == []


# (subsets, budgets, index of the first mask of 2^6 or more); the
# FVS local-ratio oracle would answer these, and the others raise IndexError.
OUTSIDE_QUERIES = [
    ([1 << 6], [1], 0),
    ([65], [0], 0),
    ([0, 63, (1 << 6) | 1, 1 << 62], [1, 0, 1, 2], 2),
    ([3, (1 << 63) - 1], [0, 0], 1),
]


class TestOutsideQueries:
    """A handle from oracle_for knows n and refuses masks of 2^n or more
    before the oracle runs and before the ledger records anything."""

    @pytest.mark.parametrize("kind", ["wvc", "whs", "wfvs", "wpvc"])
    @pytest.mark.parametrize("subsets,budgets,first", OUTSIDE_QUERIES)
    def test_rejected_by_every_handle(self, kind, subsets, budgets, first):
        inst = random_instance("wvc" if kind == "wpvc" else kind, 6, 0.4, seed=2)
        if kind == "wpvc":
            inst = WeightedPVCInstance(n=6, weights=inst.weights, edges=inst.edges, t=2)
        for name in ORACLES.get(kind, ("exact",)):
            handle = oracle_for(inst, name)
            assert handle.universe_size == 6
            outside = f"query {first} has S = 0x.* outside the 6-element"
            with pytest.raises(ValueError, match=outside):
                handle.extend_many(subsets, budgets)
            if len(subsets) == 1:
                with pytest.raises(ValueError, match="query 0 has S"):
                    handle.extend(subsets[0], budgets[0])
            assert handle.ledger.queries.shape == (0, 2)
            assert handle.ledger.wall_time == 0.0
            # The full universe is inside it.
            assert membership_check(inst, 63 | handle.extend(63, 1))

    def test_negative_named_first(self):
        handle = oracle_for(random_instance("wvc", 6, 0.4, seed=2), "exact")
        with pytest.raises(ValueError, match="query 1 has a negative"):
            handle.extend_many([1 << 6, -1], [1, 1])

    def test_wrapped_function_without_n_is_asked(self):
        calls = []
        handle = wrap_with_ledger(lambda s, ell: calls.append((s, ell)) or 0, c=2.0)
        assert handle.universe_size is None
        assert handle.extend(1 << 40, 1) == 0
        assert calls == [(1 << 40, 1)]
        sized = wrap_with_ledger(lambda s, ell: 0, c=2.0, universe_size=40)
        with pytest.raises(ValueError, match="outside the 40-element universe"):
            sized.extend(1 << 40, 1)


class TestBatchedQueries:
    @settings(max_examples=150, deadline=None)
    @given(inst=small_instances(), data=st.data())
    def test_batch_equals_single_queries(self, inst, data):
        full = (1 << inst.n) - 1
        pool = data.draw(
            st.lists(st.tuples(st.integers(0, full), st.integers(0, inst.n)), max_size=8)
        )
        # Drawing from a small pool repeats subsets and whole queries.
        queries = data.draw(st.lists(st.sampled_from(pool), max_size=20)) if pool else []
        answers = check_batch(inst, queries)
        assert answers["exact"] == [brute_extension(inst, q, ell) for q, ell in queries]

    def test_exact_scan_in_chunks(self, monkeypatch):
        # One scan serves every budget: solved S, ell = 0, ell 1..3 and
        # ell > n interleave in the batch, so a chunk of the scan mixes
        # budgets.  Chunks of every query, of 7 and of 1 agree.
        inst = random_instance("whs", 7, 0.5, seed=2, d=3)
        queries = [(q, ell) for q in range(0, 128, 3) for ell in (0, 1, 2, 3, inst.n + 2)]
        assert any(membership_check(inst, q) for q, _ in queries)
        want = [brute_extension(inst, q, ell) for q, ell in queries]
        solutions = inst._solutions[0].size
        assert oracles._CHUNK_PAIRS // solutions >= len(queries)
        for pairs in (oracles._CHUNK_PAIRS, 7 * solutions, 5):
            monkeypatch.setattr(oracles, "_CHUNK_PAIRS", pairs)
            assert check_batch(inst, queries)["exact"] == want

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_empty_batch(self, kind):
        inst = random_instance(kind, 5, 0.5, seed=1)
        for name in ORACLES[kind]:
            handle = oracle_for(inst, name)
            none = np.zeros(0, dtype=np.int64)
            assert handle.extend_many(none, none).tolist() == []
            assert handle.ledger.queries.size == 0

    @pytest.mark.parametrize(
        "inst",
        [
            random_instance("wvc", 16, 0.9, seed=3),
            WeightedHSInstance(
                n=14,
                weights=tuple(random.Random(4).randint(1, 50) for _ in range(14)),
                d=3,
                sets=tuple(
                    tuple(random.Random(i).sample(range(14), 1 + i % 3)) for i in range(90)
                ),
            ),
        ],
        ids=["wvc-108-edges", "whs-wide"],
    )
    def test_more_than_63_constraints(self, inst):
        assert len(inst.masks) > 63
        rng = random.Random(inst.n)
        full = (1 << inst.n) - 1
        pool = [(rng.randrange(full + 1), rng.randrange(inst.n + 1)) for _ in range(40)]
        check_batch(inst, pool + pool[:10] + [(full, 0), (0, inst.n)])


GOLDEN_LOCAL_RATIO = pathlib.Path(__file__).parent / "data" / "golden_local_ratio.txt"


def _multigraph_text(n, seed):
    """Seeded wfvs text with self-loops, parallel edges and isolated vertices."""
    rng = random.Random(seed)
    used = sorted(rng.sample(range(n), max(1, n - 1 - seed % 3)))
    edges = []
    for _ in range(rng.randint(n // 2, 2 * n)):
        u = rng.choice(used)
        v = u if rng.random() < 0.15 else rng.choice(used)
        edges.append((u, v))
        if rng.random() < 0.2:
            edges.append((v, u))  # a parallel copy
    lines = [f"p wfvs {n} {len(edges)}"]
    lines += [f"w {v} {rng.randint(1, 9)}" for v in range(1, n + 1)]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _golden_local_ratio_cases():
    for kind, d in (("wvc", 2), ("whs", 2), ("whs", 3), ("whs", 4), ("wfvs", 2)):
        for n in (0, 1, 3, 5, 8):
            for density in (0.3, 0.6):
                for lo, hi in ((1, 100), (1, 3)):
                    for seed in (0, 1):
                        inst = random_instance(
                            kind, n, density, weight_range=(lo, hi), seed=seed, d=d
                        )
                        yield (
                            f"{kind} d={d} n={n} p={density} w={lo}..{hi} seed={seed}",
                            inst,
                        )
    for n in (2, 4, 6, 8):
        for seed in range(6):
            yield f"wfvs multigraph n={n} seed={seed}", parse_instance(
                _multigraph_text(n, seed)
            )


def golden_local_ratio_lines():
    """One line per instance: every subset's (S, ell, X) in hex, ell drawn by seed."""
    lines = []
    for case, inst in _golden_local_ratio_cases():
        if isinstance(inst, WeightedFVSInstance):
            extend = local_ratio_fvs_oracle(inst)
        else:
            extend = local_ratio_hs_oracle(inst)
        rng = random.Random(case)
        answers = []
        for s in range(1 << inst.n):
            ell = rng.randrange(inst.n + 1)
            answers.append(f"{s:x}:{ell}:{extend(s, ell):x}")
        lines.append(f"{case}\t{' '.join(answers)}\n")
    return lines


class TestGoldenLocalRatio:
    def test_answers_match_golden(self):
        """The golden lines were written by the Fraction-based, per-query
        local-ratio oracles; the memoised integer oracles must reproduce
        every answer."""
        want = GOLDEN_LOCAL_RATIO.read_text().splitlines(keepends=True)
        assert golden_local_ratio_lines() == want

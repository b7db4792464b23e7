"""Tests for extension oracles: contracts, agreement, and cost accounting."""

import math
import pathlib
import random

import pytest

from wamls import oracles
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
        elements, unhit = oracles._residual(inst)
        assert [sum(1 << e for e in elems) for elems in elements] == list(inst.masks)
        assert all(elems == sorted(elems) for elems in elements)
        for s in range(1 << n):
            want = sum(1 << i for i, m in enumerate(inst.masks) if not s & m)
            assert unhit(s) == want


class TestLedger:
    def test_empty_ledger_sentinel(self):
        assert QueryLedger().cost_log(2.0) == -math.inf

    def test_zero_budget_queries(self):
        led = QueryLedger(queries=[(0, 0), (1, 0), (2, 0)])
        assert led.cost_log(2.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_mixed_budget_queries(self):
        led = QueryLedger(queries=[(0, 3), (1, 1)])
        assert led.cost_log(2.0) == pytest.approx(math.log(10), abs=1e-12)

    def test_wrapper_records_queries(self):
        inst = WeightedVCInstance(n=2, weights=(1, 5), edges=((0, 1),))
        handle = wrap_with_ledger(local_ratio_vc_oracle(inst), c=1.0, alpha=2.0)
        handle.extend(0, 0)
        handle.extend(0b10, 1)
        assert handle.ledger.queries == [(0, 0), (1, 1)]
        assert handle.ledger.cost_log(1.0) == pytest.approx(math.log(2), abs=1e-12)
        assert handle.ledger.wall_time >= 0.0


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

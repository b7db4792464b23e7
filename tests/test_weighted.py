"""Tests for weight-class rounding and the weighted family constructions."""

import math
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamls import bounds, weighted
from wamls.families import dump_family, verify_covering, verify_extension
from wamls.weighted import (
    build_weighted_covering,
    build_weighted_extension,
    combine_blocks,
    partition_by_weight,
)


class TestPartition:
    def test_geometric_classes(self):
        part = partition_by_weight([1, 2, 3, 8], 1.0 - 1e-9)
        assert part.gamma == pytest.approx(1.5, abs=1e-9)
        # i = floor(log_1.5 w): 1 -> 0, 2 -> 1, 3 -> 2, 8 -> 5 (1.5^5 = 7.59).
        assert part.classes[0] == (0,)
        assert part.classes[1] == (1,)
        assert part.classes[2] == (2,)
        assert part.classes[5] == (3,)
        assert part.index_set == (0, 1, 2, 5)

    def test_uniform_weights_single_class(self):
        part = partition_by_weight([1, 1, 1], 0.5)
        assert part.index_set == (0,)
        assert part.classes[0] == (0, 1, 2)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            partition_by_weight([1, 0, 2], 0.5)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match="^weights must be finite and >= 1, got"):
            partition_by_weight([1, w], 0.5)

    def test_delta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            partition_by_weight([1, 2], 1.0)
        with pytest.raises(ValueError):
            partition_by_weight([1, 2], 0.0)

    def test_window_inequality(self):
        for delta in (0.1, 0.3, 0.7, 0.99):
            part = partition_by_weight(list(range(1, 13)), delta)
            assert part.gamma**part.d >= 2 * part.n / delta - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=12),
        delta=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_partition_is_exact(self, weights, delta):
        part = partition_by_weight(weights, delta)
        assigned = [u for elems in part.classes.values() for u in elems]
        assert sorted(assigned) == list(range(len(weights)))
        for i, elems in part.classes.items():
            for u in elems:
                assert part.gamma**i <= weights[u] < part.gamma ** (i + 1) or (
                    # float log edge: the robust index loop guarantees the
                    # invariant up to one ulp of the power computation
                    abs(part.gamma**i - weights[u]) < 1e-6
                )


class TestCombineBlocks:
    def test_singleton_window(self):
        part = partition_by_weight([1, 1], 0.5)
        block = combine_blocks(part, {0: [(0, 0)]}, 0)
        assert block == [(0, 0)]

    def test_product_cardinality(self):
        part = partition_by_weight([1, 100], 0.5)
        lo, hi = part.index_set
        per_class = {lo: [(1, 0), (0, 1)], hi: [(2, 0), (0, 2), (2, 1)]}
        block = combine_blocks(part, per_class, hi)
        assert len(block) <= 6

    def test_matches_naive_product(self):
        weights = [1, 3, 9, 27, 81, 243]
        part = partition_by_weight(weights, 0.9)
        per_class = {
            i: [(sum(1 << e for e in part.classes[i]), 1), (0, 0)]
            for i in part.index_set
        }
        k = part.index_set[-1]
        w_k = sum(
            1 << e
            for i in part.index_set
            if i < k - part.d
            for e in part.classes[i]
        )
        naive = [(w_k, 0)]
        for i in part.index_set:
            if k - part.d <= i <= k:
                naive = [(t | e, l1 + l2) for t, l1 in naive for e, l2 in per_class[i]]
        assert combine_blocks(part, per_class, k) == naive

    def test_unoccupied_index_rejected(self):
        part = partition_by_weight([1, 1], 0.5)
        with pytest.raises(ValueError):
            combine_blocks(part, {}, 3)


class TestWeightedCovering:
    def test_single_element(self):
        rep = build_weighted_covering([7], 2.0)
        assert 0 in rep.family.sets and 1 in rep.family.sets

    def test_random_weights_verify(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 8)
            weights = [rng.randint(1, 100) for _ in range(n)]
            for alpha in (1.5, 2.0, 3.0):
                rep = build_weighted_covering(weights, alpha)
                assert verify_covering(rep.family, weights).ok

    def test_schedule_mode_verifies(self):
        weights = [3, 1, 4, 1, 5, 9, 2, 6]
        rep = build_weighted_covering(weights, 2.0, mode="schedule")
        assert verify_covering(rep.family, weights).ok
        assert rep.schedule["mode"] == "schedule"

    def test_uniform_weights_match_unweighted_validity(self):
        rep = build_weighted_covering([1] * 7, 2.0)
        assert verify_covering(rep.family, [1] * 7).ok

    def test_schedule_split_is_consistent(self):
        rep = build_weighted_covering([5, 17, 80], 2.0)
        delta, inner = rep.schedule["delta"], rep.schedule["inner"]
        assert (1 + delta) * inner == pytest.approx(2.0, abs=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'greedy'"):
            build_weighted_covering([1, 2, 3], 2.0, mode="greedy")

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            build_weighted_covering([1, 2], 1.0)


@pytest.mark.parametrize(
    "build, args, name",
    [
        (build_weighted_covering, ([1, 2], math.nan), "alpha"),
        (build_weighted_extension, ([1, 2], math.nan, 2.0, 1.5), "alpha"),
        (build_weighted_extension, ([1, 2], 1.0, math.nan, 1.5), "c"),
        (build_weighted_extension, ([1, 2], 1.0, 2.0, math.nan), "beta"),
        (build_weighted_extension, ([1, 2], 1.0, 2.0, 1.5, math.nan), "eps"),
        (build_weighted_extension, ([1, 2], 1.0, 2.0, math.inf), "beta"),
    ],
)
def test_non_finite_factor_named(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(*args)


class TestWeightedExtension:
    def test_empty_universe(self):
        rep = build_weighted_extension([], 1.0, 2.0, 1.5)
        assert rep.family.entries == [(0, 0)]
        assert rep.cost_log == pytest.approx(0.0, abs=1e-12)

    def test_random_weights_verify(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(1, 8)
            weights = [rng.randint(1, 100) for _ in range(n)]
            for alpha, beta in [(1.0, 1.3), (1.0, 2.0), (2.0, 1.7), (2.0, 2.0)]:
                for c in (1.0, 2.0):
                    rep = build_weighted_extension(weights, alpha, c, beta)
                    assert verify_extension(rep.family, weights).ok

    def test_unit_cost_identity(self):
        weights = [2, 4, 8, 16, 32, 64]
        rep = build_weighted_extension(weights, 2.0, 1.0, 2.0)
        assert rep.cost_log == pytest.approx(
            math.log(len(rep.family.entries)), abs=1e-12
        )

    def test_inner_target_between_one_and_beta(self):
        rep = build_weighted_extension([1, 7, 50], 1.0, 2.0, 1.5)
        assert 1.0 < rep.schedule["inner"] < 1.5
        assert rep.schedule["delta"] == pytest.approx(
            1.5 / rep.schedule["inner"] - 1.0, abs=1e-12
        )

    def test_scale_invariance_of_verdict(self):
        weights = [3, 1, 4, 1, 5]
        rep = build_weighted_extension(weights, 1.0, 2.0, 1.5)
        scaled = [w * 17 for w in weights]
        # Both defining inequalities are homogeneous in w, so the same
        # entries witness the same subsets after scaling.
        assert verify_extension(rep.family, weights).ok
        assert verify_extension(rep.family, scaled).ok

    def test_large_beta_budget_capped(self):
        # Unit weights form one class, whose layer budgets would exceed n = 5.
        rep = build_weighted_extension([1] * 5, 1.0, 1.0, 4.0)
        assert max(ell for _, ell in rep.family.entries) <= 5
        assert verify_extension(rep.family, [1] * 5).ok

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_weighted_extension([1], 0.9, 1.0, 1.5)
        with pytest.raises(ValueError):
            build_weighted_extension([1], 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_weighted_extension([1], 1.0, 1.0, 1.5, eps=0.0)


_AMLS_BOUND = bounds.amls_bound  # unpatched, for the reference selection


def _fine_amls(alpha, c, beta):
    return _AMLS_BOUND(bounds.BoundParams(alpha=alpha, c=c, beta=beta)).value


def _reference_inner_beta(alpha, c, beta, eps):
    """The inner target chosen from full-precision amls_bound values alone."""
    target = _fine_amls(alpha, c, beta) + eps / 2.0
    chosen = None
    for j in range(1, 21):
        zeta = 1.0 + (beta - 1.0) * 2.0**-j
        if zeta <= beta / 2.0 or zeta <= 1.0:
            break
        if _fine_amls(alpha, c, zeta) <= target:
            chosen = zeta
        else:
            break
    return (1.0 + beta) / 2.0 if chosen is None else chosen


# (alpha, c) the oracles declare: exact, branching on d = 2 and 3, local ratio.
ORACLE_FACTORS = [(1.0, 2.0), (1.0, 3.0), (2.0, 1.0), (3.0, 1.0)]


def _selection_cases():
    """1000 (alpha, c, beta, eps): the weighted-mix grid (beta in 1.2, 1.5,
    1.9) and a unit-fresh grid of betas in [1.2, 1.9] for the oracles'
    factors, then seeded draws with beta down to 1 + 1e-6."""
    cases = []
    for alpha, c in ORACLE_FACTORS:
        cases += [(alpha, c, beta, 0.05) for beta in (1.2, 1.5, 1.9)]
        cases += [(alpha, c, 1.2 + 0.7 * i / 40, 0.05) for i in range(41)]
    rng = random.Random(8)
    while len(cases) < 1000:
        alpha = rng.choice([1.0, 2.0, 3.0, rng.uniform(1.0, 4.0)])
        c = rng.choice([1.0, 2.0, 3.0, rng.uniform(1.0, 8.0)])
        if rng.random() < 0.1:
            beta = 1.0 + 10 ** rng.uniform(-6.0, -2.0)
        else:
            beta = rng.uniform(1.01, 2.5)
        eps = rng.choice([0.05, 0.05, 0.05, rng.uniform(1e-3, 0.2)])
        cases.append((alpha, c, beta, eps))
    return cases


class TestInnerBetaSelection:
    """Coarse certificates settle the selection unless a test is near a tie."""

    def test_matches_fine_only_reference(self):
        weighted._select_inner_beta.cache_clear()
        for alpha, c, beta, eps in _selection_cases():
            want = _reference_inner_beta(alpha, c, beta, eps)
            assert weighted._select_inner_beta(alpha, c, beta, eps) == want, (alpha, c, beta, eps)

    def test_near_tie_refines(self, monkeypatch):
        # eps puts the second probe, zeta = 1.125, on the edge of the test
        # amls(zeta) <= amls(beta) + eps/2; the first probe, 1.25, clears it.
        alpha, c, beta = 1.0, 2.0, 1.5
        tie = _fine_amls(alpha, c, 1.125)
        eps = 2.0 * (tie - _fine_amls(alpha, c, beta))
        calls = []

        def counting(params):
            calls.append(params.beta)
            return _AMLS_BOUND(params)

        monkeypatch.setattr(bounds, "amls_bound", counting)
        chosen = {}
        for k in (-4, -1, 0, 1, 4):
            e = eps + k * math.ulp(tie)
            weighted._select_inner_beta.cache_clear()
            calls.clear()
            chosen[k] = weighted._select_inner_beta(alpha, c, beta, e)
            assert 1.125 in calls  # the full-precision values decided the tie
            assert chosen[k] == _reference_inner_beta(alpha, c, beta, e)
        assert chosen[-4] == 1.25 and chosen[4] == 1.125

    def test_clear_margin_needs_no_full_precision(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "amls_bound", lambda p: calls.append(p) or _AMLS_BOUND(p))
        weighted._select_inner_beta.cache_clear()
        assert weighted._select_inner_beta(1.0, 2.0, 1.5, 0.05) == 1.25
        assert calls == []

    def test_selection_is_cached(self, monkeypatch):
        weighted._select_inner_beta.cache_clear()
        weighted._select_inner_beta(1.0, 2.0, 1.7, 0.05)
        monkeypatch.setattr(bounds, "_coarse_amls", None)  # a second search would fail
        assert weighted._select_inner_beta(1.0, 2.0, 1.7, 0.05) == 1.35


DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_WEIGHT_RANGES = [3, 100, 10**6]
GOLDEN_COVERING_ALPHAS = [1.5, 2.0]
GOLDEN_EXTENSION_PARAMS = [(1.0, 2.0, 1.5), (1.5, 3.0, 2.0)]


def _golden_weighted_blocks():
    """dump_family of every golden build, its schedule (and cost_log) in the
    comment line: seeded weights from 1..hi for each n in 0..10."""
    blocks = []
    for hi in GOLDEN_WEIGHT_RANGES:
        for n in range(11):
            rng = random.Random(100 * hi + n)
            weights = [rng.randint(1, hi) for _ in range(n)]
            reps = [
                build_weighted_covering(weights, alpha, mode=mode)
                for alpha in GOLDEN_COVERING_ALPHAS
                for mode in ("fixed", "schedule")
            ]
            reps += [
                build_weighted_extension(weights, alpha, c, beta)
                for alpha, c, beta in GOLDEN_EXTENSION_PARAMS
            ]
            for rep in reps:
                info = [f"{k}={v!r}" for k, v in rep.schedule.items()]
                if rep.cost_log is not None:
                    info.append(f"cost_log={rep.cost_log!r}")
                blocks.append(dump_family(rep.family, schedule=" ".join(info)))
    return blocks


class TestWeightedGolden:
    """tests/data/golden_weighted.txt was written before covering families
    were built as budget-0 extension families; it pins the class combination,
    its dedupe order and every schedule value."""

    def test_golden_dumps(self):
        text = (DATA / "golden_weighted.txt").read_text()
        golden = [b for b in re.split(r"(?m)^(?=family )", text) if b]
        assert _golden_weighted_blocks() == golden

"""Tests for weight-class rounding and the weighted family constructions."""

import builtins
import math
import pathlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamls import bounds, weighted
from wamls.driver import approximate_membership
from wamls.families import (
    DEFAULT_CAP,
    CoveringFamily,
    ExtensionFamily,
    ResourceCapError,
    build_unweighted_covering,
    build_unweighted_extension,
    dump_family,
    family_cost,
    parse_family,
    verify_covering,
    verify_extension,
)
from wamls.problems import random_instance
from wamls.weighted import (
    build_weighted_covering,
    build_weighted_extension,
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


def hand_built(per_class):
    """inner(m) for the class combination: the j-th call returns
    per_class[j], a list of class-local (T, ell) pairs, as int64 columns."""
    calls = iter(per_class)

    def inner(m):
        entries = np.array(next(calls), dtype=np.int64).reshape(-1, 2)
        return entries[:, 0], entries[:, 1]

    return inner


def windows(weights, part, target, zeta):
    """The window starts, as positions in part.index_set, and the spread R
    that weighted._choose_inner gives its lone candidate zeta.  Every class
    costs 0 nats, so each window's product costs 1."""
    chosen, starts, spread, predicted = weighted._choose_inner(
        weights, part, target, [zeta], lambda m, z: (None, None, 0.0)
    )
    assert (chosen, predicted) == (zeta, {zeta: math.log(len(starts))})
    return starts, spread


class HandBuiltFamily:
    """What inner(m, zeta) gives weighted._build: scoring reads its cost [2],
    0 nats, and the combination its (T, ell) columns [:2], the next entry of
    the hand-built per-class list."""

    def __init__(self, columns):
        self.columns = columns

    def __getitem__(self, key):
        return 0.0 if key == 2 else self.columns(None)


def combine(weights, delta, target, per_class):
    """weighted._build at the lone inner target 1.5 over hand-built class
    families, as a list of pairs, and its schedule."""
    family = HandBuiltFamily(hand_built(per_class))
    entries, schedule = weighted._build(
        weights, delta, target, [1.5], lambda m, zeta: family, DEFAULT_CAP
    )
    assert list(schedule)[:5] == ["delta", "inner", "gamma", "spread", "predicted"]
    assert schedule["predicted"] == {1.5: math.log(len(schedule["starts"]))}
    return [tuple(row) for row in entries.T.tolist()], schedule


class TestCombineBlocks:
    """The class combination over hand-built class families, against
    hand-built products and naive_combination."""

    def test_singleton_window(self):
        assert combine([1, 1], 0.5, 2.25, [[(0, 0)]])[0] == [(0, 0)]

    def test_product_cardinality(self):
        # The classes are 0 and 20.  The slack is 2.25 - 1.5 = 0.75, and
        # 1 <= 0.75 * 100, so each window holds one class, and the heavy
        # class's entries carry the light element.
        per_class = [[(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]
        got, schedule = combine([1, 100], 0.5, 2.25, per_class)
        assert schedule["starts"] == {0: 0, 20: 20}
        assert got == [(1, 0), (0, 1), (3, 0), (1, 1), (3, 1)]
        assert got == naive_combination([1, 100], 0.5, 2.25, 1.5, hand_built(per_class))

    def test_matches_naive_product(self):
        weights = [1, 3, 9, 27, 81, 243]
        part = partition_by_weight(weights, 0.9)
        assert part.index_set == (0, 2, 5, 8, 11, 14)
        # Each class holds one element, with local family {(1, 1), (0, 0)}.
        # The slack is 1.55 - 1.5 = 0.05, so class 8 (weight 27, bound
        # 1.35) has class 0 (total 1) as its prefix, class 11 (bound 4.05)
        # classes 0 and 2 (total 4), and so does class 14 (bound 12.15 <
        # 13).  Classes 2 and 5 (bounds 0.15 and 0.45) have none.
        per_class = [[(1, 1), (0, 0)]] * len(part.index_set)
        got, schedule = combine(weights, 0.9, 1.55, per_class)
        assert schedule["starts"] == {0: 0, 2: 0, 5: 0, 8: 2, 11: 5, 14: 5}
        assert schedule["spread"] == 1.0
        naive = naive_combination(weights, 0.9, 1.55, 1.5, hand_built(per_class))
        assert sorted(got) == sorted(naive)
        assert got == naive_combination(
            weights, 0.9, 1.55, 1.5, hand_built(per_class), longest=True
        )
        # The last window [5, 14] holds classes 5, 8, 11 and 14 (elements 2
        # to 5), and its prefix W_k classes 0 and 2 (elements 0 and 1).  Its
        # entries without element 5 are window 11's, which shares its start,
        # so only the last window's block is built, and its 16 entries, all
        # new, close the family.
        last = [(0b11, 0)]
        for e in range(2, 6):
            last = [(t | x, l1 + l2) for t, l1 in last for x, l2 in [(1 << e, 1), (0, 0)]]
        assert got[-16:] == last


def paper_window(part):
    """The paper's window width d = ceil((2/delta) * log2(2n/delta)), with
    gamma^d >= 2n/delta: class k's window starts at the first occupied
    class at or above k - d."""
    n = sum(map(len, part.classes.values()))
    d = math.ceil((2.0 / part.delta) * math.log2(2 * n / part.delta))
    assert part.gamma**d >= 2 * n / part.delta - 1e-9
    return {k: min(i for i in part.index_set if i >= k - d) for k in part.index_set}


def exact_groups(weights, part):
    """Each occupied class's weights as Fractions, and the spread R: the
    largest heaviest/lightest ratio inside a class."""
    w = [Fraction(x) for x in weights]
    groups = [[w[u] for u in part.classes[i]] for i in part.index_set]
    return groups, max(max(g) / min(g) for g in groups)


def exact_windows(weights, part, target, zeta):
    """The window rule in Fractions of the inputs: the spread R, and the
    class where each window starts, after the longest prefix of lighter
    occupied classes of total weight at most (target - R*zeta) * min w(U_k),
    and never after k."""
    groups, spread = exact_groups(weights, part)
    slack = Fraction(target) - spread * Fraction(zeta)
    starts = {}
    for j, k in enumerate(part.index_set):
        s = 0
        while s < j and sum(sum(g) for g in groups[: s + 1]) <= slack * min(groups[j]):
            s += 1
        starts[k] = part.index_set[s]
    return spread, starts


def naive_combination(weights, delta, target, zeta, inner, longest=False):
    """The class combination in plain Python: each window's product of
    per-class lists under its prefix, deduplicated by dict.fromkeys in
    first-seen order.  With longest, only the last window of each start
    (in the order of the starts) is built, the blocks weighted._combine
    builds; the entry set is the same when every class family holds
    (0, 0)."""
    part = partition_by_weight(weights, delta)
    _, starts = exact_windows(weights, part, target, zeta)
    per_class = {}
    for i in part.index_set:
        elems = part.classes[i]
        ts, ells = inner(len(elems))
        per_class[i] = [
            (sum(1 << e for j, e in enumerate(elems) if t >> j & 1), ell)
            for t, ell in zip(ts.tolist(), ells.tolist())
        ]
    ends = {starts[k]: k for k in part.index_set}.values() if longest else part.index_set
    entries = []
    for k in ends:
        block = [(sum(1 << e for i in part.index_set if i < starts[k] for e in part.classes[i]), 0)]
        for i in part.index_set:
            if starts[k] <= i <= k:
                block = [(t | e, l1 + l2) for t, l1 in block for e, l2 in per_class[i]]
        entries += block
    return list(dict.fromkeys(entries))


WEIGHT_LISTS = st.one_of(
    st.lists(st.just(1), min_size=1, max_size=10),
    st.lists(st.integers(1, 100), min_size=1, max_size=10),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=10),
    st.lists(st.integers(0, 40).map(lambda k: 2**k), min_size=1, max_size=10),
)


FLOAT_WEIGHTS = st.lists(
    st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=10
)

# (builder, its factors): covering (alpha,), extension (alpha, c, beta).
BUILDS = st.one_of(
    st.tuples(st.just(build_weighted_covering), st.sampled_from([(1.5,), (2.0,), (3.0,)])),
    st.tuples(
        st.just(build_weighted_extension),
        st.sampled_from([(1.0, 2.0, 1.5), (2.0, 1.0, 1.9), (1.0, 3.0, 1.2), (1.0, 1.0, 4.0)]),
    ),
)


def build_with_target(weights, spec):
    """The built report and its family's own target: alpha for covering,
    beta for extension."""
    build, factors = spec
    return build(weights, *factors), factors[-1]


class TestClassWindows:
    """Each window starts after the longest prefix of lighter classes of
    total weight at most (B - R*zeta) * min w(U_k), decided exactly."""

    @settings(max_examples=80, deadline=None)
    @given(weights=st.one_of(WEIGHT_LISTS, FLOAT_WEIGHTS), spec=BUILDS)
    def test_prefixes_fit_their_slack(self, weights, spec):
        rep, target = build_with_target(weights, spec)
        if rep.schedule["delta"] == 0.0:  # uniform weights: no classes
            assert min(weights) == max(weights)
            assert (rep.schedule["inner"], rep.schedule["starts"]) == (target, {0: 0})
            return
        part = partition_by_weight(weights, rep.schedule["delta"])
        groups, spread = exact_groups(weights, part)
        assert rep.schedule["spread"] == float(spread)
        assert rep.schedule["starts"] == exact_windows(weights, part, target, rep.schedule["inner"])[1]
        # Every prefix W_k fits its slack.
        slack = Fraction(target) - spread * Fraction(rep.schedule["inner"])
        for (k, start), group in zip(rep.schedule["starts"].items(), groups):
            prefix = sum(sum(g) for i, g in zip(part.index_set, groups) if i < start)
            assert prefix <= slack * min(group)
            assert start <= k
        # At the paper's inner target, or covering's zeta'_1 = (alpha+1)/2,
        # every window is a suffix of the paper's window [k - d, k].
        paper = paper_window(part)
        paper_inner = rep.schedule.get("paper_inner", (target + 1.0) / 2.0)
        for k, start in exact_windows(weights, part, target, paper_inner)[1].items():
            assert paper[k] <= start <= k

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.one_of(WEIGHT_LISTS, FLOAT_WEIGHTS),
        delta=st.floats(0.05, 0.95),
        zeta=st.floats(1.0, 3.0),
        data=st.data(),
    )
    def test_ties_decided_exactly(self, weights, delta, zeta, data):
        # A target whose slack puts one prefix on its bound, and the floats
        # on either side of it: rounding must not move the decision.
        part = partition_by_weight(weights, delta)
        groups, spread = exact_groups(weights, part)
        j = data.draw(st.integers(0, len(groups) - 1))
        s = data.draw(st.integers(0, j))
        tie = float(spread * Fraction(zeta) + sum(map(sum, groups[:s])) / min(groups[j]))
        for target in (math.nextafter(tie, 0.0), tie, math.nextafter(tie, math.inf)):
            starts, got_spread = windows(weights, part, target, zeta)
            want_spread, want = exact_windows(weights, part, target, zeta)
            assert got_spread == float(want_spread)
            assert dict(zip(part.index_set, (part.index_set[i] for i in starts))) == want

    def test_float_rounding_admits_no_prefix(self):
        # Classes 10 (weights 46 and 52, so R = 52/46), 32 and 34.  At this
        # target the float expression P <= (target - R*zeta) * m holds for
        # the prefix of classes 10 and 32 under class 34 (P = 189368,
        # m = 313303), but the exact one does not; one float higher, both do.
        weights = [46, 52, 189270, 313303]
        part = partition_by_weight(weights, 0.9)
        target = 2.017467949140497
        assert 189368 <= (target - 52 / 46 * 1.25) * 313303
        assert windows(weights, part, target, 1.25)[0] == [0, 1, 1]
        above = math.nextafter(target, 3.0)
        assert windows(weights, part, above, 1.25)[0] == [0, 1, 2]

    @settings(max_examples=40, deadline=None)
    @given(weights=st.one_of(WEIGHT_LISTS, FLOAT_WEIGHTS), spec=BUILDS)
    def test_families_verify(self, weights, spec):
        rep, _ = build_with_target(weights, spec)
        if spec[0] is build_weighted_covering:
            assert verify_covering(rep.family, weights).ok
        else:
            assert verify_extension(rep.family, weights).ok

    def test_numpy_weights_match_list(self):
        builds = [
            lambda w: build_weighted_extension(w, 1.0, 2.0, 1.9),
            lambda w: build_weighted_covering(w, 2.0),
            lambda w: build_weighted_covering(w, 3.0),
        ]
        floats = [1.5, 2.0, 7.0, 3.3, 100.1, 1.05]
        for weights, dtype in [
            # numpy integers have no as_integer_ratio, so they go through Fraction.
            ([1, 3, 9, 27, 81, 243, 5, 50], np.int64),
            # numpy float16 and float32 are no Python floats, and Fraction
            # refuses them; each is read exactly as the float it converts to.
            (floats, np.float32),
            (floats, np.float16),
        ]:
            array = np.array(weights, dtype=dtype)
            for build in builds:
                want = build(array.tolist())
                got = build(array)
                assert got.schedule == want.schedule
                assert got.family == want.family
                assert got.cost_log == want.cost_log

    def test_unit_weights_one_window(self):
        # One class: its window starts at 0, whatever the slack.
        for beta in (1.2, 4.0):
            rep = build_weighted_extension([1] * 6, 1.0, 2.0, beta)
            assert rep.schedule["starts"] == {0: 0}
            assert rep.schedule["spread"] == 1.0


def predicted_cost(weights, part, alpha, c, beta, zeta):
    """ln sum_k prod_{i in window k} C_i, C_i = sum(c^ell) over class i's
    zeta-family, from the exact windows, in Fractions."""
    _, starts = exact_windows(weights, part, beta, zeta)
    cost = {}
    for i, us in part.classes.items():
        fam = build_unweighted_extension(len(us), alpha, c, zeta)
        cost[i] = sum(Fraction(c) ** ell for ell in fam.ells.tolist())
    windows = [[cost[i] for i in part.index_set if starts[k] <= i <= k] for k in part.index_set]
    return math.log(sum(map(math.prod, windows)))


# Weights 64..100 put two elements of ratio up to 1.23 in one class.
SPREAD_WEIGHTS = st.one_of(
    st.lists(st.integers(1, 100), min_size=2, max_size=9),
    st.lists(st.integers(1, 2), min_size=2, max_size=9),
    st.lists(st.integers(64, 100), min_size=2, max_size=9),
).filter(lambda ws: min(ws) < max(ws))

# The oracles' (alpha, c) at the bench's targets; and settings whose paper
# target lies below some zeta_j: at (1, 1, 1.5) it is 1 + 2^-21, gamma is
# 1.25, and a class of spread R > 1.2 skips zeta_1 = 1.25.
CHOICE_FACTORS = st.one_of(
    st.tuples(
        st.sampled_from([(1.0, 2.0), (1.0, 3.0), (2.0, 1.0)]), st.sampled_from([1.2, 1.5, 1.9])
    ),
    st.sampled_from([((2.0, 2.0), 1.004), ((1.0, 1.0), 2.5), ((1.0, 1.0), 1.5)]),
)


# Covering draws: SPREAD_WEIGHTS and powers of two, one per class.
COVERING_SPREAD_WEIGHTS = st.one_of(
    SPREAD_WEIGHTS,
    st.lists(st.integers(0, 40).map(lambda k: 2**k), min_size=2, max_size=9).filter(
        lambda ws: min(ws) < max(ws)
    ),
)


class TestInnerChoice:
    """The inner target is the first candidate of least predicted cost."""

    @settings(max_examples=60, deadline=None)
    @given(weights=SPREAD_WEIGHTS, factors=CHOICE_FACTORS)
    def test_chosen_family_verifies(self, weights, factors):
        (alpha, c), beta = factors
        rep = build_weighted_extension(weights, alpha, c, beta)
        assert verify_extension(rep.family, weights).ok

    @settings(max_examples=60, deadline=None)
    @given(weights=SPREAD_WEIGHTS, factors=CHOICE_FACTORS)
    def test_chosen_cost_at_most_papers(self, weights, factors):
        (alpha, c), beta = factors
        rep = build_weighted_extension(weights, alpha, c, beta)
        sched = rep.schedule
        paper, predicted = sched["paper_inner"], sched["predicted"]
        part = partition_by_weight(weights, sched["delta"])
        _, spread = exact_groups(weights, part)
        # Scored: the paper's target, then each zeta_j whose R * zeta_j <= beta.
        zetas = [1 + (beta - 1) * 2.0**-j for j in range(1, 8)]
        admissible = [z for z in zetas if spread * Fraction(z) <= Fraction(beta)]
        assert list(predicted) == list(dict.fromkeys([paper, *admissible]))
        for zeta, cost in predicted.items():
            want = predicted_cost(weights, part, alpha, c, beta, zeta)
            assert cost == pytest.approx(want, rel=1e-9)
        least = min(predicted.values())
        assert sched["inner"] == next(z for z, cost in predicted.items() if cost == least)
        assert predicted[sched["inner"]] <= predicted[paper]
        # Deduplication only lowers the cost.
        assert rep.cost_log <= predicted[sched["inner"]] + 1e-9

    def test_candidate_past_its_slack_skipped(self):
        # Weights 70 and 86 share class 19 (gamma = 1.25), so R = 86/70 and
        # R * 1.25 > 1.5: zeta_1 is not scored, zeta_2 = 1.125 is.
        rep = build_weighted_extension([70, 86, 100], 1.0, 1.0, 1.5)
        assert rep.schedule["spread"] == 86 / 70
        assert list(rep.schedule["predicted"]) == [
            rep.schedule["paper_inner"], *(1 + 0.5 * 2.0**-j for j in range(2, 8))
        ]
        assert verify_extension(rep.family, [70, 86, 100]).ok

    @pytest.mark.parametrize("w", [1, 7, 10**6, 2.5])
    def test_uniform_weights_build_at_beta(self, w):
        for n in (1, 5, 9):
            for alpha, c, beta in [(1.0, 2.0, 1.5), (2.0, 1.0, 1.9), (1.0, 3.0, 1.2)]:
                rep = build_weighted_extension([w] * n, alpha, c, beta)
                want = build_unweighted_extension(n, alpha, c, beta)
                assert rep.family.entries == want.entries
                assert rep.cost_log == family_cost(want, c)
                assert rep.schedule == {
                    "delta": 0.0, "inner": beta, "gamma": 1.0, "spread": 1.0, "eps": 0.05,
                    "class_family_sizes": {0: len(want.entries)}, "starts": {0: 0},
                }
                assert verify_extension(rep.family, [w] * n).ok

    def test_uniform_weights_keep_the_caps(self):
        for build in (
            lambda w, cap=DEFAULT_CAP: build_weighted_extension(w, 1.0, 2.0, 1.5, cap=cap),
            lambda w, cap=DEFAULT_CAP: build_weighted_covering(w, 2.0, cap=cap),
        ):
            with pytest.raises(ResourceCapError, match="universe size 9 exceeds enumeration cap 8"):
                build([7] * 9, cap=8)
            with pytest.raises(ResourceCapError, match="63-element limit"):
                build([7] * 64, cap=64)
            with pytest.raises(ValueError, match="weights must be finite"):
                build([math.nan] * 3)

    @settings(max_examples=60, deadline=None)
    @given(weights=COVERING_SPREAD_WEIGHTS, alpha=st.sampled_from([1.2, 1.5, 2.0, 3.0]))
    def test_covering_family_verifies(self, weights, alpha):
        rep = build_weighted_covering(weights, alpha)
        assert verify_covering(rep.family, weights).ok

    @settings(max_examples=60, deadline=None)
    @given(weights=COVERING_SPREAD_WEIGHTS, alpha=st.sampled_from([1.2, 1.5, 2.0, 3.0]))
    def test_covering_cost_is_block_count(self, weights, alpha):
        rep = build_weighted_covering(weights, alpha)
        sched, n = rep.schedule, len(weights)
        predicted, first = sched["predicted"], (alpha + 1.0) / 2.0
        part = partition_by_weight(weights, sched["delta"])
        assert sched["delta"] == (alpha - 1.0) / (alpha + 1.0)
        _, spread = exact_groups(weights, part)
        # Scored: zeta'_1, then alpha - 1/log2 n (n >= 3) and each zeta_j,
        # j = 2..7, above 1 and with R * zeta <= alpha.
        zetas = [alpha - 1 / math.log2(n)] if n >= 3 else []
        zetas += [1 + (alpha - 1) * 2.0**-j for j in range(2, 8)]
        admissible = [z for z in zetas if z > 1 and spread * Fraction(z) <= Fraction(alpha)]
        assert list(predicted) == list(dict.fromkeys([first, *admissible]))
        # A class costs its family's size, so each candidate's predicted
        # cost is ln of the entry count of every window's product before
        # deduplication.  That is not the count the size cap tests: only the
        # longest window of each start is built, and the cap counts those
        # rows.
        for zeta, cost in predicted.items():
            _, starts = exact_windows(weights, part, alpha, zeta)
            size = {i: len(budget_zero(len(us), zeta)[0]) for i, us in part.classes.items()}
            blocks = sum(
                math.prod(size[i] for i in part.index_set if starts[k] <= i <= k)
                for k in part.index_set
            )
            assert cost == pytest.approx(math.log(blocks), rel=1e-12)
        least = min(predicted.values())
        assert sched["inner"] == next(z for z, cost in predicted.items() if cost == least)
        assert predicted[sched["inner"]] <= predicted[first]
        assert math.log(len(rep.family.sets)) <= predicted[sched["inner"]] + 1e-9

    @pytest.mark.parametrize("w", [1, 7])
    def test_uniform_covering_builds_at_alpha(self, w):
        for n in (1, 5, 9):
            for alpha in (1.2, 1.5, 2.0, 3.0):
                rep = build_weighted_covering([w] * n, alpha)
                want = build_unweighted_covering(n, alpha)
                assert rep.family == want
                assert rep.schedule == {
                    "delta": 0.0, "inner": alpha, "gamma": 1.0, "spread": 1.0,
                    "class_family_sizes": {0: len(want.sets)}, "starts": {0: 0},
                }
                assert verify_covering(rep.family, [w] * n).ok


def budget_zero(m, alpha):
    """build_unweighted_covering(m, alpha)'s sets as budget-0 (T, ell) columns."""
    ts = build_unweighted_covering(m, alpha).ts
    return ts, np.zeros_like(ts)


class TestArrayCombination:
    @settings(max_examples=60, deadline=None)
    @given(
        weights=WEIGHT_LISTS,
        factors=st.sampled_from([(1.0, 2.0, 1.5), (2.0, 1.0, 1.9), (1.0, 3.0, 1.2)]),
    )
    def test_extension_matches_naive(self, weights, factors):
        alpha, c, beta = factors
        rep = build_weighted_extension(weights, alpha, c, beta)
        if min(weights) == max(weights):
            assert rep.family == build_unweighted_extension(len(weights), alpha, c, beta)
            return
        zeta = rep.schedule["inner"]
        naive = naive_combination(
            weights,
            rep.schedule["delta"],
            beta,
            zeta,
            lambda m: weighted._unweighted_extension_cached(m, alpha, c, zeta, DEFAULT_CAP)[:2],
            longest=True,
        )
        assert rep.family.entries == naive

    @settings(max_examples=60, deadline=None)
    @given(
        weights=WEIGHT_LISTS,
        alpha=st.sampled_from([1.2, 1.5, 2.0, 3.0]),
    )
    def test_covering_matches_naive(self, weights, alpha):
        rep = build_weighted_covering(weights, alpha)
        if min(weights) == max(weights):
            assert rep.family == build_unweighted_covering(len(weights), alpha)
            return
        inner = rep.schedule["inner"]
        assert inner in rep.schedule["predicted"]
        naive = naive_combination(
            weights, rep.schedule["delta"], alpha, inner, lambda m: budget_zero(m, inner),
            longest=True,
        )
        assert rep.family.sets == [t for t, _ in naive]

    def test_family_size_cap(self):
        # Covering at alpha = 1.5 (delta = 0.2) and extension at (1, 2, 1.5)
        # (paper's inner 1.25) both have gamma = 1.1.  These weights fall in
        # classes 48..59, one element each (R = 1), and each class family
        # has 2 entries.  At zeta'_1 = 1.25, of slack 1.5 - 1.25 = 0.25,
        # 0.25 * 299 < 105, so no class has a prefix: window k holds classes
        # 48..k, and its windows' products would hold 2 + 4 + ... + 2^12 =
        # 2^13 - 2 = 8190 entries.  Both builders take inner 1.03125, of
        # slack 0.46875: the windows of classes 56..59 (weights 225 and up,
        # 0.46875 * 225 >= 105) start at class 49, so they hold 2^8 + ... +
        # 2^11 = 3840 entries, half as many, and the windows' products 2^9 -
        # 2 + 3840 = 4350: the predicted cost counts every window.  Only the
        # longest window of each start is built, [48, 55] and [49, 59]:
        # 2^8 + 2^11 = 2304 rows (2176 distinct), which fit cap 12 but not
        # cap 11, though each class fits both.
        weights = [105, 116, 127, 140, 154, 169, 186, 205, 225, 248, 272, 299]
        starts = dict.fromkeys(range(48, 56), 48) | dict.fromkeys(range(56, 60), 49)
        cover = build_weighted_covering(weights, 1.5, cap=12)
        assert cover.schedule["inner"] == 1.03125
        assert cover.schedule["starts"] == starts
        assert cover.schedule["predicted"][1.25] == pytest.approx(math.log(8190), rel=1e-12)
        assert cover.schedule["predicted"][1.03125] == pytest.approx(math.log(4350), rel=1e-12)
        assert len(cover.family.sets) == 2176
        with pytest.raises(ResourceCapError, match="2304 entries exceeds 2\\^11"):
            build_weighted_covering(weights, 1.5, cap=11)
        rep = build_weighted_extension(weights, 1.0, 2.0, 1.5, cap=12)
        assert rep.schedule["inner"] == 1.03125
        assert rep.schedule["starts"] == starts
        assert len(rep.family.entries) == 2176
        with pytest.raises(ResourceCapError, match="2304 entries exceeds 2\\^11"):
            build_weighted_extension(weights, 1.0, 2.0, 1.5, cap=11)
        # The cap tests the chosen candidate's built rows: covering weights
        # 1, 3, ..., 243 at alpha = 1.5 would score 22 windows' entries at
        # zeta'_1 = 1.25, over 2^4, but their cheapest candidate, 1.00390625,
        # scores 14, and its windows of classes 46 and 57 share a start, so
        # it builds 12 rows.
        spread = [3**k for k in range(6)]
        cover = build_weighted_covering(spread, 1.5, cap=4)
        assert cover.schedule["inner"] == 1.00390625
        assert cover.schedule["starts"] == {0: 0, 11: 11, 23: 23, 34: 34, 46: 46, 57: 46}
        assert cover.schedule["predicted"][1.25] == pytest.approx(math.log(22), rel=1e-12)
        assert cover.schedule["predicted"][1.00390625] == pytest.approx(math.log(14), rel=1e-12)
        assert verify_covering(cover.family, spread).ok
        with pytest.raises(ResourceCapError, match="12 entries exceeds 2\\^3"):
            build_weighted_covering(spread, 1.5, cap=3)
        # The count is taken before deduplication, and eight such classes
        # share start 48: their one built block, the window [48, 55], holds
        # the 2^8 = 256 subsets of the eight elements once each, where their
        # eight windows' products would hold 2^9 - 2 = 510.
        with pytest.raises(ResourceCapError, match="256 entries exceeds 2\\^7"):
            build_weighted_extension(weights[:8], 1.0, 2.0, 1.5, cap=7)
        rep = build_weighted_extension(weights[:8], 1.0, 2.0, 1.5, cap=8)
        assert rep.schedule["starts"] == dict.fromkeys(range(48, 56), 48)
        assert rep.schedule["predicted"][rep.schedule["inner"]] == pytest.approx(
            math.log(510), rel=1e-12
        )
        assert len(rep.family.entries) == 2**8

    @pytest.mark.parametrize(
        ("weights", "spec", "inner", "starts"),
        [
            # The test_family_size_cap weights: extension windows 48..55
            # share start 48 and windows 56..59 start at 49, so only windows
            # 55 and 59 are built.
            (
                [105, 116, 127, 140, 154, 169, 186, 205, 225, 248, 272, 299],
                (build_weighted_extension, (1.0, 2.0, 1.5)),
                1.03125,
                dict.fromkeys(range(48, 56), 48) | dict.fromkeys(range(56, 60), 49),
            ),
            # Weights 1, 3, ..., 243: every window starts at its own class.
            (
                [3**k for k in range(6)],
                (build_weighted_extension, (1.0, 2.0, 1.9)),
                1.225,
                {0: 0, 7: 7, 15: 15, 22: 22, 30: 30, 38: 38},
            ),
            # Covering at alpha = 1.5 on the first eight test_family_size_cap
            # weights: every candidate holds 510 blocks, so the first, the
            # fixed split's zeta'_1 = 1.25, wins, and every window starts at
            # class 48.
            (
                [105, 116, 127, 140, 154, 169, 186, 205],
                (build_weighted_covering, (1.5,)),
                1.25,
                dict.fromkeys(range(48, 56), 48),
            ),
            # Covering at alpha = 3 (delta = 0.5, classes 0 and 3): the
            # schedule target 3 - 1/log2(6) = 2.61 covers class 0's five
            # elements with 5 sets, zeta'_1 = 2 with 8, and both start both
            # windows at class 0: 15 blocks against 24.
            (
                [1, 1, 1, 2, 1, 1],
                (build_weighted_covering, (3.0,)),
                3.0 - 1.0 / math.log2(6),
                {0: 0, 3: 0},
            ),
            # Covering at alpha = 2 on weights 1, 3, ..., 243: every
            # candidate holds 12 blocks but the schedule target's 20, so
            # zeta'_1 = 1.5 (slack 0.5) wins and starts every window at its
            # own class.
            (
                [3**k for k in range(6)],
                (build_weighted_covering, (2.0,)),
                1.5,
                {0: 0, 7: 7, 14: 14, 21: 21, 28: 28, 35: 35},
            ),
            # Covering at alpha = 2 on weights 8, 5, 9: the schedule target
            # 2 - 1/log2(3) = 1.37 (slack 0.63) puts class 10 in the prefix
            # of windows 13 and 14, so only window 14 of the two is built:
            # 8 windows' entries against 14 at zeta'_1 = 1.5 (slack 0.5),
            # whose windows all start at class 10.
            (
                [8, 5, 9],
                (build_weighted_covering, (2.0,)),
                2.0 - 1.0 / math.log2(3),
                {10: 10, 13: 13, 14: 13},
            ),
        ],
        ids=[
            "shared-starts",
            "own-starts",
            "covering-fixed-shared-starts",
            "covering-schedule-shared-starts",
            "covering-fixed-own-starts",
            "covering-schedule-mixed-starts",
        ],
    )
    def test_window_starts_match_naive(self, weights, spec, inner, starts):
        rep, target = build_with_target(weights, spec)
        assert (rep.schedule["inner"], rep.schedule["starts"]) == (inner, starts)
        if spec[0] is build_weighted_covering:
            got = [(t, 0) for t in rep.family.sets]
            class_family = lambda m: budget_zero(m, inner)
        else:
            got = rep.family.entries
            alpha, c, _ = spec[1]
            cached = weighted._unweighted_extension_cached
            class_family = lambda m: cached(m, alpha, c, inner, DEFAULT_CAP)[:2]
        delta = rep.schedule["delta"]
        assert got == naive_combination(weights, delta, target, inner, class_family, longest=True)

    @settings(max_examples=60, deadline=None)
    @given(weights=WEIGHT_LISTS, spec=BUILDS)
    def test_entry_set_matches_all_windows(self, weights, spec):
        # Building only each start's longest window loses no entry: the
        # family holds the distinct entries of every window's product.
        rep, target = build_with_target(weights, spec)
        if len(set(weights)) == 1:
            return
        build, factors = spec
        inner = rep.schedule["inner"]
        if build is build_weighted_covering:
            got = [(t, 0) for t in rep.family.sets]
            class_family = lambda m: budget_zero(m, inner)
        else:
            got = rep.family.entries
            alpha, c, _ = factors
            cached = weighted._unweighted_extension_cached
            class_family = lambda m: cached(m, alpha, c, inner, DEFAULT_CAP)[:2]
        naive = naive_combination(weights, rep.schedule["delta"], target, inner, class_family)
        assert len(got) == len(naive)
        assert set(got) == set(naive)

    @pytest.mark.parametrize("m", range(13))
    def test_class_families_start_empty(self, m):
        # Layer 0 of every layered family is the empty set at budget 0, so a
        # window's block holds every shorter window's of the same start.
        for zeta in (1.00390625, 1.03125, 1.25, 1.37, 1.5, 2.0, 2.61):
            ts, ells, _ = weighted._unweighted_covering_cached(m, zeta, DEFAULT_CAP)
            assert (ts[0], ells[0]) == (0, 0)
        for alpha, c, beta in [(1.0, 2.0, 1.5), (2.0, 1.0, 1.9), (1.0, 3.0, 1.2), (1.5, 3.0, 2.0)]:
            for zeta in dict.fromkeys([beta, *(weighted._ladder(beta, j) for j in range(1, 8))]):
                ts, ells, _ = weighted._unweighted_extension_cached(m, alpha, c, zeta, DEFAULT_CAP)
                assert (ts[0], ells[0]) == (0, 0)

    @pytest.mark.parametrize("weights", [[1] * 64, [2**k for k in range(64)]])
    def test_more_than_63_elements_refused(self, weights):
        # Geometric weights put one element in each class, under the class cap.
        with pytest.raises(ResourceCapError, match="63-element limit"):
            build_weighted_covering(weights, 2.0)
        with pytest.raises(ResourceCapError, match="63-element limit"):
            build_weighted_extension(weights, 1.0, 2.0, 1.5)


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
        # The schedule target alpha - 1/log2(n) is a candidate, and here it
        # is the cheapest.
        weights = [2, 2, 1, 1, 1, 2, 2, 2, 1]
        rep = build_weighted_covering(weights, 3.0)
        assert rep.schedule["inner"] == 3.0 - 1.0 / math.log2(9)
        assert verify_covering(rep.family, weights).ok

    def test_uniform_weights_match_unweighted_validity(self):
        rep = build_weighted_covering([1] * 7, 2.0)
        assert verify_covering(rep.family, [1] * 7).ok

    def test_schedule_split_is_consistent(self):
        rep = build_weighted_covering([5, 17, 80], 2.0)
        delta, inner = rep.schedule["delta"], rep.schedule["inner"]
        assert (1 + delta) * inner == pytest.approx(2.0, abs=1e-9)

    def test_unknown_mode_rejected(self):
        # The inner target is chosen by cost, so the old split modes are gone.
        inst = random_instance("wvc", 5, 0.4, seed=1)
        for mode in ("fixed", "schedule", "greedy"):
            with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
                approximate_membership(inst, 2.0, mode=mode)
        with pytest.raises(TypeError, match="mode"):
            build_weighted_covering([1, 2, 3], 2.0, mode="fixed")

    def test_delta_rounding_to_gamma_one_rejected(self):
        # delta this small leaves gamma = 1 + delta/2 at 1.0, no class base.
        with pytest.raises(ValueError, match="^delta = .* is too small"):
            build_weighted_covering([1, 2, 3], 1 + 2**-52)
        with pytest.raises(ValueError, match="^delta = .* is too small"):
            build_weighted_extension([1, 2, 3], 1.0, 2.0, 1 + 2**-51)

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


EXTENSION_FACTORS = st.sampled_from([(1.0, 2.0, 1.5), (2.0, 1.0, 1.9), (1.0, 3.0, 1.2)])
COVERING_ALPHAS = st.sampled_from([1.5, 2.0, 3.0])
WEIGHTS_1_100 = st.lists(st.integers(1, 100), max_size=10)  # n = 0 included

# A family from every builder: unweighted covering and extension, weighted
# covering and extension, and uniform weights.
BUILT_FAMILIES = st.one_of(
    st.builds(build_unweighted_covering, st.integers(0, 8), st.sampled_from([1.5, 2.0, 3.0])),
    st.builds(lambda n, f: build_unweighted_extension(n, *f), st.integers(0, 8), EXTENSION_FACTORS),
    st.builds(lambda w, a: build_weighted_covering(w, a).family, WEIGHTS_1_100, COVERING_ALPHAS),
    st.builds(lambda w, f: build_weighted_extension(w, *f).family, WEIGHTS_1_100, EXTENSION_FACTORS),
    st.builds(
        lambda w, n, f: build_weighted_extension([w] * n, *f).family,
        st.integers(1, 100),
        st.integers(1, 10),
        EXTENSION_FACTORS,
    ),
)


@settings(max_examples=120, deadline=None)
@given(fam=BUILT_FAMILIES)
def test_built_family_passes_the_public_checks(fam):
    """Builders skip the entry checks; each family they hand over is one the
    checked public constructor and parse_family accept unchanged."""
    if isinstance(fam, CoveringFamily):
        columns = [fam.ts]
        checked = CoveringFamily(fam.universe_size, fam.alpha, fam.sets)
    else:
        columns = [fam.ts, fam.ells]
        checked = ExtensionFamily(fam.universe_size, fam.alpha, fam.beta, fam.entries)
    assert fam == checked
    assert parse_family(dump_family(fam)) == fam
    for col in columns:
        assert col.dtype == np.int64
        assert col.flags.c_contiguous and not col.flags.writeable


class TestWeightedExtension:
    def test_empty_universe(self):
        # An empty list is uniform: one class, whose one window starts at itself.
        uniform = {"delta": 0.0, "gamma": 1.0, "spread": 1.0}
        one = {"class_family_sizes": {0: 1}, "starts": {0: 0}}
        rep = build_weighted_extension([], 1.0, 2.0, 1.5)
        assert rep.family.entries == [(0, 0)]
        assert rep.cost_log == 0.0
        assert rep.schedule == {"inner": 1.5, **uniform, "eps": 0.05, **one}
        cover = build_weighted_covering([], 2.0)
        assert cover.family.sets == [0] and cover.cost_log is None
        assert cover.schedule == {"inner": 2.0, **uniform, **one}

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
        # delta is the paper's split of beta; the inner target is the
        # cheapest candidate, scored beside the paper's.
        rep = build_weighted_extension([1, 7, 50], 1.0, 2.0, 1.5)
        paper = rep.schedule["paper_inner"]
        assert paper == weighted._select_inner_beta(1.0, 2.0, 1.5, 0.05)
        assert rep.schedule["delta"] == 1.5 / paper - 1.0
        assert 1.0 < rep.schedule["inner"] <= paper < 1.5
        assert rep.schedule["inner"] in rep.schedule["predicted"]

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

    @staticmethod
    def _count_calls(monkeypatch):
        """Log ("coarse", tol, beta) per _coarse_amls call and ("full", beta)
        per amls_bound call, in call order."""
        calls = []
        coarse = bounds._coarse_amls

        def counting_coarse(alpha, c, beta, tol=bounds._COARSE_TOL):
            calls.append(("coarse", tol, beta))
            return coarse(alpha, c, beta, tol)

        def counting_full(params):
            calls.append(("full", params.beta))
            return _AMLS_BOUND(params)

        monkeypatch.setattr(bounds, "_coarse_amls", counting_coarse)
        monkeypatch.setattr(bounds, "amls_bound", counting_full)
        return calls

    def test_near_tie_refines(self, monkeypatch):
        # eps puts the second probe, zeta = 1.125, on the edge of the test
        # amls(zeta) <= amls(beta) + eps/2; the first probe, 1.25, clears it.
        alpha, c, beta = 1.0, 2.0, 1.5
        tie = _fine_amls(alpha, c, 1.125)
        eps = 2.0 * (tie - _fine_amls(alpha, c, beta))
        calls = self._count_calls(monkeypatch)
        chosen = {}
        for k in (-4, -1, 0, 1, 4):
            e = eps + k * math.ulp(tie)
            weighted._select_inner_beta.cache_clear()
            calls.clear()
            chosen[k] = weighted._select_inner_beta(alpha, c, beta, e)
            # The tie climbs every rung, and the full-precision values decide it.
            walk = [call for call in calls if call[-1] == 1.125]
            assert walk == [("coarse", 1e-2, 1.125), ("coarse", 1e-4, 1.125), ("full", 1.125)]
            assert chosen[k] == _reference_inner_beta(alpha, c, beta, e)
        assert chosen[-4] == 1.25 and chosen[4] == 1.125

    def test_clear_margin_needs_no_full_precision(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        weighted._select_inner_beta.cache_clear()
        assert weighted._select_inner_beta(1.0, 2.0, 1.5, 0.05) == 1.25
        # The loosest rung settles every test, with beta searched once.
        assert calls and all(call[:2] == ("coarse", 1e-2) for call in calls)
        assert [call[2] for call in calls].count(1.5) == 1

    def test_full_precision_beta_searched_once(self, monkeypatch):
        # Two tests of this walk climb every rung; beta's full-precision value
        # serves both.
        calls = self._count_calls(monkeypatch)
        weighted._select_inner_beta.cache_clear()
        assert weighted._select_inner_beta(3.0, 3.0, 1.004, 0.05) == 1.000125
        full = sorted(call[1] for call in calls if call[0] == "full")
        assert full == [1.0000625, 1.000125, 1.004]

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
            reps = [build_weighted_covering(weights, alpha) for alpha in GOLDEN_COVERING_ALPHAS]
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
    """tests/data/golden_weighted.txt was written when the class windows
    were first sized from the instance's weights; it pins the class
    combination, its dedupe order and every schedule value."""

    def test_golden_dumps(self):
        text = (DATA / "golden_weighted.txt").read_text()
        golden = [b for b in re.split(r"(?m)^(?=family )", text) if b]
        assert _golden_weighted_blocks() == golden

    def test_golden_dumps_under_compensated_sum(self, monkeypatch):
        # Python 3.12's sum() of floats compensates its rounding; no cost
        # or schedule value may depend on it.
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        for cached in (
            weighted._layered_cached,
            weighted._unweighted_covering_cached,
            weighted._unweighted_extension_cached,
            weighted._select_inner_beta,
        ):
            cached.cache_clear()
        self.test_golden_dumps()


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """sum() as CPython 3.12 adds floats: Neumaier's compensated sum over a
    non-empty run of floats from an int or float start; anything else goes
    to the builtin."""
    items = list(iterable)
    if type(start) not in (int, float) or not items or any(type(x) is not float for x in items):
        return _BUILTIN_SUM(items, start)
    total, error = float(start), 0.0
    for x in items:
        t = total + x
        error += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + error if error and math.isfinite(error) else total

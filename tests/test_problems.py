"""Tests for problem instances, membership predicates, parsing, exact opt."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamls import problems
from wamls.families import ResourceCapError
from wamls.oracles import exact_extension_oracle
from wamls.problems import (
    ParseError,
    WeightedFVSInstance,
    WeightedHSInstance,
    WeightedPVCInstance,
    WeightedVCInstance,
    emit_instance,
    exact_opt,
    membership_check,
    membership_many,
    membership_table,
    parse_instance,
    random_instance,
    rank_subsets,
    weigh_many,
    weight_of,
)

TRIANGLE = ((0, 1), (1, 2), (0, 2))


@st.composite
def instances(draw, kind, max_n=9):
    """Any instance of `kind`; wfvs edges include self-loops and parallel copies."""
    n = draw(st.integers(0, max_n))
    weights = tuple(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n)))
    vertex = st.integers(0, max(n - 1, 0))
    if kind == "whs":
        d = draw(st.integers(2, 4))
        sets = draw(st.lists(st.lists(vertex, min_size=1, max_size=d), max_size=12))
        sets = tuple(map(tuple, sets)) if n else ()
        return WeightedHSInstance(n=n, weights=weights, d=d, sets=sets)
    pairs = st.lists(st.tuples(vertex, vertex), max_size=15) if n else st.just([])
    if kind == "wfvs":
        return WeightedFVSInstance(n=n, weights=weights, edges=tuple(draw(pairs)))
    edges = tuple((u, v) for u, v in draw(pairs) if u != v)
    if kind == "wvc":
        return WeightedVCInstance(n=n, weights=weights, edges=edges)
    m = len({(min(e), max(e)) for e in edges})
    t = draw(st.integers(0, m))
    return WeightedPVCInstance(n=n, weights=weights, edges=edges, t=t)


class TestMembership:
    def test_full_universe_always_solves(self):
        vc = WeightedVCInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE)
        hs = WeightedHSInstance(n=3, weights=(1, 1, 1), d=2, sets=((0, 1), (2,)))
        fvs = WeightedFVSInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE)
        for inst in (vc, hs, fvs):
            assert membership_check(inst, 0b111)

    def test_triangle_single_vertex(self):
        vc = WeightedVCInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE)
        fvs = WeightedFVSInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE)
        assert not membership_check(vc, 0b001)  # two edges uncovered
        assert membership_check(fvs, 0b001)  # remaining path is acyclic

    def test_hitting_set(self):
        hs = WeightedHSInstance(n=3, weights=(1, 1, 1), d=2, sets=((0, 1), (2,)))
        assert membership_check(hs, 0b110)
        assert not membership_check(hs, 0b011)  # misses the singleton {2}
        assert not membership_check(hs, 0b100)  # misses {0, 1}

    def test_fvs_multigraph_semantics(self):
        # Parallel edges form a 2-cycle; a self-loop forces its vertex out.
        par = WeightedFVSInstance(n=2, weights=(1, 1), edges=((0, 1), (0, 1)))
        assert not membership_check(par, 0b00)
        assert membership_check(par, 0b01)
        loop = WeightedFVSInstance(n=2, weights=(1, 1), edges=((1, 1),))
        assert not membership_check(loop, 0b01)
        assert membership_check(loop, 0b10)

    def test_partial_vc_threshold(self):
        pvc = WeightedPVCInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE, t=2)
        assert membership_check(pvc, 0b001)  # vertex 0 covers two edges
        assert not membership_check(pvc, 0)
        assert membership_check(pvc, 0b111)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), extra=st.integers(0, 7), data=st.integers(0, 255))
    def test_monotone(self, seed, extra, data):
        inst = random_instance("wvc", 8, 0.4, seed=seed)
        s = data & 0xFF
        if membership_check(inst, s):
            assert membership_check(inst, s | (1 << extra))


def _scalar_table(inst):
    return np.array([membership_check(inst, s) for s in range(1 << inst.n)], dtype=bool)


class TestMembershipMany:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["wvc", "whs", "wpvc", "wfvs"]))
    def test_matches_scalar_check_on_every_subset(self, data, kind):
        inst = data.draw(instances(kind, max_n=10))
        got = membership_many(inst, np.arange(1 << inst.n))
        assert got.dtype == bool
        assert got.tolist() == _scalar_table(inst).tolist()

    def test_fvs_multigraph(self):
        # 0-1 doubled, a self-loop at 2, a triangle 3-4-5, a pendant 6, isolated 7.
        inst = WeightedFVSInstance(
            n=8,
            weights=(1,) * 8,
            edges=((0, 1), (1, 0), (2, 2), (3, 4), (4, 5), (3, 5), (5, 6)),
        )
        subsets = np.arange(1 << 8)
        assert membership_many(inst, subsets).tolist() == _scalar_table(inst).tolist()
        assert membership_many(inst, np.array([0b00010101, 0b00100110])).tolist() == [
            True,
            True,
        ]
        assert not membership_many(inst, np.array([0b11111011]))[0]  # loop at 2

    def test_fvs_membership_table_matches_union_find(self):
        cases = [random_instance("wfvs", n, 0.35, seed=n) for n in (0, 1, 5, 9, 12, 13)]
        cases.append(
            WeightedFVSInstance(
                n=9, weights=(1,) * 9, edges=((0, 0), (1, 2), (1, 2), (2, 3), (3, 1), (6, 7))
            )
        )
        for inst in cases:
            table = membership_table(inst)
            assert table.tolist() == _scalar_table(inst).tolist()

    def test_out_of_range_rejected(self):
        inst = WeightedVCInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE)
        with pytest.raises(ValueError):
            membership_many(inst, np.array([0b111, 0b1000]))


class TestExactOpt:
    def test_edgeless(self):
        inst = WeightedVCInstance(n=4, weights=(1, 2, 3, 4), edges=())
        assert exact_opt(inst) == (0, 0)

    def test_path_prefers_middle(self):
        inst = WeightedVCInstance(n=3, weights=(3, 1, 3), edges=((0, 1), (1, 2)))
        assert exact_opt(inst) == (0b010, 1)

    def test_triangle_fvs(self):
        inst = WeightedFVSInstance(n=3, weights=(1, 1, 1), edges=TRIANGLE)
        _, w = exact_opt(inst)
        assert w == 1

    def test_relabel_invariance(self):
        rng = random.Random(5)
        inst = random_instance("wvc", 8, 0.35, seed=99)
        perm = list(range(8))
        rng.shuffle(perm)
        relabeled = WeightedVCInstance(
            n=8,
            weights=tuple(inst.weights[perm.index(i)] for i in range(8)),
            edges=tuple((perm[u], perm[v]) for u, v in inst.edges),
        )
        assert exact_opt(inst)[1] == exact_opt(relabeled)[1]

    def test_cap_enforced(self):
        inst = WeightedVCInstance(n=8, weights=(1,) * 8, edges=((0, 1),))
        with pytest.raises(ResourceCapError):
            exact_opt(inst, cap=6)

    def test_int64_weight_guard(self):
        # Subset weights of 2^63 would wrap the int64 weight table, so OPT
        # and the exact oracle's answers would be wrong.
        inst = WeightedVCInstance(n=2, weights=(1 << 62, 1 << 62), edges=((0, 1),))
        with pytest.raises(ResourceCapError, match="total weight"):
            exact_opt(inst)
        with pytest.raises(ResourceCapError, match="total weight"):
            exact_extension_oracle(inst)
        fits = WeightedVCInstance(n=2, weights=(1 << 62, (1 << 62) - 1), edges=((0, 1),))
        assert exact_opt(fits) == (0b10, (1 << 62) - 1)
        assert exact_extension_oracle(fits)(0, 2) == 0b10


class TestParsing:
    def test_minimal_vc(self):
        inst = parse_instance("p wvc 2 1\nw 1 5\nw 2 3\ne 1 2\n")
        assert isinstance(inst, WeightedVCInstance)
        assert inst.weights == (5, 3)
        assert inst.edges == ((0, 1),)

    def test_zero_weight_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("p wvc 1 0\nw 1 0\n")
        assert exc.value.line == 2

    def test_comments_and_blank_lines(self):
        text = "# header\np whs 3 1 2\nw 1 1\nw 2 2\n\nw 3 3\ns 2 1 3  # a set\n"
        inst = parse_instance(text)
        assert isinstance(inst, WeightedHSInstance)
        assert inst.sets == ((0, 2),)

    def test_pvc_threshold(self):
        inst = parse_instance("p wpvc 2 1 1\nw 1 1\nw 2 1\ne 1 2\n")
        assert isinstance(inst, WeightedPVCInstance)
        assert inst.t == 1

    def test_missing_weight_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p wvc 2 0\nw 1 1\n")

    def test_self_loop_rejected_for_vc(self):
        with pytest.raises(ParseError):
            parse_instance("p wvc 1 1\nw 1 1\ne 1 1\n")

    def test_round_trip(self):
        for kind in ("wvc", "whs", "wfvs"):
            for seed in range(5):
                inst = random_instance(kind, 7, 0.4, seed=seed)
                assert parse_instance(emit_instance(inst)) == inst

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["wvc", "whs", "wfvs", "wpvc"]))
    def test_round_trip_property(self, data, kind):
        inst = data.draw(instances(kind))
        text = emit_instance(inst)
        back = parse_instance(text)
        assert type(back) is type(inst)
        assert back == inst
        assert emit_instance(back) == text

    def test_round_trip_keeps_fvs_multigraph(self):
        inst = WeightedFVSInstance(
            n=4, weights=(1, 2, 3, 4), edges=((1, 1), (0, 2), (2, 0), (1, 1), (0, 2))
        )
        back = parse_instance(emit_instance(inst))
        assert back.edges == ((0, 2), (0, 2), (0, 2), (1, 1), (1, 1))
        assert back == inst

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_instance("p graph 1 0\nw 1 1\n")

    @pytest.mark.parametrize(
        "header", ["p whs 2 1", "p wpvc 2 1", "p wvc 2", "p wfvs 2", "p wvc 2 1 5", "p whs 2 1 2 9"]
    )
    def test_wrong_header_arity_rejected_with_line(self, header):
        with pytest.raises(ParseError, match="numbers") as exc:
            parse_instance(f"# comment\n{header}\nw 1 1\nw 2 1\ne 1 2\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "weights,edge,lineno",
        [("w 1 1 9", "e 1 2", 2), ("w 1", "e 1 2", 2), ("w 1 1", "e 1 2 3", 4), ("w 1 1", "e 1", 4)],
    )
    def test_wrong_token_count_rejected_with_line(self, weights, edge, lineno):
        with pytest.raises(ParseError, match="malformed line") as exc:
            parse_instance(f"p wvc 2 1\n{weights}\nw 2 1\n{edge}\n")
        assert exc.value.line == lineno

    @pytest.mark.parametrize(
        "text,match",
        [
            ("p wvc 1 0\np wvc 1 0\nw 1 1\n", "duplicate problem line"),
            ("p wvc 1 0\nw 1 1\nw 1 2\n", "duplicate weight"),
            ("p whs 2 1 2\nw 1 1\nw 2 1\ns 2 1\n", "declares 2 elements, has 1"),
            ("p wvc 1 0\nw 1 1\nx 1\n", "unknown line tag 'x'"),
            ("p wvc 1 0\nw one 1\n", "malformed line"),
            ("w 1 1\n", "missing problem line"),
        ],
    )
    def test_malformed_text_rejected(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_instance(text)

    def test_lines_of_the_other_constraint_kind_rejected(self):
        with pytest.raises(ParseError, match="expected 0 sets"):
            parse_instance("p wvc 2 1\nw 1 1\nw 2 1\ne 1 2\ns 1 1\n")
        with pytest.raises(ParseError, match="expected 0 edges"):
            parse_instance("p whs 2 1 2\nw 1 1\nw 2 1\ns 1 1\ne 1 2\n")


class TestWeighMany:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.one_of(st.just(63), st.integers(0, 62)))
    def test_matches_weight_of_and_bit_count(self, data, n):
        # Weights up to the int64 guard: the full set weighs less than 2^63.
        top = ((1 << 63) - 1) // max(n, 1)
        weights = data.draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
        inst = WeightedFVSInstance(n=n, weights=tuple(weights), edges=())
        full = (1 << n) - 1
        masks = [full, 0] + data.draw(st.lists(st.integers(0, full), max_size=20))
        weight, size = weigh_many(inst, np.array(masks, dtype=np.int64))
        assert weight.tolist() == [weight_of(inst, m) for m in masks]
        assert size.tolist() == [m.bit_count() for m in masks]

    def test_byte_tables_built_once_per_weights(self):
        inst = random_instance("wvc", 12, 0.3, seed=3)
        twin = WeightedVCInstance(n=12, weights=inst.weights, edges=())
        problems._byte_weights.cache_clear()
        masks = np.arange(1 << 12, dtype=np.int64)
        first = weigh_many(inst, masks)
        second = weigh_many(twin, masks[::-1])
        info = problems._byte_weights.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert second[0].tolist() == first[0].tolist()[::-1]
        tables = problems._byte_weights(inst.weights)
        assert [t.shape for t in tables] == [(256,), (16,)]  # bytes of 8 and 4 elements
        assert not any(t.flags.writeable for t in tables)


def test_rank_subsets_by_weight_size_mask():
    # Weights 1..3 make ties, so the cardinality and mask tie-breaks count.
    inst = random_instance("wvc", 7, 0.3, weight_range=(1, 3), seed=2)
    masks = random.Random(1).sample(range(1 << 7), 60)
    ranked, weight, size = rank_subsets(inst, np.array(masks, dtype=np.int64))
    want = sorted(masks, key=lambda m: (weight_of(inst, m), m.bit_count(), m))
    assert ranked.tolist() == want
    assert weight.tolist() == [weight_of(inst, m) for m in want]
    assert size.tolist() == [m.bit_count() for m in want]


@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: WeightedVCInstance(n=1, weights=(True,), edges=()), "integers >= 1"),
        (lambda: WeightedVCInstance(n=1, weights=(1.0,), edges=()), "integers >= 1"),
        (lambda: WeightedVCInstance(n=1, weights=(0,), edges=()), "integers >= 1"),
        (lambda: WeightedVCInstance(n=2, weights=(1,), edges=()), "exactly n weights"),
        (lambda: WeightedVCInstance(n=2, weights=(1, 1), edges=((0, 2),)), "out of range"),
        (lambda: WeightedFVSInstance(n=2, weights=(1, 1), edges=((-1, 0),)), "out of range"),
        (lambda: WeightedHSInstance(n=2, weights=(1, 1), d=1, sets=()), "d must be >= 2"),
        (lambda: WeightedHSInstance(n=2, weights=(1, 1), d=2, sets=((),)), "empty hyperedge"),
        (lambda: WeightedHSInstance(n=3, weights=(1,) * 3, d=2, sets=((0, 1, 2),)), "larger"),
        (lambda: WeightedHSInstance(n=2, weights=(1, 1), d=2, sets=((1, 2),)), "out of range"),
        (lambda: WeightedPVCInstance(n=2, weights=(1, 1), edges=((0, 1),), t=-1), ">= 0"),
        (lambda: WeightedPVCInstance(n=2, weights=(1, 1), edges=((0, 1),), t=2), "exceeds"),
    ],
    ids=[
        "bool-weight", "float-weight", "zero-weight", "weight-count", "edge-range",
        "fvs-edge-range", "d-below-2", "empty-set", "oversized-set", "set-range",
        "negative-t", "t-above-m",
    ],
)
def test_instance_checks(build, match):
    """Each instance check; a bool weight would be emitted as "w 1 True"."""
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("subset", [0b100, -1])
def test_membership_check_rejects_out_of_range_subset(subset):
    inst = WeightedVCInstance(n=2, weights=(1, 1), edges=((0, 1),))
    with pytest.raises(ValueError, match="out-of-range"):
        membership_check(inst, subset)


class TestRandomInstance:
    def test_density_zero_is_edgeless(self):
        inst = random_instance("wvc", 6, 0.0, seed=1)
        assert inst.edges == ()

    def test_same_seed_same_instance(self):
        a = random_instance("wfvs", 9, 0.3, seed=42)
        b = random_instance("wfvs", 9, 0.3, seed=42)
        assert a == b

    def test_regression_fixture_stable(self):
        inst = random_instance("wvc", 12, 0.3, seed=7)
        mask, weight = exact_opt(inst)
        assert exact_opt(inst) == (mask, weight)
        assert membership_check(inst, mask)

    def test_hitting_set_stream_pinned(self):
        inst = random_instance("whs", 5, 0.4, weight_range=(1, 9), seed=3)
        assert emit_instance(inst) == (
            "p whs 5 3 3\nw 1 4\nw 2 9\nw 3 3\nw 4 6\nw 5 8\ns 3 1 3 5\ns 2 2 5\ns 1 4\n"
        )
        assert random_instance("whs", 0, 0.5, seed=3).sets == ()

    @pytest.mark.parametrize(
        "args,match",
        [
            (("wvc", -1, 0.5), "n >= 0"),
            (("wvc", 3, 1.5), "density"),
            (("whs", 3, -0.1), "density"),
            (("wpvc", 3, 0.5), "unknown instance kind 'wpvc'"),
        ],
    )
    def test_bad_arguments_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            random_instance(*args)

    def test_weight_of(self):
        inst = random_instance("wvc", 5, 0.5, seed=3)
        full = (1 << 5) - 1
        assert weight_of(inst, full) == sum(inst.weights)
        assert weight_of(inst, 0) == 0

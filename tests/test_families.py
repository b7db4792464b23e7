"""Tests for unweighted covering/extension families and their verifiers."""

import math
import pathlib
import random
import re
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamls import bounds, families
from wamls.families import (
    CoveringFamily,
    ExtensionFamily,
    ResourceCapError,
    build_unweighted_covering,
    build_unweighted_extension,
    dump_family,
    family_cost,
    parse_family,
    subset_sums,
    verify_covering,
    verify_extension,
)


class TestBuildCovering:
    def test_singleton_universe(self):
        fam = build_unweighted_covering(1, 2.0)
        assert 0 in fam.sets and 1 in fam.sets

    def test_empty_universe(self):
        fam = build_unweighted_covering(0, 1.5)
        assert fam.sets == [0]

    def test_full_universe_always_member(self):
        for n in range(1, 8):
            fam = build_unweighted_covering(n, 2.0)
            assert (1 << n) - 1 in fam.sets

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 3.0])
    def test_construction_verifies(self, n, alpha):
        fam = build_unweighted_covering(n, alpha)
        assert verify_covering(fam, [1] * n).ok

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            build_unweighted_covering(25, 2.0)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            build_unweighted_covering(4, 1.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "build, args, name",
    [
        (build_unweighted_covering, (4, NAN), "alpha"),
        (build_unweighted_covering, (4, INF), "alpha"),
        (build_unweighted_extension, (4, NAN, 2.0, 1.5), "alpha"),
        (build_unweighted_extension, (4, 1.0, NAN, 1.5), "c"),
        (build_unweighted_extension, (4, 1.0, 2.0, NAN), "beta"),
        (build_unweighted_extension, (4, 1.0, 2.0, INF), "beta"),
        (CoveringFamily, (3, NAN, [7]), "alpha"),
        (CoveringFamily, (3, INF, [7]), "alpha"),
        (ExtensionFamily, (3, 1.0, NAN, [(7, 0)]), "beta"),
        (ExtensionFamily, (3, 0.5, 1.5, [(7, 0)]), "alpha"),
        (CoveringFamily, (-1, 2.0, [0]), "universe_size"),
        (ExtensionFamily, (-1, 1.0, 1.5, [(0, 0)]), "universe_size"),
    ],
)
def test_bad_factor_named(build, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build(*args)


class TestBuildExtension:
    def test_empty_universe(self):
        fam = build_unweighted_extension(0, 1.0, 2.0, 1.5)
        assert fam.entries == [(0, 0)]

    def test_empty_set_entry_always_present(self):
        for n in range(0, 8):
            fam = build_unweighted_extension(n, 1.0, 2.0, 1.5)
            assert any(t == 0 for t, _ in fam.entries)

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.2), (1.0, 1.5), (2.0, 1.5), (2.0, 2.0)])
    def test_construction_verifies(self, n, alpha, beta):
        fam = build_unweighted_extension(n, alpha, 2.0, beta)
        assert verify_extension(fam, [1] * n).ok

    def test_alpha_le_beta_degenerate_family_is_valid(self):
        # With alpha <= beta the single entry (empty set, n) already covers
        # every S: w(empty) + alpha * w(S) <= beta * w(S).
        n = 5
        fam = ExtensionFamily(universe_size=n, alpha=2.0, beta=2.0, entries=[(0, n)])
        assert verify_extension(fam, [1] * n).ok

    def test_budget_formula_per_layer(self):
        n, alpha, c, beta = 8, 1.0, 2.0, 1.5
        fam = build_unweighted_extension(n, alpha, c, beta)
        # A greedy layer's entry is a t-set with ell = floor((beta*s - t)/alpha)
        # for the layer's s; a fallback layer's entry is an s-set with ell = 0.
        shapes = {_full_layer_shape(n, s, alpha, beta, c) for s in range(n + 1)}
        fallbacks = {(s, 0) for s in range(n + 1)}
        assert {(t.bit_count(), ell) for t, ell in fam.entries} <= shapes | fallbacks
        assert any(ell > 0 for _, ell in fam.entries)

    @pytest.mark.parametrize("n,alpha,c,beta", [(7, 1.0, 1.0, 3.0), (5, 1.0, 1.0, 4.0)])
    def test_budget_capped_at_n(self, n, alpha, c, beta):
        # Large beta against alpha gives floor((beta*s - t)/alpha) > n.
        fam = build_unweighted_extension(n, alpha, c, beta)
        assert max(ell for _, ell in fam.entries) == n
        assert verify_extension(fam, [1] * n).ok


DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_COVERING_ALPHAS = [1.5, 2.0, 2.5, 3.0]
# (alpha, c, beta) with alpha < beta, alpha = beta and alpha > beta.
GOLDEN_EXTENSION_PARAMS = [
    (alpha, c, beta)
    for alpha, beta in [(1.0, 1.5), (1.25, 2.0), (1.5, 1.5), (2.0, 1.5)]
    for c in (1.0, 2.0, 3.0)
]


def _golden_blocks(name):
    text = (DATA / name).read_text()
    return [b for b in re.split(r"(?m)^(?=family )", text) if b]


def _reference_layer(n, s, t, ell, popcount):
    """Per-pick rescan of every candidate against every uncovered subset."""
    uncovered = {m for m in range(1 << n) if m.bit_count() == s}
    cands = [sum(1 << e for e in co) for co in combinations(range(n), t)]
    picks = []
    while uncovered:
        gains = [sum((u & ~c).bit_count() <= ell for u in uncovered) for c in cands]
        if max(gains) <= 0:
            return None
        pick = cands[gains.index(max(gains))]
        picks.append(pick)
        uncovered = {u for u in uncovered if (u & ~pick).bit_count() > ell}
    return picks


def _naive_greedy(matrix, n_cols):
    """First-best greedy cover of the columns of a boolean matrix, row by row."""
    uncovered = set(range(n_cols))
    picks = []
    while uncovered:
        gains = [sum(row[j] for j in uncovered) for row in matrix]
        if max(gains) <= 0:
            return None
        i = gains.index(max(gains))
        picks.append(i)
        uncovered -= {j for j in uncovered if matrix[i][j]}
    return picks


@st.composite
def cover_matrices(draw):
    """A boolean rows x columns matrix, sometimes with a column no row covers."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(0, 12))
    row = st.lists(st.booleans(), min_size=n_cols, max_size=n_cols)
    matrix = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        j = draw(st.integers(0, n_cols))
        matrix = [r[:j] + [False] + r[j:] for r in matrix]
        n_cols += 1
    return matrix, n_cols


def _dump_or_error(build, *args):
    try:
        return dump_family(build(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestGreedyKernel:
    """The dumps in tests/data were written by the per-candidate greedy scan
    the numpy kernel replaced; they pin every pick, tie-breaks included."""

    def test_covering_golden_dumps(self):
        built = [
            dump_family(build_unweighted_covering(n, alpha))
            for alpha in GOLDEN_COVERING_ALPHAS
            for n in range(11)
        ]
        assert built == _golden_blocks("golden_covering.txt")

    def test_extension_golden_dumps(self):
        built = [
            dump_family(build_unweighted_extension(n, alpha, c, beta), schedule=f"c={c:g}")
            for alpha, c, beta in GOLDEN_EXTENSION_PARAMS
            for n in range(11)
        ]
        assert built == _golden_blocks("golden_extension.txt")

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 8),
        alpha=st.floats(1.0, 3.0),
        c=st.floats(1.0, 4.0),
        beta=st.floats(1.05, 3.0),
    )
    def test_matches_reference_scan(self, n, alpha, c, beta):
        builds = [(build_unweighted_extension, n, alpha, c, beta)]
        if alpha > 1:
            builds.append((build_unweighted_covering, n, alpha))
        for build, *args in builds:
            got = _dump_or_error(build, *args)
            with mock.patch.object(families, "_greedy_layer", _reference_layer):
                want = _dump_or_error(build, *args)
            assert got == want

    def test_chunked_cover_counts(self):
        with mock.patch.object(families, "_CHUNK_PAIRS", 7):
            small = dump_family(build_unweighted_extension(9, 1.0, 2.0, 1.5))
        assert small == dump_family(build_unweighted_extension(9, 1.0, 2.0, 1.5))

    @settings(max_examples=150, deadline=None)
    @given(drawn=cover_matrices(), chunk=st.integers(1, 5))
    def test_kernel_matches_naive_greedy(self, drawn, chunk):
        matrix, n_cols = drawn
        table = np.array(matrix, dtype=bool).reshape(len(matrix), n_cols)
        rows = np.arange(len(matrix), dtype=np.int64)
        with mock.patch.object(families, "_CHUNK_PAIRS", chunk):
            picks = families._greedy_cover(
                rows,
                np.arange(n_cols, dtype=np.int64),
                lambda r, c: table[r[:, None], c[None, :]],
                table.sum(axis=1).astype(np.int64),
            )
        assert picks == _naive_greedy(matrix, n_cols)
        assert (picks is None) == (not table.any(axis=0).all())


def _full_layer_shape(n, s, alpha, beta, c):
    """(t, ell) of layer s from g_star's full-precision tau alone."""
    if s == 0:
        return 0, 0
    kappa = s / n
    if kappa <= 1.0 / beta:
        _, tau = bounds.g_star(alpha, beta, c, kappa)
        t = round(tau * n)
    else:
        t = s
    t = max(0, min(t, math.floor(beta * s), n))
    return t, min(math.floor((beta * s - t) / alpha), n)


class TestLayerShape:
    """Layer sizes are read off a coarse tau bracket when its ends round alike."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 20),
        alpha=st.floats(1.0, 4.0),
        c=st.floats(1.0, 8.0),
        beta=st.one_of(st.floats(1.000001, 3.0), st.sampled_from([1.15, 1.2, 1.5])),
    )
    def test_matches_full_search(self, n, alpha, c, beta):
        for s in range(n + 1):
            kappa = s / n
            if 0 < kappa <= 1.0 / beta:
                lo, hi, _ = bounds._coarse_g_star(alpha, beta, c, kappa)
                _, tau = bounds.g_star(alpha, beta, c, kappa)
                assert lo <= tau <= hi
            want = _full_layer_shape(n, s, alpha, beta, c)
            assert families._extension_layer_shape(n, s, alpha, beta, c) == want

    def test_ambiguous_rounding_searches_on(self):
        # At (alpha, c, beta) = (1, 1, 1.15), n = 5, s = 2 the bracket spans
        # tau * n = 0.5: its ends round to 0 and 1, and g_star's tau gives 1.
        n, s, alpha, c, beta = 5, 2, 1.0, 1.0, 1.15
        lo, hi, _ = bounds._coarse_g_star(alpha, beta, c, s / n)
        assert (round(lo * n), round(hi * n)) == (0, 1)
        with mock.patch.object(bounds, "g_star", wraps=bounds.g_star) as full:
            shape = families._extension_layer_shape(n, s, alpha, beta, c)
        assert full.call_count == 1
        assert shape == _full_layer_shape(n, s, alpha, beta, c) == (1, 1)

    def test_decided_rounding_skips_full_search(self):
        with mock.patch.object(bounds, "g_star", wraps=bounds.g_star) as full:
            shape = families._extension_layer_shape(10, 4, 1.0, 1.5, 2.0)
        assert full.call_count == 0
        assert shape == _full_layer_shape(10, 4, 1.0, 1.5, 2.0)


class TestSubsetSums:
    """Pinned against bit_count() and a left-to-right Python sum in ascending
    bit order, which is the float order the verifiers have always used."""

    def test_popcount(self):
        for n in range(0, 11):
            got = subset_sums([1] * n, np.uint8)
            assert got.dtype == np.uint8
            assert got.tolist() == [m.bit_count() for m in range(1 << n)]

    @pytest.mark.parametrize(
        "values,dtype",
        [
            ([5, 1, 9, 2, 100, 7, 3], np.int64),
            ([0.1, 0.7, 1e16, 3.3, 2.0 / 3.0, 1e-8, 5.5, 0.2], np.float64),
            ([], np.float64),
        ],
    )
    def test_ascending_bit_sums(self, values, dtype):
        got = subset_sums(values, dtype)
        for m in range(1 << len(values)):
            total = dtype(0)
            for i, v in enumerate(values):
                if m >> i & 1:
                    total = total + v
            assert got[m] == total


class TestVerifiers:
    def test_power_set_always_covers(self):
        n = 4
        fam = CoveringFamily(universe_size=n, alpha=1.0, sets=list(range(1 << n)))
        assert verify_covering(fam, [3, 1, 4, 1]).ok

    def test_missing_universe_fails_at_universe(self):
        n = 3
        fam = CoveringFamily(
            universe_size=n, alpha=2.0, sets=[s for s in range(1 << n) if s != 7]
        )
        verdict = verify_covering(fam, [1, 1, 1])
        assert not verdict.ok
        assert verdict.violating_set == 7

    @pytest.mark.parametrize("w", [math.nan, math.inf, 0.5])
    def test_bad_weight_rejected(self, w):
        cover = CoveringFamily(universe_size=2, alpha=2.0, sets=[0, 3])
        ext = ExtensionFamily(universe_size=2, alpha=1.0, beta=1.5, entries=[(0, 2)])
        for verify, fam in ((verify_covering, cover), (verify_extension, ext)):
            with pytest.raises(ValueError, match="^weights must be finite and >= 1"):
                verify(fam, [1, w])

    def test_extension_power_set_with_zero_budgets(self):
        n = 4
        fam = ExtensionFamily(
            universe_size=n, alpha=1.0, beta=1.2, entries=[(t, 0) for t in range(1 << n)]
        )
        assert verify_extension(fam, [2, 5, 1, 7]).ok

    def test_extension_missing_empty_entry_fails_at_empty(self):
        n = 3
        fam = ExtensionFamily(
            universe_size=n, alpha=1.0, beta=1.5,
            entries=[(t, 0) for t in range(1, 1 << n)],
        )
        verdict = verify_extension(fam, [1, 1, 1])
        assert not verdict.ok
        assert verdict.violating_set == 0

    def test_monotone_closure(self):
        rng = random.Random(3)
        n = 6
        fam = build_unweighted_extension(n, 1.0, 2.0, 1.5)
        extra = (rng.randrange(1 << n), rng.randrange(n + 1))
        entries = list(fam.entries)
        if extra not in entries:
            entries.append(extra)
        bigger = ExtensionFamily(
            universe_size=n, alpha=1.0, beta=1.5, entries=entries
        )
        assert verify_extension(bigger, [1] * n).ok

    def test_weight_length_mismatch(self):
        fam = build_unweighted_covering(3, 2.0)
        with pytest.raises(ValueError):
            verify_covering(fam, [1, 1])

    def test_cap_enforced(self):
        fam = CoveringFamily(universe_size=22, alpha=2.0, sets=[(1 << 22) - 1])
        with pytest.raises(ResourceCapError):
            verify_covering(fam, [1] * 22, cap=20)


def _reference_verdict(n, weights, entries, holds):
    """(ok, violating_set, checked) of a plain scan over every subset S;
    holds(S, T, ell, w) gets w as a Python float subset-weight function."""

    def w(mask):
        total = 0.0
        for i in range(n):
            if mask >> i & 1:
                total = total + weights[i]
        return total

    for s in range(1 << n):
        if not any(holds(s, t, ell, w) for t, ell in entries):
            return False, s, 1 << n
    return True, None, 1 << n


@st.composite
def thinned_families(draw):
    """A built family under random weights, with up to 3 entries dropped."""
    n = draw(st.integers(0, 7))
    top = draw(st.sampled_from([1, 3, 50]))
    weights = draw(st.lists(st.integers(1, top), min_size=n, max_size=n))
    beta = draw(st.sampled_from([1.25, 1.5, 2.0, 3.0]))
    if draw(st.booleans()):
        fam = build_unweighted_covering(n, beta)
        entries = fam.sets
    else:
        alpha = draw(st.sampled_from([1.0, 1.5, 2.0]))
        fam = build_unweighted_extension(n, alpha, 2.0, beta)
        entries = fam.entries
    drop = draw(st.sets(st.integers(0, len(entries) - 1), max_size=3))
    for i in sorted(drop, reverse=True):
        del entries[i]
    return fam, weights


class TestVerifierReference:
    """Both verifiers agree with a per-subset Python scan, failures included."""

    @settings(max_examples=120, deadline=None)
    @given(case=thinned_families())
    def test_matches_subset_scan(self, case):
        fam, weights = case
        n = fam.universe_size
        if isinstance(fam, CoveringFamily):
            got = verify_covering(fam, weights)
            want = _reference_verdict(
                n, weights, [(t, 0) for t in fam.sets],
                lambda s, t, ell, w: s & ~t == 0 and w(t) <= fam.alpha * w(s) + 1e-9,
            )
        else:
            got = verify_extension(fam, weights)
            want = _reference_verdict(
                n, weights, fam.entries,
                lambda s, t, ell, w: (s & ~t).bit_count() <= ell
                and w(t) + fam.alpha * (w(s) - w(s & t)) <= fam.beta * w(s) + 1e-9,
            )
        assert (got.ok, got.violating_set, got.checked) == want


class TestFamilyCost:
    def test_single_zero_budget_entry(self):
        fam = ExtensionFamily(universe_size=1, alpha=1.0, beta=1.5, entries=[(0, 0)])
        assert family_cost(fam, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_budgets(self):
        fam = ExtensionFamily(
            universe_size=4, alpha=1.0, beta=1.5, entries=[(0, 3), (1, 1)]
        )
        assert family_cost(fam, 2.0) == pytest.approx(math.log(10), abs=1e-12)

    def test_unit_cost_is_log_size(self):
        fam = build_unweighted_extension(6, 1.0, 1.0, 1.5)
        assert family_cost(fam, 1.0) == pytest.approx(
            math.log(len(fam.entries)), abs=1e-12
        )

    def test_agrees_with_naive_sum(self):
        fam = build_unweighted_extension(7, 1.0, 2.0, 1.4)
        naive = sum(2.0**ell for _, ell in fam.entries)
        assert family_cost(fam, 2.0) == pytest.approx(math.log(naive), rel=1e-9)


# Any finite factor in [1, 100): the dump writes digits {:g} would drop.
_factors = st.floats(1, 100, exclude_max=True)


@st.composite
def dumpable_families(draw):
    n = draw(st.integers(0, 10))
    subsets = st.integers(0, (1 << n) - 1)
    alpha = draw(_factors)
    if draw(st.booleans()):
        sets = draw(st.lists(subsets, unique=True, max_size=30))
        return CoveringFamily(universe_size=n, alpha=alpha, sets=sets)
    entries = draw(
        st.lists(st.tuples(subsets, st.integers(0, n)), unique=True, max_size=30)
    )
    return ExtensionFamily(
        universe_size=n, alpha=alpha, beta=draw(_factors), entries=entries
    )


class TestDumpParse:
    @settings(max_examples=80, deadline=None)
    @given(fam=dumpable_families(), schedule=st.sampled_from([None, "delta=0.1 d=3"]))
    def test_round_trip_property(self, fam, schedule):
        text = dump_family(fam, schedule=schedule)
        back = parse_family(text)
        assert type(back) is type(fam)
        assert back == fam
        assert dump_family(back, schedule=schedule) == text

    def test_covering_round_trip(self):
        fam = build_unweighted_covering(5, 2.0)
        back = parse_family(dump_family(fam))
        assert isinstance(back, CoveringFamily)
        assert back.sets == fam.sets
        assert back.universe_size == fam.universe_size

    def test_extension_round_trip_with_schedule_comment(self):
        fam = build_unweighted_extension(5, 1.0, 2.0, 1.5)
        back = parse_family(dump_family(fam, schedule="delta=0.1 inner=1.36"))
        assert isinstance(back, ExtensionFamily)
        assert back.entries == fam.entries
        assert back.beta == fam.beta

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_family("not a family\n0x0\n")
        with pytest.raises(ValueError, match="^bad family header: 'family extension"):
            parse_family("family extension n=2 alpha=1 beta\n0x1 0\n")

    @pytest.mark.parametrize(
        "header, key",
        [
            ("family covering alpha=2", "n"),
            ("family covering n=3", "alpha"),
            ("family extension n=3 beta=1.5", "alpha"),
            ("family extension n=3 alpha=1", "beta"),
        ],
    )
    def test_header_missing_key_named(self, header, key):
        with pytest.raises(ValueError, match=f"lacks {key}="):
            parse_family(header + "\n0x0 0\n")

    @pytest.mark.parametrize(
        "factor, written",
        [(1.2345649, "1.2345649"), (1.0000004, "1.0000004"), (1.5, "1.5"), (2.0, "2")],
    )
    def test_factor_digits_survive(self, factor, written):
        fam = ExtensionFamily(universe_size=1, alpha=factor, beta=factor, entries=[(1, 0)])
        text = dump_family(fam)
        assert text.startswith(f"family extension n=1 alpha={written} beta={written}\n")
        assert parse_family(text) == fam

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            ExtensionFamily(
                universe_size=2, alpha=1.0, beta=1.5, entries=[(1, 0), (1, 0)]
            )


@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: CoveringFamily(universe_size=2, alpha=2.0, sets=[0b100]), "not contained"),
        (lambda: ExtensionFamily(2, 1.0, 1.5, [(0b1000, 0)]), "not contained"),
        (lambda: ExtensionFamily(2, 1.0, 1.5, [(0b1, 3)]), "budget 3 out of range"),
        (lambda: ExtensionFamily(2, 1.0, 1.5, [(0b1, -1)]), "budget -1 out of range"),
        (lambda: CoveringFamily(universe_size=-1, alpha=2.0, sets=[]), "universe_size"),
        (lambda: build_unweighted_covering(-1, 2.0), "universe_size must be >= 0"),
        (lambda: build_unweighted_extension(-1, 1.0, 1.0, 1.5), "universe_size must be >= 0"),
        (lambda: parse_family(""), "empty family dump"),
        (lambda: parse_family("# schedule only\n\n"), "empty family dump"),
        (lambda: parse_family("family packing n=2 alpha=2\n0x3\n"), "unknown family kind"),
    ],
    ids=[
        "set-outside", "entry-outside", "budget-above-n", "negative-budget",
        "negative-universe", "covering-n-negative", "extension-n-negative",
        "empty-dump", "comment-only-dump", "unknown-kind",
    ],
)
def test_bad_family_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class TestZeroStartGain:
    """A layer with t < s - ell has no t-set within ell of any s-subset."""

    def test_greedy_layer_gives_up(self):
        popcount = subset_sums([1] * 4, np.uint8)
        assert families._greedy_layer(4, 3, 1, 1, popcount) is None

    def test_layered_falls_back_to_the_layer_itself(self):
        # Every layer s >= 1 asks for the empty set with budget 0.
        entries = families._layered(3, lambda s: (0, 0), cap=20)
        popcount = [m.bit_count() for m in range(8)]
        want = [(m, 0) for s in range(4) for m in range(8) if popcount[m] == s]
        assert entries == want

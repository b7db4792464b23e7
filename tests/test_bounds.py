"""Tests for the brute and amls running-time bases."""

import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wamls
from wamls.bounds import (
    BoundDomainError,
    BoundParams,
    amls_bound,
    bound_table,
    brute_bound,
    entropy,
    g_star,
    g_value,
    m_lower,
    shape_check,
)
from wamls.cli import PRESETS

GOLDEN_BOUNDS = pathlib.Path(__file__).parent / "data" / "golden_bounds.txt"
GOLDEN_PRECISIONS = (1e-3, 1e-6, 1e-9)
GOLDEN_KAPPA_FRACS = (0.0, 0.37, 1.0)
# alpha = beta, beta = 1, c = 1, huge alpha and huge c.
GOLDEN_EDGE_ROWS = [
    (1.5, 2.0, 1.5),
    (2.0, 1.0, 2.0),
    (1.0, 2.0, 1.0),
    (2.0, 3.0, 1.0),
    (1.0, 1.0, 1.5),
    (3.0, 1.0, 1.2),
    (1e6, 1.0, 1.5),
    (1e6, 2.0, 3.0),
    (1.0, 1e300, 1.5),
    (2.0, 1e300, 2.5),
]


def golden_bound_params():
    """Every preset row, 40 seeded random triples at three precisions, edge rows."""
    rows = [
        BoundParams(alpha=a, c=c, beta=b)
        for rows_ac, betas in PRESETS.values()
        for a, c in rows_ac
        for b in betas
    ]
    rng = random.Random(4)
    triples = [
        (rng.uniform(1.0, 4.0), rng.uniform(1.0, 5.0), rng.uniform(1.0, 4.0))
        for _ in range(40)
    ]
    rows += [
        BoundParams(alpha=a, c=c, beta=b, precision=prec)
        for a, c, b in triples
        for prec in GOLDEN_PRECISIONS
    ]
    rows += [BoundParams(alpha=a, c=c, beta=b) for a, c, b in GOLDEN_EDGE_ROWS]
    return rows


def golden_bound_lines():
    """One line per row: params, amls_bound, g_star at three kappa, shape_check(20)."""
    lines = []
    for p in golden_bound_params():
        a, c, b = p.alpha, p.c, p.beta
        fields = [repr((a, c, b, p.precision)), repr(amls_bound(p))]
        for frac in GOLDEN_KAPPA_FRACS:
            fields.append(repr(g_star(a, b, c, frac / b, p.precision)))
        fields.append(repr(shape_check(p, 20)))
        lines.append("\t".join(fields) + "\n")
    return lines


class TestEntropy:
    def test_symmetric_maximum(self):
        assert entropy(0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_endpoints_are_zero(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_quarter_point(self):
        want = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)
        assert entropy(0.25) == pytest.approx(want, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(BoundDomainError):
            entropy(-0.01)
        with pytest.raises(BoundDomainError):
            entropy(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range_and_symmetry(self, x):
        h = entropy(x)
        assert 0.0 <= h <= math.log(2) + 1e-15
        assert h == pytest.approx(entropy(1.0 - x), abs=1e-12)


class TestBruteBound:
    def test_alpha_one_is_two(self):
        assert brute_bound(1.0) == pytest.approx(2.0, abs=1e-9)

    def test_alpha_two_closed_form(self):
        # H(1/2) = ln 2, so the base is 1 + exp(-2 ln 2) = 1.25 exactly.
        assert brute_bound(2.0) == pytest.approx(1.25, abs=1e-9)

    def test_published_value(self):
        assert brute_bound(1.1) == pytest.approx(1.716, abs=2e-3)

    def test_strictly_decreasing(self):
        grid = [1.0 + 0.1 * i for i in range(30)]
        vals = [brute_bound(a) for a in grid]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        assert all(1.0 < v <= 2.0 for v in vals)

    def test_domain_error(self):
        with pytest.raises(BoundDomainError):
            brute_bound(0.5)


class TestMLower:
    def test_equal_factors_give_zero(self):
        assert m_lower(1.7, 1.7, 0.4) == 0.0

    def test_alpha_below_beta(self):
        assert m_lower(1.0, 2.0, 0.3) == pytest.approx(0.3 / 0.7, abs=1e-12)

    def test_alpha_above_beta(self):
        assert m_lower(2.0, 1.5, 0.2) == pytest.approx(0.1, abs=1e-12)

    def test_kappa_out_of_range(self):
        with pytest.raises(BoundDomainError):
            m_lower(1.0, 2.0, 0.6)  # above 1/beta


class TestGValue:
    def test_origin_is_zero(self):
        for alpha, beta, c in [(1.0, 1.5, 2.0), (2.0, 1.2, 1.0), (3.0, 2.0, 3.0)]:
            assert g_value(alpha, beta, c, 0.0, 0.0) == 0.0

    def test_interior_point_matches_direct_formula(self):
        alpha, beta, c, kappa, tau = 1.0, 1.5, 2.0, 0.2, 0.25
        delta = ((beta / alpha) * kappa - tau / alpha) / (1.0 - tau)
        gamma = (1.0 - beta / alpha) * (kappa / tau) + 1.0 / alpha
        want = (
            ((beta * kappa - tau) / alpha) * math.log(c)
            - tau * entropy(gamma)
            - (1.0 - tau) * entropy(delta)
            + entropy(kappa)
        )
        assert g_value(alpha, beta, c, kappa, tau) == pytest.approx(want, abs=1e-14)

    def test_tau_one_special_case(self):
        # At tau = 1 the delta term is (1 - tau) * H(1/alpha) = 0, so only
        # the gamma and kappa entropy terms survive.
        alpha, beta, c, kappa = 2.0, 2.0, 1.0, 0.5
        gamma = (1.0 - beta / alpha) * (kappa / 1.0) + 1.0 / alpha
        want = -entropy(gamma) + entropy(kappa)
        assert g_value(alpha, beta, c, kappa, 1.0) == pytest.approx(want, abs=1e-14)

    def test_infeasible_tau_rejected(self):
        with pytest.raises(BoundDomainError):
            g_value(1.0, 1.5, 2.0, 0.2, 0.9)  # above beta * kappa

    @pytest.mark.parametrize(
        "args,message",
        [
            (
                (1.0, 1.5, 2.0, 0.2, 0.9),
                "tau = 0.9 infeasible for kappa = 0.2 (interval [0.125, 0.30000000000000004])",
            ),
            (
                (2.0, 1.5, 1.0, 0.3, -0.01),
                "tau = -0.01 infeasible for kappa = 0.3 (interval [0.15, 0.44999999999999996])",
            ),
            ((1.0, 2.0, 1.0, 0.6, 0.5), "kappa must be in [0, 1/beta], got 0.6"),
            ((0.5, 1.5, 1.0, 0.3, 0.1), "alpha and beta must be >= 1"),
        ],
    )
    def test_error_messages(self, args, message):
        with pytest.raises(BoundDomainError) as exc:
            g_value(*args)
        assert str(exc.value) == message


class TestGStar:
    def test_degenerate_interval(self):
        value, tau = g_star(1.0, 1.5, 2.0, 0.0)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert tau == pytest.approx(0.0, abs=1e-9)

    def test_against_dense_grid(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            alpha = rng.uniform(1.0, 3.0)
            beta = rng.uniform(1.05, 2.5)
            c = rng.uniform(1.0, 3.0)
            kappa = rng.uniform(0.0, 1.0 / beta)
            lo, hi = m_lower(alpha, beta, kappa), beta * kappa
            value, _ = g_star(alpha, beta, c, kappa)
            if hi > lo:
                steps = 2000
                grid_min = min(
                    g_value(alpha, beta, c, kappa, lo + (hi - lo) * i / steps)
                    for i in range(steps + 1)
                )
                assert value == pytest.approx(grid_min, abs=1e-4)


class TestAmlsBound:
    @pytest.mark.parametrize(
        "alpha,c,beta,want",
        [
            (1.0, 1.363, 1.1, 1.158),
            (2.0, 1.0, 1.5, 1.208),
            (1.0, 2.168, 2.0, 1.111),
            (1.0, 3.618, 1.5, 1.25),
        ],
    )
    def test_published_values(self, alpha, c, beta, want):
        sp = amls_bound(BoundParams(alpha=alpha, c=c, beta=beta))
        assert sp.value == pytest.approx(want, abs=2e-3)

    def test_figure_coordinate(self):
        sp = amls_bound(BoundParams(alpha=2.0, c=1.0, beta=1.25, precision=1e-9))
        assert sp.value == pytest.approx(1.4203192453, abs=1e-6)

    def test_saddle_point_feasible(self):
        p = BoundParams(alpha=1.0, c=2.0, beta=1.5)
        sp = amls_bound(p)
        assert 0.0 <= sp.kappa_star <= 1.0 / p.beta + 1e-9
        lo = m_lower(p.alpha, p.beta, sp.kappa_star)
        assert lo - 1e-6 <= sp.tau_star <= p.beta * sp.kappa_star + 1e-6
        assert 1.0 <= sp.value <= 2.0

    def test_dominated_by_brute(self):
        for alpha in (1.0, 1.5, 2.0, 3.0):
            for c in (1.0, 1.363, 2.0, 3.618):
                for beta in (1.1, 1.5, 2.0, 2.5):
                    v = amls_bound(BoundParams(alpha=alpha, c=c, beta=beta)).value
                    assert v < brute_bound(beta) - 1e-9

    def test_monotone_in_beta_and_c(self):
        betas = [1.1 + 0.15 * i for i in range(10)]
        vals = [amls_bound(BoundParams(alpha=1.0, c=2.0, beta=b)).value for b in betas]
        assert all(v1 >= v2 - 1e-9 for v1, v2 in zip(vals, vals[1:]))
        cs = [1.0 + 0.3 * i for i in range(10)]
        vals = [amls_bound(BoundParams(alpha=1.0, c=c, beta=1.5)).value for c in cs]
        assert all(v1 <= v2 + 1e-9 for v1, v2 in zip(vals, vals[1:]))

    def test_precision_levels_agree(self):
        lo = amls_bound(BoundParams(alpha=1.0, c=1.363, beta=1.3, precision=1e-4))
        hi = amls_bound(BoundParams(alpha=1.0, c=1.363, beta=1.3, precision=1e-6))
        assert abs(lo.value - hi.value) <= 2e-4

    def test_exact_local_search_corner_reported(self):
        # At beta = 1 the base numerically approaches 2 - 1/c; informational
        # comparison only, the identity is not asserted as a contract.
        for c in (1.5, 2.0, 3.0):
            v = amls_bound(BoundParams(alpha=1.0, c=c, beta=1.0)).value
            assert v == pytest.approx(2.0 - 1.0 / c, abs=5e-3)

    def test_invalid_params(self):
        with pytest.raises(BoundDomainError):
            BoundParams(alpha=0.5, c=1.0, beta=1.5)
        with pytest.raises(BoundDomainError):
            BoundParams(alpha=1.0, c=1.0, beta=1.5, precision=0.0)
        with pytest.raises(BoundDomainError):
            BoundParams(alpha=math.inf, c=1.0, beta=1.5)


class TestBoundTable:
    def test_csv_layout(self):
        rows = [BoundParams(alpha=1.0, c=1.363, beta=1.1)]
        text = bound_table(rows, fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "alpha,c,beta,brute,amls,kappa_star,tau_star,err_bound"
        fields = lines[1].split(",")
        assert float(fields[3]) == pytest.approx(1.716, abs=2e-3)
        assert float(fields[4]) == pytest.approx(1.158, abs=2e-3)

    def test_jsonl_layout(self):
        import json

        text = bound_table([BoundParams(alpha=2.0, c=1.0, beta=1.25)], fmt="jsonl")
        row = json.loads(text.strip())
        assert row["amls"] == pytest.approx(1.4203, abs=2e-3)

    def test_empty_rows_rejected(self):
        with pytest.raises(BoundDomainError):
            bound_table([])

    def test_unknown_format_rejected(self):
        with pytest.raises(BoundDomainError):
            bound_table([BoundParams(alpha=1.0, c=1.0, beta=1.5)], fmt="xml")


class TestShapeCheck:
    @pytest.mark.parametrize(
        "alpha,c,beta", [(1.0, 1.363, 1.1), (2.0, 1.0, 1.9), (1.0, 2.0, 1.5)]
    )
    def test_known_parameters_pass(self, alpha, c, beta):
        rep = shape_check(BoundParams(alpha=alpha, c=c, beta=beta), grid_resolution=200)
        assert isinstance(rep, wamls.ShapeReport)
        assert rep.ok
        assert rep.max_convexity_violation <= 1e-7
        assert rep.max_concavity_violation <= 1e-7

    def test_coarse_grid_rejected(self):
        with pytest.raises(BoundDomainError):
            shape_check(BoundParams(alpha=1.0, c=1.0, beta=1.5), grid_resolution=5)


class TestGoldenBounds:
    def test_bounds_match_golden(self):
        """The golden lines were written by the per-call g_value, before the
        per-kappa kernel; every SaddlePoint, g_star and ShapeReport field
        must reproduce them bit for bit."""
        want = GOLDEN_BOUNDS.read_text().splitlines(keepends=True)
        assert golden_bound_lines() == want

"""Tests for the membership and extension approximation drivers."""

import json
import math
import pathlib

import numpy as np
import pytest

from wamls import problems
from wamls.driver import (
    OracleMismatchError,
    RunReport,
    approximate_extension,
    approximate_membership,
    verify_run,
)
from wamls.families import ResourceCapError
from wamls.oracles import BatchOracle, exact_extension_oracle, oracle_for, wrap_with_ledger
from wamls.problems import (
    WeightedHSInstance,
    WeightedPVCInstance,
    WeightedVCInstance,
    exact_opt,
    membership_check,
    membership_table,
    random_instance,
    weight_of,
)
from wamls.weighted import build_weighted_covering, build_weighted_extension

GOLDEN_REPORTS = pathlib.Path(__file__).parent / "data" / "golden_reports.txt"
GOLDEN_ORACLES = {
    "wvc": ("exact", "branching", "local-ratio"),
    "whs": ("exact", "branching", "local-ratio"),
    "wfvs": ("exact", "local-ratio"),
}
GOLDEN_BETAS = (1.2, 1.5, 1.9)
GOLDEN_ALPHAS = (1.5, 2.0, 3.0)


def _golden_instances(kind):
    """Fixed-seed instances: spread weights (power-set families) and few
    distinct weights (families with ell > 0 entries)."""
    for lo, hi in ((1, 100), (1, 3)):
        for n in (5, 8):
            for seed in (0, 1):
                base = "wvc" if kind == "wpvc" else kind
                inst = random_instance(base, n, 0.4, weight_range=(lo, hi), seed=seed)
                if kind == "wpvc":
                    inst = WeightedPVCInstance(
                        n=n, weights=inst.weights, edges=inst.edges, t=len(inst.edges) // 2
                    )
                yield f"{kind} n={n} w={lo}..{hi} seed={seed}", inst


def golden_report_lines():
    """One line per run: case, verdict, then RunReport.to_json() after verify_run."""
    runs = []
    for kind, names in GOLDEN_ORACLES.items():
        for case, inst in _golden_instances(kind):
            for name in names:
                for beta in GOLDEN_BETAS:
                    report = approximate_extension(
                        inst, oracle_for(inst, name), beta, force=True, seed=7
                    )
                    runs.append((f"{case} {name} beta={beta}", inst, report, beta))
    for kind in ("wvc", "whs", "wfvs", "wpvc"):
        for case, inst in _golden_instances(kind):
            for alpha in GOLDEN_ALPHAS:
                report = approximate_membership(inst, alpha, seed=7)
                runs.append((f"{case} membership covering alpha={alpha}", inst, report, alpha))
    lines = []
    for case, inst, report, target in runs:
        verdict = verify_run(inst, report, target)
        lines.append(f"{case}\t{verdict.ok}\t{report.to_json()}\n")
    return lines


class TestMembershipDriver:
    def test_exhaustive_mode_is_exact(self):
        for seed in range(10):
            inst = random_instance("wvc", 8, 0.35, seed=seed)
            report = approximate_membership(inst, 2.0, mode="exhaustive")
            mask, weight = exact_opt(inst)
            assert report.output_weight == weight
            assert report.output_set == mask

    def test_exhaustive_run_and_verify_share_one_membership_table(self, count_builds):
        built = count_builds(problems._Instance, "_membership")
        inst = random_instance("wfvs", 9, 0.4, seed=3)
        report = approximate_membership(inst, 2.0, mode="exhaustive")
        table = membership_table(inst)
        assert verify_run(inst, report, 2.0).ok
        assert built == [inst] and membership_table(inst) is table

    def test_no_eps(self):
        # No membership family depends on eps: it is not taken, and the
        # report leaves it null, as it does c and beta.
        inst = random_instance("wvc", 6, 0.4, seed=1)
        for mode in ("covering", "exhaustive"):
            report = approximate_membership(inst, 2.0, mode=mode)
            assert (report.c, report.beta, report.eps) == (None, None, None)
        with pytest.raises(TypeError, match="eps"):
            approximate_membership(inst, 2.0, eps=0.5)

    def test_edgeless_returns_empty(self):
        inst = WeightedVCInstance(n=4, weights=(1, 2, 3, 4), edges=())
        report = approximate_membership(inst, 2.0)
        assert report.output_set == 0
        assert report.output_weight == 0

    def test_factor_respected(self):
        for seed in range(8):
            inst = random_instance("wvc", 9, 0.3, seed=100 + seed)
            for alpha in (1.5, 2.0, 3.0):
                report = approximate_membership(inst, alpha)
                _, opt = exact_opt(inst)
                assert membership_check(inst, report.output_set)
                assert report.output_weight <= alpha * opt + 1e-9


class TestExtensionDriver:
    def test_satisfied_instance_outputs_empty(self):
        inst = WeightedVCInstance(n=4, weights=(1, 1, 1, 1), edges=())
        report = approximate_extension(inst, oracle_for(inst, "exact"), 1.5)
        assert report.output_weight == 0

    def test_exact_oracle_ratio(self):
        for seed in range(8):
            inst = random_instance("wvc", 9, 0.3, seed=seed)
            report = approximate_extension(inst, oracle_for(inst, "exact"), 1.5)
            verdict = verify_run(inst, report, 1.5)
            assert verdict.ok, verdict.reason

    def test_local_ratio_needs_force(self):
        inst = random_instance("wvc", 6, 0.4, seed=4)
        with pytest.raises(OracleMismatchError):
            approximate_extension(inst, oracle_for(inst, "local-ratio"), 1.5)
        report = approximate_extension(
            inst, oracle_for(inst, "local-ratio"), 1.5, force=True
        )
        assert verify_run(inst, report, 1.5).ok

    def test_ledger_matches_family_cost(self):
        inst = random_instance("wvc", 8, 0.3, seed=21)
        handle = oracle_for(inst, "exact")
        report = approximate_extension(inst, handle, 1.5)
        assert len(handle.ledger.queries) == report.family_size
        assert handle.ledger.cost_log(handle.declared_c) == pytest.approx(
            report.cost_log, rel=1e-9
        )

    def test_unit_cost_is_log_family_size(self):
        inst = random_instance("wvc", 7, 0.3, seed=22)
        handle = oracle_for(inst, "local-ratio")
        report = approximate_extension(inst, handle, 1.9, force=True)
        assert report.cost_log == pytest.approx(
            math.log(report.family_size), rel=1e-9
        )


def _recording(inst, choose):
    """A ledger handle whose oracle answers choose(t, ell) and records each T | X."""
    outs = []

    def extend(t, ell):
        x = choose(t, ell)
        outs.append(t | x)
        return x

    return wrap_with_ledger(extend, c=1.0), outs


class TestBatchedCheckAndRank:
    def test_contract_violation_names_first_bad_output(self):
        inst = random_instance("wvc", 6, 0.5, seed=2)
        handle, outs = _recording(inst, lambda t, ell: 0)
        with pytest.raises(RuntimeError) as exc:
            approximate_extension(inst, handle, 1.5)
        entries = build_weighted_extension(list(inst.weights), 1.0, 1.0, 1.5).family.entries
        bad = [t for t, _ in entries if not membership_check(inst, t)]
        assert len(set(bad)) > 1
        assert str(exc.value) == f"oracle contract violation: {bad[0]:#x} is not a solution"
        # The check runs once over all outputs, after every entry was queried.
        assert outs == [t for t, _ in entries]
        assert len(handle.ledger.queries) == len(entries)

    def test_unit_weight_ties_break_by_mask(self):
        # Both {0, 2} and {1, 3} cover the 4-cycle with weight 2.
        cycle = WeightedVCInstance(
            n=4, weights=(1, 1, 1, 1), edges=((0, 1), (1, 2), (2, 3), (0, 3))
        )
        report = approximate_membership(cycle, 2.0, mode="exhaustive")
        assert (report.output_set, report.output_weight) == (0b0101, 2)
        sets = build_weighted_covering([1] * 4, 2.0).family.sets
        sols = [t for t in sets if membership_check(cycle, t)]
        best = min(sols, key=lambda t: (weight_of(cycle, t), t.bit_count(), t))
        report = approximate_membership(cycle, 2.0)
        assert (report.output_set, report.output_weight) == (best, weight_of(cycle, best))

        def choose(t, ell):
            # The unit family queries T = 0 at ell = 0..3; {1, 3} comes first.
            return (0b0101 if ell % 2 else 0b1010) & ~t

        handle, outs = _recording(cycle, choose)
        report = approximate_extension(cycle, handle, 1.5)
        assert {0b0101, 0b1010} <= set(outs)
        assert outs.index(0b1010) < outs.index(0b0101)
        assert (report.output_set, report.output_weight) == (0b0101, 2)

    def test_weight_ties_break_by_cardinality_before_mask(self):
        # {2} and {0, 1} both hit every set with weight 2; {2} is smaller.
        inst = WeightedHSInstance(n=3, weights=(1, 1, 2), d=2, sets=((0, 2), (1, 2)))
        report = approximate_membership(inst, 2.0, mode="exhaustive")
        assert (report.output_set, report.output_weight) == (0b100, 2)

        def choose(t, ell):
            return 0 if t & 0b100 else 0b011 & ~t

        handle, outs = _recording(inst, choose)
        report = approximate_extension(inst, handle, 1.5)
        assert {0b100, 0b011} <= set(outs)
        assert (report.output_set, report.output_weight) == (0b100, 2)

    def test_word_width_guard(self):
        inst = WeightedVCInstance(n=64, weights=(1,) * 64, edges=((0, 63),))
        handle = wrap_with_ledger(lambda t, ell: 0, c=1.0)
        with pytest.raises(ResourceCapError, match="63-element limit"):
            approximate_extension(inst, handle, 1.5, cap=64)
        with pytest.raises(ResourceCapError, match="63-element limit"):
            approximate_membership(inst, 2.0, cap=64)
        assert handle.ledger.queries.size == 0

    def test_int64_weight_guard(self):
        # Two weights of 2^62 would sum to a wrapped int64.
        inst = WeightedVCInstance(n=2, weights=(1 << 62, 1 << 62), edges=((0, 1),))
        with pytest.raises(ResourceCapError, match="total weight"):
            approximate_membership(inst, 2.0, mode="exhaustive")
        with pytest.raises(ResourceCapError, match="total weight"):
            approximate_extension(inst, wrap_with_ledger(lambda t, ell: 0, c=1.0), 1.5)
        fits = WeightedVCInstance(n=2, weights=(1 << 62, (1 << 62) - 1), edges=((0, 1),))
        report = approximate_membership(fits, 2.0, mode="exhaustive")
        assert (report.output_set, report.output_weight) == (0b10, (1 << 62) - 1)


class TestOneBatchPerFamily:
    """The extension driver asks the oracle once, with the family's arrays."""

    @pytest.mark.parametrize(
        "kind,name", [("wvc", "exact"), ("whs", "branching"), ("whs", "local-ratio"),
                      ("wfvs", "local-ratio")]
    )
    def test_ledger_follows_family_order(self, kind, name):
        inst = random_instance(kind, 9, 0.35, seed=8, d=3)
        handle = oracle_for(inst, name)
        beta = 2.5
        report = approximate_extension(inst, handle, beta, force=True)
        fam = build_weighted_extension(
            list(inst.weights), handle.declared_alpha, handle.declared_c, beta
        ).family
        assert handle.ledger.queries.tolist() == [[t.bit_count(), ell] for t, ell in fam.entries]
        assert handle.ledger.cost_log(handle.declared_c) == report.cost_log

    def test_one_call_per_run(self):
        inst = random_instance("whs", 8, 0.4, seed=9, d=3)
        exact = exact_extension_oracle(inst)
        calls = []

        def many(subsets, budgets):
            calls.append(len(subsets))
            return exact.many(subsets, budgets)

        handle = wrap_with_ledger(BatchOracle(many), c=2.0)
        report = approximate_extension(inst, handle, 1.5)
        assert calls == [report.family_size]
        assert report == approximate_extension(inst, oracle_for(inst, "exact"), 1.5)

    def test_scalar_oracle_runs_through_the_driver(self):
        inst = random_instance("wvc", 8, 0.4, seed=10)
        exact = exact_extension_oracle(inst)
        scalar = wrap_with_ledger(lambda t, ell: exact(t, ell), c=2.0)
        batch = oracle_for(inst, "exact")
        assert approximate_extension(inst, scalar, 1.5) == approximate_extension(
            inst, batch, 1.5
        )
        assert scalar.ledger.queries.tolist() == batch.ledger.queries.tolist()

    def test_batch_contract_violation_names_first_bad_output(self):
        inst = random_instance("whs", 7, 0.5, seed=2, d=3)
        handle = wrap_with_ledger(BatchOracle(lambda s, ell: np.zeros_like(s)), c=1.0)
        entries = build_weighted_extension(list(inst.weights), 1.0, 1.0, 1.5).family.entries
        bad = [t for t, _ in entries if not membership_check(inst, t)]
        with pytest.raises(RuntimeError) as exc:
            approximate_extension(inst, handle, 1.5)
        assert str(exc.value) == f"oracle contract violation: {bad[0]:#x} is not a solution"
        assert len(handle.ledger.queries) == len(entries)


class TestVerifyRun:
    def test_doctored_non_solution(self):
        inst = random_instance("wvc", 6, 0.5, seed=2)
        report = approximate_extension(inst, oracle_for(inst, "exact"), 1.5)
        report.output_set = 0
        report.output_weight = 0
        if not membership_check(inst, 0):
            verdict = verify_run(inst, report, 1.5)
            assert not verdict.ok
            assert verdict.reason == "not a solution"

    def test_doctored_overweight(self):
        inst = random_instance("wvc", 6, 0.5, seed=2)
        report = approximate_extension(inst, oracle_for(inst, "exact"), 1.2)
        report.output_set = (1 << inst.n) - 1
        report.output_weight = sum(inst.weights)
        verdict = verify_run(inst, report, 1.01)
        assert not verdict.ok
        assert verdict.reason == "ratio exceeded"

    @staticmethod
    def _edge_run(weights, output_set):
        """An n = 2 vertex cover of one edge and a report that outputs output_set."""
        inst = WeightedVCInstance(n=2, weights=weights, edges=((0, 1),))
        report = RunReport(
            problem="wvc",
            n=2,
            alpha=1.0,
            c=2.0,
            beta=1.5,
            eps=0.05,
            output_set=output_set,
            output_weight=weight_of(inst, output_set),
            family_size=1,
            cost_log=0.0,
        )
        return inst, report

    def test_ratio_exact_above_two_to_the_53(self):
        # OPT = 2^61 + 1 and 1.5 * OPT = 3 * 2^60 + 1.5: the output 3 * 2^60 + 1
        # is within the ratio, though a float product rounds the bound to 3 * 2^60.
        inst, report = self._edge_run((2**61 + 1, 3 * 2**60 + 1), 0b10)
        verdict = verify_run(inst, report, 1.5)
        assert verdict.ok, verdict.reason
        assert verdict.opt_weight == 2**61 + 1

    def test_ratio_one_unit_over_at_two_to_the_61(self):
        # OPT = 2^61 and 1.5 * OPT = 3 * 2^60 exactly; one unit more exceeds it.
        inst, report = self._edge_run((2**61, 3 * 2**60 + 1), 0b10)
        verdict = verify_run(inst, report, 1.5)
        assert not verdict.ok
        assert verdict.reason == "ratio exceeded"
        inst, report = self._edge_run((2**61, 3 * 2**60), 0b10)
        assert verify_run(inst, report, 1.5).ok

    def test_ratio_keeps_absolute_slack(self):
        # Fraction(1.2) * 5 is just below 6; the 1e-9 slack keeps this run passing.
        inst, report = self._edge_run((5, 6), 0b10)
        assert verify_run(inst, report, 1.2).ok
        inst, report = self._edge_run((5, 7), 0b10)
        assert verify_run(inst, report, 1.2).reason == "ratio exceeded"

    def test_doctored_weight(self):
        inst = random_instance("wvc", 6, 0.5, seed=2)
        report = approximate_extension(inst, oracle_for(inst, "exact"), 1.5)
        assert verify_run(inst, report, 1.5).ok
        report.output_weight -= 1
        verdict = verify_run(inst, report, 1.5)
        assert not verdict.ok
        assert verdict.reason == "weight mismatch"
        # The weight is checked above the OPT cap too.
        assert verify_run(inst, report, 1.5, cap=4).reason == "weight mismatch"

    def test_cap_exceeded_skips_opt(self):
        inst = random_instance("wvc", 8, 0.3, seed=3)
        report = approximate_extension(inst, oracle_for(inst, "exact"), 1.5)
        verdict = verify_run(inst, report, 1.5, cap=4)
        assert verdict.ok
        assert verdict.opt_weight is None


def strict_json(text):
    """json.loads that refuses the non-JSON constants Infinity, -Infinity and NaN."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestReportSerialization:
    def test_deterministic_json(self):
        inst = random_instance("wvc", 8, 0.3, seed=77)
        texts = []
        for _ in range(2):
            handle = oracle_for(inst, "exact")
            report = approximate_extension(inst, handle, 1.5, seed=77)
            verify_run(inst, report, 1.5)
            texts.append(report.to_json())
        assert texts[0] == texts[1]

    def test_json_keys(self):
        inst = random_instance("wvc", 6, 0.3, seed=1)
        report = approximate_extension(inst, oracle_for(inst, "exact"), 1.5, seed=1)
        verify_run(inst, report, 1.5)
        payload = json.loads(report.to_json())
        for key in (
            "problem", "n", "alpha", "c", "beta", "eps", "output_weight",
            "opt_weight", "ratio", "family_size", "cost_log", "seed",
        ):
            assert key in payload
        assert payload["problem"] == "wvc"
        assert payload["seed"] == 1

    def test_infinite_ratio_is_strict_json_null(self):
        # OPT = 0 and the output weighs 1, so verify_run sets an infinite ratio.
        inst = WeightedVCInstance(n=1, weights=(1,), edges=())
        report = RunReport(
            problem="wvc", n=1, alpha=2.0, c=None, beta=None, eps=1e-3,
            output_set=0b1, output_weight=1, family_size=1, cost_log=0.0,
        )
        verdict = verify_run(inst, report, 2.0)
        assert verdict.achieved_ratio == math.inf and not verdict.ok
        payload = strict_json(report.to_json())
        assert payload["ratio"] is None
        assert payload["opt_weight"] == 0 and payload["cost_log"] == 0.0

    @pytest.mark.parametrize("field", ["alpha", "c", "beta", "eps", "achieved_ratio"])
    @pytest.mark.parametrize("value", [-math.inf, math.inf, math.nan])
    def test_every_non_finite_float_is_null(self, field, value):
        report = RunReport(
            problem="wvc", n=1, alpha=2.0, c=1.0, beta=1.5, eps=1e-3,
            output_set=0, output_weight=0, family_size=1, cost_log=0.0,
        )
        setattr(report, field, value)
        payload = strict_json(report.to_json())
        assert payload["ratio" if field == "achieved_ratio" else field] is None

    @pytest.mark.parametrize("cost_log", [-math.inf, math.inf, math.nan])
    def test_non_finite_cost_log_is_null(self, cost_log):
        report = RunReport(
            problem="wvc", n=3, alpha=2.0, c=None, beta=None, eps=1e-3,
            output_set=0b101, output_weight=2, family_size=0, cost_log=cost_log,
        )
        payload = json.loads(report.to_json())
        assert payload["cost_log"] is None
        assert payload["output_set"] == [0, 2]
        assert payload["ratio"] is None and "achieved_ratio" not in payload


class TestGoldenReports:
    def test_reports_match_golden(self):
        """The golden lines were last written when the class windows were
        first sized from the instance's weights; every oracle, both models
        and OPT must reproduce them."""
        want = GOLDEN_REPORTS.read_text().splitlines(keepends=True)
        assert golden_report_lines() == want

"""Tests for the membership and extension approximation drivers."""

import json
import math
import pathlib

import pytest

from wamls.driver import (
    OracleMismatchError,
    RunReport,
    approximate_extension,
    approximate_membership,
    verify_run,
)
from wamls.oracles import oracle_for
from wamls.problems import (
    WeightedPVCInstance,
    WeightedVCInstance,
    exact_opt,
    membership_check,
    random_instance,
)

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
            for mode in ("fixed", "schedule"):
                for alpha in GOLDEN_ALPHAS:
                    report = approximate_membership(inst, alpha, mode=mode, seed=7)
                    runs.append((f"{case} membership {mode} alpha={alpha}", inst, report, alpha))
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

    def test_cap_exceeded_skips_opt(self):
        inst = random_instance("wvc", 8, 0.3, seed=3)
        report = approximate_extension(inst, oracle_for(inst, "exact"), 1.5)
        verdict = verify_run(inst, report, 1.5, cap=4)
        assert verdict.ok
        assert verdict.opt_weight is None


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


class TestGoldenReports:
    def test_reports_match_golden(self):
        """The golden lines were written before VC moved onto the hitting-set
        path; every oracle, both models and OPT must reproduce them."""
        want = GOLDEN_REPORTS.read_text().splitlines(keepends=True)
        assert golden_report_lines() == want

"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete; without -s pytest shows them for failing tests only.
"""

import json
import math
import random
import time

import pytest

from wamls import bounds, driver, families, oracles, problems, weighted
from wamls.bounds import BoundParams


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# Published bound tables: (alpha, c) -> {beta: value}.  The brute row is
# shared by every table with the same beta grid.
BETAS_FINE = [round(1.1 + 0.1 * i, 1) for i in range(9)]
BETAS_WIDE = [round(1.2 + 0.2 * i, 1) for i in range(9)]

BRUTE_FINE = [1.716, 1.583, 1.496, 1.433, 1.385, 1.347, 1.317, 1.291, 1.269]
ROWS = [
    (1.0, 1.363, BETAS_FINE, [1.158, 1.123, 1.103, 1.089, 1.078, 1.07, 1.064, 1.058, 1.054]),
    (2.0, 1.0, BETAS_FINE, [1.659, 1.485, 1.366, 1.277, 1.208, 1.151, 1.104, 1.064, 1.03]),
    (1.0, 3.618, BETAS_FINE, [1.489, 1.39, 1.327, 1.283, 1.25, 1.225, 1.204, 1.187, 1.172]),
    (1.0, 2.168, BETAS_WIDE, [1.274, 1.197, 1.156, 1.13, 1.111, 1.097, 1.086, 1.078, 1.071]),
    (1.0, 2.0, BETAS_WIDE, [1.251, 1.181, 1.143, 1.119, 1.102, 1.089, 1.079, 1.071, 1.065]),
    (1.0, 3.168, [1.3, 2.5, 3.7], [1.305, 1.11, 1.068]),
    (1.0, 4.168, [1.4, 3.0, 4.6], [1.302, 1.1, 1.061]),
]


def test_criterion_01_bound_reproduction():
    t_suite = time.perf_counter()
    worst = 0.0
    slowest = 0.0
    for beta, want in zip(BETAS_FINE, BRUTE_FINE):
        got = bounds.brute_bound(beta)
        worst = max(worst, abs(got - want))
    for alpha, c, betas, values in ROWS:
        for beta, want in zip(betas, values):
            t0 = time.perf_counter()
            got = bounds.amls_bound(BoundParams(alpha=alpha, c=c, beta=beta)).value
            slowest = max(slowest, time.perf_counter() - t0)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t_suite
    ok = worst <= 2e-3 and slowest < 1.0 and elapsed < 30.0
    _verdict(1, "bound reproduction", ok,
             f"max dev {worst:.2e}, slowest {slowest:.2f}s, suite {elapsed:.1f}s")


def test_criterion_02_closed_form_anchors():
    dev = max(abs(bounds.brute_bound(1.0) - 2.0), abs(bounds.brute_bound(2.0) - 1.25))
    _verdict(2, "closed-form anchors", dev <= 1e-9, f"max dev {dev:.2e}")


def test_criterion_03_dominance():
    violations = []
    boundary = 0
    for alpha in (1.0, 1.5, 2.0, 3.0):
        for c in (1.0, 1.363, 2.0, 3.618):
            for beta in (1.1, 1.5, 2.0, 2.5):
                v = bounds.amls_bound(BoundParams(alpha=alpha, c=c, beta=beta)).value
                br = bounds.brute_bound(beta)
                if v <= 1.0 + 1e-9:
                    boundary += 1  # base 1 trivially below brute; reported only
                    continue
                if not v < br - 1e-6:
                    violations.append((alpha, c, beta, v, br))
    _verdict(3, "amls dominated by brute", not violations,
             f"{boundary} boundary cases, violations: {violations}")


def test_criterion_04_shape_checks():
    rng = random.Random(2024)
    bad = []
    for _ in range(20):
        alpha = rng.uniform(1.0, 3.0)
        c = rng.uniform(1.0, 4.0)
        beta = rng.uniform(1.05, 2.8)
        rep = bounds.shape_check(
            BoundParams(alpha=alpha, c=c, beta=beta), grid_resolution=200
        )
        if not rep.ok:
            bad.append((round(alpha, 3), round(c, 3), round(beta, 3)))
    _verdict(4, "convexity/concavity shape checks", not bad, f"failures: {bad}")


def test_criterion_05_family_validity():
    rng = random.Random(555)
    failures = 0
    checked = 0
    vectors = []
    for _ in range(50):
        n = rng.randint(1, 10)
        vectors.append([rng.randint(1, 100) for _ in range(n)])
    for w in vectors:
        for alpha in (1.5, 2.0, 3.0):
            rep = weighted.build_weighted_covering(w, alpha)
            checked += 1
            if not families.verify_covering(rep.family, w).ok:
                failures += 1
    for w in vectors:
        for alpha in (1.0, 2.0):
            for beta in (1.3, 1.7, 2.0):
                for c in (1.0, 2.0):
                    rep = weighted.build_weighted_extension(w, alpha, c, beta)
                    checked += 1
                    if not families.verify_extension(rep.family, w).ok:
                        failures += 1
    _verdict(5, "weighted family validity", failures == 0,
             f"{checked} families verified, {failures} failures")


# The oracles that read ell; criterion 6 counts their ell > 0 queries.
_BUDGETED = ("exact", "branching")


def _ratio_battery(kind, count, n_max, oracle_specs, betas, seed_base):
    bad = 0
    runs = 0
    asked = {name: 0 for name, _ in oracle_specs if name in _BUDGETED}
    for i in range(count):
        n = 4 + (i % (n_max - 3))
        inst = problems.random_instance(kind, n, 0.3, seed=seed_base + i)
        for name, force in oracle_specs:
            for beta in betas:
                handle = oracles.oracle_for(inst, name)
                report = driver.approximate_extension(
                    inst, handle, beta, force=force
                )
                runs += 1
                if not driver.verify_run(inst, report, beta).ok:
                    bad += 1
                if name in asked:
                    asked[name] += int((handle.ledger.queries[:, 1] > 0).sum())
    return runs, bad, asked


def test_criterion_06_end_to_end_ratios():
    betas = (1.2, 1.5, 1.9)
    runs_vc, bad_vc, asked_vc = _ratio_battery(
        "wvc", 200, 12,
        [("exact", False), ("branching", False), ("local-ratio", True)],
        betas, 10_000,
    )
    runs_hs, bad_hs, asked_hs = _ratio_battery(
        "whs", 100, 10,
        [("exact", False), ("branching", False), ("local-ratio", True)],
        betas, 20_000,
    )
    runs_fvs, bad_fvs, asked_fvs = _ratio_battery(
        "wfvs", 100, 10,
        [("exact", False), ("local-ratio", True)],
        betas, 30_000,
    )
    total_bad = bad_vc + bad_hs + bad_fvs
    asked = {"wvc": asked_vc, "whs": asked_hs, "wfvs": asked_fvs}
    # The batteries must reach the exact scan and the branching search.
    reached = all(k > 0 for counts in asked.values() for k in counts.values())
    ell_pos = "; ".join(
        f"{kind} " + " / ".join(f"{name} {k}" for name, k in counts.items())
        for kind, counts in asked.items()
    )
    _verdict(6, "end-to-end ratio soundness", total_bad == 0 and reached,
             f"{runs_vc + runs_hs + runs_fvs} runs, {total_bad} violations; "
             f"ell > 0 queries: {ell_pos}")


def test_criterion_07_oracle_contracts():
    rng = random.Random(777)
    kinds = {
        "wvc": ["exact", "branching", "local-ratio"],
        "whs": ["exact", "branching", "local-ratio"],
        "wfvs": ["exact", "local-ratio"],
    }
    bad = 0
    checked = 0
    for i in range(50):
        kind = ("wvc", "whs", "wfvs")[i % 3]
        n = rng.randint(4, 10)
        inst = problems.random_instance(kind, n, 0.35, seed=40_000 + i)
        exact = oracles.exact_extension_oracle(inst)
        pairs = [
            (rng.randrange(1 << n), rng.randrange(n + 1)) for _ in range(100)
        ]
        for name in kinds[kind]:
            handle = oracles.oracle_for(inst, name)
            for s, ell in pairs:
                x = handle.extend(s, ell)
                checked += 1
                if not problems.membership_check(inst, s | x):
                    bad += 1
                    continue
                ref = exact(s, ell)
                if ref.bit_count() <= ell:  # restricted optimum is finite
                    limit = handle.declared_alpha * problems.weight_of(inst, ref)
                    if problems.weight_of(inst, x) > limit + 1e-9:
                        bad += 1
    _verdict(7, "oracle contracts", bad == 0, f"{checked} queries, {bad} violations")


def test_criterion_08_exhaustive_membership_is_exact():
    rng = random.Random(888)
    mismatches = 0
    for i in range(50):
        kind = ("wvc", "whs", "wfvs")[i % 3]
        inst = problems.random_instance(kind, rng.randint(2, 10), 0.35, seed=50_000 + i)
        report = driver.approximate_membership(inst, 2.0, mode="exhaustive")
        mask, weight = problems.exact_opt(inst)
        if (report.output_set, report.output_weight) != (mask, weight):
            mismatches += 1
    _verdict(8, "exhaustive membership exactness", mismatches == 0,
             f"{mismatches} mismatches in 50 instances")


def test_criterion_09_cost_accounting():
    bad = []
    for seed, name, c_ref in [(91, "exact", 2.0), (92, "local-ratio", 1.0)]:
        inst = problems.random_instance("wvc", 9, 0.3, seed=seed)
        handle = oracles.oracle_for(inst, name)
        report = driver.approximate_extension(
            inst, handle, 1.5, force=(name == "local-ratio")
        )
        ledger_cost = handle.ledger.cost_log(handle.declared_c)
        if not math.isclose(ledger_cost, report.cost_log, rel_tol=1e-9):
            bad.append(f"{name}: ledger {ledger_cost} vs family {report.cost_log}")
        if handle.declared_c == 1.0 and not math.isclose(
            ledger_cost, math.log(report.family_size), rel_tol=1e-9
        ):
            bad.append(f"{name}: c=1 cost is not ln(size)")
        if len(handle.ledger.queries) != report.family_size:
            bad.append(f"{name}: query count != family size")
    _verdict(9, "ledger cost accounting", not bad, "; ".join(bad))


def test_criterion_10_determinism():
    diffs = 0
    for seed, kind, name in [(7, "wvc", "exact"), (8, "whs", "branching")]:
        inst = problems.random_instance(kind, 9, 0.3, seed=seed)
        outputs = []
        for _ in range(2):
            handle = oracles.oracle_for(inst, name)
            report = driver.approximate_extension(inst, handle, 1.5, seed=seed)
            driver.verify_run(inst, report, 1.5)
            outputs.append(report.to_json().encode())
        if outputs[0] != outputs[1]:
            diffs += 1
        json.loads(outputs[0])  # well-formed
    _verdict(10, "determinism regression", diffs == 0, f"{diffs} differing reports")

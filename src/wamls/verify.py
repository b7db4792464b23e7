"""Self-contained verification suites backing `wamls verify`.

Each suite runs a randomized battery and returns (ok, summary text).  The
batteries mirror the library's own invariants: reproduced bound values and
shape checks, exhaustive family validity, and end-to-end driver ratios
against the exhaustive optimum.
"""

from __future__ import annotations

import random

from . import bounds, driver, families, oracles, problems, weighted
from .bounds import BoundParams

__all__ = ["run_suite"]

# Published (alpha, c, beta) -> base values the bounds suite must reproduce.
_REFERENCE_BOUNDS = [
    (1.0, 1.363, 1.1, 1.158),
    (1.0, 1.363, 1.5, 1.078),
    (1.0, 1.363, 1.9, 1.054),
    (2.0, 1.0, 1.1, 1.659),
    (2.0, 1.0, 1.5, 1.208),
    (2.0, 1.0, 1.9, 1.03),
    (1.0, 3.618, 1.5, 1.25),
    (1.0, 2.168, 2.0, 1.111),
]


def _bounds_suite(trials: int, seed: int) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for a, c, b, want in _REFERENCE_BOUNDS:
        got = bounds.amls_bound(BoundParams(alpha=a, c=c, beta=b)).value
        good = abs(got - want) <= 2e-3
        ok &= good
        lines.append(
            f"  amls({a:g}, {c:g}, {b:g}) = {got:.4f} (expected {want:.3f}) "
            f"{'ok' if good else 'MISMATCH'}"
        )
    rng = random.Random(seed)
    for _ in range(trials):
        a = rng.uniform(1.0, 3.0)
        c = rng.uniform(1.0, 3.0)
        b = rng.uniform(1.05, 2.5)
        rep = bounds.shape_check(BoundParams(alpha=a, c=c, beta=b), grid_resolution=60)
        if not rep.ok:
            ok = False
            lines.append(f"  shape check FAILED at ({a:.3f}, {c:.3f}, {b:.3f})")
    lines.append(f"  {trials} random shape checks done")
    return ok, lines


def _families_suite(max_n: int, trials: int, seed: int) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    fails = 0
    for _ in range(trials):
        n = rng.randint(1, min(max_n, 9))
        # Powers of two put one element in each class and give the longest
        # window prefixes.
        if rng.random() < 0.5:
            weights = [rng.randint(1, 100) for _ in range(n)]
        else:
            weights = [2 ** rng.randint(0, 40) for _ in range(n)]
        alpha = rng.choice([1.5, 2.0, 3.0])
        rep = weighted.build_weighted_covering(weights, alpha)
        fails += not families.verify_covering(rep.family, weights)
        beta = rng.choice([1.3, 1.7, 2.0])
        a = rng.choice([1.0, min(2.0, beta)])
        c = rng.choice([1.0, 2.0])
        rep = weighted.build_weighted_extension(weights, a, c, beta)
        fails += not families.verify_extension(rep.family, weights)
    line = f"  {trials} covering + {trials} extension builds verified, {fails} failures"
    return fails == 0, [line]


def _end_to_end_suite(max_n: int, trials: int, seed: int) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    lines = []
    for i in range(trials):
        n = rng.randint(2, min(max_n, 10))
        inst = problems.random_instance("wvc", n, 0.3, seed=seed * 100003 + i)
        beta = rng.choice([1.2, 1.5, 1.9])
        handle = oracles.oracle_for(inst, rng.choice(["exact", "branching"]))
        report = driver.approximate_extension(inst, handle, beta, seed=i)
        verdict = driver.verify_run(inst, report, beta)
        if not verdict.ok:
            lines.append(f"  trial {i}: {verdict.reason}")
    fails = len(lines)
    lines.append(f"  {trials} driver runs checked against OPT, {fails} failures")
    return fails == 0, lines


# Smallest max_n each suite can draw a universe size from.
_MIN_N = {"families": 1, "end-to-end": 2}


def run_suite(
    suite: str, max_n: int = 10, trials: int = 25, seed: int = 0
) -> tuple[bool, str]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    min_n = _MIN_N.get(suite)
    if min_n is not None and max_n < min_n:
        raise ValueError(f"max_n for suite {suite} must be >= {min_n}, got {max_n}")
    if suite == "bounds":
        ok, lines = _bounds_suite(trials, seed)
    elif suite == "families":
        ok, lines = _families_suite(max_n, trials, seed)
    elif suite == "end-to-end":
        ok, lines = _end_to_end_suite(max_n, trials, seed)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    head = f"suite {suite}: {'pass' if ok else 'FAIL'}"
    return ok, "\n".join([head] + lines)

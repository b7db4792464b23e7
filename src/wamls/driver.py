"""Approximation drivers over the weighted family constructions.

The membership driver scans an alpha-covering family and keeps the cheapest
member that is a solution.  The extension driver asks the oracle every
(T, ell) entry of an (alpha, beta)-extension family in one batched call,
extend_many over the family's ts and ells columns, and keeps the cheapest
T | X.  The ledger records one query per entry, in family order, and there
is no early exit, so the recorded query cost equals the family cost exactly.

Both drivers collect their candidates into one int64 array, so they refuse
n > 63 and total weights of 2^63 or more.  problems.membership_many tests
every candidate in one pass; the exhaustive membership driver reads the
instance's one problems.membership_table instead.  The extension driver's oracle
contract check runs after the last query: when it names the first output in
family order that is not a solution, every entry has already been queried.
Both drivers then hand their solutions to one report step, which ranks them
with problems.rank_subsets (weight -> cardinality -> bitmask) and fills the
output fields of the RunReport.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import problems, weighted
from .bounds import _check_factors
from .families import DEFAULT_CAP
from .oracles import ExtensionOracleHandle
from .problems import Instance, _check_int64, membership_check, membership_many
from .problems import membership_table, rank_subsets, weight_of

__all__ = [
    "RunReport",
    "OracleMismatchError",
    "approximate_membership",
    "approximate_extension",
    "verify_run",
]


# Absolute slack of the ratio test in verify_run.
_RATIO_SLACK = Fraction(1e-9)


class OracleMismatchError(ValueError):
    """Declared oracle factor exceeds the requested target and force is off."""


@dataclass
class RunReport:
    problem: str
    n: int
    alpha: float
    c: float | None
    beta: float | None
    eps: float | None
    output_set: int
    output_weight: int
    family_size: int
    cost_log: float | None
    opt_weight: int | None = None
    achieved_ratio: float | None = None
    seed: int | None = None

    def to_json(self) -> str:
        """The fields as strict JSON: a non-finite float becomes null."""
        payload = {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(self).items()
        }
        mask = self.output_set
        payload["output_set"] = [i for i in range(mask.bit_length()) if mask >> i & 1]
        payload["ratio"] = payload.pop("achieved_ratio")
        return json.dumps(payload, sort_keys=True)


def _report(instance: Instance, solutions: np.ndarray, **run) -> RunReport:
    """RunReport of the cheapest of a non-empty int64 array of solutions."""
    ranked, weight, _ = rank_subsets(instance, solutions)
    return RunReport(
        problem=instance.kind, n=instance.n,
        output_set=int(ranked[0]), output_weight=int(weight[0]), **run,
    )


def approximate_membership(
    instance: Instance,
    alpha: float,
    mode: str = "covering",
    cap: int = DEFAULT_CAP,
    seed: int | None = None,
) -> RunReport:
    """Membership-model alpha-approximation via a weighted covering family.

    mode "covering" scans build_weighted_covering's family, whose inner
    target is chosen by its predicted cost; "exhaustive" scans all 2^n
    subsets (the exact degenerate case).
    """
    _check_factors(alpha=alpha)
    _check_int64(instance)
    if mode not in ("covering", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exhaustive":
        ok = membership_table(instance, cap)
        family_size, solutions = ok.size, np.flatnonzero(ok)
    else:
        sets = weighted.build_weighted_covering(list(instance.weights), alpha, cap=cap).family.ts
        family_size, solutions = sets.size, sets[membership_many(instance, sets)]
    # U is in every covering family and every system, so a solution exists.
    return _report(
        instance, solutions, alpha=alpha, c=None, beta=None, eps=None,
        family_size=family_size, cost_log=math.log(family_size), seed=seed,
    )


def approximate_extension(
    instance: Instance,
    oracle: ExtensionOracleHandle,
    beta: float,
    eps: float = 0.05,
    cap: int = DEFAULT_CAP,
    force: bool = False,
    seed: int | None = None,
) -> RunReport:
    """Extension-model beta-approximation (query every family entry, keep the best).

    Refuses oracles whose declared alpha exceeds beta unless `force` is set;
    the guarantee still holds then, but the configuration usually signals a
    mistake.
    """
    _check_factors(strict=True, beta=beta)
    _check_factors(0.0, strict=True, eps=eps)
    _check_int64(instance)
    alpha, c = oracle.declared_alpha, oracle.declared_c
    if alpha > beta and not force:
        raise OracleMismatchError(
            f"oracle alpha = {alpha} exceeds target beta = {beta}; pass force=True"
        )
    report = weighted.build_weighted_extension(
        list(instance.weights), alpha, c, beta, eps=eps, cap=cap
    )
    ts, ells = report.family.ts, report.family.ells
    outs = ts | oracle.extend_many(ts, ells)
    ok = membership_many(instance, outs)
    if not ok.all():
        bad = int(outs[np.argmin(ok)])
        raise RuntimeError(f"oracle contract violation: {bad:#x} is not a solution")
    return _report(  # the family is never empty
        instance, outs, alpha=alpha, c=c, beta=beta, eps=eps,
        family_size=ts.size, cost_log=report.cost_log, seed=seed,
    )


@dataclass
class RunVerdict:
    ok: bool
    reason: str | None = None
    opt_weight: int | None = None
    achieved_ratio: float | None = None


def verify_run(
    instance: Instance, report: RunReport, target_factor: float, cap: int = DEFAULT_CAP
) -> RunVerdict:
    """Recompute OPT and check membership, the weight and the ratio bound of a run.

    Membership and the reported weight are checked at any n; OPT is
    recomputed only up to `cap`.
    """
    if not membership_check(instance, report.output_set):
        return RunVerdict(ok=False, reason="not a solution")
    if weight_of(instance, report.output_set) != report.output_weight:
        return RunVerdict(ok=False, reason="weight mismatch")
    if instance.n > cap:
        return RunVerdict(ok=True, reason="opt omitted (cap exceeded)")
    _, opt = problems.exact_opt(instance, cap)
    if opt == 0:
        ratio = math.inf if report.output_weight > 0 else 1.0
    else:
        ratio = report.output_weight / opt
    report.opt_weight = opt
    report.achieved_ratio = ratio
    # Exact rationals: a float product loses the low bits of weights above 2^53.
    if report.output_weight > Fraction(target_factor) * opt + _RATIO_SLACK:
        return RunVerdict(
            ok=False, reason="ratio exceeded", opt_weight=opt, achieved_ratio=ratio
        )
    return RunVerdict(ok=True, opt_weight=opt, achieved_ratio=ratio)

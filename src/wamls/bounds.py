"""Running-time bounds for approximate search over monotone set systems.

Two bases are computed here.  ``brute_bound(alpha)`` is the closed form
``1 + exp(-alpha * H(1/alpha))`` governing an alpha-approximate exhaustive
scan in the membership model.  ``amls_bound`` evaluates the max-min base of
approximate monotone local search: the exponential of

    max over kappa in [0, 1/beta] of
        min over tau in [M(kappa), beta*kappa] of  g(kappa, tau)

where g is an entropy expression parameterized by (alpha, beta, c).  The inner
objective is convex in tau and the inner minimum is concave in kappa, so both
levels are solved by golden-section search.

Everything in g that depends on kappa alone is computed once per kappa by one
kernel, ``_g_at``, which ``g_value``, ``g_star`` and ``shape_check`` all go
through; its results are bit-identical to evaluating the formula anew at every
(kappa, tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundParams",
    "SaddlePoint",
    "ShapeReport",
    "BoundDomainError",
    "entropy",
    "brute_bound",
    "m_lower",
    "g_value",
    "g_star",
    "amls_bound",
    "bound_table",
    "shape_check",
]

# Slack for clamping entropy arguments that drift out of [0, 1] by rounding.
_CLAMP_TOL = 1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class BoundDomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain."""


@dataclass(frozen=True)
class BoundParams:
    """The triple (alpha, c, beta) plus the absolute precision target."""

    alpha: float
    c: float
    beta: float
    precision: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("alpha", "c", "beta", "precision"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise BoundDomainError(f"{name} must be finite, got {v!r}")
        if self.alpha < 1 or self.c < 1 or self.beta < 1:
            raise BoundDomainError(
                f"alpha, c, beta must all be >= 1 "
                f"(got {self.alpha}, {self.c}, {self.beta})"
            )
        if self.precision <= 0:
            raise BoundDomainError(f"precision must be > 0, got {self.precision}")


@dataclass(frozen=True)
class SaddlePoint:
    """Evaluated max-min base with its optimizers and an error certificate."""

    value: float
    kappa_star: float
    tau_star: float
    err_bound: float


def entropy(x: float) -> float:
    """Natural-log entropy -x ln x - (1-x) ln(1-x), with 0 ln 0 = 0."""
    if x < -_CLAMP_TOL or x > 1 + _CLAMP_TOL:
        raise BoundDomainError(f"entropy argument must be in [0, 1], got {x}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def brute_bound(alpha: float) -> float:
    """Base of the alpha-approximate exhaustive search: 1 + e^(-alpha H(1/alpha))."""
    if alpha < 1:
        raise BoundDomainError(f"alpha must be >= 1, got {alpha}")
    return 1.0 + math.exp(-alpha * entropy(1.0 / alpha))


def m_lower(alpha: float, beta: float, kappa: float) -> float:
    """Lower end of the feasible tau interval at a given kappa.

    Piecewise: (beta-alpha)*kappa/(1-alpha*kappa) if alpha < beta, 0 if
    alpha == beta, and (alpha-beta)*kappa/(alpha-1) if alpha > beta.
    """
    if alpha < 1 or beta < 1:
        raise BoundDomainError("alpha and beta must be >= 1")
    if kappa < -_CLAMP_TOL or kappa > 1.0 / beta + _CLAMP_TOL:
        raise BoundDomainError(f"kappa must be in [0, 1/beta], got {kappa}")
    kappa = min(max(kappa, 0.0), 1.0 / beta)
    if alpha == beta:
        return 0.0
    if alpha < beta:
        denom = 1.0 - alpha * kappa
        if denom <= 0.0:
            # kappa <= 1/beta < 1/alpha rules this out; a hit means bad input.
            raise BoundDomainError(
                f"singular m_lower: alpha*kappa = {alpha * kappa} >= 1"
            )
        return (beta - alpha) * kappa / denom
    return (alpha - beta) * kappa / (alpha - 1.0)


def _g_at(alpha: float, beta: float, c: float, kappa: float):
    """The inner objective g(tau) at a fixed kappa, returned as (M(kappa), g).

    Everything that depends on kappa alone (kappa's domain check, M(kappa),
    beta*kappa, H(kappa), ln c, 1 - beta/alpha and 1/alpha) is computed once
    here; g repeats the per-call float operations of the formula in the same
    order, so its results are bit-identical to evaluating everything anew.
    """
    lo = m_lower(alpha, beta, kappa)
    hi = beta * kappa
    h_kappa = entropy(kappa)
    ln_c = math.log(c)
    ratio = 1.0 - beta / alpha
    inv_alpha = 1.0 / alpha
    lo_slack, hi_slack = lo - _CLAMP_TOL, hi + _CLAMP_TOL
    unit_lo, unit_hi = -_CLAMP_TOL, 1.0 + _CLAMP_TOL
    tau_one, tau_zero = 1.0 - _CLAMP_TOL, _CLAMP_TOL
    log = math.log

    def g(tau: float) -> float:
        if tau < lo_slack or tau > hi_slack:
            raise BoundDomainError(
                f"tau = {tau} infeasible for kappa = {kappa} (interval [{lo}, {hi}])"
            )
        # min(max(tau, lo), hi), spelled out: the same float, NaN included.
        if lo > tau:
            tau = lo
        if hi < tau:
            tau = hi

        # tau <= beta*kappa holds exactly in floats after the clamp above, so
        # the numerator below is nonnegative; computing it as
        # (beta*kappa - tau) keeps it consistent with that clamp (splitting
        # the division across terms can flip the sign of a ~1e-17 remainder
        # and blow up near tau=1).
        if tau >= tau_one:
            delta = inv_alpha  # only reachable with beta*kappa = 1
        else:
            delta = (hi - tau) / alpha / (1.0 - tau)
        if tau <= tau_zero:
            gamma = inv_alpha
        else:
            gamma = ratio * (kappa / tau) + inv_alpha
        if delta < unit_lo or delta > unit_hi:
            raise BoundDomainError(f"delta = {delta} outside [0, 1] beyond tolerance")
        if gamma < unit_lo or gamma > unit_hi:
            raise BoundDomainError(f"gamma = {gamma} outside [0, 1] beyond tolerance")

        # entropy() inlined.  Clamping delta and gamma into [0, 1] first
        # would only turn values outside (0, 1) into 0 or 1, whose entropy
        # is 0 as well, so the clamp is left out.
        if gamma <= 0.0 or gamma >= 1.0:
            h_gamma = 0.0
        else:
            h_gamma = -gamma * log(gamma) - (1.0 - gamma) * log(1.0 - gamma)
        if delta <= 0.0 or delta >= 1.0:
            h_delta = 0.0
        else:
            h_delta = -delta * log(delta) - (1.0 - delta) * log(1.0 - delta)
        return ((hi - tau) / alpha) * ln_c - tau * h_gamma - (1.0 - tau) * h_delta + h_kappa

    return lo, g


def g_value(alpha: float, beta: float, c: float, kappa: float, tau: float) -> float:
    """Inner objective ((beta*kappa - tau)/alpha) ln c - tau H(gamma) - (1-tau) H(delta) + H(kappa).

    delta and gamma take their stated special-case value 1/alpha at tau = 1
    and tau = 0 respectively; elsewhere the rational formulas apply.
    """
    return _g_at(alpha, beta, c, kappa)[1](tau)


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float, float]:
    """Minimize a convex f on [lo, hi]; returns (min value, argmin, value spread).

    The spread is the largest difference between evaluations inside the final
    bracket, an honest certificate of the remaining value uncertainty.
    """
    if hi - lo <= tol:
        x = 0.5 * (lo + hi)
        return f(x), x, 0.0
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    fx = f(x)
    best = min(f1, f2, fx)
    return best, x if fx == best else (x1 if f1 == best else x2), abs(max(f1, f2, fx) - best)


def g_star(
    alpha: float, beta: float, c: float, kappa: float, precision: float = 1e-9
) -> tuple[float, float]:
    """Minimum of g over the feasible tau interval at kappa, with minimizer.

    Golden-section search, justified by convexity of g in tau.
    """
    lo, g = _g_at(alpha, beta, c, kappa)
    hi = beta * kappa
    if hi < lo - _CLAMP_TOL:
        raise RuntimeError(
            f"feasible tau interval collapsed: [{lo}, {hi}] at kappa = {kappa}"
        )
    hi = max(hi, lo)
    tol = max(1e-13, min(precision * 1e-2, 1e-6))
    value, tau, _ = _golden_min(g, lo, hi, tol)
    return value, tau


def amls_bound(params: BoundParams) -> SaddlePoint:
    """Evaluate exp(max_kappa min_tau g) by nested golden-section search.

    The outer level maximizes the concave inner minimum over kappa in
    [0, 1/beta]; the tolerance budget is split equally between levels.  Each
    outer probe builds the per-kappa kernel once for its inner search, and the
    probes are kept, so the minimizer tau at kappa* is read back rather than
    searched for again.  Results are bit-identical to the per-call form.
    """
    a, b, c = params.alpha, params.beta, params.c
    half = params.precision / 2.0
    tol = max(1e-13, min(half * 1e-2, 1e-6))

    probes: dict[float, tuple[float, float]] = {}

    def neg_inner(k: float) -> float:
        probes[k] = g_star(a, b, c, k, half)
        return -probes[k][0]

    neg_val, kappa, spread = _golden_min(neg_inner, 0.0, 1.0 / b, tol)
    g_best, tau = probes[kappa]  # _golden_min returns an evaluated point
    g_best = max(g_best, -neg_val, 0.0)  # kappa = 0 is always feasible with g = 0
    value = math.exp(g_best)
    err = value * (spread + tol) + 1e-12
    return SaddlePoint(value=value, kappa_star=kappa, tau_star=tau, err_bound=err)


def bound_table(rows: list[BoundParams], fmt: str = "csv") -> str:
    """Render (alpha, c, beta, brute, amls, kappa*, tau*, err) rows as CSV or JSON lines."""
    if not rows:
        raise BoundDomainError("bound_table requires at least one row")
    if fmt not in ("csv", "jsonl"):
        raise BoundDomainError(f"unknown table format {fmt!r}")
    out = []
    if fmt == "csv":
        out.append("alpha,c,beta,brute,amls,kappa_star,tau_star,err_bound")
    for p in rows:
        sp = amls_bound(p)
        br = brute_bound(p.beta)
        vals = (p.alpha, p.c, p.beta, br, sp.value, sp.kappa_star, sp.tau_star, sp.err_bound)
        if fmt == "csv":
            out.append(",".join(f"{v:.6g}" for v in vals))
        else:
            names = ("alpha", "c", "beta", "brute", "amls", "kappa_star", "tau_star", "err_bound")
            out.append(
                "{" + ", ".join(f'"{n}": {v:.6g}' for n, v in zip(names, vals)) + "}"
            )
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ShapeReport:
    ok: bool
    max_convexity_violation: float
    max_concavity_violation: float


def shape_check(params: BoundParams, grid_resolution: int = 200) -> ShapeReport:
    """Numerically confirm convexity of g in tau and concavity of g* in kappa.

    Second differences of g along tau grids (at several interior kappa values)
    must be >= -1e-7, and second differences of g* along a kappa grid must be
    <= 1e-7.
    """
    if grid_resolution < 10:
        raise BoundDomainError(f"grid_resolution must be >= 10, got {grid_resolution}")
    a, b, c = params.alpha, params.beta, params.c
    m = grid_resolution

    worst_convex = 0.0  # most negative second difference of g in tau, negated
    for frac in (0.25, 0.5, 0.75, 1.0):
        k = frac / b
        lo, g = _g_at(a, b, c, k)
        hi = b * k
        if hi - lo <= 0:
            continue
        gs = [g(lo + (hi - lo) * i / m) for i in range(m + 1)]
        for i in range(1, m):
            d2 = gs[i - 1] - 2.0 * gs[i] + gs[i + 1]
            worst_convex = max(worst_convex, -d2)

    ks = [(1.0 / b) * i / m for i in range(m + 1)]
    gstars = [g_star(a, b, c, k, params.precision)[0] for k in ks]
    worst_concave = 0.0
    for i in range(1, m):
        d2 = gstars[i - 1] - 2.0 * gstars[i] + gstars[i + 1]
        worst_concave = max(worst_concave, d2)

    ok = worst_convex <= 1e-7 and worst_concave <= 1e-7
    return ShapeReport(
        ok=ok,
        max_convexity_violation=worst_convex,
        max_concavity_violation=worst_concave,
    )

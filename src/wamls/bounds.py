"""Running-time bounds for approximate search over monotone set systems.

Two bases are computed here.  ``brute_bound(alpha)`` is the closed form
``1 + exp(-alpha * H(1/alpha))`` governing an alpha-approximate exhaustive
scan in the membership model.  ``amls_bound`` evaluates the max-min base of
approximate monotone local search: the exponential of

    max over kappa in [0, 1/beta] of
        min over tau in [M(kappa), beta*kappa] of  g(kappa, tau)

where g is an entropy expression parameterized by (alpha, beta, c).  The inner
objective is convex in tau and the inner minimum is concave in kappa, so both
levels are solved by one golden-section search, ``_golden``.  It returns its
final bracket and three points in it: the two probes and the midpoint, or the
ends and the midpoint when the interval starts no wider than the tolerance.
``g_star`` and ``amls_bound`` read the least of those points.

Everything in g that depends on kappa alone, the feasible tau interval
included, is computed once per kappa by one kernel, ``_g_at``, which
``g_value``, ``g_star`` and ``shape_check`` all go through; its results are
bit-identical to evaluating the formula anew at every (kappa, tau).

Callers that only need a decision stop the same search early, at a tol that
defaults to ``_COARSE_TOL``, and use a certificate instead: ``_coarse_amls``
bounds the base from both sides by secants of the convex (in tau) and concave
(in kappa) levels, and each inner search's final bracket holds ``g_star``'s
minimizer, because the search at a smaller tolerance repeats the same steps
and keeps going.  Neither argument depends on tol, so a decision the
certificate settles at any tol is the one the full-precision values give;
the weighted inner-target selection tries 1e-2, then 1e-4.
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

# Tolerance of the coarse saddle-point search, on both levels.
_COARSE_TOL = 1e-4


class BoundDomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain."""


def _check_factors(low: float = 1.0, strict: bool = False, **factors: float) -> None:
    """BoundDomainError naming the first factor that is not finite or is below
    `low` (or at it, when `strict`)."""
    for name, x in factors.items():
        if not (math.isfinite(x) and (x > low if strict else x >= low)):
            op = ">" if strict else ">="
            raise BoundDomainError(f"{name} must be finite and {op} {low:g}, got {x!r}")


@dataclass(frozen=True)
class BoundParams:
    """The triple (alpha, c, beta) plus the absolute precision target."""

    alpha: float
    c: float
    beta: float
    precision: float = 1e-6

    def __post_init__(self) -> None:
        _check_factors(alpha=self.alpha, c=self.c, beta=self.beta)
        _check_factors(0.0, strict=True, precision=self.precision)


@dataclass(frozen=True)
class SaddlePoint:
    """Evaluated max-min base with its optimizers and an error certificate."""

    value: float
    kappa_star: float
    tau_star: float
    err_bound: float


def entropy(x: float) -> float:
    """Natural-log entropy -x ln x - (1-x) ln(1-x), with 0 ln 0 = 0."""
    if not -_CLAMP_TOL <= x <= 1 + _CLAMP_TOL:
        raise BoundDomainError(f"entropy argument must be in [0, 1], got {x}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def brute_bound(alpha: float) -> float:
    """Base of the alpha-approximate exhaustive search: 1 + e^(-alpha H(1/alpha))."""
    _check_factors(alpha=alpha)
    return 1.0 + math.exp(-alpha * entropy(1.0 / alpha))


def m_lower(alpha: float, beta: float, kappa: float) -> float:
    """Lower end of the feasible tau interval at a given kappa.

    Piecewise: (beta-alpha)*kappa/(1-alpha*kappa) if alpha < beta, 0 if
    alpha == beta, and (alpha-beta)*kappa/(alpha-1) if alpha > beta.
    """
    if not (1.0 <= alpha < math.inf and 1.0 <= beta < math.inf):
        raise BoundDomainError("alpha and beta must be >= 1")
    if not -_CLAMP_TOL <= kappa <= 1.0 / beta + _CLAMP_TOL:
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
    """The inner objective g(tau) at a fixed kappa and its feasible tau
    interval, returned as (g, M(kappa), max(beta*kappa, M(kappa))).

    Everything that depends on kappa alone (the domain checks, M(kappa),
    beta*kappa, H(kappa), ln c, 1 - beta/alpha and 1/alpha) is computed once
    here; g repeats the per-call float operations of the formula in the same
    order, so its results are bit-identical to evaluating everything anew.
    """
    lo = m_lower(alpha, beta, kappa)
    if not 1.0 <= c < math.inf:
        _check_factors(c=c)  # raises, naming c
    hi = beta * kappa
    if hi < lo - _CLAMP_TOL:
        raise RuntimeError(
            f"feasible tau interval collapsed: [{lo}, {hi}] at kappa = {kappa}"
        )
    h_kappa = entropy(kappa)
    ln_c = math.log(c)
    ratio = 1.0 - beta / alpha
    inv_alpha = 1.0 / alpha
    lo_slack, hi_slack = lo - _CLAMP_TOL, hi + _CLAMP_TOL
    unit_lo, unit_hi = -_CLAMP_TOL, 1.0 + _CLAMP_TOL
    tau_one, tau_zero = 1.0 - _CLAMP_TOL, _CLAMP_TOL
    log = math.log

    def g(tau: float) -> float:
        if not lo_slack <= tau <= hi_slack:
            raise BoundDomainError(
                f"tau = {tau} infeasible for kappa = {kappa} (interval [{lo}, {hi}])"
            )
        # min(max(tau, lo), hi), spelled out: the same float.
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

    return g, lo, max(hi, lo)


def g_value(alpha: float, beta: float, c: float, kappa: float, tau: float) -> float:
    """Inner objective ((beta*kappa - tau)/alpha) ln c - tau H(gamma) - (1-tau) H(delta) + H(kappa).

    delta and gamma take their stated special-case value 1/alpha at tau = 1
    and tau = 0 respectively; elsewhere the rational formulas apply.
    """
    return _g_at(alpha, beta, c, kappa)[0](tau)


def _tol(precision: float) -> float:
    """Golden-section tolerance of a search asked for `precision` in value."""
    if not 0 < precision < math.inf:  # NaN fails both comparisons
        raise BoundDomainError(f"precision must be finite and > 0, got {precision!r}")
    return max(1e-13, min(precision * 1e-2, 1e-6))


def _golden(f, lo: float, hi: float, tol: float):
    """Golden-section search for the minimum of a convex f on [lo, hi].

    Returns the final bracket, at most tol wide, and three points (x, f(x))
    in it, in increasing x: the bracket's two probes and its midpoint, or the
    ends and the midpoint when [lo, hi] starts no wider than tol.  The steps
    do not depend on tol, so a smaller tol repeats them and keeps going: its
    brackets nest inside this one, and its argmin lies in it.
    """
    if hi - lo <= tol:
        p1, p2 = (lo, f(lo)), (hi, f(hi))
    else:
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
        p1, p2 = (x1, f1), (x2, f2)
    mid = 0.5 * (lo + hi)
    return lo, hi, (p1, (mid, f(mid)), p2)


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float, float]:
    """Minimize a convex f on [lo, hi]; returns (min value, argmin, value spread).

    The least of ``_golden``'s points, ties going to the midpoint, then the
    left probe; an interval that starts no wider than tol is read at its
    midpoint alone.  The spread is the largest difference between the
    points' values, an honest certificate of the remaining value uncertainty.
    """
    if hi - lo <= tol:
        x = 0.5 * (lo + hi)
        return f(x), x, 0.0
    _, _, ((x1, f1), (x, fx), (x2, f2)) = _golden(f, lo, hi, tol)
    best = min(f1, f2, fx)
    return best, x if fx == best else (x1 if f1 == best else x2), abs(max(f1, f2, fx) - best)


def g_star(
    alpha: float, beta: float, c: float, kappa: float, precision: float = 1e-9
) -> tuple[float, float]:
    """Minimum of g over the feasible tau interval at kappa, with minimizer.

    Golden-section search, justified by convexity of g in tau.
    """
    g, lo, hi = _g_at(alpha, beta, c, kappa)
    value, tau, _ = _golden_min(g, lo, hi, _tol(precision))
    return value, tau


def _convex_floor(lo: float, hi: float, pts, errs=(0.0, 0.0, 0.0)) -> float:
    """Lower bound on the minimum over [lo, hi] of a convex f known at three points.

    pts are (a, va), (m, vm), (b, vb) with lo <= a < m < b <= hi, and each
    f(x) lies in [v, v + err] for its entry of errs.  On each of the four
    gaps, f lies above the secant through the two points on one side,
    extended across the gap; the errors make each secant as steep as they
    allow.  -inf when the points coincide.
    """
    (a, fa), (m, fm), (b, fb) = pts
    ea, em, eb = errs
    if lo == hi:
        return fm
    if not a < m < b:
        return -math.inf
    left, right = m - a, b - m
    return min(
        fa - (a - lo) * max(0.0, fm + em - fa) / left,
        fm - left * max(0.0, fb + eb - fm) / right,
        fm - right * max(0.0, fa + ea - fm) / left,
        fb - (hi - b) * max(0.0, fm + em - fb) / right,
    )


def _coarse_amls(
    alpha: float, c: float, beta: float, tol: float = _COARSE_TOL
) -> tuple[float, float]:
    """amls(alpha, c, beta) from a search to tol on both levels: (value, err).

    The exact base lies within err of value when g is convex in tau and its
    minimum G concave in kappa, by secant bounds:

    - A golden step on a convex f discards a region beyond the secant
      through its two probes, at most phi times their distance away, so f
      there stays above the kept probe's value less phi times its error.
      Within the final bracket, ``_convex_floor`` bounds the minimum.
    - At each outer probe the inner search's least value is an upper bound
      on G and the floor of its bracket a lower bound (inner values are
      exact, so no discarded region goes below the kept probe).
    - The outer search runs on -G, known within those bounds, so G stays
      below the best probe plus 2 e (e the widest bound gap) wherever a
      step discarded, and below the secants of the final bracket within it.
    - kappa = 0 gives g = 0, a lower bound on the maximum.
    """
    probes: dict[float, tuple[float, float]] = {}  # kappa -> (upper, lower) on G

    def neg_inner(kappa: float) -> float:
        lo, hi, pts = _golden(*_g_at(alpha, beta, c, kappa), tol)
        upper = min(v for _, v in pts)
        probes[kappa] = (upper, _convex_floor(lo, hi, pts))
        return -upper

    lo, hi, pts = _golden(neg_inner, 0.0, 1.0 / beta, tol)
    best = -min(v for _, v in pts)
    errs = [probes[k][0] - probes[k][1] for k, _ in pts]
    discarded = best + 2.0 * max(u - l for u, l in probes.values())
    top = max(-_convex_floor(lo, hi, pts, errs), discarded, 0.0)
    bottom = max(0.0, *(l for _, l in probes.values()))
    value = math.exp(max(best, 0.0))
    above = math.exp(top) - value if top < 709.0 else math.inf  # exp overflows past 709.78
    return value, max(above, value - math.exp(bottom))


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
    tol = _tol(half)

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
    names = ("alpha", "c", "beta", "brute", "amls", "kappa_star", "tau_star", "err_bound")
    out = [",".join(names)] if fmt == "csv" else []
    for p in rows:
        sp = amls_bound(p)
        br = brute_bound(p.beta)
        vals = (p.alpha, p.c, p.beta, br, sp.value, sp.kappa_star, sp.tau_star, sp.err_bound)
        if fmt == "csv":
            out.append(",".join(f"{v:.6g}" for v in vals))
        else:
            out.append("{" + ", ".join(f'"{n}": {v:.6g}' for n, v in zip(names, vals)) + "}")
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
        g, lo, hi = _g_at(a, b, c, k)
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

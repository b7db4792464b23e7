"""The benchmark's three workloads: weighted-mix, unit-fresh and bound-table.

A workload makes all of its inputs from the seed (`setup` builds the
instance pool and runs the warm-up; `ops` yields op specs), runs one op as
the timed unit (`run`), condenses its outputs right after it (`summarize`,
untimed) and checks them once the timed loop is over (`check`).  The checks
use the library's own certificates and, independently, a brute-force
reference written here.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field

from wamls import bounds, driver, oracles, problems
from wamls.bounds import BoundParams

DENSITY = 0.3
POOL_PER_CELL = 32
# Instances drawn per pool slot: the pool keeps one from each run of
# OVERSAMPLE consecutive draws ordered by constraint count.
OVERSAMPLE = 4
EXTENSION_ORACLES = {
    "wvc": ("exact", "branching", "local-ratio"),
    "whs": ("exact", "branching", "local-ratio"),
    "wfvs": ("exact", "local-ratio"),
}
LN2 = math.log(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Steps 1/g, 1/g^2, 1/g^3 with g^4 = g + 1: the 3-d analogue of GOLDEN.
_G3 = 1.2207440846057596
R3_STEPS = (1 / _G3, 1 / _G3**2, 1 / _G3**3)


class Reference:
    """Brute-force membership, weight and optimum of one instance.

    Written apart from the library so that a broken verifier there cannot
    hide a wrong answer.
    """

    def __init__(self, inst) -> None:
        self.n = inst.n
        self.weights = inst.weights
        if inst.kind == "wfvs":
            self.edges = inst.edges
            self.hit_masks = None
        else:
            groups = inst.sets if inst.kind == "whs" else inst.edges
            self.hit_masks = [sum(1 << e for e in g) for g in groups]
        self._opt: int | None = None

    def weight(self, s: int) -> int:
        return sum(w for i, w in enumerate(self.weights) if s >> i & 1)

    def is_solution(self, s: int) -> bool:
        if s >> self.n:
            return False
        if self.hit_masks is not None:
            return all(s & m for m in self.hit_masks)
        parent = list(range(self.n))  # forest check on the vertices outside s

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in self.edges:
            if s >> u & 1 or s >> v & 1:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    @property
    def opt(self) -> int:
        if self._opt is None:
            w = [0] * (1 << self.n)
            for m in range(1, 1 << self.n):
                low = m & -m
                w[m] = w[m ^ low] + self.weights[low.bit_length() - 1]
            self._opt = next(
                w[m] for m in sorted(range(1 << self.n), key=w.__getitem__)
                if self.is_solution(m)
            )
        return self._opt


def _constraint_count(inst) -> int:
    return len(inst.sets if inst.kind == "whs" else inst.edges)


def _instance_key(inst) -> tuple:
    groups = inst.sets if inst.kind == "whs" else inst.edges
    return (inst.kind, inst.n, tuple(inst.weights), tuple(groups))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


@dataclass
class SolveState:
    seed: int
    pool: dict  # (kind, n) -> list of instances
    refs: dict = field(default_factory=dict)
    warmup_errors: list = field(default_factory=list)

    def instance(self, kind: str, n: int, j: int):
        return self.pool[kind, n][j]

    def reference(self, kind: str, n: int, j: int) -> Reference:
        key = (kind, n, j)
        if key not in self.refs:
            self.refs[key] = Reference(self.instance(kind, n, j))
        return self.refs[key]


class SolveWorkload:
    """Closed-loop solves: an op is what `wamls solve` does for one instance.

    An extension op is `oracle_for` + `approximate_extension` + `verify_run`;
    a membership op is `approximate_membership` + `verify_run`.  Op specs
    come in shuffled blocks with one op per cell.  One property of each cell
    (n, or the target factor) follows a golden-ratio sequence from a seeded
    offset, so any run of consecutive blocks covers its range evenly and
    every seed runs nearly the same mix.

    Op time grows with the instance's constraint count (edges, or sets for
    whs), so the pool is stratified on it: each pool is sorted by that count
    and drawn evenly from OVERSAMPLE times as many instances, and each cell's
    visits to a pool follow a golden-ratio sequence over that order too.
    """

    name: str
    weight_range: tuple[int, int]
    n_values: tuple[int, ...]

    def cells(self) -> list[tuple]:
        raise NotImplementedError

    def make_spec(self, cell, x: float) -> tuple:
        """Spec (model, kind, oracle, factor, n) at position x in [0, 1).

        A full op spec appends the pool index j of the instance."""
        raise NotImplementedError

    def cell_of(self, spec) -> tuple:
        raise NotImplementedError

    def warmup_specs(self) -> list[tuple]:
        """One op per cell on the pool's median instance, so that set-up does
        nearly the same work for every seed."""
        raise NotImplementedError

    def setup(self, seed: int) -> SolveState:
        rng = random.Random(f"{self.name}:{seed}:pool")
        pool = {}
        for kind in EXTENSION_ORACLES:
            for n in self.n_values:
                drawn = sorted(
                    (
                        problems.random_instance(
                            kind, n, DENSITY, weight_range=self.weight_range,
                            seed=rng.getrandbits(32),
                        )
                        for _ in range(POOL_PER_CELL * OVERSAMPLE)
                    ),
                    key=_constraint_count,
                )
                pool[kind, n] = drawn[rng.randrange(OVERSAMPLE)::OVERSAMPLE]
        state = SolveState(seed=seed, pool=pool)
        for spec in self.warmup_specs():
            try:
                self.run(state, spec, None)
            except Exception as exc:  # reported by global_check, like a failed op
                state.warmup_errors.append(f"warm-up {spec}: {exc!r}")
        return state

    def ops(self, state: SolveState):
        rng = random.Random(f"{self.name}:{state.seed}:ops")
        cells = self.cells()
        offset = {c: (rng.random(), rng.random()) for c in cells}
        visits: dict[tuple, int] = {}
        block = 0
        while True:
            specs = []
            for c, (x, u) in offset.items():
                spec = self.make_spec(c, (x + block * GOLDEN) % 1.0)
                k = visits[c, spec[4]] = visits.get((c, spec[4]), -1) + 1
                specs.append((*spec, int((u + k * GOLDEN) % 1.0 * POOL_PER_CELL)))
            rng.shuffle(specs)
            yield from specs
            block += 1

    def digest(self, state: SolveState, specs) -> str:
        pool = [_instance_key(i) for key in sorted(state.pool) for i in state.pool[key]]
        return _digest(pool + list(specs))

    def run(self, state: SolveState, spec, tracer):
        model, kind, oracle, factor, n, j = spec
        inst = state.instance(kind, n, j)
        if model == "extension":
            handle = oracles.oracle_for(inst, oracle)
            if tracer is not None:
                handle.extend = tracer.wrap(handle.extend, f"oracles.{oracle}.query")
            report = driver.approximate_extension(
                inst, handle, factor, force=oracle == "local-ratio"
            )
        else:
            handle = None
            report = driver.approximate_membership(inst, factor)
        return handle, report, driver.verify_run(inst, report, factor)

    def summarize(self, state: SolveState, spec, out) -> dict:
        handle, report, verdict = out
        rec = {
            "spec": spec,
            "family_size": report.family_size,
            "cost_log": report.cost_log,
            "c": report.c,
            "alpha": report.alpha,
            "output_set": report.output_set,
            "output_weight": report.output_weight,
            "verdict_ok": verdict.ok,
            "reason": verdict.reason,
            "ratio": verdict.achieved_ratio,
        }
        if handle is not None:
            ledger = handle.ledger
            rec["queries"] = len(ledger.queries)
            rec["ell_pos"] = sum(1 for _, ell in ledger.queries if ell > 0)
            rec["ledger_cost"] = ledger.cost_log(report.c)
            rec["query_s"] = ledger.wall_time
        return rec

    def check(self, state: SolveState, rec: dict) -> str | None:
        """None when the op's outputs are right, else the first problem found."""
        model, kind, oracle, factor, n, j = rec["spec"]
        if not rec["verdict_ok"]:
            return f"verify_run: {rec['reason']}"
        if model == "extension":
            if rec["queries"] != rec["family_size"]:
                return f"{rec['queries']} queries for {rec['family_size']} entries"
            if not math.isclose(rec["ledger_cost"], rec["cost_log"], rel_tol=1e-9, abs_tol=1e-9):
                return f"ledger cost {rec['ledger_cost']} != report cost {rec['cost_log']}"
        ref = state.reference(kind, n, j)
        out = rec["output_set"]
        if not ref.is_solution(out):
            return f"output {out:#x} is not a solution"
        if ref.weight(out) != rec["output_weight"]:
            return f"reported weight {rec['output_weight']} != {ref.weight(out)}"
        if rec["output_weight"] > factor * ref.opt + 1e-9:
            return f"weight {rec['output_weight']} > {factor} * OPT {ref.opt}"
        return None

    def global_check(self, state: SolveState) -> list[str]:
        return list(state.warmup_errors)

    def quality(self, recs: list[dict]) -> dict:
        """Family-cost and workload-shape figures, computed untimed."""
        amls: dict[tuple, bounds.SaddlePoint] = {}
        ext = [r for r in recs if r["spec"][0] == "extension"]
        cost_ratio, vs_theory, errs = [], [], []
        for r in ext:
            n, beta = r["spec"][4], r["spec"][3]
            key = (r["alpha"], r["c"], beta)
            if key not in amls:
                amls[key] = bounds.amls_bound(BoundParams(alpha=key[0], c=key[1], beta=beta))
            sp = amls[key]
            errs.append(sp.err_bound)
            cost_ratio.append(r["cost_log"] / (n * LN2))
            if math.log(sp.value) > 1e-9:
                vs_theory.append(r["cost_log"] / (n * math.log(sp.value)))
        queries = sum(r["queries"] for r in ext)
        per_oracle = {}
        for name in ("exact", "branching", "local-ratio"):
            mine = [r for r in ext if r["spec"][2] == name]
            q = sum(r["queries"] for r in mine)
            per_oracle[name] = 1e6 * sum(r["query_s"] for r in mine) / q if q else 0.0
        ratios = [r["ratio"] for r in recs if r["ratio"] is not None and math.isfinite(r["ratio"])]
        per_op = 1 / max(len(recs), 1)
        return {
            "cost_ratio_mean": _mean(cost_ratio),
            "bound_err_max": max(errs, default=0.0),
            "weighted.cost_vs_theory_mean": _mean(vs_theory),
            "weighted.entries_mean": _mean([r["family_size"] for r in recs]),
            "weighted.fallback_share": _mean(
                [r["family_size"] >= 1 << r["spec"][4] for r in recs]
            ),
            "oracles.queries": queries * per_op,
            "oracles.query_s": sum(r["query_s"] for r in ext) * per_op,
            "oracles.ell_pos_share": sum(r["ell_pos"] for r in ext) / queries if queries else 0.0,
            **{f"oracles.{k}.query_us": v for k, v in per_oracle.items()},
            "driver.approx_ratio_mean": _mean(ratios),
        }


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


class WeightedMix(SolveWorkload):
    """Criterion-6 traffic: weights 1..100, n in 6..12, fixed beta and alpha grids.

    Families fall back to (nearly) the power set and the per-process family
    caches hit, so oracle queries, membership checks and driver bookkeeping
    carry the time.  The warm-up fills those caches, as a long-running
    process would have them.
    """

    name = "weighted-mix"
    weight_range = (1, 100)
    n_values = tuple(range(6, 13))  # n follows the sequence
    betas = (1.2, 1.5, 1.9)
    alphas = (1.5, 2.0, 3.0)

    def cells(self):
        ext = [
            ("extension", kind, oracle, beta)
            for kind, names in EXTENSION_ORACLES.items()
            for oracle in names
            for beta in self.betas
        ]
        memb = [("membership", kind, None, a) for kind in EXTENSION_ORACLES for a in self.alphas]
        return ext + memb

    def make_spec(self, cell, x):
        model, kind, oracle, factor = cell
        return (model, kind, oracle, factor, self.n_values[int(x * len(self.n_values))])

    def cell_of(self, spec):
        return spec[:4]

    def warmup_specs(self):
        return [(*self.make_spec(c, 0.0), POOL_PER_CELL // 2) for c in self.cells()]


class UnitFresh(SolveWorkload):
    """Unit weights, n in 9..10, a fresh continuous target factor per op.

    No op can reuse another op's unweighted family, so every op pays the
    greedy construction, as each fresh `wamls solve` process does; the
    families are far below the power set and most queries have ell > 0.
    """

    name = "unit-fresh"
    weight_range = (1, 1)
    n_values = (9, 10)  # the target factor follows the sequence
    beta_range = (1.2, 1.9)
    alpha_range = (1.5, 3.0)

    def cells(self):
        out = []
        for n in self.n_values:
            for kind in EXTENSION_ORACLES:
                for oracle in ("exact", "branching"):
                    if oracle in EXTENSION_ORACLES[kind]:
                        out.append(("extension", kind, oracle, n))
                out.append(("membership", kind, None, n))
        return out

    def make_spec(self, cell, x):
        model, kind, oracle, n = cell
        lo, hi = self.beta_range if model == "extension" else self.alpha_range
        return (model, kind, oracle, lo + (hi - lo) * x, n)

    def cell_of(self, spec):
        return (*spec[:3], spec[4])

    def warmup_specs(self):
        return [
            (*self.make_spec(c, 0.5), POOL_PER_CELL // 2)
            for c in self.cells()
            if c[3] == self.n_values[0]
        ]


# Published bound tables: (alpha, c, betas, amls values); brute values share
# the fine beta grid.  Reproduced once per bound-table run, untimed.
_FINE = [round(1.1 + 0.1 * i, 1) for i in range(9)]
_WIDE = [round(1.2 + 0.2 * i, 1) for i in range(9)]
REFERENCE_BRUTE = list(zip(_FINE, [1.716, 1.583, 1.496, 1.433, 1.385, 1.347, 1.317, 1.291, 1.269]))
REFERENCE_ROWS = [
    (1.0, 1.363, _FINE, [1.158, 1.123, 1.103, 1.089, 1.078, 1.07, 1.064, 1.058, 1.054]),
    (2.0, 1.0, _FINE, [1.659, 1.485, 1.366, 1.277, 1.208, 1.151, 1.104, 1.064, 1.03]),
    (1.0, 3.618, _FINE, [1.489, 1.39, 1.327, 1.283, 1.25, 1.225, 1.204, 1.187, 1.172]),
    (1.0, 2.168, _WIDE, [1.274, 1.197, 1.156, 1.13, 1.111, 1.097, 1.086, 1.078, 1.071]),
    (1.0, 2.0, _WIDE, [1.251, 1.181, 1.143, 1.119, 1.102, 1.089, 1.079, 1.071, 1.065]),
    (1.0, 3.168, [1.3, 2.5, 3.7], [1.305, 1.11, 1.068]),
    (1.0, 4.168, [1.4, 3.0, 4.6], [1.302, 1.1, 1.061]),
]
PRECISION = BoundParams(alpha=1.0, c=1.0, beta=1.0).precision  # the table default
TABLE_HEADER = "alpha,c,beta,brute,amls,kappa_star,tau_star,err_bound"


def _parse_table(text: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        raise ValueError("bad bound table header")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _brute(beta: float) -> float:
    h = -(1 / beta) * math.log(1 / beta) - (1 - 1 / beta) * math.log(1 - 1 / beta)
    return 1.0 + math.exp(-beta * h)


@dataclass
class TableState:
    seed: int


class BoundTable:
    """`wamls table` traffic: each op renders one 18-row CSV bound table.

    Rows are drawn from the seed inside the preset ranges, so no two ops
    share work; the bounds layer does all of it.
    """

    name = "bound-table"
    rows_per_op = 18
    alpha_range = (1.0, 5.0)
    c_range = (1.0, 4.2)
    beta_range = (1.1, 4.6)

    def _rows(self, start: float, k0: int) -> tuple:
        """Rows k0 .. k0+17 of a 3-d Kronecker sequence from `start`.

        The sequence fills the (alpha, c, beta) box evenly, so every seed
        draws nearly the same mix of rows, and no row repeats.
        """
        ranges = (self.alpha_range, self.c_range, self.beta_range)
        return tuple(
            tuple(
                lo + (hi - lo) * ((u + k * step) % 1.0)
                for (lo, hi), u, step in zip(ranges, start, R3_STEPS)
            )
            for k in range(k0, k0 + self.rows_per_op)
        )

    def setup(self, seed: int) -> TableState:
        state = TableState(seed=seed)
        # Every seed warms up on the same table, so set-up does the same work.
        self.run(state, self._rows([0.5, 0.5, 0.5], 0), None)
        return state

    def ops(self, state: TableState):
        rng = random.Random(f"{self.name}:{state.seed}:ops")
        start = [rng.random() for _ in range(3)]
        for k0 in itertools.count(0, self.rows_per_op):
            yield self._rows(start, k0)

    def cell_of(self, spec) -> None:
        return None  # every op is drawn from the same ranges

    def digest(self, state: TableState, specs) -> str:
        return _digest(list(specs))

    def run(self, state: TableState, spec, tracer):
        return bounds.bound_table([BoundParams(alpha=a, c=c, beta=b) for a, c, b in spec])

    def summarize(self, state: TableState, spec, out) -> dict:
        return {"spec": spec, "rows": _parse_table(out)}

    def check(self, state: TableState, rec: dict) -> str | None:
        if len(rec["rows"]) != len(rec["spec"]):
            return f"{len(rec['rows'])} rows for {len(rec['spec'])} parameter triples"
        for (a, c, b), row in zip(rec["spec"], rec["rows"]):
            ra, rc, rb, brute, amls, _, _, err = row
            if not all(math.isclose(x, y, rel_tol=1e-5) for x, y in ((a, ra), (c, rc), (b, rb))):
                return f"row {row[:3]} does not echo ({a}, {c}, {b})"
            if not math.isclose(brute, _brute(b), rel_tol=1e-5):
                return f"brute({b}) = {brute}, expected {_brute(b)}"
            if not 1.0 <= amls <= brute:
                return f"amls({a}, {c}, {b}) = {amls} outside [1, brute = {brute}]"
            if not 0.0 < err <= PRECISION:
                return f"err_bound {err} above the precision {PRECISION} at ({a}, {c}, {b})"
        return None

    def global_check(self, state: TableState) -> list[str]:
        """Reproduce the published rows within 2e-3."""
        params = [
            BoundParams(alpha=a, c=c, beta=b)
            for a, c, betas, _ in REFERENCE_ROWS
            for b in betas
        ]
        got = _parse_table(bounds.bound_table(params))
        want = [v for _, _, _, values in REFERENCE_ROWS for v in values]
        problems_ = [
            f"amls({row[0]:g}, {row[1]:g}, {row[2]:g}) = {row[4]:.4f}, published {w}"
            for row, w in zip(got, want)
            if abs(row[4] - w) > 2e-3
        ]
        brute = {row[2]: row[3] for row in got if row[2] in dict(REFERENCE_BRUTE)}
        problems_ += [
            f"brute({b}) = {brute.get(b)}, published {w}"
            for b, w in REFERENCE_BRUTE
            if b not in brute or abs(brute[b] - w) > 2e-3
        ]
        return problems_

    def quality(self, recs: list[dict]) -> dict:
        rows = [row for r in recs for row in r["rows"]]
        return {
            # ln amls / ln 2: the per-element family cost the bound predicts,
            # on the same scale as cost_log / (n ln 2) on the solve workloads.
            "cost_ratio_mean": _mean(math.log(row[4]) / LN2 for row in rows),
            "bound_err_max": max((row[7] for row in rows), default=0.0),
        }


WORKLOADS = {w.name: w for w in (WeightedMix(), UnitFresh(), BoundTable())}

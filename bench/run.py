"""wamls benchmark: closed-loop solves and bound tables, one client, one thread.

Run every workload for 10 s each, untraced, then traced:

    python3 bench/run.py
    python3 bench/run.py --trace 1

Run one workload, as BENCHMARK.json describes:

    python3 bench/run.py --workload weighted-mix --seed 1 --seconds 30 --trace 0

Each op starts when the previous one has returned.  With --trace 0 the run
reports the end-to-end metrics, every time normalised to host speed by the
probe in hostspeed.py; with --trace 1 it runs the first half of its
time untraced, then replays the same ops with spans recorded around every
layer call and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: one client, one thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from spans import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_share": "ratio",
    "cost_ratio_mean": "ratio",
    "bound_err_max": "1",
    "peak_rss_mb": "MB",
}

# Counts and times are per op, so runs that reach different numbers of ops compare.
PER_LAYER_UNITS = {
    "bounds.amls_calls": "count/op",
    "bounds.amls_s": "s/op",
    "bounds.g_star_calls": "count/op",
    "bounds.g_star_s": "s/op",
    "families.greedy_builds": "count/op",
    "families.greedy_s": "s/op",
    "families.greedy_entries": "count/op",
    "weighted.builds": "count/op",
    "weighted.self_s": "s/op",
    "weighted.entries_mean": "count",
    "weighted.fallback_share": "ratio",
    "weighted.cost_vs_theory_mean": "ratio",
    "oracles.setup_s": "s/op",
    "oracles.queries": "count/op",
    "oracles.query_s": "s/op",
    "oracles.ell_pos_share": "ratio",
    "oracles.exact.query_us": "us",
    "oracles.branching.query_us": "us",
    "oracles.local-ratio.query_us": "us",
    "problems.membership_check_calls": "count/op",
    "problems.membership_check_s": "s/op",
    "problems.weight_of_calls": "count/op",
    "problems.weight_of_s": "s/op",
    "problems.membership_table_s": "s/op",
    "problems.exact_opt_s": "s/op",
    "driver.self_s": "s/op",
    "driver.verify_run_s": "s/op",
    "driver.approx_ratio_mean": "ratio",
    "trace.overhead_share": "ratio",
}

# Workload-shape counters, printed on untraced runs too; recorded, never gated.
SHAPE_COUNTERS = (
    "oracles.ell_pos_share",
    "weighted.fallback_share",
    "families.greedy_builds",
    "weighted.cost_vs_theory_mean",
)

GREEDY = ("families.build_unweighted_covering", "families.build_unweighted_extension")
WEIGHTED = ("weighted.build_weighted_covering", "weighted.build_weighted_extension")
DRIVER = (
    "driver.approximate_extension",
    "driver.approximate_membership",
    "driver.verify_run",
)


def load_package():
    """Import wamls from this checkout's src/, never from elsewhere."""
    if not (SRC / "wamls" / "__init__.py").is_file():
        sys.exit(f"bench: no wamls package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import wamls

    if Path(wamls.__file__).resolve().parent != (SRC / "wamls").resolve():
        sys.exit(f"bench: imported wamls from {wamls.__file__}, not from {SRC}")


def package_modules():
    from wamls import bounds, driver, families, oracles, problems, weighted

    return bounds, driver, families, oracles, problems, weighted


def clear_caches() -> None:
    """Empty every functools cache of the package, so set-up starts cold."""
    for mod in package_modules():
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def trace_targets():
    """(owner, attribute, span name, skip_under): each at the attribute its caller resolves."""
    bounds, driver, families, oracles, problems, weighted = package_modules()
    return [
        (driver, "approximate_extension", "driver.approximate_extension", None),
        (driver, "approximate_membership", "driver.approximate_membership", None),
        (driver, "verify_run", "driver.verify_run", None),
        (driver, "membership_check", "problems.membership_check", None),
        (driver, "weight_of", "problems.weight_of", None),
        (weighted, "build_weighted_covering", "weighted.build_weighted_covering", None),
        (weighted, "build_weighted_extension", "weighted.build_weighted_extension", None),
        (families, "build_unweighted_covering", "families.build_unweighted_covering", None),
        (families, "build_unweighted_extension", "families.build_unweighted_extension", None),
        (bounds, "bound_table", "bounds.bound_table", None),
        (bounds, "amls_bound", "bounds.amls_bound", None),
        # g_star inside amls_bound is part of the saddle-point search.
        (bounds, "g_star", "bounds.g_star", "bounds.amls_bound"),
        (oracles, "oracle_for", "oracles.oracle_for", None),
        (oracles, "membership_table", "problems.membership_table", None),
        (problems, "exact_opt", "problems.exact_opt", None),
    ]


class GreedyCounter:
    """Counts unweighted greedy builds and the entries they return."""

    def __init__(self) -> None:
        self.builds = 0
        self.entries = 0

    def installed(self):
        from wamls import families

        return patched(
            (families, attr, self._wrap)
            for attr in ("build_unweighted_covering", "build_unweighted_extension")
        )

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            fam = fn(*args, **kwargs)
            self.builds += 1
            self.entries += len(getattr(fam, "entries", None) or getattr(fam, "sets", ()))
            return fam

        return counted


def timed_loop(wl, state, specs, seconds: float, tracer=None):
    """Run ops back to back until `seconds` have passed; one latency per op.

    Returns the records, each op's latency and each op's start time.
    """
    recs, lats, starts = [], [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    for spec in specs:
        if clock() >= deadline:
            break
        t0 = clock()
        starts.append(t0)
        try:
            if tracer is None:
                out = wl.run(state, spec, None)
            else:
                out = tracer.call("op", wl.run, state, spec, tracer)
        except Exception as exc:  # a failed op is counted, never fatal
            lats.append(clock() - t0)
            recs.append({"spec": spec, "error": f"raised {exc!r}"})
            continue
        lats.append(clock() - t0)
        try:
            recs.append(wl.summarize(state, spec, out))
        except Exception as exc:
            recs.append({"spec": spec, "error": f"bad output: {exc!r}"})
    return recs, lats, starts


def failures_of(wl, state, recs) -> list[str]:
    out = []
    for r in recs:
        reason = r.get("error")
        if reason is None:
            try:
                reason = wl.check(state, r)
            except Exception as exc:
                reason = f"check raised {exc!r}"
        if reason is not None:
            out.append(f"{reason} [op {str(r['spec'])[:80]}]")
    return out


def setup(wl, seed: int, speed=None):
    """Set the workload up SETUP_REPEATS times from cold caches.

    Returns the state and two median set-up times: host-speed normalised and
    in wall time, both less the probe time when `speed` is sampling.
    """
    times, wall = [], []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        t0 = time.perf_counter()
        state = wl.setup(seed)
        t1 = time.perf_counter()
        times.append(speed.normalised(t0, t1) if speed else t1 - t0)
        wall.append(speed.own_time(t0, t1) if speed else t1 - t0)
    gc.collect()
    return state, statistics.median(times), statistics.median(wall)


def quality_of(wl, recs) -> dict:
    return wl.quality([r for r in recs if "error" not in r])


def tail(lats: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile).

    With 10 samples or fewer no percentile qualifies; the maximum stands in.
    """
    ordered = sorted(lats)
    k = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered)


def design_rate(wl, recs, lats) -> float:
    """Ops per busy second over the workload's design mix.

    Each cell of the mix weighs the same however many of its ops the run
    reached, so where the time limit cuts the last block does not matter.
    """
    by_cell: dict = {}
    for r, lat in zip(recs, lats):
        by_cell.setdefault(wl.cell_of(r["spec"]), []).append(lat)
    return 1.0 / statistics.fmean(statistics.fmean(v) for v in by_cell.values())


def run_untraced(wl, seed: int, seconds: float) -> dict:
    counter = GreedyCounter()
    with HostSpeed().sampling() as speed:
        state, setup_s, wall_setup_s = setup(wl, seed, speed)
        with counter.installed():
            recs, raw_lats, starts = timed_loop(wl, state, wl.ops(state), seconds)
    op_times = [(t, t + lat) for t, lat in zip(starts, raw_lats)]
    lats = [speed.normalised(t0, t1) for t0, t1 in op_times]
    wall_lats = [speed.own_time(t0, t1) for t0, t1 in op_times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = failures_of(wl, state, recs) + wl.global_check(state)
    failed_share = min(len(failed), len(recs)) / len(recs)
    q = quality_of(wl, recs)
    tail_s, tail_pct = tail(lats)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": design_rate(wl, recs, lats),
        "latency_p50_s": statistics.median(lats),
        "latency_tail_s": tail_s,
        "ok_share": 1.0 - failed_share,
        "cost_ratio_mean": q["cost_ratio_mean"],
        "bound_err_max": q["bound_err_max"],
        "peak_rss_mb": rss_mb,
    }
    shape = dict(q)
    shape["families.greedy_builds"] = counter.builds / len(recs)
    info = {
        "ops": len(recs),
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(lats),
        "failed_share": failed_share,
        # The same figures in plain wall time, and the host speed they saw.
        "wall.setup_s": wall_setup_s,
        "wall.ops_per_s": design_rate(wl, recs, wall_lats),
        "wall.latency_p50_s": statistics.median(wall_lats),
        "wall.latency_tail_s": tail(wall_lats)[0],
        "host.probes": len(speed.took),
        "host.probe_share": sum(speed.took) / (speed.ends[-1] - speed.starts[0]),
        "host.probe_s_median": statistics.median(speed.took),
        "inputs_digest": wl.digest(state, _first(wl.ops(state), 1000)),
        **{k: shape.get(k, 0.0) for k in SHAPE_COUNTERS},
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "info": info,
            "attempted": len(recs), "failures": failed}


def run_traced(wl, seed: int, seconds: float) -> dict:

    state, _, _ = setup(wl, seed)
    specs: list = []
    with GreedyCounter().installed():  # as in an untraced run
        recs0, lats0, _ = timed_loop(wl, state, _recording(wl.ops(state), specs), seconds / 2)
    del specs[len(recs0):]

    # Replay the same ops traced, from the same cold-then-warmed caches.
    state, _, _ = setup(wl, seed)
    tracer = Tracer()
    counter = GreedyCounter()
    with counter.installed(), tracer.installed(trace_targets()):
        recs, lats, _ = timed_loop(wl, state, specs, math.inf, tracer)
    failed = (
        failures_of(wl, state, recs0) + failures_of(wl, state, recs) + wl.global_check(state)
    )
    q = quality_of(wl, recs)
    totals = tracer.totals()

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def incl(*names):
        return sum(totals[n][1] for n in names if n in totals)

    def own(*names):
        return sum(totals[n][2] for n in names if n in totals)

    k = len(recs)
    metrics = {
        "bounds.amls_calls": calls("bounds.amls_bound") / k,
        "bounds.amls_s": own("bounds.amls_bound") / k,
        "bounds.g_star_calls": calls("bounds.g_star") / k,
        "bounds.g_star_s": own("bounds.g_star") / k,
        "families.greedy_builds": counter.builds / k,
        "families.greedy_s": own(*GREEDY) / k,
        "families.greedy_entries": counter.entries / k,
        "weighted.builds": calls(*WEIGHTED) / k,
        "weighted.self_s": own(*WEIGHTED) / k,
        "oracles.setup_s": own("oracles.oracle_for") / k,
        "problems.membership_check_calls": calls("problems.membership_check") / k,
        "problems.membership_check_s": own("problems.membership_check") / k,
        "problems.weight_of_calls": calls("problems.weight_of") / k,
        "problems.weight_of_s": own("problems.weight_of") / k,
        "problems.membership_table_s": own("problems.membership_table") / k,
        "problems.exact_opt_s": own("problems.exact_opt") / k,
        "driver.self_s": own(*DRIVER) / k,
        "driver.verify_run_s": incl("driver.verify_run") / k,
        "trace.overhead_share": sum(lats) / sum(lats0) - 1.0,
    }
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, q.get(name, 0.0))

    op_s = incl("op")
    modules: dict[str, float] = {}
    for name, (_, _, self_s) in totals.items():
        module = "bench" if name == "op" else name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s
    query_s = incl(*[n for n in totals if n.endswith(".query")])
    weighted_s = incl(*WEIGHTED)
    info = {
        "ops": len(recs),
        "inputs_digest": wl.digest(state, _first(wl.ops(state), 1000)),
        "traced_op_s": op_s,
        "untraced_op_s": sum(lats0),
        **{f"self_s.{m}": s for m, s in sorted(modules.items())},
        **{f"self_share.{m}": s / op_s for m, s in sorted(modules.items())},
        # ROADMAP's criterion-6 split; builds and queries run inside the driver.
        "split.weighted_build_s": weighted_s,
        "split.oracle_calls_s": incl("oracles.oracle_for") + query_s,
        "split.driver_and_verify_s": incl(*DRIVER) - weighted_s - query_s,
        "share.oracles+problems+driver": sum(
            modules.get(m, 0.0) for m in ("oracles", "problems", "driver")) / op_s,
        "share.families.greedy_s": own(*GREEDY) / op_s,
        "share.bounds.amls_s": own("bounds.amls_bound") / op_s,
        "spans": len(tracer.start),
    }
    return {"metrics": metrics, "units": PER_LAYER_UNITS, "info": info,
            "attempted": len(recs0) + len(recs), "failures": failed}


def _recording(it, into: list):
    for x in it:
        into.append(x)
        yield x


def _first(it, k: int) -> list:
    return [x for _, x in zip(range(k), it)]


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(workload: str, seed: int, trace: int, res: dict) -> bool:
    print(f"== {workload} (seed {seed}, trace {trace}): {res['attempted']} ops attempted, "
          f"{len(res['failures'])} failed")
    for name, value in res["metrics"].items():
        print(f"  {name:34s} {_fmt(value):>14s} {res['units'][name]}")
    for name, value in res["info"].items():
        print(f"  # {name:32s} {_fmt(value):>14s}")
    for line in res["failures"][:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    correct = not res["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": min(len(res["failures"]), res["attempted"]),
        "metrics": {
            k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()
        },
    }), flush=True)
    return correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="weighted-mix | unit-fresh | bound-table | all (default)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_package()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            p.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)} or all")
    ok = True
    for name in names:
        run = run_traced if args.trace else run_untraced
        ok &= report(name, args.seed, args.trace, run(WORKLOADS[name], args.seed, args.seconds))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

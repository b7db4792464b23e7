"""Command-line surface: bound tables, family tooling, solves, verification."""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import bounds, driver, families, oracles, problems, weighted
from .bounds import BoundDomainError, BoundParams
from .families import ResourceCapError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _beta_grid(start: float, stop: float, step: float) -> list[float]:
    out = []
    b = start
    while b <= stop + 1e-9:
        out.append(round(b, 10))
        b += step
    return out

# (alpha, c) rows straight from the paper-reported oracle parameters; the
# solve command uses the implemented oracles' own (alpha, c) instead.
PRESETS = {
    "vc": ([(1.0, 1.363), (2.0, 1.0)], _beta_grid(1.1, 1.9, 0.1)),
    "fvs": ([(1.0, 3.618), (2.0, 1.0)], _beta_grid(1.1, 1.9, 0.1)),
    "tfvs": ([(1.0, 2.0), (3.0, 1.0)], _beta_grid(1.2, 2.8, 0.2)),
    "3hs": ([(1.0, 2.168), (3.0, 1.0)], _beta_grid(1.2, 2.8, 0.2)),
    "4hs": ([(1.0, 3.168), (4.0, 1.0)], _beta_grid(1.3, 3.7, 0.3)),
    "5hs": ([(1.0, 4.168), (5.0, 1.0)], _beta_grid(1.4, 4.6, 0.4)),
}


def _max_n(args_cap: int | None) -> int:
    """The enumeration cap: --max-n, else WAMLS_MAX_N, else the default."""
    cap, name = args_cap, "--max-n"
    if cap is None:
        text, name = os.environ.get("WAMLS_MAX_N"), "WAMLS_MAX_N"
        if text is None:
            return families.DEFAULT_CAP
        try:
            cap = int(text)
        except ValueError:
            raise ValueError(f"WAMLS_MAX_N must be an integer, got {text!r}") from None
    if cap < 0:
        raise ValueError(f"{name} must be >= 0, got {cap}")
    return cap


def cmd_bound(args) -> int:
    params = BoundParams(
        alpha=args.alpha, c=args.c, beta=args.beta, precision=args.precision
    )
    sp = bounds.amls_bound(params)
    br = bounds.brute_bound(args.beta)
    print(f"brute({args.beta:g}) = {br:.6f}")
    print(
        f"amls({args.alpha:g}, {args.c:g}, {args.beta:g}) = {sp.value:.6f} "
        f"+/- {sp.err_bound:.2e} (kappa* = {sp.kappa_star:.6f}, tau* = {sp.tau_star:.6f})"
    )
    return EXIT_OK


def cmd_table(args) -> int:
    if args.preset:
        rows_ac, betas = PRESETS[args.preset]
    else:
        if not args.beta or args.alpha is None or args.c is None:
            raise BoundDomainError("custom tables need --alpha, --c and --beta values")
        rows_ac, betas = [(args.alpha, args.c)], args.beta
    params = [
        BoundParams(alpha=a, c=c, beta=b, precision=args.precision)
        for a, c in rows_ac
        for b in betas
    ]
    text = bounds.bound_table(params, fmt=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(params)} rows to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def _load_weights(args) -> list[int]:
    if args.instance:
        with open(args.instance) as fh:
            inst = problems.parse_instance(fh.read())
        return list(inst.weights)
    if args.n is None:
        raise BoundDomainError("need --instance or --n (uniform weights)")
    if args.n < 0:
        raise ValueError(f"n must be >= 0, got {args.n}")
    return [1] * args.n


def cmd_family(args) -> int:
    cap = _max_n(args.max_n)
    weights = _load_weights(args)
    if args.action == "build":
        if args.kind == "covering":
            rep = weighted.build_weighted_covering(weights, args.alpha, cap=cap)
        else:
            rep = weighted.build_weighted_extension(
                weights, args.alpha, args.c, args.beta, eps=args.eps, cap=cap
            )
        sched = rep.schedule
        schedule = (
            f"delta={sched['delta']:g} inner={sched['inner']:g} "
            f"starts={','.join(f'{k}:{i}' for k, i in sched['starts'].items())} "
            f"gamma={sched['gamma']:g}"
        )
        text = families.dump_family(rep.family, schedule=schedule)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            print(text, end="")
        built = f"built {args.kind} family: {rep.family.ts.size} entries"
        if rep.cost_log is not None:  # extension families; n ln 2 is the power set's cost
            built += f", cost_log {rep.cost_log:.4f} (n ln 2 = {len(weights) * math.log(2):.4f})"
        print(built, file=sys.stderr)
        return EXIT_OK

    if args.dump is None:
        raise ValueError("family verify needs --dump")
    with open(args.dump) as fh:
        fam = families.parse_family(fh.read())
    kind = "covering" if isinstance(fam, families.CoveringFamily) else "extension"
    if kind != args.kind:
        raise ValueError(f"{args.dump} holds a {kind} family, not {args.kind}")
    verify = families.verify_covering if kind == "covering" else families.verify_extension
    verdict = verify(fam, weights, cap=cap)
    if verdict.ok:
        print(f"pass ({verdict.checked} subsets checked)")
        return EXIT_OK
    print(f"FAIL: subset {verdict.violating_set:#x} has no witness")
    return EXIT_VERIFY_FAIL


def cmd_solve(args) -> int:
    cap = _max_n(args.max_n)
    with open(args.instance) as fh:
        inst = problems.parse_instance(fh.read())
    if args.model == "membership":
        report = driver.approximate_membership(
            inst, args.alpha, mode=args.mode, cap=cap, seed=args.seed
        )
        target = args.alpha
    else:
        handle = oracles.oracle_for(inst, args.oracle, cap=cap)
        report = driver.approximate_extension(
            inst, handle, args.beta, eps=args.eps, cap=cap, force=args.force, seed=args.seed
        )
        target = args.beta
    verdict = driver.verify_run(inst, report, target, cap=cap)
    text = report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if not verdict.ok:
        print(f"verification failed: {verdict.reason}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    ok, summary = verify_mod.run_suite(
        args.suite,
        max_n=10 if args.max_n is None else args.max_n,
        trials=args.trials,
        seed=args.seed,
    )
    print(summary)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wamls",
        description="Weighted approximate monotone local search toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate brute and amls bases")
    b.add_argument("--alpha", type=float, required=True, help="oracle approximation factor (>= 1)")
    b.add_argument("--c", type=float, default=1.0, help="per-query cost base (>= 1)")
    b.add_argument("--beta", type=float, required=True, help="target approximation factor (>= 1)")
    b.add_argument("--precision", type=float, default=1e-6, help="absolute tolerance on the base")
    b.set_defaults(fn=cmd_bound)

    t = sub.add_parser("table", help="emit a bound table (CSV or JSON lines)")
    t.add_argument("--preset", choices=sorted(PRESETS), help="paper parameter preset")
    t.add_argument("--alpha", type=float, help="custom row alpha")
    t.add_argument("--c", type=float, help="custom row c")
    t.add_argument("--beta", type=float, nargs="*", help="custom beta grid")
    t.add_argument("--precision", type=float, default=1e-6)
    t.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    t.add_argument("--out", help="output path (stdout if omitted)")
    t.set_defaults(fn=cmd_table)

    f = sub.add_parser("family", help="build or verify covering/extension families")
    f.add_argument("action", choices=("build", "verify"))
    f.add_argument("kind", choices=("covering", "extension"))
    f.add_argument("--instance", help="instance file providing the weights")
    f.add_argument("--n", type=int, help="universe size with uniform weights")
    f.add_argument("--alpha", type=float, default=2.0)
    f.add_argument("--c", type=float, default=1.0)
    f.add_argument("--beta", type=float, default=1.5)
    f.add_argument("--eps", type=float, default=0.05)
    f.add_argument("--dump", help="family dump to verify")
    f.add_argument("--out", help="dump output path for build")
    f.add_argument("--max-n", type=int, help="enumeration cap override")
    f.set_defaults(fn=cmd_family)

    s = sub.add_parser("solve", help="run an approximation driver on an instance")
    s.add_argument("instance", help="instance file path")
    s.add_argument("--model", choices=("membership", "extension"), default="extension")
    s.add_argument(
        "--oracle", choices=("exact", "branching", "local-ratio"), default="exact",
        help="extension-model oracle",
    )
    s.add_argument("--alpha", type=float, default=2.0, help="membership target factor")
    s.add_argument("--beta", type=float, default=1.5, help="extension target factor")
    s.add_argument("--eps", type=float, default=0.05, help="inner-target slack (extension model)")
    s.add_argument("--mode", choices=("covering", "exhaustive"), default="covering")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--force", action="store_true", help="allow oracle alpha > beta")
    s.add_argument("--report", help="write the run report JSON here")
    s.add_argument("--max-n", type=int, help="enumeration cap override")
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=("bounds", "families", "end-to-end"), required=True)
    v.add_argument(
        "--max-n", type=int,
        help="largest universe size exercised (default 10; at least 1 for "
        "families, 2 for end-to-end)",
    )
    v.add_argument("--trials", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise  # --help
        return EXIT_USAGE  # argparse has printed the usage error
    try:
        return args.fn(args)
    except ResourceCapError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (BoundDomainError, problems.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

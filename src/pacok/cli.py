"""Command-line interface.

Subcommands: run, check, energy, converge, coarsen, pvism.
Exit codes: 0 success, 2 configuration error, 3 violated certified
invariant, 4 numerical blowup.  Each command handler imports what it uses
when it runs, not when this module loads, so it calls the names its modules
hold at that time, also one a test or a profiler replaced in between.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ConfigError, PacokError


def _load_config(args):
    from .config import RunConfig, load_config

    return load_config(args.config) if args.config else RunConfig()


def cmd_run(args) -> int:
    from .experiments import run_config

    out = args.out or "."
    _, state, records = run_config(_load_config(args), out)
    print(
        f"run finished: n={state.step_index} t={state.time:.6g} "
        f"min={records[-1].phi_min:.6g} max={records[-1].phi_max:.6g} "
        f"energy={records[-1].energy:.6g}"
    )
    print(f"series: {out}/series.csv")
    return 0


def cmd_check(args) -> int:
    from .stepping import check_conditions

    cfg = _load_config(args)
    report = check_conditions(cfg.build_problem(cfg.build_grid()))
    print(report.pretty())
    required = {
        "mpp": report.mpp_ok,
        "es": report.es_ok,
        "both": report.mpp_ok and report.es_ok,
        "none": True,
    }[args.require]
    if not required:
        print(f"error: invariant: requested guarantee '{args.require}' is not satisfied",
              file=sys.stderr)
        return 3
    return 0


def cmd_energy(args) -> int:
    from .grid import load_snapshot
    from .stepping import start_energy

    cfg = _load_config(args)
    phi, _t = load_snapshot(args.snapshot)
    e = start_energy(cfg.build_problem(phi.grid), phi.values)
    print("interfacial,well,longrange,penalty,total")
    print(f"{e.interfacial:.17g},{e.well:.17g},{e.longrange:.17g},{e.penalty:.17g},{e.total:.17g}")
    return 0


def _eps_factors(text: str) -> list[float]:
    factors = []
    for item in text.split(","):
        try:
            factor = float(item)
        except ValueError:
            factor = math.nan
        if not 0.0 < factor < math.inf:
            raise ConfigError(f"--eps-factors: {item.strip()!r} is not a positive number")
        factors.append(factor)
    return factors


def cmd_converge(args) -> int:
    from .experiments import RATE_STUDY_SCALES, convergence_setups, rate_study, rate_study_steps

    # The scale's values, each replaced by its flag when given (0 too, which exits 2).
    n, factors, bench_tau = RATE_STUDY_SCALES[args.scale]
    n = n if args.n is None else args.n
    factors = factors if args.eps_factors is None else _eps_factors(args.eps_factors)
    bench_tau = bench_tau if args.bench_tau is None else args.bench_tau
    lines = ["eps,tau,error,rate,successive_rate"]
    for label, setup in convergence_setups(n, factors, args.t_end):
        steps = rate_study_steps(args.base_tau, args.levels, bench_tau, setup)
        print(f"eps = {label} (N = {setup.N[0]}, T = {setup.T}, {steps} steps)", flush=True)
        result = rate_study(args.base_tau, args.levels, bench_tau, setup)
        print(f"  {'tau':>12}  {'error':>12}  {'rate':>6}  {'successive':>10}")
        for i, (tau, err) in enumerate(zip(result.taus, result.errors)):
            # Each rate sits on the row of the smallest step it uses.
            rate = f"{result.rates[i - 1]:.2f}" if i > 0 else ""
            successive = f"{result.successive_rates[i - 2]:.2f}" if i > 1 else ""
            print(f"  {tau:>12.3e}  {err:>12.3e}  {rate or '---':>6}  {successive or '---':>10}")
            lines.append(f"{label},{tau:.17g},{err:.17g},{rate},{successive}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "rates.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"table: {path}")
    return 0


def cmd_coarsen(args) -> int:
    from .experiments import coarsening_run

    out = args.out or None
    result = coarsening_run(
        args.dim,
        args.preset,
        scale=args.scale,
        seed=args.seed,
        out_dir=out,
    )
    last = result.records[-1]
    yes_no = {True: "yes", False: "no"}
    print(
        f"preset {args.preset} ({args.scale}): n={result.final.step_index} "
        f"t={result.final.time:.6g} bumps={result.bump_count} "
        f"min={last.phi_min:.6g} max={last.phi_max:.6g} energy={last.energy:.6g} "
        f"certified: bounds={yes_no[result.report.mpp_ok]} decay={yes_no[result.report.es_ok]}"
    )
    if out:
        print(f"series: {out}/series.csv")
    return 0


def cmd_pvism(args) -> int:
    from .experiments import pvism_compare

    result = pvism_compare(tau=args.tau, t_max=args.t_max, out_dir=args.out or None)
    c_lo, c_hi = result.cubic_bounds
    l_lo, l_hi = result.linear_bounds
    print(f"cubic  indicator: min={c_lo:.6e} max={c_hi:.6e} "
          f"(t={result.cubic_final.time:.6g})")
    print(f"linear indicator: min={l_lo:.6e} max={l_hi:.6e} "
          f"(t={result.linear_final.time:.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .experiments import PRESET_GAMMAS, RATE_STUDY, RATE_STUDY_SCALES, SOLVATION

    parser = argparse.ArgumentParser(
        prog="pacok",
        description="Bound-preserving semi-implicit solver for penalized "
        "Allen-Cahn dynamics with long-range interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="key = value config file (defaults apply if omitted)")

    p_run = sub.add_parser("run", help="integrate one configuration, write series + snapshots")
    add_config(p_run)
    p_run.add_argument("--out", help="output directory (default '.')")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="evaluate the stability conditions")
    add_config(p_check)
    p_check.add_argument(
        "--require",
        choices=("mpp", "es", "both", "none"),
        default="mpp",
        help="guarantee that must hold for exit code 0 (default: mpp)",
    )
    p_check.set_defaults(func=cmd_check)

    p_energy = sub.add_parser("energy", help="print the energy breakdown of a snapshot")
    add_config(p_energy)
    p_energy.add_argument("--snapshot", required=True, help="snapshot file to evaluate")
    p_energy.set_defaults(func=cmd_energy)

    p_conv = sub.add_parser("converge", help="temporal convergence-rate study")
    p_conv.add_argument("--scale", choices=tuple(RATE_STUDY_SCALES), default="desk",
                        help="gives the grid size, the widths and the benchmark step")
    p_conv.add_argument("--out", help="directory for rates.csv")
    p_conv.add_argument("--n", type=int, help="grid size per axis (default: the scale's)")
    p_conv.add_argument("--levels", type=int, default=5, help="number of halved steps")
    p_conv.add_argument("--base-tau", type=float, default=1e-4, help="largest step")
    p_conv.add_argument("--bench-tau", type=float, help="benchmark step (default: the scale's)")
    p_conv.add_argument("--t-end", type=float, default=RATE_STUDY.T, help="horizon")
    p_conv.add_argument("--eps-factors", help="comma list of interface widths in grid spacings "
                        "(default: the scale's)")
    p_conv.set_defaults(func=cmd_converge)

    p_coarsen = sub.add_parser("coarsen", help="coarsening run from random initial data")
    p_coarsen.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p_coarsen.add_argument("--preset", choices=tuple(PRESET_GAMMAS), required=True)
    p_coarsen.add_argument("--scale", choices=("desk", "paper"), default="desk")
    p_coarsen.add_argument("--seed", type=int, default=0)
    p_coarsen.add_argument("--out", help="output directory for series + snapshots")
    p_coarsen.set_defaults(func=cmd_coarsen)

    p_pvism = sub.add_parser("pvism", help="solvation equilibrium, cubic vs linear indicator")
    p_pvism.add_argument("--tau", type=float, default=SOLVATION.tau)
    p_pvism.add_argument("--t-max", type=float, default=SOLVATION.T)
    p_pvism.add_argument("--out", help="output directory for equilibria")
    p_pvism.set_defaults(func=cmd_pvism)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PacokError as exc:
        kind = {2: "config", 3: "invariant", 4: "blowup"}[exc.exit_code]
        message = str(exc).replace("\n", " ")
        print(f"error: {kind}: {message}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

Subcommands: gen, solve, oracle, ensemble, ode, pde, annealed, report.
All outputs are CSV or JSON with documented headers; exit code 0 on success,
nonzero with a diagnostic on error.
"""

import argparse
import json
import math
import sys

from . import annealed, cnf, dpll, growth, oracle, report, trajectory
from .dpll import GUC, HEURISTICS
from .ensemble import (EnsembleConfig, extrapolate_omega, measure_g_point,
                       run_ensemble, write_records_csv)
from .trajectory import CriticalLine, GPoint

CONFIG_SCHEMA_VERSION = 1


def load_config_file(path: str) -> dict:
    """Plain key-value config (key = value per line, # comments); requires
    schema_version = 1."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    if int(values.pop("schema_version", -1)) != CONFIG_SCHEMA_VERSION:
        raise ValueError("config must declare schema_version = 1")
    return values


def _add_heuristic(p):
    p.add_argument("--heuristic", choices=HEURISTICS, default=GUC)


def _count(text: str) -> int:
    """A count of runs, 0 or more; argparse reports a negative one."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _parse_g(text: str) -> GPoint:
    """G from 'p,alpha,t', with p in [0, 1], 0 < alpha < inf and t in [0, 1)."""
    p, alpha, t = (float(x) for x in text.split(","))
    if not (0.0 <= p <= 1.0 and 0.0 < alpha < math.inf and 0.0 <= t < 1.0):
        raise ValueError(f"G needs p in [0, 1], alpha > 0 and t in [0, 1), "
                         f"got {text!r}")
    return GPoint(t, p, alpha)


def _critical_line(args) -> CriticalLine:
    if getattr(args, "critical_table", None):
        pts = []
        with open(args.critical_table) as fh:
            for row in fh:
                row = row.strip()
                if not row or row.startswith(("#", "p,")):
                    continue
                a, b = row.split(",")[:2]
                pts.append((float(a), float(b)))
        return CriticalLine(pts)
    return CriticalLine()


def cmd_gen(args) -> int:
    inst = cnf.generate_random_instance(args.n_vars, args.n2, args.n3, args.seed)
    if args.out:
        cnf.write_dimacs(inst, args.out)
    else:
        sys.stdout.write(cnf.dimacs_string(inst))
    return 0


def cmd_solve(args) -> int:
    inst = cnf.read_dimacs(args.cnf)
    # the cloud goes only into the --json record
    stats = dpll.solve(inst, args.heuristic, args.seed,
                       record_cloud=bool(args.json) and not args.no_cloud)
    alpha0 = inst.n_clauses / inst.n_vars
    rec = stats.to_record(alpha0)
    if args.json:
        report.write_run_record_json(args.json, stats, alpha0)
    rec.pop("cloud", None)
    print(json.dumps(rec, sort_keys=True))
    if stats.result == "sat" and args.model:
        print("v " + " ".join(str((i + 1) if v else -(i + 1))
                              for i, v in enumerate(stats.assignment)))
    return 0


def cmd_oracle(args) -> int:
    inst = cnf.read_dimacs(args.cnf)
    op = oracle.build_evolution_operator(inst, args.heuristic, var_cap=args.cap)
    seq = oracle.branch_function_sequence(inst, args.heuristic,
                                          inst.n_vars + 1, op)
    print(f"operator: {len(op.columns)} reachable states, {op.nnz()} nonzeros")
    print("B(T):", " ".join(str(b) for b in seq))
    if oracle.brute_force_satisfiable(inst):
        print("instance is satisfiable; stationarity not asserted")
    else:
        t_star, b_star = oracle.stationary_point(seq)
        print(f"T* = {t_star}, B* = {b_star}")
    if args.dump:
        with open(args.dump, "w") as fh:
            op.dump(fh)
    if args.mc:
        mean, se = oracle.monte_carlo_leaf_mean(inst, args.heuristic, args.mc,
                                                args.seed)
        print(f"monte carlo leaves: {mean:.6f} +- {se:.6f} ({args.mc} runs)")
    return 0


def cmd_ensemble(args) -> int:
    values = {}
    if args.config:
        values = load_config_file(args.config)

    def pick(flag, key, cast, default=None):
        # every key read is removed, so what is left is unknown
        raw = values.pop(key, None)
        if flag is not None:
            return flag
        return default if raw is None else cast(raw)
    alpha0 = pick(args.alpha0, "alpha0", float)
    if alpha0 is None:
        raise ValueError("alpha0 required (flag or config)")
    n_values = pick(args.n_values and [int(x) for x in args.n_values.split(",")],
                    "n_values", lambda s: [int(x) for x in s.split(",")])
    if n_values is None:
        raise ValueError("n_values required (flag or config)")
    cfg = EnsembleConfig(
        alpha0=alpha0,
        n_values=n_values,
        trials_per_n=pick(args.trials, "trials_per_n", int, 20),
        base_seed=pick(args.seed, "base_seed", int, 0),
        heuristic=pick(args.heuristic_opt, "heuristic", str, GUC),
        parallelism=pick(args.workers, "parallelism", int))
    out_path = pick(args.out, "output_path", str)
    if values:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(values))}")
    records = run_ensemble(cfg)
    if out_path:
        write_records_csv(records, out_path)
        print(f"wrote {len(records)} records to {out_path}")
    if args.fit:
        est = extrapolate_omega(records)
        print(f"omega = {est.omega:.5f} +- {est.std_error:.5f} "
              f"(intercept {est.intercept:.3f})")
        for n in est.n_values:
            print(f"  N={n}: mean log2 Q = {est.per_n_mean[n]:.4f} "
                  f"+- {est.per_n_stderr[n]:.4f} median {est.per_n_median[n]:.4f} "
                  f"residual {est.residuals[n]:+.4f}")
    if args.measure_g:
        gm = measure_g_point([r for r in records
                              if r.n_vars == cfg.n_values[0]])
        print(f"G: p = {gm.g.p_g:.4f} +- {gm.se_p:.4f}, "
              f"alpha = {gm.g.alpha_g:.4f} +- {gm.se_alpha:.4f}, "
              f"t = {gm.g.t_g:.4f} +- {gm.se_t:.4f} "
              f"({gm.n_runs}/{gm.n_total} backtracking sat runs)")
    return 0


def cmd_ode(args) -> int:
    if args.alpha_l:
        al = trajectory.find_alpha_l(args.heuristic)
        p_t, t_t = trajectory.tricritical_check(al, args.heuristic)
        print(f"alpha_L({args.heuristic}) = {al:.5f}; tangency p = {p_t:.5f} "
              f"at t = {t_t:.5f}")
        return 0
    if args.alpha0 is None:
        raise ValueError("--alpha0 required unless --alpha-l")
    if args.find_g:
        g = trajectory.find_g(args.alpha0, args.heuristic, _critical_line(args))
        if g is None:
            print("no crossing: trajectory stays in the sat phase")
        else:
            print(f"G: t = {g.t_g:.5f}, p = {g.p_g:.5f}, alpha = {g.alpha_g:.5f}")
        return 0
    path = report.report_branch_trajectory(args.out, args.alpha0, args.heuristic)
    print(f"wrote {path}")
    return 0


def cmd_pde(args) -> int:
    if args.g:
        g = _parse_g(args.g)
        res = growth.omega_upper_sat_from_g(g, args.heuristic)
        print(f"omega_upper = {res.omega_bits:.5f} bits "
              f"(omega_G = {res.omega_g_bits:.5f}, halted = {res.halted})")
        return 0
    if args.alpha0 is None:
        raise ValueError("--alpha0 required unless --g")
    cnf.check_alpha0(args.alpha0)
    if args.upper_sat:
        res = growth.omega_upper_sat(args.alpha0, args.heuristic,
                                     _critical_line(args))
        print(f"G = {res.g}")
        print(f"omega_upper = {res.omega_bits:.5f} bits "
              f"(omega_G = {res.omega_g_bits:.5f}, halted = {res.halted})")
        return 0
    series = growth.solve_characteristics(args.alpha0, args.heuristic)
    if args.out:
        print(f"wrote {report.report_growth_series(args.out, series)}")
    if series.halted:
        print(f"halt at t = {series.t_halt:.5f}; omega_THE = "
              f"{series.omega_bits:.5f} bits")
    else:
        print(f"no halt (min split probability {series.rho_min:.5f}); "
              f"closest approach omega = {series.omega_bits:.5f} bits")
    return 0


def cmd_annealed(args) -> int:
    om, t_peak, curve = annealed.annealed_omega_estimate(args.alpha0,
                                                         args.n_vars,
                                                         args.pruning)
    if args.out:
        print(f"wrote {report.write_mass_curve(args.out, curve)}")
    peak = curve[t_peak].total_mass
    print(f"log2(peak mass)/N = {om:.5f} at T = {t_peak} (peak mass {peak:.3f})")
    print(f"pruned mass / peak mass = "
          f"{sum(st.pruned_mass for st in curve) / peak:.3g}")
    return 0


def cmd_report(args) -> int:
    if args.kind == "table1":
        path = report.report_table1(args.out, {},
                                    g_point=_parse_g(args.g) if args.g else None)
    elif args.kind == "phase-diagram":
        paths = report.report_phase_diagram(args.out)
        print("wrote " + ", ".join(sorted(paths.values())))
        return 0
    elif args.kind == "cloud":
        path = report.report_cloud(args.out, args.alpha0, args.n_vars, args.seed)
    elif args.kind == "surface":
        path = report.report_surface(
            args.out, growth.legendre_surface(args.alpha0, GUC, args.t))
    else:  # mass-curve
        path = report.write_mass_curve(
            args.out, annealed.mass_curve(args.alpha0, args.n_vars))
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="satgrowth",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random 2+p-SAT instance (DIMACS)")
    p.add_argument("--n-vars", type=int, required=True)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--n3", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", help="solve a DIMACS instance with instrumentation")
    p.add_argument("cnf")
    _add_heuristic(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the full run record here")
    p.add_argument("--no-cloud", action="store_true")
    p.add_argument("--model", action="store_true", help="print a sat assignment")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("oracle", help="exact branch function on a small instance")
    p.add_argument("cnf")
    _add_heuristic(p)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_VAR_CAP)
    p.add_argument("--dump", help="dump sparse operator entries here")
    p.add_argument("--mc", type=_count, default=0,
                   help="cross-check with this many solver runs (0: off)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("ensemble", help="seeded Monte Carlo tree-size ensembles")
    p.add_argument("--config", help="key=value config file (schema_version = 1)")
    p.add_argument("--alpha0", type=float)
    p.add_argument("--n-values", help="comma-separated N list")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--heuristic", dest="heuristic_opt", choices=HEURISTICS)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.add_argument("--fit", action="store_true", help="extrapolate omega")
    p.add_argument("--measure-g", action="store_true",
                   help="average the highest backtracking node over sat runs")
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("ode", help="branch trajectories and alpha_L")
    p.add_argument("--alpha0", type=float)
    _add_heuristic(p)
    p.add_argument("--alpha-l", action="store_true", help="locate alpha_L and T")
    p.add_argument("--find-g", action="store_true")
    p.add_argument("--critical-table", help="CSV of (p, alpha_c) points above 2/5")
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(fn=cmd_ode)

    p = sub.add_parser("pde", help="growth PDE: omega predictions")
    p.add_argument("--alpha0", type=float)
    _add_heuristic(p)
    p.add_argument("--upper-sat", action="store_true")
    p.add_argument("--g", help="explicit G point as 'p,alpha,t'")
    p.add_argument("--critical-table")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pde)

    p = sub.add_parser("annealed", help="clause-vector chain mass curve")
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--n-vars", type=int, required=True)
    p.add_argument("--pruning", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_annealed)

    p = sub.add_parser("report", help="write report data files")
    p.add_argument("kind", choices=["table1", "phase-diagram", "cloud",
                                    "surface", "mass-curve"])
    p.add_argument("--out", required=True)
    p.add_argument("--alpha0", type=float, default=10.0)
    p.add_argument("--n-vars", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=0.05)
    p.add_argument("--g", help="G point as 'p,alpha,t' for the upper-sat row")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

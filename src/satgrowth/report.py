"""CSV/JSON report generation: tables and figure data reproducing the
phase-diagram trajectories, search-tree clouds, omega table, growth surface,
and annealed mass curves.

All outputs are plain CSV with a header row and fixed number formatting, so
identical inputs produce byte-identical files.  The surface, mass-curve and
growth-series writers take the computed result, so a caller that also
prints from it computes it once.
"""

import csv
import json
import os
from typing import Dict, Iterable, Optional, Sequence

from . import annealed, dpll, growth, trajectory
from .cnf import check_alpha0, generate_random_instance
from .dpll import GUC
from .ensemble import OmegaEstimate, derive_seed
from .trajectory import CriticalLine, GPoint


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return "%.10g" % x
    return str(x)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    return path


def report_table1(out_path: str, omega_exp: Dict[float, OmegaEstimate],
                  unsat_alphas: Sequence[float] = (4.3, 7.0, 10.0, 15.0, 20.0),
                  upper_sat_alpha: Optional[float] = 3.5,
                  g_point: Optional[GPoint] = None) -> str:
    """Experiment vs theory omega table: one row per start ratio with the
    measured exponent (when ensemble estimates are supplied), the GUC
    growth-PDE prediction, and the large-ratio asymptote."""
    rows = []
    for a0 in unsat_alphas:
        est = omega_exp.get(a0)
        rows.append([a0,
                     None if est is None else est.omega,
                     None if est is None else est.std_error,
                     growth.omega_theory(a0, GUC),
                     growth.asymptotic_omega(a0)])
    if upper_sat_alpha is not None:
        est = omega_exp.get(upper_sat_alpha)
        if g_point is not None:
            om = growth.omega_upper_sat_from_g(g_point, GUC).omega_bits
        else:
            om = growth.omega_upper_sat(upper_sat_alpha, GUC).omega_bits
        rows.append([upper_sat_alpha,
                     None if est is None else est.omega,
                     None if est is None else est.std_error,
                     om, None])
    return _write_csv(out_path,
                      ["alpha0", "omega_exp", "omega_exp_stderr", "omega_the",
                       "asymptote"], rows)


def report_phase_diagram(out_dir: str,
                         branch_alphas: Sequence[float] = (2.0, 2.8, 3.5),
                         tree_alphas: Sequence[float] = (4.3, 7.0, 10.0)
                         ) -> Dict[str, str]:
    """Phase-diagram data under GUC: branch trajectories (sat side), tree
    trajectories (dominant-branch densities in the unsat growth regime), the
    default critical line, and the halt line."""
    os.makedirs(out_dir, exist_ok=True)
    line = CriticalLine()
    paths = {}
    rows = []
    for a0 in branch_alphas:
        traj = trajectory.integrate_branch(a0, GUC)
        for pt in traj.phase_points():
            rows.append(["branch", a0, pt.t, pt.p, pt.alpha])
    for a0 in tree_alphas:
        series = growth.solve_characteristics(a0, GUC)
        for smp in series.samples:
            rows.append(["tree", a0, smp.t, smp.p_star, smp.alpha_star])
    paths["trajectories"] = _write_csv(
        os.path.join(out_dir, "trajectories.csv"),
        ["kind", "alpha0", "t", "p", "alpha"], rows)
    line_rows = []
    for i in range(121):
        p = i / 120
        halt = growth.halt_line_alpha(p) if p < 1.0 else None
        line_rows.append([p, line.alpha_c(p), halt])
    paths["lines"] = _write_csv(os.path.join(out_dir, "lines.csv"),
                                ["p", "alpha_critical", "alpha_halt"], line_rows)
    return paths


def report_cloud(out_path: str, alpha0: float, n_vars: int, seed: int) -> str:
    """Search-tree cloud of one GUC solve: the (p, alpha, t) of every split
    node."""
    check_alpha0(alpha0)
    inst = generate_random_instance(n_vars, 0, int(round(alpha0 * n_vars)),
                                    derive_seed(seed, "gen"))
    stats = dpll.solve(inst, GUC, derive_seed(seed, "solve"))
    return _write_csv(out_path, ["p", "alpha", "t"],
                      [[pt.p, pt.alpha, pt.t] for pt in stats.cloud])


def report_surface(out_path: str, snap: growth.SurfaceSnapshot) -> str:
    """Gridded omega(p, alpha; t) snapshot (nats); absent cells left empty."""
    rows = []
    for i, a in enumerate(snap.alpha_axis):
        for j, p in enumerate(snap.p_axis):
            om = snap.omega[i][j]
            rows.append([p, a, None if om != om else om])
    return _write_csv(out_path, ["p", "alpha", "omega_nats"], rows)


def write_mass_curve(out_path: str, curve: Sequence[annealed.AnnealedStep]) -> str:
    """Annealed-chain mass curve (annealed.mass_curve): total branch mass,
    mean clause counts and the mass pruned at each step."""
    return _write_csv(out_path,
                      ["T", "total_mass", "mean_c2", "mean_c3", "pruned_mass"],
                      [[st.T, st.total_mass, st.mean_c2, st.mean_c3, st.pruned_mass]
                       for st in curve])


def report_growth_series(out_path: str, series: growth.GrowthSeries) -> str:
    """Tree-trajectory series: omega*(t), dominant densities, split probability."""
    return _write_csv(out_path,
                      ["t", "omega_nats", "omega_bits", "c2", "c3", "p",
                       "alpha", "rho_split"],
                      [[s.t, s.omega_nats, s.omega_bits, s.c2_star, s.c3_star,
                        s.p_star, s.alpha_star, s.rho_split]
                       for s in series.samples])


def report_branch_trajectory(out_path: str, alpha0: float, heuristic: str) -> str:
    """Branch-trajectory CSV: (t, c2, c3, p, alpha, rho1) along the descent."""
    traj = trajectory.integrate_branch(alpha0, heuristic)
    rows = []
    for st in traj.states:
        if st.c2 < 0 or st.c2 + st.c3 <= 0:
            continue
        pt = trajectory.to_phase_coords(st)
        rows.append([st.t, st.c2, st.c3, pt.p, pt.alpha, trajectory.rho1(st)])
    return _write_csv(out_path, ["t", "c2", "c3", "p", "alpha", "rho1"], rows)


def write_run_record_json(out_path: str, stats: dpll.SolveStats,
                          alpha0: Optional[float]) -> str:
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(stats.to_record(alpha0), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out_path

"""The benchmark's three workloads.

Each workload makes its inputs from the seed (`make_inputs`), runs them with
tracing off (`run`), checks the outputs (`check`), and replays them with spans
at the layer boundaries (`trace`) to give the per-layer metrics.  Inputs come
from `ensemble.derive_seed`, so a seed fixes every instance and every solver
stream.  All load comes from one process: closed loop, batch.

Per-layer times are self times: a span's duration minus its child spans.
Integrator callbacks run inside `integrate_ode`, so the right-hand sides of
growth and trajectory count as numerics time.
"""

import contextlib
import time

from satgrowth import (annealed, cnf, dpll, ensemble, growth, numerics, oracle,
                       trajectory)

import checks
from spans import patched, span_cost

# (name, unit, better) of the metrics a user of satgrowth sees, reported by
# every workload with tracing off
END_TO_END = (("wall_s", "s", "lower"),
              ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))

# (name, unit, better) of every per-layer metric, reported by the traced run;
# a workload reports 0 for a layer it does not exercise
PER_LAYER = (
    [("dpll.splits_per_s.N%d" % n, "1/s", "higher") for n in (100, 150, 200, 250)]
    + [("dpll.solve_s", "s", "lower")]
    + [("dpll.us_per_solve." + h, "us", "lower") for h in dpll.HEURISTICS]
    + [("dpll.init_ms", "ms", "lower"),
       ("dpll.solves", "count", "higher"),
       ("dpll.splits", "count", "lower"),
       ("dpll.leaves", "count", "lower"),
       ("cnf.generate_s", "s", "lower"),
       ("cnf.brute_force_s", "s", "lower"),
       ("ensemble.busy_frac", "frac", "higher"),
       ("ensemble.fit_s", "s", "lower"),
       ("ensemble.splits_per_s", "1/s", "higher"),
       ("oracle.build_s", "s", "lower"),
       ("oracle.states", "count", "lower"),
       ("oracle.nnz", "count", "lower"),
       ("oracle.states_per_s", "1/s", "higher"),
       ("oracle.stationary_s", "s", "lower"),
       ("oracle.mc_self_s", "s", "lower"),
       ("annealed.steps", "count", "lower"),
       ("annealed.s_per_step.N75", "s", "lower"),
       ("annealed.s_per_step.N150", "s", "lower"),
       ("annealed.cells", "count", "lower"),
       ("annealed.max_cells", "count", "lower"),
       ("annealed.cells_per_s", "1/s", "higher"),
       ("growth.omega_theory_s", "s", "lower"),
       ("growth.upper_sat_s", "s", "lower"),
       ("numerics.integrate_ode_calls", "count", "lower"),
       ("numerics.integrate_ode_s", "s", "lower"),
       ("trajectory.find_alpha_l_s", "s", "lower"),
       ("trajectory.find_g_s", "s", "lower"),
       ("trace.overhead_frac", "frac", "lower"),
       ("trace.unattributed_frac", "frac", "lower")])

ROOT_SPAN = "bench"


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _ratio(num, den):
    return num / den if den else 0.0


class Outcomes:
    """Failure messages per operation; an operation with none passed."""

    def __init__(self):
        self.fails = {}

    def record(self, key, fails=()):
        self.fails.setdefault(key, []).extend(fails)

    def run(self, key, fn, *args):
        """Call fn, recording an exception as the operation's failure."""
        try:
            return fn(*args)
        except Exception as exc:  # an operation that raises has failed
            self.record(key, [f"{key}: {type(exc).__name__}: {exc}"])
            return None

    @property
    def attempted(self):
        return len(self.fails)

    @property
    def failed(self):
        return sum(1 for msgs in self.fails.values() if msgs)

    def messages(self):
        return [m for msgs in self.fails.values() for m in msgs]


class Workload:
    name = ""
    unit_s = 1.0  # rough seconds of one repetition on the reference host

    def __init__(self, seed, seconds, workers, reference, default_seed):
        self.seed = seed
        self.workers = workers
        self.reps = max(1, round(seconds / self.unit_s))
        self.reference = reference[self.name]
        self.at_default = seed == default_seed

    def extra(self, res):
        """Figures of the untraced run printed beside the metrics."""
        return {}

    @staticmethod
    def unattributed(tracer):
        """Share of the traced root spans' time outside every layer span."""
        return _ratio(tracer.self_by_name()[ROOT_SPAN], tracer.total(ROOT_SPAN))

    @staticmethod
    def overhead(tracer):
        """Share of the traced time that tracing itself added: the span count
        times the measured cost of one span, over the root spans' time."""
        roots = sum(tracer.duration(i) for i, p in enumerate(tracer.parents) if p < 0)
        return len(tracer.names) * span_cost() / roots


# ------------------------------------------------------------ mc-alpha10

class McAlpha10(Workload):
    """GUC ensemble at alpha0 = 10 through ensemble.run_ensemble, one pool of
    `workers` processes per repetition; each repetition draws fresh trials."""

    name = "mc-alpha10"
    unit_s = 7.5
    ALPHA0 = 10.0
    N_VALUES = (100, 150, 200, 250)
    TRIALS = 12

    def make_inputs(self, tracer=None):
        return [ensemble.EnsembleConfig(
                    self.ALPHA0, self.N_VALUES, self.TRIALS,
                    base_seed=ensemble.derive_seed(self.seed, self.name, rep),
                    parallelism=self.workers)
                for rep in range(self.reps)]

    def keys(self, rep):
        return [(rep, n, t) for n in self.N_VALUES for t in range(self.TRIALS)]

    def run(self, configs, out):
        walls = []
        records = {}
        for rep, cfg in enumerate(configs):
            start = time.perf_counter()
            recs = out.run(("ensemble", rep), ensemble.run_ensemble, cfg) or []
            walls.append(time.perf_counter() - start)
            for r in recs:
                records[(rep, r.n_vars, r.trial)] = r
        start = time.perf_counter()
        fit = out.run("omega-fit", ensemble.extrapolate_omega,
                      list(records.values()), 3, self.TRIALS)
        fit_s = time.perf_counter() - start
        return {"walls": walls, "records": records, "fit": fit, "fit_s": fit_s}

    def check(self, res, out):
        rows = self.reference["records"] if self.at_default else None
        for rep in range(self.reps):
            for key in self.keys(rep):
                rec = res["records"].get(key)
                if rec is None:
                    out.record(key, [f"{key}: no record"])
                else:
                    out.record(key, checks.check_mc_record(key, rec, rows))
        if res["fit"] is not None:
            out.record("omega-fit", checks.check_omega_fit(res["fit"]))

    def extra(self, res):
        splits = sum(r.q_splits for r in res["records"].values())
        return {"splits_per_s": splits / sum(res["walls"])}

    def trace(self, configs, out, tracer):
        """The untraced parallel run, then a serial replay of every (N, trial)
        seed through the public cnf and dpll entry points, deriving the seeds
        as ensemble's workers do."""
        res = self.run(configs, out)
        self.check(res, out)
        splits_n = dict.fromkeys(self.N_VALUES, 0)
        solve_s_n = dict.fromkeys(self.N_VALUES, 0.0)
        for rep, cfg in enumerate(configs):
            with tracer.span(ROOT_SPAN):
                for n in self.N_VALUES:
                    n3 = int(round(cfg.alpha0 * n))
                    for trial in range(cfg.trials_per_n):
                        gen_seed = ensemble.derive_seed(cfg.base_seed, "gen", n, trial)
                        solve_seed = ensemble.derive_seed(cfg.base_seed, "solve", n, trial)
                        with tracer.span("cnf.generate"):
                            inst = cnf.generate_random_instance(n, 0, n3, gen_seed)
                        with tracer.span("dpll.init"):
                            solver = dpll.DpllSolver(inst, cfg.heuristic)
                        with tracer.span("dpll.solve") as i_solve:
                            stats = solver.solve(solve_seed, record_cloud=False)
                        splits_n[n] += stats.q_splits
                        solve_s_n[n] += tracer.duration(i_solve)
                        tracer.add("dpll.solves")
                        tracer.add("dpll.splits", stats.q_splits)
                        tracer.add("dpll.leaves", stats.b_leaves)
                        g = stats.g_node
                        row = [stats.result, stats.q_splits, stats.b_leaves,
                               *(g if g is not None else (None, None, None))]
                        key = (rep, n, trial)
                        rec = res["records"].get(key)
                        if rec is not None:
                            out.record(key, checks.check_replay(key, rec, row))
        selfs = tracer.self_by_name()
        solves = tracer.counts["dpll.solves"]
        busy = sum(r.runtime_s for r in res["records"].values())
        m = {"dpll.splits_per_s.N%d" % n: _ratio(splits_n[n], solve_s_n[n])
             for n in self.N_VALUES}
        m.update({
            "dpll.solve_s": selfs["dpll.solve"],
            "dpll.us_per_solve.GUC": 1e6 * _ratio(selfs["dpll.solve"], solves),
            "dpll.init_ms": 1e3 * _ratio(selfs["dpll.init"], solves),
            "dpll.solves": solves,
            "dpll.splits": tracer.counts["dpll.splits"],
            "dpll.leaves": tracer.counts["dpll.leaves"],
            "cnf.generate_s": selfs["cnf.generate"],
            "ensemble.busy_frac": busy / (self.workers * sum(res["walls"])),
            "ensemble.fit_s": res["fit_s"],
            "ensemble.splits_per_s": self.extra(res)["splits_per_s"],
            "trace.overhead_frac": self.overhead(tracer),
            "trace.unattributed_frac": self.unattributed(tracer),
        })
        return m


# ------------------------------------------------------------- oracle-n8

class OracleN8(Workload):
    """Exact oracle plus its Monte Carlo bridge on small unsat instances:
    many tiny solves, where per-call cost outweighs search."""

    name = "oracle-n8"
    unit_s = 6.5
    N_VARS = 8
    RATIOS = (4.0, 5.5, 7.0, 8.5, 10.0)
    PER_REP = 10  # three repetitions hold each (ratio, heuristic) pair twice
    MC_TRIALS = 1000

    def make_inputs(self, tracer=None):
        """[(key, instance, heuristic, mc_seed)]: instance i is the first
        unsat draw at ratio i mod 5 and runs heuristic i mod 3."""
        out = []
        for rep in range(self.reps):
            for i in range(rep * self.PER_REP, (rep + 1) * self.PER_REP):
                n3 = int(round(self.RATIOS[i % len(self.RATIOS)] * self.N_VARS))
                draw = 0
                while True:
                    seed = ensemble.derive_seed(self.seed, self.name, rep, i, draw)
                    with _span(tracer, "cnf.generate"):
                        inst = cnf.generate_random_instance(self.N_VARS, 0, n3, seed)
                    with _span(tracer, "cnf.brute_force"):
                        sat = cnf.brute_force_satisfiable(inst)
                    if not sat:
                        break
                    draw += 1
                heuristic = dpll.HEURISTICS[i % len(dpll.HEURISTICS)]
                mc_seed = ensemble.derive_seed(self.seed, self.name + "/mc", rep, i)
                out.append(((rep, i), inst, heuristic, mc_seed))
        return out

    def _instance(self, inst, heuristic, mc_seed, tracer=None):
        with _span(tracer, "oracle.build"):
            op = oracle.build_evolution_operator(inst, heuristic)
        with _span(tracer, "oracle.stationary"):
            t_star, b_star = oracle.stationary_tree_size(inst, heuristic)
        with _span(tracer, "oracle.monte_carlo"):
            mean, se = oracle.monte_carlo_leaf_mean(inst, heuristic,
                                                    self.MC_TRIALS, mc_seed)
        return {"states": len(op.columns), "nnz": op.nnz(), "t_star": t_star,
                "b_star": b_star, "mean": mean, "se": se}

    def _loop(self, inputs, out, tracer=None):
        walls = []
        results = {}
        for rep in range(self.reps):
            start = time.perf_counter()
            with _span(tracer, ROOT_SPAN):
                for key, inst, heuristic, mc_seed in inputs:
                    if key[0] == rep:
                        results[key] = out.run(key, self._instance, inst,
                                               heuristic, mc_seed, tracer)
            walls.append(time.perf_counter() - start)
        return {"walls": walls, "results": results}

    def run(self, inputs, out):
        return self._loop(inputs, out)

    def check(self, res, out):
        refs = self.reference["instances"] if self.at_default else {}
        for key, r in res["results"].items():
            if r is None:
                continue
            ref = refs.get("/".join(map(str, key)))
            out.record(key, checks.check_oracle_instance(
                key, r["t_star"], r["b_star"], r["mean"], r["se"], ref))

    def trace(self, inputs, out, tracer):
        counts = tracer.counts

        def on_solve(args, stats, seconds):
            h = args[0].heuristic
            counts["dpll.solves"] += 1
            counts["dpll.splits"] += stats.q_splits
            counts["dpll.leaves"] += stats.b_leaves
            counts["solves." + h] += 1
            counts["solve_s." + h] += seconds

        with tracer.span("setup"):
            self.make_inputs(tracer)
        with patched(
                (dpll.DpllSolver, "__init__",
                 tracer.wrap(dpll.DpllSolver.__init__, "dpll.init")),
                (dpll.DpllSolver, "solve",
                 tracer.wrap(dpll.DpllSolver.solve, "dpll.solve", on_solve)),
                (oracle, "brute_force_satisfiable",
                 tracer.wrap(oracle.brute_force_satisfiable, "cnf.brute_force"))):
            res = self._loop(inputs, out, tracer)
        self.check(res, out)
        selfs = tracer.self_by_name()
        ok = [r for r in res["results"].values() if r is not None]
        states = sum(r["states"] for r in ok)
        m = {
            "dpll.solve_s": selfs["dpll.solve"],
            "dpll.init_ms": 1e3 * _ratio(selfs["dpll.init"], tracer.calls("dpll.init")),
            "dpll.solves": counts["dpll.solves"],
            "dpll.splits": counts["dpll.splits"],
            "dpll.leaves": counts["dpll.leaves"],
            "cnf.generate_s": selfs["cnf.generate"],
            "cnf.brute_force_s": selfs["cnf.brute_force"],
            "oracle.build_s": selfs["oracle.build"],
            "oracle.states": states,
            "oracle.nnz": sum(r["nnz"] for r in ok),
            "oracle.states_per_s": _ratio(states, selfs["oracle.build"]),
            "oracle.stationary_s": selfs["oracle.stationary"],
            "oracle.mc_self_s": selfs["oracle.monte_carlo"],
            "trace.overhead_frac": self.overhead(tracer),
            "trace.unattributed_frac": self.unattributed(tracer),
        }
        for h in dpll.HEURISTICS:
            m["dpll.us_per_solve." + h] = 1e6 * _ratio(counts["solve_s." + h],
                                                       counts["solves." + h])
        return m


# ----------------------------------------------------- meanfield-alpha10

class MeanfieldAlpha10(Workload):
    """The analytic layers, no DPLL: the annealed chain at alpha0 = 10, the
    Table 1 growth-PDE omegas, the upper-sat composition and alpha_L.  The
    inputs are fixed; the seed does not enter."""

    name = "meanfield-alpha10"
    unit_s = 50.0
    ANNEALED_N = (75, 150)
    TABLE1_ALPHA0 = tuple(sorted(checks.T1_REFERENCE))
    UPPER_SAT_ALPHA0 = 3.5

    def make_inputs(self, tracer=None):
        return None

    def _once(self, out, tracer=None):
        res = {}
        for a0 in self.TABLE1_ALPHA0:
            with _span(tracer, "growth.omega_theory"):
                res[("omega_theory", a0)] = out.run(
                    ("omega_theory", a0), growth.omega_theory, a0)
        with _span(tracer, "growth.omega_upper_sat"):
            res["upper_sat"] = out.run("upper_sat", growth.omega_upper_sat,
                                       self.UPPER_SAT_ALPHA0)
        with _span(tracer, "trajectory.find_alpha_l"):
            res["alpha_l"] = out.run("alpha_l", trajectory.find_alpha_l, dpll.GUC)
        for n in self.ANNEALED_N:
            with _span(tracer, "annealed.omega_estimate"):
                res[("annealed", n)] = out.run(
                    ("annealed", n), annealed.annealed_omega_estimate, 10.0, n)
        return res

    def _loop(self, out, tracer=None):
        walls = []
        for _ in range(self.reps):
            start = time.perf_counter()
            with _span(tracer, ROOT_SPAN):
                res = self._once(out, tracer)
            walls.append(time.perf_counter() - start)
        return {"walls": walls, "results": res}

    def run(self, inputs, out):
        return self._loop(out)

    def check(self, res, out):
        r = res["results"]
        for a0 in self.TABLE1_ALPHA0:
            if r[("omega_theory", a0)] is not None:
                out.record(("omega_theory", a0),
                           checks.check_omega_theory(a0, r[("omega_theory", a0)]))
        if r["upper_sat"] is not None:
            out.record("upper_sat", checks.check_upper_sat(
                r["upper_sat"].omega_bits, self.reference["upper_sat_omega_bits"]))
        if r["alpha_l"] is not None:
            out.record("alpha_l", checks.check_alpha_l(r["alpha_l"]))
        omegas = {}
        for n in self.ANNEALED_N:
            est = r[("annealed", n)]
            if est is None:
                continue
            omegas[n] = est[0]
            masses = [st.total_mass for st in est[2]]
            out.record(("annealed", n), checks.check_mass_curve(
                n, masses, self.reference["mass_curves"][str(n)]))
        if len(omegas) == len(self.ANNEALED_N):
            out.record(("annealed", max(omegas)), checks.check_annealed_trend(omegas))

    def trace(self, inputs, out, tracer):
        counts = tracer.counts

        def on_field(args, field, seconds):
            n = args[1]
            counts["annealed.s.N%d" % n] += seconds
            if field.T > 0:
                counts["annealed.steps.N%d" % n] += 1
                counts["annealed.cells"] += field.array.size
                counts["annealed.max_cells"] = max(counts["annealed.max_cells"],
                                                   field.array.size)

        ode = tracer.wrap(numerics.integrate_ode, "numerics.integrate_ode")
        with patched(
                (annealed, "evolve_branch_counts",
                 tracer.wrap_generator(annealed.evolve_branch_counts,
                                       "annealed.step", on_field)),
                (growth, "integrate_ode", ode),
                (trajectory, "integrate_ode", ode),
                (growth, "find_g", tracer.wrap(trajectory.find_g, "trajectory.find_g"))):
            res = self._loop(out, tracer)
        self.check(res, out)
        selfs = tracer.self_by_name()
        steps = {n: counts["annealed.steps.N%d" % n] for n in self.ANNEALED_N}
        return {
            "annealed.steps": sum(steps.values()),
            "annealed.s_per_step.N75": _ratio(counts["annealed.s.N75"], steps[75]),
            "annealed.s_per_step.N150": _ratio(counts["annealed.s.N150"], steps[150]),
            "annealed.cells": counts["annealed.cells"],
            "annealed.max_cells": counts["annealed.max_cells"],
            "annealed.cells_per_s": _ratio(counts["annealed.cells"],
                                           selfs["annealed.step"]),
            "growth.omega_theory_s": selfs["growth.omega_theory"],
            "growth.upper_sat_s": selfs["growth.omega_upper_sat"],
            "numerics.integrate_ode_calls": tracer.calls("numerics.integrate_ode"),
            "numerics.integrate_ode_s": selfs["numerics.integrate_ode"],
            "trajectory.find_alpha_l_s": selfs["trajectory.find_alpha_l"],
            "trajectory.find_g_s": selfs["trajectory.find_g"],
            "trace.overhead_frac": self.overhead(tracer),
            "trace.unattributed_frac": self.unattributed(tracer),
        }


WORKLOADS = {w.name: w for w in (McAlpha10, OracleN8, MeanfieldAlpha10)}

import math
from collections import Counter

import pytest

from common import I1, I2, I3, unsat_corpus
from satgrowth import cnf, dpll, trajectory
from satgrowth.cnf import Instance, brute_force_satisfiable, clause, \
    generate_random_instance
from satgrowth.dpll import CONTRADICTION, QUIESCENT, DpllSolver


def test_i1_single_branch():
    for h in dpll.HEURISTICS:
        s = dpll.solve(I1, h, 3)
        assert s.result == "unsat"
        assert s.b_leaves == 1 and s.q_splits == 0
        assert s.cloud == [] and s.g_node is None


def test_i2_unique_tree():
    for seed in range(10):
        s = dpll.solve(I2, "GUC", seed)
        assert s.result == "unsat"
        assert (s.q_splits, s.b_leaves) == (1, 2)
        assert s.cloud == [dpll.PhasePoint(0.0, 2.0, 0.0)]


def test_i3_leaf_distribution():
    counts = Counter(dpll.solve(I3, "GUC", seed).b_leaves
                     for seed in range(20000))
    assert set(counts) == {2, 4}
    mean = (2 * counts[2] + 4 * counts[4]) / 20000
    # exact expectation 12/5; sigma of the mean ~ 0.0057
    assert abs(mean - 2.4) < 3 * 0.0057


def test_i3_first_split_uniformity():
    # the tautological clause is drawn with probability 1/5
    solver = DpllSolver(I3, "GUC")
    hits = 0
    trials = 10000
    for seed in range(trials):
        solver.reset(seed)
        lit = solver.select_literal()
        if lit >> 1 == 2:
            hits += 1
    sigma = math.sqrt(0.2 * 0.8 / trials)
    assert abs(hits / trials - 0.2) < 3 * sigma


def test_i2_root_split_uniformity():
    solver = DpllSolver(I2, "GUC")
    hits = Counter()
    for seed in range(4000):
        solver.reset(seed)
        hits[solver.select_literal() >> 1] += 1
    assert abs(hits[0] / 4000 - 0.5) < 3 * math.sqrt(0.25 / 4000)


def test_forced_unit_selection():
    inst = Instance(3, [clause(-3), clause(1, 2, 3)])
    solver = DpllSolver(inst, "UC")
    solver.reset(0)
    lit = solver.select_literal()
    assert lit == 2 * 2 + 1  # the negated literal of x3 is forced


def test_sc1_majority_rule():
    # v occurs 3 times positive, once negative in 3-clauses: assert v true
    inst = Instance(5, [clause(1, 2, 3), clause(1, -2, 4), clause(1, 3, 5),
                        clause(-1, 4, 5)])
    solver = DpllSolver(inst, "SC1")
    for seed in range(50):
        solver.reset(seed)
        lit = solver.select_literal()
        if lit >> 1 == 0:
            assert lit & 1 == 0  # positive sign wins the majority


def test_unit_propagate_examples():
    solver = DpllSolver(I1, "GUC")
    solver.reset(1)
    assert solver.propagate() == CONTRADICTION

    solver = DpllSolver(I2, "GUC")
    solver.reset(1)
    assert solver.propagate() == QUIESCENT
    solver.assign(0)  # x1 := true, leaves units (x2) and (not x2)
    assert solver.propagate() == CONTRADICTION

    inst = Instance(2, [clause(1, 2)])
    solver = DpllSolver(inst, "GUC")
    solver.reset(1)
    before = solver.clause_vector()
    assert solver.propagate() == QUIESCENT
    assert solver.clause_vector() == before


def test_assign_unassign_roundtrip():
    inst = generate_random_instance(10, 5, 20, 3)
    solver = DpllSolver(inst, "GUC")
    solver.reset(0)
    ref = solver.clause_vector()
    for lit in (0, 3, 5):
        solver.assign(lit)
    for _ in range(3):
        solver.unassign()
    assert solver.clause_vector() == ref
    assert cnf.clause_vector(inst, solver.partial_state()) == ref


def test_random_walk_bookkeeping_differential():
    # arbitrary assign/unassign walks keep the live pools equal to the
    # reference classification
    import random as _random
    rng = _random.Random(0)
    for trial in range(12):
        inst = generate_random_instance(10, rng.randrange(0, 8), 30,
                                        7000 + trial)
        s = DpllSolver(inst, "GUC")
        s.reset(trial)
        depth = 0
        for _ in range(200):
            if depth and rng.random() < 0.4:
                s.unassign()
                depth -= 1
            else:
                free = [v for v in range(10) if s.val[v] < 0]
                if not free:
                    continue
                s.assign(2 * rng.choice(free) + rng.randrange(2))
                depth += 1
            if s.conflict:
                while depth:
                    s.unassign()
                    depth -= 1
                s.conflict = False
            assert cnf.clause_vector(inst, s.partial_state()) == s.clause_vector()


def test_q_equals_b_minus_one_on_unsat():
    for inst in unsat_corpus(8, seed0=400):
        for h in dpll.HEURISTICS:
            s = dpll.solve(inst, h, 11)
            assert s.result == "unsat"
            assert s.q_splits == s.b_leaves - 1


def test_completeness_small_n():
    for seed in range(120):
        n = 4 + seed % 9  # up to 12 variables
        inst = generate_random_instance(n, seed % 4, 3 * n, 5000 + seed)
        want = brute_force_satisfiable(inst)
        got = dpll.solve(inst, dpll.HEURISTICS[seed % 3], seed).result
        assert (got == "sat") == want


def test_live_clause_vector_matches_reference(reference, monkeypatch):
    # the reference loop asks for a literal at each quiescent split node;
    # there its live pools must equal a fresh classification of the marks
    select = DpllSolver.select_literal
    checked = []

    def checked_select(solver):
        ref = cnf.clause_vector(solver.instance, solver.partial_state())
        assert solver.clause_vector() == ref
        checked.append(ref)
        return select(solver)
    monkeypatch.setattr(DpllSolver, "select_literal", checked_select)
    with reference():
        for seed in range(10):
            inst = generate_random_instance(12, 4, 40, 900 + seed)
            dpll.solve(inst, "GUC", seed)
    assert checked


def test_sat_assignment_verified():
    inst = generate_random_instance(40, 0, 80, 5)  # low ratio: satisfiable
    s = dpll.solve(inst, "GUC", 9)
    assert s.result == "sat"
    marks = [cnf.T if v else cnf.F for v in s.assignment]
    assert cnf.classify(inst.clauses(), marks) == (False, [])


def test_lower_sat_linear_scaling():
    s500 = dpll.solve(generate_random_instance(500, 0, 1000, 5), "GUC", 6,
                      record_cloud=False)
    s1000 = dpll.solve(generate_random_instance(1000, 0, 2000, 7), "GUC", 8,
                       record_cloud=False)
    assert s500.result == "sat" and s1000.result == "sat"
    assert s500.b_leaves - 1 <= 25 and s1000.b_leaves - 1 <= 25
    assert 1.4 < s1000.q_splits / s500.q_splits < 2.8


def test_cloud_tracks_branch_trajectory():
    # backtrack-free sat run: split-node cloud sits on the ODE trajectory
    inst = generate_random_instance(2000, 0, 4000, 77)
    stats = dpll.solve(inst, "GUC", 78)
    assert stats.result == "sat"
    traj = trajectory.integrate_branch(2.0, "GUC")
    checked = 0
    for pt in stats.cloud:
        if pt.t < 0.65 * traj.t_end:
            ref = trajectory.to_phase_coords(traj.at(pt.t))
            assert abs(pt.alpha - ref.alpha) < 0.1
            assert abs(pt.p - ref.p) < 0.05
            checked += 1
    assert checked > 100


def test_g_node_is_shallowest_flip():
    # unsat runs with splits flip the root split eventually
    inst = unsat_corpus(1, seed0=123)[0]
    s = dpll.solve(inst, "GUC", 3)
    assert s.result == "unsat"
    if s.q_splits > 0:
        assert s.g_node == s.cloud[0]


def test_run_record_shape():
    rec = dpll.solve(I2, "GUC", 1).to_record(alpha0=2.0)
    assert set(rec) == {"result", "q_splits", "b_leaves", "g_node", "cloud",
                        "seed", "heuristic", "n_vars", "alpha0"}
    assert rec["result"] == "unsat" and rec["alpha0"] == 2.0
    assert rec["cloud"] == [[0.0, 2.0, 0.0]]


def test_bad_heuristic_rejected():
    with pytest.raises(ValueError):
        DpllSolver(I1, "DLIS")

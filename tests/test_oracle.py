import gc
import weakref
from fractions import Fraction

import pytest

from common import I1, I2, I3, unsat_corpus, violating_states
from satgrowth import dpll
from satgrowth.cnf import (Instance, clause, generate_random_instance,
                           parse_marks)
from satgrowth.oracle import (SatisfiableInstanceError,
                              branch_function_sequence,
                              build_evolution_operator, monte_carlo_leaf_mean,
                              pack_state, stationary_tree_size,
                              transition_probs, unpack_state)

H = Fraction(1, 2)


def entry(op, s_prime, s):
    """<s'|H|s>: the weight of s' in column s, 0 when absent."""
    return next((w for idx, w in op.columns.get(s, ()) if idx == s_prime),
                Fraction(0))


def column_sum(op, s):
    return sum((w for _, w in op.columns.get(s, ())), Fraction(0))


def test_state_packing_roundtrip():
    for idx in range(3 ** 4):
        assert pack_state(unpack_state(idx, 4)) == idx


def test_i1_matrix_entries():
    op = build_evolution_operator(I1, "GUC")
    u, t, f = pack_state((0,)), pack_state((1,)), pack_state((2,))
    assert entry(op, t, u) == H and entry(op, f, u) == H
    assert entry(op, t, t) == 1 and entry(op, f, f) == 1
    assert entry(op, u, t) == 0 and entry(op, u, u) == 0
    assert op.nnz() == 4


def test_transition_prob_examples():
    # forced unit propagation on a single variable
    probs = transition_probs(I1, "GUC", parse_marks("u"))
    assert sorted(probs) == [(pack_state((1,)), H), (pack_state((2,)), H)]
    # root split of I3: x1, x2 drawn w.p. 2/5 each, x3 w.p. 1/5
    probs = dict(transition_probs(I3, "GUC", parse_marks("uuu")))
    assert probs[pack_state((1, 0, 0))] == Fraction(2, 5)
    assert probs[pack_state((0, 2, 0))] == Fraction(2, 5)
    assert probs[pack_state((0, 0, 1))] == Fraction(1, 5)
    assert probs[pack_state((0, 0, 2))] == Fraction(1, 5)
    assert sum(probs.values()) == 2  # split: both children per variable
    # unit propagation after assigning x1 in I2
    probs = dict(transition_probs(I2, "GUC", parse_marks("tu")))
    assert probs == {pack_state((1, 1)): H, pack_state((1, 2)): H}


def test_transition_probs_all_satisfied_state():
    # every clause satisfied: no successor under any heuristic, as in the
    # operator's empty column
    inst = Instance(2, [clause(1, 2)])
    for heuristic in ("UC", "GUC", "SC1"):
        assert transition_probs(inst, heuristic, parse_marks("tu")) == []
        op = build_evolution_operator(inst, heuristic)
        assert op.columns[pack_state(parse_marks("tu"))] == []


def test_transition_probs_reject_violating():
    with pytest.raises(ValueError):
        transition_probs(I2, "GUC", parse_marks("tt"))


def test_operator_freed_without_the_cyclic_collector():
    # the operator and its columns view form no reference cycle, so a
    # dropped operator frees its arrays at once, also with the collector off
    op = build_evolution_operator(I3, "GUC")
    assert dict(op.columns)  # fills the view's caches
    ref = weakref.ref(op)
    was = gc.isenabled()
    gc.disable()
    try:
        del op
        assert ref() is None
    finally:
        if was:
            gc.enable()


def test_operator_sparsity_counts():
    assert build_evolution_operator(I2, "GUC").nnz() == 16
    # The per-state evolution rules enumerate to exactly 50 entries for this
    # instance (6 from the root split, 24 from unit-propagation states, 8
    # from the splits after x3, 12 absorbing diagonals).
    assert build_evolution_operator(I3, "GUC").nnz() == 50


def test_operator_column_sums():
    for inst in (I2, I3):
        op = build_evolution_operator(inst, "GUC")
        for s in op.columns:
            total = column_sum(op, s)
            if s in violating_states(op):
                assert total == 1
            else:
                assert total in (Fraction(1), Fraction(2))


def test_operator_offdiagonal_reduces_undetermined():
    op = build_evolution_operator(I3, "GUC")
    for s, col in op.columns.items():
        marks = unpack_state(s, 3)
        u_count = sum(1 for m in marks if m == 0)
        for s2, _ in col:
            if s2 == s:
                continue
            marks2 = unpack_state(s2, 3)
            assert sum(1 for m in marks2 if m == 0) == u_count - 1


def test_branch_function_golden_sequences():
    assert branch_function_sequence(I1, "GUC", 2) == [1, 1, 1]
    assert branch_function_sequence(I2, "GUC", 3) == [1, 2, 2, 2]
    seq = branch_function_sequence(I3, "GUC", 4)
    assert seq == [1, 2, Fraction(12, 5), Fraction(12, 5), Fraction(12, 5)]
    assert branch_function_sequence(I3, "GUC", 2)[-1] == Fraction(12, 5)


def test_branch_function_rejects_bad_depths():
    # a depth that is not an int >= 0 is refused before the pass runs: 2.5
    # would fail only after it, and True would be taken for 1
    for t_max in (-1, 2.5, True, False, "3", None):
        with pytest.raises(ValueError, match="t_max"):
            branch_function_sequence(I2, "GUC", t_max)


def dense_branch_sequence(op, t_max):
    """B(0..t_max) = <Sigma| H^T |U> by explicit products of the dense
    Fraction matrix H, built from op.columns over the reachable states, with
    a dense vector; absorbing states keep their mass through the self-loop."""
    states = sorted(op.columns)
    index = {s: i for i, s in enumerate(states)}
    h = [[Fraction(0)] * len(states) for _ in states]
    for s in states:
        for s2, w in op.columns[s]:
            h[index[s2]][index[s]] += w
    v = [Fraction(0)] * len(states)
    v[index[0]] = Fraction(1)
    seq = [sum(v)]
    for _ in range(t_max):
        v = [sum((w * x for w, x in zip(row, v) if w and x), Fraction(0))
             for row in h]
        seq.append(sum(v))
    return seq


def test_branch_function_matches_dense_products():
    # the 3-variable example, and sat and unsat random 2+p instances at
    # N <= 6 under every heuristic
    cases = [(I3, h) for h in dpll.HEURISTICS]
    for n in range(3, 7):
        for j, (n2, n3) in enumerate(((0, 2 * n), (n, 3 * n), (0, 7 * n))):
            inst = generate_random_instance(n, n2, n3, 5000 + 10 * n + j)
            cases.append((inst, dpll.HEURISTICS[(n + j) % 3]))
    assert {h for _, h in cases} == set(dpll.HEURISTICS)
    for inst, h in cases:
        op = build_evolution_operator(inst, h)
        t_max = inst.n_vars + 2
        assert (branch_function_sequence(inst, h, t_max, op)
                == dense_branch_sequence(op, t_max)), (inst.n_vars, h)


def test_stationary_tree_size_goldens():
    assert stationary_tree_size(I1, "GUC") == (1, 1)
    assert stationary_tree_size(I2, "GUC") == (1, 2)
    assert stationary_tree_size(I3, "GUC") == (2, Fraction(12, 5))


def test_stationary_requires_unsat():
    sat = Instance(2, [clause(1, 2)])
    with pytest.raises(SatisfiableInstanceError):
        stationary_tree_size(sat, "GUC")


def test_branch_function_monotone_and_stationary():
    for inst in unsat_corpus(5, n_vars=6, seed0=2000):
        seq = branch_function_sequence(inst, "GUC", inst.n_vars + 1)
        assert all(b >= a for a, b in zip(seq, seq[1:]))
        assert seq[inst.n_vars] == seq[inst.n_vars + 1]


def test_unknown_heuristic_rejected():
    # the names are case-sensitive, as in DpllSolver
    calls = (lambda: build_evolution_operator(I3, "guc"),
             lambda: transition_probs(I3, "guc", parse_marks("uuu")),
             lambda: stationary_tree_size(I3, "guc"))
    for call in calls:
        with pytest.raises(ValueError, match="unknown heuristic 'guc'"):
            call()


def test_var_cap():
    big = Instance(16, [clause(1, 2, 3)])
    with pytest.raises(ValueError):
        build_evolution_operator(big, "GUC")


def test_monte_carlo_exact_tree():
    mean, se = monte_carlo_leaf_mean(I2, "GUC", 500, 4)
    assert mean == 2.0 and se == 0.0


def test_monte_carlo_i3():
    mean, se = monte_carlo_leaf_mean(I3, "GUC", 100000, 7)
    assert abs(mean - 2.4) <= 3 * se
    assert se < 0.004


def test_oracle_matches_solver_on_random_unsat():
    for i, inst in enumerate(unsat_corpus(6, seed0=3000)):
        _, b_star = stationary_tree_size(inst, "GUC")
        mean, se = monte_carlo_leaf_mean(inst, "GUC", 4000, 60 + i)
        assert abs(mean - float(b_star)) <= 3 * se + 1e-9


def test_operator_dump(tmp_path):
    op = build_evolution_operator(I1, "GUC")
    path = tmp_path / "op.txt"
    with open(path, "w") as fh:
        op.dump(fh)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 4 for line in lines)

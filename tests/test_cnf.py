import io
import random

import pytest

from common import I1, I2, I3
from satgrowth.cnf import (F, T, U, ClauseVector, Instance,
                           brute_force_satisfiable, classify, clause,
                           clause_vector, generate_random_instance,
                           parse_marks, read_dimacs, dimacs_string)


def test_clause_status_examples():
    # satisfied: no slot list; violated: flagged; undetermined: its free slots
    assert classify([clause(1, 2)], parse_marks("tu")) == (False, [])
    assert classify([clause(-1, -2)], parse_marks("tt")) == (True, [])
    assert classify([clause(1, 2, 3)], parse_marks("fuu")) == (False, [[2, 4]])
    # a tautological pair keeps both slots while its variable is free
    assert classify([clause(3, -3)], parse_marks("tfu")) == (False, [[4, 5]])


def test_clause_status_total_and_disjoint():
    rng = random.Random(7)
    inst = generate_random_instance(6, 5, 15, 3)
    for _ in range(300):
        marks = [rng.randrange(3) for _ in range(6)]
        for cl in inst.clauses():
            violated, undet = classify([cl], marks)
            true = [lit for lit in cl
                    if marks[lit >> 1] == (T if lit & 1 == 0 else F)]
            free = [lit for lit in cl if marks[lit >> 1] == U]
            if true:  # satisfied
                assert (violated, undet) == (False, [])
            elif free:  # undetermined, with 1..len(cl) slots
                assert (violated, undet) == (False, [free])
                assert 1 <= len(free) <= len(cl)
            else:  # violated
                assert (violated, undet) == (True, [])


def test_clause_vector_examples():
    assert clause_vector(I2, parse_marks("uu")) == ClauseVector(0, 4, 0)
    # x1 = true satisfies two clauses and reduces the other two to units
    assert clause_vector(I2, parse_marks("tu")) == ClauseVector(2, 0, 0)
    sat = Instance(2, [clause(1, 2), clause(-1, 2)])
    assert clause_vector(sat, parse_marks("ft")) == ClauseVector(0, 0, 0)
    # x1 = true, x2 = false violates (-1, 2): no clause vector there
    assert classify(I2.clauses(), parse_marks("tf"))[0]
    with pytest.raises(ValueError):
        clause_vector(I2, parse_marks("tf"))


def test_clause_vector_permutation_invariant():
    inst = generate_random_instance(8, 6, 20, 11)
    rng = random.Random(5)
    shuffled = inst.clauses()
    rng.shuffle(shuffled)
    inst2 = Instance(8, shuffled)
    compared = 0
    seed = 0
    while compared < 20:
        marks = [random.Random(seed).randrange(3) for _ in range(8)]
        seed += 1
        violated, undet = classify(inst.clauses(), marks)
        violated2, undet2 = classify(inst2.clauses(), marks)
        assert violated == violated2
        if not violated:
            assert sorted(undet) == sorted(undet2)
            assert clause_vector(inst, marks) == clause_vector(inst2, marks)
            compared += 1


def test_fresh_three_sat_vector():
    inst = generate_random_instance(30, 0, 90, 2)
    assert clause_vector(inst, [U] * 30) == ClauseVector(0, 0, 90)


def test_generator_counts_and_structure():
    inst = generate_random_instance(100, 0, 430, 7)
    assert inst.n_vars == 100 and inst.n_clauses == 430
    assert all(len(c) == 3 for c in inst.clauses())
    for c in inst.clauses():
        vs = [lit >> 1 for lit in c]
        assert len(set(vs)) == len(vs)
    inst2 = generate_random_instance(2, 4, 0, 1)
    assert inst2.n_clauses == 4 and all(len(c) == 2 for c in inst2.clauses())
    mixed = generate_random_instance(9, 5, 7, 2)
    assert [len(c) for c in mixed.clauses()] == [2] * 5 + [3] * 7
    assert list(mixed.starts) == [0, 2, 4, 6, 8, 10, 13, 16, 19, 22, 25, 28, 31]
    assert len(mixed.lits) == 31


def test_generator_reproducible():
    a = generate_random_instance(50, 10, 100, 123)
    b = generate_random_instance(50, 10, 100, 123)
    assert a.clauses() == b.clauses()
    c = generate_random_instance(50, 10, 100, 124)
    assert a.clauses() != c.clauses()


def test_generator_sign_balance():
    # Monte Carlo check: negation frequency 0.5 +- 0.01 over ~1e5 literals
    inst = generate_random_instance(60, 0, 33334, 99)
    lits = inst.lits
    frac = sum(lit & 1 for lit in lits) / len(lits)
    assert abs(frac - 0.5) < 0.01


def test_generator_argument_errors():
    with pytest.raises(ValueError):
        generate_random_instance(2, 0, 5, 0)
    with pytest.raises(ValueError):
        generate_random_instance(1, 3, 0, 0)
    with pytest.raises(ValueError):
        generate_random_instance(5, -1, 0, 0)


def test_partial_state_counts():
    marks = parse_marks("utfu")
    assert marks == (U, T, F, U)
    assert marks.count(U) == 2
    with pytest.raises(ValueError):
        parse_marks("utx")


def test_brute_force_known_instances():
    assert not brute_force_satisfiable(I1)
    assert not brute_force_satisfiable(I2)
    assert not brute_force_satisfiable(I3)
    sat = Instance(2, [clause(1, 2), clause(-1, 2)])
    assert brute_force_satisfiable(sat)


def test_dimacs_roundtrip():
    inst = generate_random_instance(12, 5, 30, 42)
    text = dimacs_string(inst)
    assert text.startswith("p cnf 12 35\n")
    back = read_dimacs(io.StringIO(text))
    assert back.n_vars == 12
    assert back.clauses() == inst.clauses()
    assert back.lits == inst.lits and back.starts == inst.starts


def test_dimacs_rejects_long_clauses():
    with pytest.raises(ValueError):
        read_dimacs(io.StringIO("p cnf 4 1\n1 2 3 4 0\n"))
    # the header's clause count must match the clauses in the file
    with pytest.raises(ValueError, match="declares 5 clauses"):
        read_dimacs(io.StringIO("p cnf 3 5\n1 -2 3 0\n"))
    with pytest.raises(ValueError, match="declares 1 clauses"):
        read_dimacs(io.StringIO("p cnf 3 1\n1 -2 3 0\n-1 0\n"))
    # an instance needs at least one variable
    with pytest.raises(ValueError, match="no variables"):
        read_dimacs(io.StringIO("p cnf 0 0\n"))
    with pytest.raises(ValueError, match="out of range"):
        read_dimacs(io.StringIO("p cnf 2 1\n1 -3 0\n"))
    # literals must fit the kernels' int32: at most MAX_VARS variables
    with pytest.raises(ValueError, match="at most"):
        read_dimacs(io.StringIO("p cnf 4294967298 1\n5 0\n"))
    with pytest.raises(ValueError, match="out of range"):
        read_dimacs(io.StringIO("p cnf 3 1\n3000000000 0\n"))
    # a lone 0 is the empty clause, which would make the instance unsat
    for text, line in (("1 2 0\n0\n-1 0\n", 2),
                       ("p cnf 2 3\n1 2 0\n0\n-1 0\n", 3),
                       ("c x\np cnf 2 2\n1 2 0 0\n-1 0\n", 3)):
        with pytest.raises(ValueError, match=f"empty DIMACS clause on line {line}$"):
            read_dimacs(io.StringIO(text))
    with pytest.raises(ValueError, match="second DIMACS header on line 3$"):
        read_dimacs(io.StringIO("p cnf 3 1\n1 2 0\np cnf 3 2\n1 3 0\n"))


def test_dimacs_stops_at_the_end_marker():
    # SATLIB files end with a % line and a lone 0
    inst = read_dimacs(io.StringIO("c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n"))
    assert inst.n_vars == 3
    assert inst.clauses() == [clause(1, -2, 3), clause(-1, 2)]
    with pytest.raises(ValueError, match="declares 2 clauses, the file holds 1"):
        read_dimacs(io.StringIO("p cnf 3 2\n1 2 0\n%\n-1 0\n"))


def test_clause_builder_validation():
    with pytest.raises(ValueError):
        clause()
    with pytest.raises(ValueError):
        clause(0)
    with pytest.raises(ValueError):
        clause(1, 2, 3, 4)
    assert clause(1, -1, -3) == (0, 1, 5)  # packed 2*variable + negated
    with pytest.raises(ValueError, match="literal 3 out of range"):
        Instance(2, [clause(1, 2, 3)])
    with pytest.raises(ValueError, match="literal -3 out of range"):
        Instance(2, [clause(-3)])
    with pytest.raises(ValueError):
        Instance(2, [()])
    with pytest.raises(ValueError):
        Instance(4, [(0, 2, 4, 6)])

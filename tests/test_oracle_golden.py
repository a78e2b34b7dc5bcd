"""Golden values and differential checks for the exact oracle.

`oracle_golden.json` holds, per (instance, heuristic) pair of a fixed corpus,
a blake2b digest of every operator column (list order included), a digest of
the sorted violating set, B(0..N+2) and (T*, B*) for unsat instances.  The
values were taken from the sweep-based oracle that rescanned every clause of
each state; regenerate them only from a revision whose oracle is trusted:

    PYTHONPATH=src python tests/test_oracle_golden.py > tests/oracle_golden.json
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from common import REPEATED, operator_arrays, violating_states
from satgrowth import dpll, oracle
from satgrowth.cnf import (brute_force_satisfiable, classify,
                           generate_random_instance)

GOLDEN_PATH = Path(__file__).with_name("oracle_golden.json")

# (2-clause ratio, 3-clause ratio) per instance at each N: sat and unsat,
# pure 3-SAT and 2+p mixtures
MIXES = ((0.0, 2.0), (0.0, 4.5), (0.0, 7.0), (0.0, 10.0),
         (0.6, 1.5), (1.0, 3.0), (1.5, 4.0), (2.0, 0.0))
N_RANGE = range(3, 11)


def corpus():
    """[(key, instance, heuristic)]: 64 random pairs at N=3..10 and the two
    repeated-variable instances under every heuristic."""
    out = []
    for n in N_RANGE:
        for j, (a2, a3) in enumerate(MIXES):
            inst = generate_random_instance(n, int(round(a2 * n)),
                                            int(round(a3 * n)), 100 * n + j)
            h = dpll.HEURISTICS[(n + j) % len(dpll.HEURISTICS)]
            out.append((f"N{n}/{j}/{h}", inst, h))
    for r, inst in enumerate(REPEATED):
        for h in dpll.HEURISTICS:
            out.append((f"R{r}/{h}", inst, h))
    return out


def _digest(lines):
    h = hashlib.blake2b(digest_size=16)
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def golden_record(inst, heuristic):
    """The recorded values of one pair, computed with the current oracle."""
    op = oracle.build_evolution_operator(inst, heuristic)
    cols = _digest(f"{s}:" + " ".join(f"{s2},{w}" for s2, w in op.columns[s])
                   for s in sorted(op.columns))
    rec = {"states": len(op.columns), "nnz": op.nnz(), "columns": cols,
           "violating": _digest(map(str, sorted(violating_states(op)))),
           "seq": [str(b) for b in oracle.branch_function_sequence(
               inst, heuristic, inst.n_vars + 2, op)],
           "sat": brute_force_satisfiable(inst)}
    if not rec["sat"]:
        t_star, b_star = oracle.stationary_tree_size(inst, heuristic)
        rec["t_star"], rec["b_star"] = t_star, str(b_star)
    return rec


CORPUS = corpus()


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_corpus_spans_the_cases():
    golden = _golden()
    assert sorted(golden) == sorted(key for key, _, _ in CORPUS)
    assert len(CORPUS) >= 60
    sat = [golden[key]["sat"] for key, _, _ in CORPUS]
    assert 10 <= sum(sat) <= len(sat) - 10
    assert {h for _, _, h in CORPUS} == set(dpll.HEURISTICS)


@pytest.mark.parametrize("key,inst,heuristic", CORPUS,
                         ids=[key for key, _, _ in CORPUS])
def test_oracle_golden_values(key, inst, heuristic):
    assert golden_record(inst, heuristic) == _golden()[key]


def _naive_sequence(op, n_vars, t_max):
    """B(0..t_max) by t_max full sweeps of the operator, absorbing states
    included through their self-loops."""
    columns = dict(op.columns)  # each column's list made once
    mass = {oracle.pack_state((0,) * n_vars): Fraction(1)}
    seq = [sum(mass.values())]
    for _ in range(t_max):
        nxt = {}
        for s, m in mass.items():
            for s2, w in columns[s]:
                nxt[s2] = nxt.get(s2, 0) + m * w
        mass = nxt
        seq.append(sum(mass.values(), Fraction(0)))
    return seq


def _assert_one_state_reference(op, inst, heuristic):
    """Every column equals transition_probs on its state, violating states
    agree with classify, and B(T) equals the naive sweep loop."""
    n = inst.n_vars
    clauses = inst.clauses()
    violating = violating_states(op)
    for s, col in op.columns.items():
        marks = oracle.unpack_state(s, n)
        violated, _ = classify(clauses, marks)
        assert (s in violating) == violated
        if violated:
            assert col == [(s, 1)]
        else:
            assert col == oracle.transition_probs(inst, heuristic, marks)
    assert (oracle.branch_function_sequence(inst, heuristic, n + 3, op)
            == _naive_sequence(op, n, n + 3))


@pytest.mark.parametrize("key,inst,heuristic", CORPUS,
                         ids=[key for key, _, _ in CORPUS])
def test_operator_matches_one_state_reference(key, inst, heuristic):
    _assert_one_state_reference(
        oracle.build_evolution_operator(inst, heuristic), inst, heuristic)


@pytest.mark.parametrize("key,inst,heuristic", CORPUS,
                         ids=[key for key, _, _ in CORPUS])
def test_fallback_path_matches_golden_and_compiled(key, inst, heuristic,
                                                   reference):
    """The Python closure walk, run as the fallback, passes the golden check
    and builds the operator of the default path (the compiled walk where gcc
    is present): equal arrays and equal B(T).  The default path's operator
    passes the one-state reference check in
    test_operator_matches_one_state_reference."""
    compiled = oracle.build_evolution_operator(inst, heuristic)
    with reference():
        assert golden_record(inst, heuristic) == _golden()[key]
        op = oracle.build_evolution_operator(inst, heuristic)
    assert operator_arrays(op) == operator_arrays(compiled)
    t_max = inst.n_vars + 2
    assert (oracle.branch_function_sequence(inst, heuristic, t_max, op)
            == oracle.branch_function_sequence(inst, heuristic, t_max, compiled))


if __name__ == "__main__":
    print(json.dumps({key: golden_record(inst, h) for key, inst, h in CORPUS},
                     indent=1, sort_keys=True))

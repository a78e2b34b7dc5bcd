"""Shared test fixtures: the three toy instances, two instances with
repeated variables, a small unsat corpus and readers of an operator's
arrays."""

from itertools import compress

from satgrowth.cnf import (Instance, brute_force_satisfiable, clause,
                           generate_random_instance)

# single-variable contradiction: refuted by unit propagation alone
I1 = Instance(1, [clause(1), clause(-1)])

# all four sign patterns over two variables: unique refutation tree (one split)
I2 = Instance(2, [clause(1, 2), clause(-1, 2), clause(1, -2), clause(-1, -2)])

# I2 plus a tautological 2-clause on a third variable: two tree shapes
I3 = Instance(3, [clause(1, 2), clause(-1, 2), clause(1, -2), clause(-1, -2),
                  clause(3, -3)])

# hand-written clauses with a repeated variable: duplicated literals, a
# tautological pair and a clause that is unit in one variable
REPEATED = (
    Instance(3, [clause(1, 1, 2), clause(-1, -1), clause(2, -2, 3),
                 clause(-2, -3), clause(1, -3, -3), clause(-1, 3),
                 clause(3, 3), clause(-2, 2)]),
    Instance(4, [clause(1, -1, 2), clause(-2, -2, 3), clause(-3, 4, 4),
                 clause(-4, 1), clause(-1, -1, -4), clause(2, 3, -1),
                 clause(4, -3, 4), clause(1, 2, 2), clause(-2, -1)]),
)


def unsat_corpus(count, n_vars=8, alphas=(4.0, 5.5, 7.0, 8.5, 10.0),
                 seed0=1000):
    """Random unsat 3-SAT instances at n_vars, ratios cycling over `alphas`."""
    out = []
    seed = seed0
    while len(out) < count:
        alpha = alphas[len(out) % len(alphas)]
        inst = generate_random_instance(n_vars, 0, int(round(alpha * n_vars)),
                                        seed)
        seed += 1
        if not brute_force_satisfiable(inst):
            out.append(inst)
    return out


def violating_states(op):
    """The packed states of an EvolutionOperator's violating columns."""
    return set(compress(op.states, op.violating))


def operator_arrays(op):
    """Everything an EvolutionOperator holds, for equality checks."""
    return (op.n_vars, op.states, op.violating, op.offsets, op.succ, op.keys,
            op.wbase)

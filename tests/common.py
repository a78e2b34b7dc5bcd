"""Shared test fixtures: the three toy instances, two instances with
repeated variables, a small unsat corpus, readers of an operator's arrays
and the annealed chain's transition rows, the reference its engine is
checked against."""

from itertools import compress
from typing import Dict, List, Tuple

import numpy as np

from satgrowth.annealed import _binom_pmf, _binom_support
from satgrowth.cnf import (ClauseVector, Instance, brute_force_satisfiable,
                           clause, generate_random_instance)

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


def guc_transition_row(c_from: Tuple[int, int, int], T: int, N: int,
                       tail: float = 1e-14) -> List[Tuple[ClauseVector, float]]:
    """Outgoing (destination clause vector, branch weight) terms of one step.

    Weights are branch multiplicities, not probabilities: a unit row sums to
    the survival probability (shortfall = contradiction death) and a split
    row sums to 2.  Binomial factors are truncated at relative tail `tail`.
    """
    c1, c2, c3 = c_from
    if not 0 <= T < N:
        raise ValueError("need 0 <= T < N")
    n = N - T
    if min(c1, c2, c3) < 0:
        raise ValueError("clause vector components must be non-negative")
    out: Dict[Tuple[int, int, int], float] = {}

    def add(dest, w):
        if w > 0.0:
            out[dest] = out.get(dest, 0.0) + w

    def touched(pool, p):
        """[(m, w, weight)]: m of the pool's clauses touched (each with
        probability p), w of them lost a literal (3 -> 2 or 2 -> 1)."""
        terms = []
        m_hi = _binom_support(pool, p, tail)
        pm = _binom_pmf(pool, p, np.arange(m_hi + 1))
        for m in range(m_hi + 1):
            pw = _binom_pmf(m, 0.5, np.arange(m + 1))
            for w in range(m + 1):
                terms.append((m, w, pm[m] * pw[w]))
        return terms

    if c1 >= 1:
        surv = (1.0 - 1.0 / (2.0 * n)) ** (c1 - 1)
        for m, w2, wa in touched(c3, 3.0 / n):
            for z2, w1, wb in touched(c2, 2.0 / n):
                add((c1 - 1 + w1, c2 - z2 + w2, c3 - m), surv * wa * wb)
    elif c2 >= 1:
        for m, w2, wa in touched(c3, 3.0 / n):
            for z2, w1, wb in touched(c2 - 1, 2.0 / n):
                w = wa * wb
                add((w1, c2 - 1 - z2 + w2, c3 - m), w)
                add((w1 + 1, c2 - 1 - z2 + w2, c3 - m), w)
    elif c3 >= 1:
        for m, w2, wa in touched(c3 - 1, 3.0 / n):
            add((0, w2, c3 - 1 - m), wa)
            add((0, w2 + 1, c3 - 1 - m), wa)
    # else (0,0,0): satisfied branch, empty row
    return [(ClauseVector(*k), v) for k, v in sorted(out.items())]

"""Exact evolution operator on the 3^N partial-state space and the branch
function B(T), in exact rational arithmetic.

For an unsatisfiable instance, B(T) = <Sigma| H^T |U> becomes stationary at
some T* <= N and the stationary value B* is the heuristic-averaged number of
leaves of the DPLL refutation tree.  Operator columns are built lazily over
the forward closure of the fully-undetermined state, so the full 3^N basis is
never materialized.

States are packed base-3: digit i of an index is the mark of variable i
(0 = u, 1 = t, 2 = f).
"""

import random
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import dpll
from .cnf import F, T, U, Instance, brute_force_satisfiable, classify

DEFAULT_VAR_CAP = 12


class SatisfiableInstanceError(ValueError):
    """Raised where the branch-function theory requires an unsat instance."""


def pack_state(marks: Iterable[int]) -> int:
    idx = 0
    base = 1
    for m in marks:
        idx += m * base
        base *= 3
    return idx


def unpack_state(index: int, n_vars: int) -> Tuple[int, ...]:
    marks = []
    for _ in range(n_vars):
        index, m = divmod(index, 3)
        marks.append(m)
    return tuple(marks)


def _transitions(clauses, marks, heuristic, n_vars) -> List[Tuple[int, Fraction]]:
    """Successor (state index, weight) pairs per the heuristic-induced rules.

    Unit clauses present: weight h(j|S) g(x|S,j) on the single forced child
    per (variable, value); weights sum to 1.  No unit clause: each candidate
    variable j contributes BOTH children with weight h(j|S), so the total
    outgoing weight is 2.
    """
    violated, undet = classify(clauses, marks)
    if violated:
        raise ValueError("transition probabilities are undefined on a violating state")
    units = [c[0] for c in undet if len(c) == 1]
    out: List[Tuple[int, Fraction]] = []
    if units:
        forced: Dict[int, int] = {}
        for lit in units:
            forced[lit] = forced.get(lit, 0) + 1
        c1 = len(units)
        for lit, cnt in sorted(forced.items()):
            v = lit >> 1
            mark = T if lit & 1 == 0 else F
            child = list(marks)
            child[v] = mark
            out.append((pack_state(child), Fraction(cnt, c1)))
        return out
    h: Dict[int, Fraction] = {}
    if heuristic == dpll.GUC:
        if not undet:
            raise ValueError("GUC selection with no undetermined clause")
        kmin = min(len(c) for c in undet)
        shortest = [c for c in undet if len(c) == kmin]
        n_short = len(shortest)
        for c in shortest:
            for lit in c:
                v = lit >> 1
                h[v] = h.get(v, Fraction(0)) + Fraction(1, n_short * kmin)
    else:  # UC and SC1: uniform over undetermined variables
        u_vars = [v for v in range(n_vars) if marks[v] == U]
        if not u_vars:
            raise ValueError("selection with no undetermined variable")
        w = Fraction(1, len(u_vars))
        for v in u_vars:
            h[v] = w
    for v, weight in sorted(h.items()):
        for mark in (T, F):
            child = list(marks)
            child[v] = mark
            out.append((pack_state(child), weight))
    return out


class EvolutionOperator:
    """Sparse column map S -> [(S', <S'|H|S>)] over the forward closure of U.

    Violating states are absorbing (diagonal entry 1).  Non-violating states
    whose clauses are all satisfied (possible only for satisfiable instances)
    get an empty column: such branches leave the count, so B(T) then counts
    contradiction leaves only.
    """

    def __init__(self, n_vars: int, columns: Dict[int, List[Tuple[int, Fraction]]],
                 violating: set):
        self.n_vars = n_vars
        self.columns = columns
        self.violating = violating

    def nnz(self) -> int:
        return sum(len(col) for col in self.columns.values())

    def entry(self, s_prime: int, s: int) -> Fraction:
        for idx, w in self.columns.get(s, ()):
            if idx == s_prime:
                return w
        return Fraction(0)

    def column_sum(self, s: int) -> Fraction:
        return sum((w for _, w in self.columns.get(s, ())), Fraction(0))

    def apply_forward(self, mass: Dict[int, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for s, m in mass.items():
            for s2, w in self.columns.get(s, ()):
                out[s2] = out.get(s2, Fraction(0)) + m * w
        return out

    def dump(self, fh) -> None:
        """Text dump: one 'row col numerator denominator' line per entry."""
        for s in sorted(self.columns):
            for s2, w in self.columns[s]:
                fh.write(f"{s2} {s} {w.numerator} {w.denominator}\n")


def build_evolution_operator(instance: Instance, heuristic: str,
                             var_cap: int = DEFAULT_VAR_CAP) -> EvolutionOperator:
    """Operator entries per the evolution rules, over states reachable from U."""
    n = instance.n_vars
    if n > var_cap:
        raise ValueError(f"n_vars={n} exceeds the operator cap ({var_cap})")
    clauses = instance.clauses()
    start_marks = (U,) * n
    start = pack_state(start_marks)
    columns: Dict[int, List[Tuple[int, Fraction]]] = {}
    violating = set()
    stack = [(start, start_marks)]
    seen = {start}
    while stack:
        idx, marks = stack.pop()
        violated, undet = classify(clauses, marks)
        if violated:
            violating.add(idx)
            columns[idx] = [(idx, Fraction(1))]
            continue
        if not undet:
            columns[idx] = []
            continue
        succ = _transitions(clauses, marks, heuristic, n)
        columns[idx] = succ
        for s2, _ in succ:
            if s2 not in seen:
                seen.add(s2)
                stack.append((s2, unpack_state(s2, n)))
    return EvolutionOperator(n, columns, violating)


def transition_probs(instance: Instance, heuristic: str,
                     marks: Sequence[int]) -> List[Tuple[int, Fraction]]:
    """Successors of one partial state (a sequence of cnf marks) as (packed
    index, exact weight) pairs."""
    return _transitions(instance.clauses(), marks, heuristic, instance.n_vars)


def branch_function_sequence(instance: Instance, heuristic: str, t_max: int,
                             operator: Optional[EvolutionOperator] = None
                             ) -> List[Fraction]:
    """B(0), B(1), ..., B(t_max) by forward application of the operator to U."""
    if t_max < 0:
        raise ValueError("T must be >= 0")
    op = operator or build_evolution_operator(instance, heuristic)
    mass = {pack_state((U,) * instance.n_vars): Fraction(1)}
    seq = [sum(mass.values(), Fraction(0))]
    for _ in range(t_max):
        mass = op.apply_forward(mass)
        seq.append(sum(mass.values(), Fraction(0)))
    return seq


def branch_function(instance: Instance, heuristic: str, t: int) -> Fraction:
    """B(T) = <Sigma| H^T |U>, exact.

    For a satisfiable instance this counts contradiction leaves only and the
    stationarity guarantee does not apply (use stationary_tree_size for the
    guarded version).
    """
    return branch_function_sequence(instance, heuristic, t)[-1]


def stationary_tree_size(instance: Instance, heuristic: str
                         ) -> Tuple[int, Fraction]:
    """(T*, B*): the smallest nonzero T with B stationary from it, and the
    stationary value, which is the expected refutation-tree leaf count."""
    if brute_force_satisfiable(instance):
        raise SatisfiableInstanceError(
            "stationary tree size requires an unsatisfiable instance")
    n = instance.n_vars
    seq = branch_function_sequence(instance, heuristic, n + 1)
    b_star = seq[n + 1]
    if seq[n] != b_star:
        raise AssertionError("branch function failed to become stationary by T=N")
    t_star = n + 1
    while t_star > 1 and seq[t_star - 1] == b_star:
        t_star -= 1
    return t_star, b_star


def monte_carlo_leaf_mean(instance: Instance, heuristic: str, n_trials: int,
                          seed: int) -> Tuple[float, float]:
    """Mean and standard error of solver leaf counts over independent runs;
    the Monte Carlo bridge between the solver and B*."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    solver = dpll.DpllSolver(instance, heuristic)
    total = 0
    total_sq = 0
    for _ in range(n_trials):
        b = solver.solve(rng.getrandbits(63), record_cloud=False).b_leaves
        total += b
        total_sq += b * b
    mean = total / n_trials
    if n_trials == 1:
        return mean, 0.0
    var = (total_sq - n_trials * mean * mean) / (n_trials - 1)
    return mean, (max(var, 0.0) / n_trials) ** 0.5

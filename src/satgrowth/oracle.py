"""Exact evolution operator on the 3^N partial-state space and the branch
function B(T), in exact rational arithmetic.

For an unsatisfiable instance, B(T) = <Sigma| H^T |U> becomes stationary at
some T* <= N and the stationary value B* is the heuristic-averaged number of
leaves of the DPLL refutation tree.  Operator columns are built lazily over
the forward closure of the fully-undetermined state, so the full 3^N basis is
never materialized.

States are packed base-3: digit i of an index is the mark of variable i
(0 = u, 1 = t, 2 = f), so the child that sets variable v to mark m of state
idx is idx + m * 3**v.

The build walks the closure depth first from U, with a stack and a set of
the states seen, and lists the columns in the order it pops their states.
Each popped state is classified from scratch with cnf.classify; a violating
state gets the absorbing self-loop, any other the successors that
_transitions gives under the heuristic.  The walk runs compiled, in
oracle_kernel.c (built by native.load()), which classifies over the instance's
clause buffers as cnf.classify does and returns flat arrays; the build turns
them into the columns, one Fraction per distinct weight.  Where the kernel
cannot be built the same walk runs in Python, which is also the reference
the kernel is tested against.  Both walks give equal columns in equal order.

Every non-absorbing transition assigns one variable, so the closure is a DAG
layered by depth, and B(T) is summed in one pass over the layers: the mass of
live (non-violating) states is carried from layer to layer, the mass that
enters a violating state joins one absorbed total, and an all-satisfied state
(empty column) keeps its mass only for the layer that reaches it.  Then
B(T) = absorbed + the live mass at depth T; the masses are kept as integer
numerators over a common denominator per layer, so B(T) is exact.
"""

import functools
import gc
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import compress
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from . import dpll, native
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


def _transitions(clauses: Sequence[Sequence[int]], marks: Sequence[int],
                 idx: int, heuristic: str,
                 weight: Callable[[int, int], Fraction]
                 ) -> Tuple[bool, List[Tuple[int, Fraction]]]:
    """(violated, column) of the state idx with the given marks: classified
    from scratch with cnf.classify, then given its successor (state index,
    weight) pairs per the heuristic-induced rules; weight(num, den) makes the
    Fraction num/den.

    Violating: the absorbing self-loop, weight 1.  Unit clauses present:
    weight h(j|S) g(x|S,j) on the single forced child per (variable, value);
    weights sum to 1.  No unit clause: each candidate variable j contributes
    BOTH children with weight h(j|S), so the total outgoing weight is 2.  No
    undetermined clause (all satisfied): no successor, whatever the
    heuristic.
    """
    violated, undet = classify(clauses, marks)
    if violated:
        return True, [(idx, weight(1, 1))]
    if not undet:
        return False, []
    units = [slots[0] for slots in undet if len(slots) == 1]
    if units:
        c1 = len(units)
        return False, [(idx + (T if lit & 1 == 0 else F) * 3 ** (lit >> 1),
                        weight(cnt, c1))
                       for lit, cnt in sorted(Counter(units).items())]
    if heuristic == dpll.GUC:
        kmin = min(map(len, undet))
        shortest = [slots for slots in undet if len(slots) == kmin]
        den = len(shortest) * kmin
        counts = Counter(lit >> 1 for slots in shortest for lit in slots)
        h = [(v, weight(cnt, den)) for v, cnt in sorted(counts.items())]
    else:  # UC and SC1: uniform over undetermined variables
        free_vars = [v for v, m in enumerate(marks) if m == U]
        w = weight(1, len(free_vars))
        h = [(v, w) for v in free_vars]
    out: List[Tuple[int, Fraction]] = []
    for v, w in h:
        step = 3 ** v
        out.append((idx + T * step, w))
        out.append((idx + F * step, w))
    return False, out


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

    def dump(self, fh) -> None:
        """Text dump: one 'row col numerator denominator' line per entry."""
        for s in sorted(self.columns):
            for s2, w in self.columns[s]:
                fh.write(f"{s2} {s} {w.numerator} {w.denominator}\n")


def build_evolution_operator(instance: Instance, heuristic: str,
                             var_cap: int = DEFAULT_VAR_CAP) -> EvolutionOperator:
    """Operator entries per the evolution rules, over states reachable from
    U: walked by the compiled kernel, else by the Python reference walk."""
    dpll.check_heuristic(heuristic)
    n = instance.n_vars
    if n > var_cap:
        raise ValueError(f"n_vars={n} exceeds the operator cap ({var_cap})")
    # the columns and their entries cannot form cycles, so the cyclic
    # collector, which would rescan them as they grow, is paused
    collecting = gc.isenabled()
    gc.disable()
    try:
        lib = native.load()
        if lib is None:
            return _python_closure(instance, heuristic)
        states, violating, offsets, succ, keys, wbase = native.closure(
            lib, n, instance.lits, instance.starts, heuristic)
        weights = {key: Fraction(*divmod(key, wbase)) for key in set(keys)}
        entries = list(zip(succ, map(weights.__getitem__, keys)))
        columns = dict(zip(states, map(entries.__getitem__,
                                       map(slice, offsets, offsets[1:]))))
        return EvolutionOperator(n, columns, set(compress(states, violating)))
    finally:
        if collecting:
            gc.enable()


def _python_closure(instance: Instance, heuristic: str) -> EvolutionOperator:
    """The closure walk in Python, the kernel's algorithm (see the module
    docstring)."""
    n = instance.n_vars
    clauses = instance.clauses()
    weight = functools.cache(Fraction)  # one Fraction per distinct weight
    columns: Dict[int, List[Tuple[int, Fraction]]] = {}
    violating = set()
    stack = [0]  # the all-undetermined state
    seen = {0}
    while stack:
        idx = stack.pop()
        violated, columns[idx] = _transitions(
            clauses, unpack_state(idx, n), idx, heuristic, weight)
        if violated:
            violating.add(idx)
        for s2, _ in columns[idx]:
            if s2 not in seen:
                seen.add(s2)
                stack.append(s2)
    return EvolutionOperator(n, columns, violating)


def transition_probs(instance: Instance, heuristic: str,
                     marks: Sequence[int]) -> List[Tuple[int, Fraction]]:
    """Successors of one partial state (a sequence of cnf marks) as (packed
    index, exact weight) pairs, classified from scratch with cnf.classify."""
    dpll.check_heuristic(heuristic)
    violated, column = _transitions(instance.clauses(), marks, pack_state(marks),
                                    heuristic, Fraction)
    if violated:
        raise ValueError("transition probabilities are undefined on a violating state")
    return column


def branch_function_sequence(instance: Instance, heuristic: str, t_max: int,
                             operator: Optional[EvolutionOperator] = None
                             ) -> List[Fraction]:
    """B(0), B(1), ..., B(t_max), exact, with B(T) = <Sigma| H^T |U>, in one
    pass over the depth layers of the closure of U (see the module
    docstring).

    For a satisfiable instance B(T) counts contradiction leaves only and the
    stationarity guarantee does not apply (use stationary_tree_size for the
    guarded version).
    """
    if t_max < 0:
        raise ValueError("T must be >= 0")
    op = operator or build_evolution_operator(instance, heuristic)
    columns, violating = op.columns, op.violating
    # masses at depth t are integers over scale**t, where scale is the lcm of
    # the weight denominators: weight w maps mass m to m * (w * scale)
    scale = math.lcm(*{w.denominator for col in columns.values() for _, w in col})
    absorbed = 0
    live = {0: 1}  # all mass on the all-undetermined state
    seq = [Fraction(1)]
    den = 1
    while len(seq) <= t_max and live:
        nxt: Dict[int, int] = {}
        absorbed *= scale
        den *= scale
        for s, m in live.items():
            last = None  # consecutive entries often share one weight object
            for s2, w in columns[s]:
                if w is not last:
                    last = w
                    mw = m * (w.numerator * (scale // w.denominator))
                if s2 in violating:
                    absorbed += mw
                elif s2 in nxt:
                    nxt[s2] += mw
                else:
                    nxt[s2] = mw
        live = nxt
        seq.append(Fraction(absorbed + sum(live.values()), den))
    seq.extend([seq[-1]] * (t_max + 1 - len(seq)))
    return seq


def stationary_tree_size(instance: Instance, heuristic: str,
                         operator: Optional[EvolutionOperator] = None
                         ) -> Tuple[int, Fraction]:
    """(T*, B*): the smallest nonzero T with B stationary from it, and the
    stationary value, which is the expected refutation-tree leaf count.
    `operator`, if given, is the instance's operator under the heuristic."""
    if brute_force_satisfiable(instance):
        raise SatisfiableInstanceError(
            "stationary tree size requires an unsatisfiable instance")
    return stationary_point(branch_function_sequence(
        instance, heuristic, instance.n_vars + 1, operator))


def stationary_point(seq: Sequence[Fraction]) -> Tuple[int, Fraction]:
    """(T*, B*) of an unsat instance's B(0..N+1) (branch_function_sequence
    with t_max = N + 1)."""
    n = len(seq) - 2
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
    seeds = (rng.getrandbits(63) for _ in range(n_trials))
    total = 0
    total_sq = 0
    for b in dpll.DpllSolver(instance, heuristic).leaf_counts(seeds):
        total += b
        total_sq += b * b
    mean = total / n_trials
    if n_trials == 1:
        return mean, 0.0
    var = (total_sq - n_trials * mean * mean) / (n_trials - 1)
    return mean, (max(var, 0.0) / n_trials) ** 0.5

"""Exact evolution operator on the 3^N partial-state space and the branch
function B(T), in exact rational arithmetic.

For an unsatisfiable instance, B(T) = <Sigma| H^T |U> becomes stationary at
some T* <= N and the stationary value B* is the heuristic-averaged number of
leaves of the DPLL refutation tree.  Operator columns are built over the
forward closure of the fully-undetermined state, so the full 3^N basis is
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
clause buffers as cnf.classify does.  Where the kernel cannot be built the
same walk runs in Python, which is also the reference the kernel is tested
against.  Both walks return the same flat arrays, which the EvolutionOperator
holds as they are: the columns' states, a violating flag per column, the
columns' entry offsets, and per entry the successor's column position and a
weight key that packs the unreduced weight num/den as num * wbase + den.
Lists of (state, Fraction) pairs are made only when a column is read.

Every non-absorbing transition assigns one variable, so the closure is a DAG
layered by depth, and B(T) is summed in one pass over the arrays, layer by
layer: the mass of live (non-violating) columns is carried from layer to
layer, the mass that enters a violating column joins one absorbed total, and
an all-satisfied state (empty column) keeps its mass only for the layer that
reaches it.  Then B(T) = absorbed + the live mass at depth T.  The masses
are integer numerators over scale**T, where scale is the lcm of the distinct
weight denominators, and each distinct weight key maps a mass to mass times
one integer multiplier, so B(T) is exact.
"""

import functools
import math
import random
from array import array
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import dpll, native
from .cnf import (F, T, U, Instance, brute_force_satisfiable, check_t_max,
                  classify)

# one build plus (T*, B*) of an unsat GUC instance at alpha0=7 peaks at about
# 160 MB of resident memory at N=15 (1.2M states, 3.2M entries)
DEFAULT_VAR_CAP = 15


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
                 idx: int, heuristic: str
                 ) -> Tuple[bool, List[Tuple[int, int, int]]]:
    """(violated, column) of the state idx with the given marks: classified
    from scratch with cnf.classify, then given its successors per the
    heuristic-induced rules, as (state index, num, den) triples of the
    unreduced weight num/den that the kernel also emits.

    Violating: the absorbing self-loop, weight 1.  Unit clauses present:
    weight h(j|S) g(x|S,j) on the single forced child per (variable, value);
    weights sum to 1.  No unit clause: each candidate variable j contributes
    BOTH children with weight h(j|S), so the total outgoing weight is 2.  No
    undetermined clause (all satisfied): no successor, whatever the
    heuristic.
    """
    violated, undet = classify(clauses, marks)
    if violated:
        return True, [(idx, 1, 1)]
    if not undet:
        return False, []
    units = [slots[0] for slots in undet if len(slots) == 1]
    if units:
        c1 = len(units)
        return False, [(idx + (T if lit & 1 == 0 else F) * 3 ** (lit >> 1), cnt, c1)
                       for lit, cnt in sorted(Counter(units).items())]
    if heuristic == dpll.GUC:
        kmin = min(map(len, undet))
        shortest = [slots for slots in undet if len(slots) == kmin]
        den = len(shortest) * kmin
        counts = Counter(lit >> 1 for slots in shortest for lit in slots)
        h = [(v, cnt, den) for v, cnt in sorted(counts.items())]
    else:  # UC and SC1: uniform over undetermined variables
        free_vars = [v for v, m in enumerate(marks) if m == U]
        h = [(v, 1, len(free_vars)) for v in free_vars]
    out: List[Tuple[int, int, int]] = []
    for v, num, den in h:
        step = 3 ** v
        out.append((idx + T * step, num, den))
        out.append((idx + F * step, num, den))
    return False, out


class _Columns(Mapping):
    """The operator's columns as a read-only map S -> [(S', <S'|H|S>)] of
    packed states and Fractions, in walk order.  Its length and keys come
    from the arrays; a column's list is made only when it is read.  It
    holds the arrays, not the operator, so the two form no cycle."""

    def __init__(self, states: array, offsets: array, succ: array,
                 keys: array, wbase: int):
        self._states, self._offsets, self._succ, self._keys = (
            states, offsets, succ, keys)
        self._weight = functools.cache(lambda key: Fraction(*divmod(key, wbase)))

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[int]:
        return iter(self._states)

    @functools.cached_property
    def _position(self) -> Dict[int, int]:
        return {s: p for p, s in enumerate(self._states)}

    def __getitem__(self, state: int) -> List[Tuple[int, Fraction]]:
        p = self._position[state]
        first, end = self._offsets[p], self._offsets[p + 1]
        return list(zip(map(self._states.__getitem__, self._succ[first:end]),
                        map(self._weight, self._keys[first:end])))


class EvolutionOperator:
    """The operator over the forward closure of U, as the walk's flat
    arrays: `states` holds each column's packed state in walk order (column
    0 is U), `violating` one flag byte per column, `offsets` the n + 1
    bounds of the columns' entries, and per entry `succ` the successor's
    column position and `keys` the weight num/den as num * wbase + den.

    Violating states are absorbing (diagonal entry 1).  Non-violating states
    whose clauses are all satisfied (possible only for satisfiable instances)
    get an empty column: such branches leave the count, so B(T) then counts
    contradiction leaves only.  `columns` reads the arrays as packed states
    and Fractions (see _Columns).
    """

    def __init__(self, n_vars: int, states: array, violating: bytes,
                 offsets: array, succ: array, keys: array, wbase: int):
        self.n_vars = n_vars
        self.states = states
        self.violating = violating
        self.offsets = offsets
        self.succ = succ
        self.keys = keys
        self.wbase = wbase
        self.columns = _Columns(states, offsets, succ, keys, wbase)

    def nnz(self) -> int:
        return len(self.succ)

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
    lib = native.load()
    if lib is None:
        return EvolutionOperator(n, *_python_closure(instance, heuristic))
    return EvolutionOperator(n, *native.closure(
        lib, n, instance.lits, instance.starts, heuristic))


def _python_closure(instance: Instance, heuristic: str):
    """The closure walk in Python, the kernel's algorithm (see the module
    docstring), with the arrays that native.closure returns."""
    n = instance.n_vars
    clauses = instance.clauses()
    # above every denominator (C1, #shortest * kmin, #free), as in the kernel
    wbase = max(3 * instance.n_clauses, n, 1) + 1
    states, succ, keys = array("q"), array("q"), array("q")
    offsets = array("q", [0])
    violating = bytearray()
    stack = [0]  # the all-undetermined state
    seen = {0}
    while stack:
        idx = stack.pop()
        violated, column = _transitions(clauses, unpack_state(idx, n), idx,
                                        heuristic)
        states.append(idx)
        violating.append(violated)
        for s2, num, den in column:
            succ.append(s2)
            keys.append(num * wbase + den)
            if s2 not in seen:
                seen.add(s2)
                stack.append(s2)
        offsets.append(len(succ))
    position = {s: p for p, s in enumerate(states)}
    succ = array("q", map(position.__getitem__, succ))
    return states, bytes(violating), offsets, succ, keys, wbase


def transition_probs(instance: Instance, heuristic: str,
                     marks: Sequence[int]) -> List[Tuple[int, Fraction]]:
    """Successors of one partial state (a sequence of cnf marks) as (packed
    index, exact weight) pairs, classified from scratch with cnf.classify."""
    dpll.check_heuristic(heuristic)
    violated, column = _transitions(instance.clauses(), marks, pack_state(marks),
                                    heuristic)
    if violated:
        raise ValueError("transition probabilities are undefined on a violating state")
    return [(s2, Fraction(num, den)) for s2, num, den in column]


def branch_function_sequence(instance: Instance, heuristic: str, t_max: int,
                             operator: Optional[EvolutionOperator] = None
                             ) -> List[Fraction]:
    """B(0), B(1), ..., B(t_max), exact, with B(T) = <Sigma| H^T |U>, in one
    pass over the depth layers of the closure of U (see the module
    docstring).

    For a satisfiable instance B(T) counts contradiction leaves only and the
    stationarity guarantee does not apply (use stationary_tree_size for the
    guarded version).  Raises ValueError unless t_max is an integer >= 0.
    """
    check_t_max(t_max)
    op = operator or build_evolution_operator(instance, heuristic)
    offsets, succ, keys, violating = op.offsets, op.succ, op.keys, op.violating
    # masses at depth t are integers over scale**t, where scale is the lcm of
    # the weight denominators: the weight of key k maps mass m to m * mult[k]
    distinct = set(keys)
    scale = math.lcm(*{k % op.wbase for k in distinct})
    mult = {k: k // op.wbase * (scale // (k % op.wbase)) for k in distinct}
    absorbed = 0
    live = {0: 1}  # all mass on column 0, the all-undetermined state
    seq = [Fraction(1)]
    den = 1
    while len(seq) <= t_max and live:
        nxt: Dict[int, int] = {}
        absorbed *= scale
        den *= scale
        for p, m in live.items():
            last = None  # consecutive entries often share one key
            for e in range(offsets[p], offsets[p + 1]):
                k = keys[e]
                if k != last:
                    last = k
                    mw = m * mult[k]
                q = succ[e]
                if violating[q]:
                    absorbed += mw
                elif q in nxt:
                    nxt[q] += mw
                else:
                    nxt[q] = mw
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

"""CNF instances over 1-3 literal clauses: random 2+p-SAT generation,
clause classification against partial states, and DIMACS interchange.

Variables are 0-indexed.  A literal is packed as 2*variable + negated, so
even codes are positive literals; this is the only clause representation,
and the compiled DPLL kernel reads it as is and draws random instances
straight into it.  A partial state is a
sequence of marks, one per variable: undetermined (U), true (T) or false
(F).  Clause classification and the clause-vector count (C1, C2, C3) of
undetermined clauses by length are the reference semantics that the
solver's incremental bookkeeping must match.
"""

import io
import math
import numbers
import operator
import random
from array import array
from itertools import accumulate, chain
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from . import native

U, T, F = 0, 1, 2
_MARKS = {"u": U, "t": T, "f": F}
BRUTE_FORCE_MAX_VARS = 24
MAX_VARS = 2**30  # the most variables an instance's int32 literals hold

Clause = Tuple[int, ...]


class ClauseVector(NamedTuple):
    c1: int
    c2: int
    c3: int


def _dimacs(lit: int) -> int:
    """The signed 1-indexed DIMACS form of a packed literal."""
    return -((lit >> 1) + 1) if lit & 1 else (lit >> 1) + 1


def clause(*lits: int) -> Clause:
    """Build a clause of packed literals from DIMACS-style signed ints."""
    if 0 in lits:
        raise ValueError("0 is not a DIMACS literal")
    if not 1 <= len(lits) <= 3:
        raise ValueError("clause length must be 1..3")
    return tuple(2 * lit - 2 if lit > 0 else -2 * lit - 1 for lit in lits)


class Instance:
    """An immutable CNF formula over n_vars Boolean variables.

    The clauses are stored once, back to back: `lits` is an array('i') of
    packed literals and `starts` the n_clauses + 1 offsets into it, so
    clause i is lits[starts[i]:starts[i + 1]].  Clauses have 1-3 literals.
    Generated instances never repeat a variable within a clause, but
    hand-built ones may (e.g. a tautological pair).  At most MAX_VARS
    variables, so that every literal fits the kernels' int32.
    """

    def __init__(self, n_vars: int, clauses: Iterable[Sequence[int]]):
        clauses = list(clauses)
        lits = list(chain.from_iterable(clauses))
        n_vars = int(n_vars)
        if n_vars > MAX_VARS:
            raise ValueError(f"n_vars must be at most {MAX_VARS}: packed literals "
                             f"are 32-bit")
        if clauses and not 1 <= min(map(len, clauses)) <= max(map(len, clauses)) <= 3:
            raise ValueError("clause length must be 1..3")
        if lits and not 0 <= min(lits) <= max(lits) < 2 * n_vars:
            bad = next(lit for lit in lits if not 0 <= lit < 2 * n_vars)
            raise ValueError(f"literal {_dimacs(bad)} out of range for "
                             f"n_vars={n_vars}")
        self.n_vars = n_vars
        self.lits = array("i", lits)
        self.starts = array("i", accumulate(map(len, clauses), initial=0))

    @classmethod
    def _from_buffers(cls, n_vars: int, lits: array, starts: array) -> "Instance":
        """An instance over buffers that hold valid clauses by construction
        (the generator's), taken as they are, unchecked."""
        inst = cls.__new__(cls)
        inst.n_vars = n_vars
        inst.lits = lits
        inst.starts = starts
        return inst

    @property
    def n_clauses(self) -> int:
        return len(self.starts) - 1

    def clauses(self) -> List[Clause]:
        """The clauses as tuples of packed literals (built on each call)."""
        lits = self.lits.tolist()
        starts = self.starts.tolist()
        return [tuple(lits[a:b]) for a, b in zip(starts, starts[1:])]

    def __repr__(self):
        return f"Instance(n_vars={self.n_vars}, n_clauses={self.n_clauses})"


def parse_marks(s: str) -> Tuple[int, ...]:
    """Parse e.g. 'tuf' -> marks (T, U, F)."""
    try:
        return tuple(_MARKS[ch] for ch in s)
    except KeyError as exc:
        raise ValueError(f"bad mark {exc.args[0]!r}") from None


def classify(clauses: Iterable[Sequence[int]], marks: Sequence[int]
             ) -> Tuple[bool, List[List[int]]]:
    """Return (violated, undetermined clause slot lists).

    A clause is satisfied if some literal is true and violated if all are
    false; otherwise it is undetermined and contributes the list of its free
    literal codes (one entry per slot; repeated variables keep their slots).
    The scan stops at the first violated clause, so the slot lists are
    complete only when `violated` is False.
    """
    violated = False
    undet: List[List[int]] = []
    for lits in clauses:
        free = []
        sat = False
        for lit in lits:
            m = marks[lit >> 1]
            if m == U:
                free.append(lit)
            elif (m == T) == (lit & 1 == 0):
                sat = True
                break
        if sat:
            continue
        if not free:
            violated = True
            break
        undet.append(free)
    return violated, undet


def clause_vector(instance: Instance, marks: Sequence[int]) -> ClauseVector:
    """Count undetermined clauses by type on a non-violating partial state;
    the reference for the solver's incremental counters."""
    violated, undet = classify(instance.clauses(), marks)
    if violated:
        raise ValueError("clause vector undefined on a violating state")
    counts = [0, 0, 0, 0]
    for free in undet:
        counts[len(free)] += 1
    return ClauseVector(counts[1], counts[2], counts[3])


def check_alpha0(alpha0: float) -> None:
    """Raise ValueError unless the clause ratio `alpha0` of a random 3-SAT
    start is positive and finite."""
    if not 0.0 < alpha0 < math.inf:
        raise ValueError(f"alpha0 must be positive and finite, got {alpha0}")


def check_t_max(t_max: int) -> None:
    """Raise ValueError unless the depth bound `t_max` is an integer >= 0;
    a bool is not taken for 0 or 1."""
    if isinstance(t_max, bool) or not (isinstance(t_max, numbers.Integral)
                                       and t_max >= 0):
        raise ValueError(f"t_max must be an integer >= 0, got {t_max!r}")


def generate_random_instance(n_vars: int, n_2clauses: int, n_3clauses: int,
                             seed: int) -> Instance:
    """Random 2+p-SAT instance: each k-clause picks k distinct variables
    uniformly, each literal negated with probability 1/2.  Clauses are drawn
    independently (repeats across the instance are allowed).  The int `seed`
    fixes the draws of random.Random(seed).

    The DPLL kernel (native.load()) makes the draws when it is built here,
    and _draw_clauses, the reference, otherwise; both give the same
    instance."""
    if n_3clauses > 0 and n_vars < 3:
        raise ValueError("need n_vars >= 3 to draw 3-clauses")
    if n_2clauses > 0 and n_vars < 2:
        raise ValueError("need n_vars >= 2 to draw 2-clauses")
    if n_2clauses < 0 or n_3clauses < 0 or n_vars < 1:
        raise ValueError("sizes must be non-negative (n_vars >= 1)")
    if n_vars > MAX_VARS:
        raise ValueError(f"n_vars must be at most {MAX_VARS}: packed literals "
                         f"are 32-bit")
    if 2 * n_2clauses + 3 * n_3clauses >= 2**31:
        raise ValueError("too many clauses: clause offsets are 32-bit")
    seed = operator.index(seed)
    lib = native.load()
    if lib is not None:
        lits, starts = native.generate(lib, n_vars, n_2clauses, n_3clauses, seed)
    else:
        lits, starts = _draw_clauses(n_vars, n_2clauses, n_3clauses, seed)
    return Instance._from_buffers(n_vars, lits, starts)


def _draw_clauses(n_vars: int, n_2clauses: int, n_3clauses: int,
                  seed: int) -> Tuple[array, array]:
    """The (lits, starts) buffers of generate_random_instance, drawn in
    Python."""
    randrange = random.Random(seed).randrange
    lits = array("i")
    push = lits.append
    # per clause: its distinct variables first, then one sign per variable
    for _ in range(n_2clauses):
        v1 = randrange(n_vars)
        v2 = randrange(n_vars)
        while v2 == v1:
            v2 = randrange(n_vars)
        push(2 * v1 + randrange(2))
        push(2 * v2 + randrange(2))
    for _ in range(n_3clauses):
        v1 = randrange(n_vars)
        v2 = randrange(n_vars)
        while v2 == v1:
            v2 = randrange(n_vars)
        v3 = randrange(n_vars)
        while v3 == v1 or v3 == v2:
            v3 = randrange(n_vars)
        push(2 * v1 + randrange(2))
        push(2 * v2 + randrange(2))
        push(2 * v3 + randrange(2))
    starts = array("i", range(0, 2 * n_2clauses, 2))
    starts.extend(range(2 * n_2clauses, len(lits) + 1, 3))
    return lits, starts


def brute_force_satisfiable(instance: Instance) -> bool:
    """Exhaustive SAT check over all 2^N assignments (bitmask sweep), for
    N <= BRUTE_FORCE_MAX_VARS."""
    n = instance.n_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_VARS} variables")
    pos = []
    neg = []
    for c in instance.clauses():
        pm = nm = 0
        for lit in c:
            if lit & 1:
                nm |= 1 << (lit >> 1)
            else:
                pm |= 1 << (lit >> 1)
        pos.append(pm)
        neg.append(nm)
    full = (1 << n) - 1
    for a in range(1 << n):
        na = a ^ full
        ok = True
        for pm, nm in zip(pos, neg):
            if not (pm & a) and not (nm & na):
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------- DIMACS

def write_dimacs(instance: Instance, path_or_file) -> None:
    """Standard DIMACS CNF: 'p cnf N M' header, zero-terminated clause lines."""
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        fh.write(f"p cnf {instance.n_vars} {instance.n_clauses}\n")
        for c in instance.clauses():
            fh.write(" ".join(str(_dimacs(lit)) for lit in c) + " 0\n")
    finally:
        if own:
            fh.close()


def read_dimacs(path_or_file) -> Instance:
    """Parse DIMACS CNF up to the end or a `%` line (SATLIB's end marker).
    Rejects an empty clause, a second header, clauses longer than 3
    literals, an instance without variables, and a header whose clause
    count the file does not hold."""
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file) if own else path_or_file
    try:
        n_vars = None
        n_declared = None
        clauses = []
        pending: List[int] = []
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line.startswith("%"):
                break
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) < 4 or parts[1] != "cnf":
                    raise ValueError(f"bad DIMACS header: {line!r}")
                if n_declared is not None:
                    raise ValueError(f"second DIMACS header on line {lineno}")
                n_vars = int(parts[2])
                n_declared = int(parts[3])
                continue
            for tok in line.split():
                v = int(tok)
                if v:
                    pending.append(v)
                elif pending:
                    clauses.append(clause(*pending))
                    pending = []
                else:
                    raise ValueError(f"empty DIMACS clause on line {lineno}")
        if pending:
            clauses.append(clause(*pending))
        if n_declared is not None and n_declared != len(clauses):
            raise ValueError(f"DIMACS header declares {n_declared} clauses, "
                             f"the file holds {len(clauses)}")
        if n_vars is None:
            n_vars = max((lit >> 1 for c in clauses for lit in c), default=-1) + 1
        if n_vars < 1:
            raise ValueError("DIMACS instance has no variables")
        return Instance(n_vars, clauses)
    finally:
        if own:
            fh.close()


def dimacs_string(instance: Instance) -> str:
    buf = io.StringIO()
    write_dimacs(instance, buf)
    return buf.getvalue()

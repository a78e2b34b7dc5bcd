"""Sequential DPLL with backtracking, pluggable split heuristics, and full
search-tree instrumentation.

The solver keeps, per clause, a count of unassigned literal slots and of
currently-true literals; undetermined clauses live in per-length pools so the
clause vector (C1, C2, C3) is available in O(1) at every node and the GUC
heuristic can sample a shortest clause uniformly.  All bookkeeping is undone
exactly on backtracking via the assignment trail.

Instrumentation follows the search tree: q_splits counts split nodes,
b_leaves counts branch terminations (contradictions plus a solution leaf),
the cloud records the (p, alpha, t) phase point of every split node, and
g_node is the shallowest split whose second branch was entered (the highest
node reached back by backtracking).

`DpllSolver.solve` runs a compiled port of its search loop
(`dpll_kernel.c`, built on first use by `native`) that reproduces this
module's bookkeeping and random draws bit for bit; it reads the instance's
packed-literal buffers as they are and checks a sat assignment against every
clause.  The kernel has one search entry point, `native.search`, which runs
one search per seed: `solve` calls it with one seed, and
`DpllSolver.leaf_counts` with LEAF_BATCH seeds at a time, reading only the
b_leaves of each search's row.  Every search is seeded alike: each block of
up to 16 seeds takes one MT19937 mixing pass over its states in lockstep,
and a single solve is a block of one.  A batch splits its seeds into
contiguous ranges, one per thread, on up to the library's `threads`
(`native.usable_cpus()`); a single solve, a short batch and any call that
records the cloud run on the calling thread.  Each search makes the same
draws on every path, so rows, leaf counts and Monte Carlo means do not
depend on the batch or the thread count.  The Python loop below is the
reference: it runs when the kernel cannot be built here, and builds its
clause and occurrence lists on first use.
"""

import hashlib
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, NamedTuple, Optional

from . import cnf, native
from .cnf import Instance


def _mix_seed(seed: int) -> int:
    """Hash the seed before feeding the Mersenne Twister: the first draws of
    sequentially seeded generators are measurably correlated otherwise."""
    digest = hashlib.blake2b(repr(seed).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


UC = "UC"
GUC = "GUC"
SC1 = "SC1"
HEURISTICS = (UC, GUC, SC1)

LEAF_BATCH = 1024  # the most seeds leaf_counts passes to one kernel call

QUIESCENT = "quiescent"
CONTRADICTION = "contradiction"


def check_heuristic(heuristic: str) -> None:
    """Raise ValueError unless `heuristic` is one of HEURISTICS."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")


class PhasePoint(NamedTuple):
    p: float      # fraction of 3-clauses among undetermined clauses
    alpha: float  # undetermined clauses per undetermined variable
    t: float      # fraction of assigned variables


def phase_coords(c2: float, c3: float, free: float, t: float) -> PhasePoint:
    """The (p, alpha) change of variables: p = c3/(c2+c3) and
    alpha = (c2+c3)/free, at assigned fraction t.  The solver passes clause
    counts and n - assigned, trajectory.to_phase_coords densities and 1 - t."""
    total = c2 + c3
    if total <= 0:
        raise ValueError("phase point undefined without undetermined clauses")
    return PhasePoint(c3 / total, total / free, t)


def _phase_point(n_vars: int, n_assigned: int, c2: int, c3: int) -> PhasePoint:
    return phase_coords(c2, c3, n_vars - n_assigned, n_assigned / n_vars)


@dataclass
class SolveStats:
    result: str                      # "sat" or "unsat"
    q_splits: int
    b_leaves: int
    cloud: List[PhasePoint]
    g_node: Optional[PhasePoint]
    seed: int
    heuristic: str
    n_vars: int
    assignment: Optional[List[bool]]

    def to_record(self, alpha0: Optional[float]) -> dict:
        """Structured per-run record for JSON export; alpha0 is the
        instance's clause ratio, or None where it has none."""
        return {
            "result": self.result,
            "q_splits": self.q_splits,
            "b_leaves": self.b_leaves,
            "g_node": list(self.g_node) if self.g_node is not None else None,
            "cloud": [list(pt) for pt in self.cloud],
            "seed": self.seed,
            "heuristic": self.heuristic,
            "n_vars": self.n_vars,
            "alpha0": alpha0,
        }


class DpllSolver:
    """One solver bound to an immutable Instance; single-threaded.

    Separate solvers over the same Instance may run in parallel.
    """

    def __init__(self, instance: Instance, heuristic: str):
        check_heuristic(heuristic)
        self.instance = instance
        self.heuristic = heuristic
        self.n = instance.n_vars
        self.occ = None  # the reference loop's state; reset() builds it

    # ------------------------------------------------------------ state

    def reset(self, seed: int) -> None:
        """Start the reference loop's search state over for `seed`; the
        first call builds the clause and occurrence lists."""
        if self.occ is None:
            self.clause_lits = self.instance.clauses()
            occ = [[] for _ in range(2 * self.n)]
            for ci, lits in enumerate(self.clause_lits):
                for lit in lits:
                    occ[lit].append(ci)
            self.occ = occ
            self._track_free = self.heuristic != GUC
        m = len(self.clause_lits)
        self.rng = random.Random(_mix_seed(seed))
        self.val = [-1] * self.n          # -1 unassigned, 0 false, 1 true
        self.satcnt = [0] * m
        self.nfree = [len(c) for c in self.clause_lits]
        self.livepos = [0] * m
        live1: List[int] = []
        live2: List[int] = []
        live3: List[int] = []
        self.lives = (None, live1, live2, live3)
        for ci, k in enumerate(self.nfree):
            lst = self.lives[k]
            self.livepos[ci] = len(lst)
            lst.append(ci)
        self.trail: List[int] = []
        self.conflict = False
        if self._track_free:
            self.freevars = list(range(self.n))
            self.freepos = list(range(self.n))
        else:
            self.freevars = None
            self.freepos = None

    def clause_vector(self) -> cnf.ClauseVector:
        """Live (C1, C2, C3); matches cnf.clause_vector on the current marks."""
        return cnf.ClauseVector(len(self.lives[1]), len(self.lives[2]),
                                len(self.lives[3]))

    def partial_state(self) -> List[int]:
        """The current assignment as cnf marks."""
        return [cnf.U if v < 0 else (cnf.T if v else cnf.F) for v in self.val]

    def phase_point(self) -> PhasePoint:
        return _phase_point(self.n, len(self.trail), len(self.lives[2]),
                            len(self.lives[3]))

    # ------------------------------------------------------- bookkeeping

    def assign(self, lit: int) -> None:
        """Make literal `lit` true; updates pools and may raise the conflict flag."""
        occ = self.occ
        satcnt = self.satcnt
        nfree = self.nfree
        lives = self.lives
        livepos = self.livepos
        v = lit >> 1
        self.val[v] = 1 - (lit & 1)
        self.trail.append(lit)
        if self._track_free:
            fv = self.freevars
            fp = self.freepos
            p = fp[v]
            last = fv[-1]
            if last != v:
                fv[p] = last
                fp[last] = p
            fv.pop()
        for c in occ[lit]:
            s = satcnt[c]
            satcnt[c] = s + 1
            k = nfree[c]
            nfree[c] = k - 1
            if s == 0:
                lst = lives[k]
                p = livepos[c]
                last = lst[-1]
                if last != c:
                    lst[p] = last
                    livepos[last] = p
                lst.pop()
        for c in occ[lit ^ 1]:
            k = nfree[c]
            nfree[c] = k - 1
            if satcnt[c] == 0:
                lst = lives[k]
                p = livepos[c]
                last = lst[-1]
                if last != c:
                    lst[p] = last
                    livepos[last] = p
                lst.pop()
                if k == 1:
                    self.conflict = True
                else:
                    lst = lives[k - 1]
                    livepos[c] = len(lst)
                    lst.append(c)

    def unassign(self) -> None:
        """Exact inverse of the most recent assign."""
        lit = self.trail.pop()
        occ = self.occ
        satcnt = self.satcnt
        nfree = self.nfree
        lives = self.lives
        livepos = self.livepos
        v = lit >> 1
        for c in reversed(occ[lit ^ 1]):
            k = nfree[c]
            nfree[c] = k + 1
            if satcnt[c] == 0:
                if k >= 1:
                    lst = lives[k]
                    p = livepos[c]
                    last = lst[-1]
                    if last != c:
                        lst[p] = last
                        livepos[last] = p
                    lst.pop()
                lst = lives[k + 1]
                livepos[c] = len(lst)
                lst.append(c)
        for c in reversed(occ[lit]):
            satcnt[c] -= 1
            k = nfree[c]
            nfree[c] = k + 1
            if satcnt[c] == 0:
                lst = lives[k + 1]
                livepos[c] = len(lst)
                lst.append(c)
        self.val[v] = -1
        if self._track_free:
            self.freepos[v] = len(self.freevars)
            self.freevars.append(v)

    def propagate(self) -> str:
        """Exhaust unit clauses; CONTRADICTION when a clause is violated.

        On contradiction the remaining unit pool is left as is: the branch is
        dead and backtracking restores it exactly.
        """
        if self.conflict:
            return CONTRADICTION
        live1 = self.lives[1]
        clause_lits = self.clause_lits
        val = self.val
        while live1:
            c = live1[-1]
            lit = -1
            for cand in clause_lits[c]:
                if val[cand >> 1] < 0:
                    lit = cand
                    break
            self.assign(lit)
            if self.conflict:
                return CONTRADICTION
        return QUIESCENT

    # --------------------------------------------------------- heuristics

    def select_literal(self) -> int:
        """Pick the next literal to assert true, per the solver's heuristic.

        With unit clauses present every heuristic propagates: a uniform unit
        clause forces its literal.  Otherwise UC asserts a uniform sign of a
        uniform unset variable; GUC satisfies a uniform literal of a uniform
        shortest clause; SC1 picks a uniform unset variable with the majority
        sign over undetermined 3-clauses (uniform tie-break).
        """
        rnd = self.rng.random
        lives = self.lives
        val = self.val
        if lives[1]:
            lst = lives[1]
            c = lst[int(rnd() * len(lst))]
            for lit in self.clause_lits[c]:
                if val[lit >> 1] < 0:
                    return lit
            raise AssertionError("unit clause without a free literal")
        if self.heuristic == GUC:
            lst = lives[2] or lives[3]
            if not lst:
                raise ValueError("GUC selection with no undetermined clause")
            c = lst[int(rnd() * len(lst))]
            slots = [lit for lit in self.clause_lits[c] if val[lit >> 1] < 0]
            return slots[int(rnd() * len(slots))]
        if not self.freevars:
            raise ValueError("selection with no undetermined variable")
        v = self.freevars[int(rnd() * len(self.freevars))]
        if self.heuristic == UC:
            return 2 * v + int(rnd() * 2)
        # SC1: majority sign over undetermined 3-clauses
        satcnt = self.satcnt
        nfree = self.nfree
        n_pos = 0
        for c in self.occ[2 * v]:
            if satcnt[c] == 0 and nfree[c] == 3:
                n_pos += 1
        n_neg = 0
        for c in self.occ[2 * v + 1]:
            if satcnt[c] == 0 and nfree[c] == 3:
                n_neg += 1
        if n_pos > n_neg:
            return 2 * v
        if n_neg > n_pos:
            return 2 * v + 1
        return 2 * v + int(rnd() * 2)

    # -------------------------------------------------------------- solve

    def solve(self, seed: int, record_cloud: bool = True) -> SolveStats:
        """Complete depth-first search; returns instrumented statistics.

        The compiled kernel runs the search, and leaves this solver's
        Python-side state untouched; the reference loop runs when the kernel
        cannot be built here.
        """
        lib = native.load()
        if lib is not None:
            return self._solve_compiled(lib, seed, record_cloud)
        self.reset(seed)
        lives = self.lives
        trail = self.trail
        q_splits = 0
        b_leaves = 0
        cloud: List[PhasePoint] = []
        frames: list = []  # [trail_len, split_lit, flipped, PhasePoint]
        g_node = None
        g_depth = -1
        result = None
        assignment = None
        while True:
            status = self.propagate()
            if status == CONTRADICTION:
                b_leaves += 1
                while frames and frames[-1][2]:
                    frames.pop()
                if not frames:
                    result = "unsat"
                    break
                frame = frames[-1]
                tlen = frame[0]
                while len(trail) > tlen:
                    self.unassign()
                self.conflict = False
                frame[2] = True
                if g_node is None or tlen < g_depth:
                    g_node = frame[3]
                    g_depth = tlen
                self.assign(frame[1] ^ 1)
                continue
            if not (lives[1] or lives[2] or lives[3]):
                result = "sat"
                b_leaves += 1
                assignment = self._verified([v == 1 for v in self.val])
                break
            point = self.phase_point()
            if record_cloud:
                cloud.append(point)
            lit = self.select_literal()
            frames.append([len(trail), lit, False, point])
            q_splits += 1
            self.assign(lit)
        return SolveStats(result=result, q_splits=q_splits, b_leaves=b_leaves,
                          cloud=cloud, g_node=g_node, seed=seed,
                          heuristic=self.heuristic, n_vars=self.n,
                          assignment=assignment)

    def leaf_counts(self, seeds: Iterable[int]) -> Iterator[int]:
        """b_leaves of solve(seed, record_cloud=False) for each seed, in
        order.  The kernel runs the searches LEAF_BATCH seeds per call, so a
        long stream of seeds is read and answered a batch at a time."""
        lib = native.load()
        if lib is None:
            for seed in seeds:
                yield self.solve(seed, record_cloud=False).b_leaves
            return
        lits, starts = self.instance.lits, self.instance.starts
        seeds = iter(seeds)
        while batch := [_mix_seed(s) for s in islice(seeds, LEAF_BATCH)]:
            rows, _, _ = native.search(lib, self.n, lits, starts, self.heuristic,
                                       batch, False)
            yield from rows[2::6]

    def _solve_compiled(self, lib, seed: int, record_cloud: bool) -> SolveStats:
        # the kernel has checked a sat assignment against every clause
        (sat, q_splits, b_leaves, *g), values, cloud = native.search(
            lib, self.n, self.instance.lits, self.instance.starts, self.heuristic,
            [_mix_seed(seed)], record_cloud)
        assignment = [v == 1 for v in values] if sat else None
        return SolveStats(result="sat" if sat else "unsat", q_splits=q_splits,
                          b_leaves=b_leaves,
                          cloud=[_phase_point(self.n, *pt) for pt in cloud],
                          g_node=_phase_point(self.n, *g) if g[0] >= 0 else None,
                          seed=seed, heuristic=self.heuristic, n_vars=self.n,
                          assignment=assignment)

    def _verified(self, assignment: List[bool]) -> List[bool]:
        lits = self.instance.lits
        starts = self.instance.starts
        for a, b in zip(starts, starts[1:]):
            if not any(assignment[lit >> 1] == (lit & 1 == 0) for lit in lits[a:b]):
                raise AssertionError("solver produced a non-satisfying assignment")
        return assignment


def solve(instance: Instance, heuristic: str, seed: int,
          record_cloud: bool = True) -> SolveStats:
    """One-shot solve of an instance with a fresh solver."""
    return DpllSolver(instance, heuristic).solve(seed, record_cloud=record_cloud)

"""Dynamical-annealing Markov chain on clause-vector space (GUC).

Evolves the expected number of branches B(C1, C2, C3; T) of the parallel
search-tree growth process, with the instance redrawn each step conditioned
on the clause vector.  One assigned variable per step:

  unit step (C1 >= 1): each other unit clause holds the opposite literal with
    probability 1/(2(N-T)) and would kill the branch, giving the survival
    factor (1 - 1/(2(N-T)))^(C1-1); 2-clauses are hit w.p. 2/(N-T) (half
    satisfied, half becoming unit clauses); 3-clauses are hit w.p. 3/(N-T)
    (half satisfied, half becoming 2-clauses).

  split step (C1 = 0, C2 >= 1): GUC satisfies one 2-clause; the remaining
    C2-1 are thinned as above; two children are emitted, the false one
    carrying the split clause as a new unit clause.  Row weights are branch
    multiplicities, not probabilities: a split row sums to 2.

  split step (C1 = 0, C2 = 0, C3 >= 1): GUC splits a 3-clause; the other
    C3-1 are thinned; the false child carries the split clause as a 2-clause.
    (The displayed multinomial formula covers only the 2-clause split; this
    boundary case follows the same per-clause reasoning and is what lets the
    chain start from the pure 3-SAT vector.)

  (0,0,0): the branch found a solution; the row is empty and its weight
    leaves the count (only contradiction-free growth is tracked).

The vectorized engine factors each step into exact sequential binomial
passes (per-clause multinomial fates = satisfied-thinning followed by
conversion of the survivors), applied as banded shift-and-add passes along
one axis at a time of the dense (C1, C2, C3) window; it matches the
per-cell transition rows that the tests keep as its reference
(tests/common.py) to rounding error.  A thinning pass moves mass down its
axis (j satisfied clauses leave); a conversion pass also moves it one step
up the axis before (k clauses lose a literal: 2 -> 1 along C2 into C1,
3 -> 2 along C3 into C2).  A step runs three fields through the C1 and C2
moves: the unit field (C1 >= 1), the split field on a 2-clause (C1 = 0)
and, while the window holds C2 = 0, the split field on a 3-clause, the
(0, 0, C3) sliver; a split field emits both children, the false one a step
up C1 or C2.  The C3 passes act along C3 alone, with tables of the C3
populations, so they commute with those moves: they run once, as one C3
pool on the fields' sum.  Before a step the window's low C2 and C3 sides
are padded by the per-step binomial support (for C2: thinning plus 2 -> 1
conversion plus the split clause), so no move leaves the window.

One binomial pmf (_binom_pmf) gives the passes' weight tables
(_pass_weights), always with numpy; a step builds each table once.  The
multiply-adds run in the C kernel
annealed_kernel.c, which native.load() builds with the other kernels and
binds (as its `passes`) to the AVX2 entry points when the CPU has AVX2, else
to the baseline ones.  A pass splits its destination rows across
native.thread_count threads, at least THREAD_CELLS destination cells each
and up to the library's `threads` (native.usable_cpus()), each cell
computed by one of them.  When the kernel
cannot be built the passes run in the numpy loops of
_thin_pass/_convert_pass, which are the readable reference.  Every backend and thread count adds each
cell's terms in the same order, so fields, mass curves and omegas are
bit-identical across them.  The yielded fields hold the chain's own
windows, marked read-only, and each sums its window once.
"""

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import native
from .cnf import ClauseVector, check_alpha0, check_t_max

_LGF_CACHE = np.zeros(1)

# destination cells a compiled pass gives each of its threads at least:
# below that, starting a thread costs more than the thread saves
THREAD_CELLS = 1 << 14

# the relative upper-tail mass at which the chain truncates a step's
# binomial factors
BINOMIAL_TAIL = 1e-14


def _lgf(n_max: int) -> np.ndarray:
    """log(k!) table, cached."""
    global _LGF_CACHE
    if len(_LGF_CACHE) < n_max + 1:
        _LGF_CACHE = np.cumsum(np.concatenate(
            ([0.0], np.log(np.arange(1, n_max + 1, dtype=float)))))
    return _LGF_CACHE


def _binom_pmf(n, p: float, k) -> np.ndarray:
    """Bin(n, p) probabilities of k, computed in log space and broadcast over
    the integers (or integer arrays) 0 <= k <= n; p <= 0 puts all mass on
    k = 0."""
    if p <= 0.0:
        return np.where(np.equal(k, 0), 1.0, 0.0) + np.zeros(np.shape(n))
    lgf = _lgf(np.max(n))
    return np.exp(lgf[n] - lgf[k] - lgf[n - k]
                  + k * math.log(p) + (n - k) * math.log1p(-p))


def _binom_support(n: int, p: float, tail: float) -> int:
    """Small k_hi <= n whose upper tail mass is below `tail`."""
    if n <= 0 or p <= 0.0:
        return 0
    mean = n * p
    sig = math.sqrt(max(n * p * (1.0 - p), 1e-12))
    z = math.sqrt(max(2.0 * math.log(1.0 / tail), 1.0))
    return min(n, int(mean + z * sig + 6.0))


class BranchCountField:
    """Map clause vector -> expected branch count at one depth T, stored as a
    dense window array indexed by (C1, C2 - c2_lo, C3 - c3_lo)."""

    def __init__(self, T: int, array: np.ndarray, c2_lo: int, c3_lo: int,
                 pruned_mass: float = 0.0):
        self.T = T
        self.array = array
        self.c2_lo = c2_lo
        self.c3_lo = c3_lo
        self.pruned_mass = pruned_mass  # mass the pruning zeroed at this step

    def get(self, c_vec) -> float:
        c1, c2, c3 = c_vec
        i2 = c2 - self.c2_lo
        i3 = c3 - self.c3_lo
        sh = self.array.shape
        if 0 <= c1 < sh[0] and 0 <= i2 < sh[1] and 0 <= i3 < sh[2]:
            return float(self.array[c1, i2, i3])
        return 0.0

    def items(self) -> Iterator[Tuple[ClauseVector, float]]:
        for c1, i2, i3 in zip(*np.nonzero(self.array)):
            yield (ClauseVector(int(c1), int(i2) + self.c2_lo, int(i3) + self.c3_lo),
                   float(self.array[c1, i2, i3]))

    @functools.cached_property
    def _mass(self) -> np.float64:
        """The window's sum, taken once: the chain's windows are read-only."""
        return self.array.sum()

    def total_mass(self) -> float:
        return float(self._mass)

    def _mean(self, other_axes: Tuple[int, int], lo: int) -> float:
        """Mass-weighted mean of the axis left by summing `other_axes`,
        whose first index holds the value `lo`."""
        tot = self._mass
        if tot <= 0:
            return 0.0
        marg = self.array.sum(axis=other_axes)
        return float(np.dot(marg, lo + np.arange(len(marg))) / tot)

    def mean_c2(self) -> float:
        return self._mean((0, 2), self.c2_lo)

    def mean_c3(self) -> float:
        return self._mean((0, 1), self.c3_lo)


def _pass_weights(values: np.ndarray, p: float, tail: float) -> np.ndarray:
    """Binomial weights of one shift-and-add pass over populations `values`
    (ascending, unit step, values[0] >= 0).

    Row j holds, at each window index i >= j, the Bin(values[i], p)
    probability of j; taking j items moves mass from index i to i - j.  The
    rows run to the binomial support of the largest population (one row
    when p <= 0); rows j past the window's width are zero, since no
    in-window destination is left.
    """
    c = len(values)
    lo = int(values[0])
    n_rows = _binom_support(int(values[-1]), p, tail) + 1
    table = np.zeros((n_rows, c))
    for j in range(min(n_rows, c)):
        table[j, j:] = _binom_pmf(np.arange(lo + j, lo + c), p, j)
    return table


def _check_pass(arr: np.ndarray, weights: np.ndarray, axis: int,
                first_axis: int) -> None:
    """The kernel indexes arr and the weight table by these shapes."""
    if not (arr.ndim == 3 and first_axis <= axis < 3 and weights.ndim == 2
            and weights.shape[1] == arr.shape[axis]):
        raise ValueError(f"pass along axis {axis} of a {arr.shape} window "
                         f"with a {weights.shape} weight table")


def _thin_pass(arr: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Population thinning along `axis`: dst = src - j, j ~ Bin(src, p),
    with `weights` the _pass_weights table of the populations along that
    axis.

    Destinations falling below the window are masked off, so callers must
    pad the low side by the binomial support first.
    """
    _check_pass(arr, weights, axis, 0)
    lib = native.load()
    if lib is None:
        src = np.moveaxis(arr, axis, -1)
        out = np.zeros_like(src)
        c = src.shape[-1]
        for j, w in enumerate(weights[:c]):
            out[..., :c - j] += src[..., j:] * w[j:]
        return np.moveaxis(out, -1, axis)
    src = np.ascontiguousarray(arr, dtype=float)
    out = np.zeros(src.shape)
    lib.passes.thin(src.ctypes.data, out.ctypes.data, math.prod(src.shape[:axis]),
                    src.shape[axis], math.prod(src.shape[axis + 1:]),
                    weights.ctypes.data, len(weights),
                    native.thread_count(lib, out.size, THREAD_CELLS))
    return out


def _convert_pass(arr: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Move k items from `axis` to the axis before it, k ~ Bin(pop, q), with
    `weights` the _pass_weights table of the donor populations.

    arr is 3-d; `axis` (1 or 2) donates, the axis before it receives and
    grows by the support of k, the table's last row.
    """
    _check_pass(arr, weights, axis, 1)
    k_max = len(weights) - 1
    shape = list(arr.shape)
    shape[axis - 1] += k_max
    lib = native.load()
    if lib is None:
        # (other, receiver, donor) view; the loop adds along the last two
        src = np.moveaxis(arr, (axis - 1, axis), (1, 2))
        a, b, c = src.shape
        out = np.zeros((a, b + k_max, c))
        for k, w in enumerate(weights[:c]):
            out[:, k:k + b, :c - k] += src[:, :, k:] * w[k:]
        return np.moveaxis(out, (1, 2), (axis - 1, axis))
    src = np.ascontiguousarray(arr, dtype=float)
    out = np.zeros(shape)
    lib.passes.convert(src.ctypes.data, out.ctypes.data,
                       math.prod(src.shape[:axis - 1]), src.shape[axis - 1],
                       shape[axis - 1], src.shape[axis],
                       math.prod(src.shape[axis + 1:]), weights.ctypes.data,
                       len(weights),
                       native.thread_count(lib, out.size, THREAD_CELLS))
    return out


@dataclass
class AnnealedStep:
    T: int
    total_mass: float
    mean_c2: float
    mean_c3: float
    pruned_mass: float


def _engine_step(arr: np.ndarray, c2_lo: int, c3_lo: int, T: int, N: int,
                 tail: float) -> Tuple[np.ndarray, int, int]:
    """One full chain step on a window array; returns the unpruned result
    and its (c2_lo, c3_lo)."""
    n = N - T
    p2 = 1.0 / n
    q2 = (1.0 / n) / (1.0 - 1.0 / n)
    q3 = (3.0 / (2.0 * n)) / (1.0 - 3.0 / (2.0 * n))
    # pad the low sides by the per-step support so that thinning and
    # conversion moves stay in-window: c2 by thinning plus 2 -> 1 conversion
    # plus the split clause, c3 by its touch support
    c2_hi_val = c2_lo + arr.shape[1] - 1
    pad2 = min(c2_lo, _binom_support(c2_hi_val, p2, tail)
               + _binom_support(c2_hi_val, q2, tail) + 1)
    c3_hi_val = c3_lo + arr.shape[2] - 1
    pad3 = min(c3_lo, _binom_support(c3_hi_val, 3.0 / n, tail) + 2)
    if pad2 or pad3:
        arr = np.pad(arr, ((0, 0), (pad2, 0), (pad3, 0)))
        c2_lo -= pad2
        c3_lo -= pad3
    n1, n2, n3 = arr.shape
    c2_vals = np.arange(c2_lo, c2_lo + n2, dtype=float)
    c3_vals = np.arange(c3_lo, c3_lo + n3, dtype=float)

    def two_then_one(field, vals2):
        # satisfied 2-clauses, then 2 -> 1 conversion (c1 grows)
        f = _thin_pass(field, _pass_weights(vals2, p2, tail), axis=1)
        return _convert_pass(f, _pass_weights(vals2, q2, tail), axis=1)

    def fields():
        """The sum of the step's fields after their C1 and C2 moves, each
        part added at its (C1, C2) offset."""
        parts = []
        # unit field: c1 >= 1, survival then consume one unit
        if n1 > 1:
            parts.append((0, 0, two_then_one(
                arr[1:] * ((1.0 - 1.0 / (2.0 * n))
                           ** np.arange(0, n1 - 1))[:, None, None], c2_vals)))
        # split field, c2 >= 1: remove the split clause, thin the rest, emit
        # the true child where it lies and the false one a step up C1, where
        # the split clause is a unit clause.  Row 0 is c2 = 0 or, when
        # c2_lo > 0, padding, so the populations c2 - 1 start at c2_lo.
        if n2 > 1:
            f = two_then_one(arr[0:1, 1:, :], c2_vals[:-1])
            parts += [(0, 0, f), (1, 0, f)]
        # split field on a 3-clause, (0, 0, c3 >= 1), while the window holds
        # c2 = 0: the split clause leaves, moving each cell down to c3 - 1
        # (cell 0 is c3 = 0 or padding), and the false child gains it as a
        # 2-clause, a step up C2
        if c2_lo == 0 and n3 > 1:
            parts += [(0, 0, arr[0:1, 0:1, 1:]), (0, 1, arr[0:1, 0:1, 1:])]
        shape = (max([o1 + p.shape[0] for o1, _, p in parts], default=1),
                 max([o2 + p.shape[1] for _, o2, p in parts], default=1), n3)
        # sum in place into the unit part when its shape covers the sum
        pool = (parts.pop(0)[2] if n1 > 1 and parts[0][2].shape == shape
                else np.zeros(shape))
        for o1, o2, p in parts:
            pool[o1:o1 + p.shape[0], o2:o2 + p.shape[1], :p.shape[2]] += p
        return pool

    # the step's one C3 pool; the summed fields and the padded window are
    # gone before it converts
    f = _thin_pass(fields(), _pass_weights(c3_vals, 3.0 / (2.0 * n), tail),
                   axis=2)                                          # satisfied
    del arr
    return (_convert_pass(f, _pass_weights(c3_vals, q3, tail), axis=2),
            c2_lo, c3_lo)                                   # 3 -> 2, c2 grows


def evolve_branch_counts(alpha0: float, N: int,
                         pruning_threshold: float = 1e-12,
                         t_max: Optional[int] = None
                         ) -> Iterator[BranchCountField]:
    """Iterate the annealed chain from mass 1 at (0, 0, round(alpha0 N)).

    Yields one BranchCountField per depth T (T = 0 included).  Stops at t_max
    (default N-5), or two declining steps after the total mass peaks (the
    halt regime).  Mass below pruning_threshold x total is dropped each step
    and reported as the field's pruned_mass.  Raises ValueError unless N >= 6,
    alpha0 is positive and finite, 0 <= pruning_threshold < 1 and t_max is
    None or an integer >= 0.  Binomial factors are truncated at relative
    tail BINOMIAL_TAIL.
    """
    if N < 6:
        raise ValueError(f"the annealed chain needs N >= 6 variables, got {N}")
    check_alpha0(alpha0)
    if not 0.0 <= pruning_threshold < 1.0:
        raise ValueError(f"pruning threshold must lie in [0, 1), got {pruning_threshold}")
    c3_init = int(round(alpha0 * N))
    if t_max is None:
        t_max = N - 5
    check_t_max(t_max)
    # the fields share the windows, which _engine_step only reads
    arr = np.ones((1, 1, 1))
    arr.flags.writeable = False
    c2_lo = 0
    c3_lo = c3_init
    yield BranchCountField(0, arr, c2_lo, c3_lo)
    prev_mass = 1.0
    declines = 0
    for T in range(0, t_max):
        if N - T < 5:
            break
        out, c2_lo, c3_lo = _engine_step(arr, c2_lo, c3_lo, T, N, BINOMIAL_TAIL)
        total = out.sum()
        if total <= 0.0:
            break
        pruned = out < pruning_threshold * total
        pruned_mass = float(out.sum(where=pruned))
        out[pruned] = 0.0
        live23 = out.any(axis=0)
        if not live23.any():
            break
        hi1 = int(np.flatnonzero(out.any(axis=(1, 2)))[-1])
        i2 = np.flatnonzero(live23.any(axis=1))
        i3 = np.flatnonzero(live23.any(axis=0))
        arr = out[:hi1 + 1, i2[0]:i2[-1] + 1, i3[0]:i3[-1] + 1].copy()
        arr.flags.writeable = False
        c2_lo += int(i2[0])
        c3_lo += int(i3[0])
        field = BranchCountField(T + 1, arr, c2_lo, c3_lo, pruned_mass)
        yield field
        mass = field.total_mass()
        if mass < prev_mass:
            declines += 1
            if declines >= 2:
                break
        else:
            declines = 0
        prev_mass = mass


def mass_curve(alpha0: float, N: int, pruning_threshold: float = 1e-12,
               **kw) -> List[AnnealedStep]:
    """Aggregate (T, total mass, mean densities, pruned mass) along the
    evolution."""
    return [AnnealedStep(f.T, f.total_mass(), f.mean_c2(), f.mean_c3(),
                         f.pruned_mass)
            for f in evolve_branch_counts(alpha0, N, pruning_threshold, **kw)]


def annealed_omega_estimate(alpha0: float, N: int,
                            pruning_threshold: float = 1e-12
                            ) -> Tuple[float, int, List[AnnealedStep]]:
    """Finite-size growth-rate estimate: log2 of the peak total mass over N.

    The chain runs until the mass plateaus and turns over (branches dying on
    the halt line); the peak mass is the annealed analogue of the tree size.
    """
    curve = mass_curve(alpha0, N, pruning_threshold)
    peak = max(curve, key=lambda st: st.total_mass)
    return math.log2(peak.total_mass) / N, peak.T, curve

"""Single-branch trajectory ODEs in the 2+p-SAT phase diagram.

The clause densities c_j(t) (clauses per initial variable, t = assigned
fraction) obey

    dc3/dt = -3 c3/(1-t)
    dc2/dt = 3 c3/(2(1-t)) - 2 c2/(1-t) - rho1(t) h(t),   rho1 = 1 - c2/(1-t)

with h depending on the split heuristic (0 for UC, 1 for GUC when the start
ratio exceeds 2/3, a Bessel-function expression for SC1).  Integration runs
in s = -ln(1-t) to tame the 1/(1-t) factors.  rho1 is the split-step
probability along the branch (1 minus the unit-propagation rate); the ODEs
stop applying once it reaches 0, which is where the single branch halts.

Phase-diagram coordinates: p = c3/(c2+c3), alpha = (c2+c3)/(1-t).  The
sat/unsat critical line is exact for p <= 2/5 (alpha_C = 1/(1-p)) and user
supplied (interpolated table) above; alpha_L is the largest start ratio whose
branch trajectory never leaves the sat phase, located by bisection on the
sign of min_t rho1.
"""

import bisect
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .cnf import check_alpha0
from .dpll import GUC, SC1, UC, PhasePoint, check_heuristic, phase_coords
from .numerics import bessel_i0e, bessel_i1e, bisect_root, hermite_eval, integrate_ode


class UnsupportedDomainError(ValueError):
    pass


class DensityState(NamedTuple):
    t: float
    c2: float
    c3: float


class GPoint(NamedTuple):
    t_g: float
    p_g: float
    alpha_g: float


# termination reasons
CLAUSES_EXHAUSTED = "clauses_exhausted"
RHO1_NEGATIVE = "rho1_negative"
C2_NEGATIVE = "c2_negative"
S_LIMIT = "s_limit"


# branch integration horizon in s = -ln(1-t), the default largest step in
# s, and the clause density below which the clauses count as exhausted
S_MAX = 14.0
MAX_STEP = 0.02
EPS_END = 1e-10


def heuristic_h(kind: str, c3: float, one_t: float) -> float:
    """Split-heuristic term h of the c2 equation at 3-clause density c3 and
    unassigned fraction one_t = 1 - t."""
    if kind == UC:
        return 0.0
    if kind == GUC:
        return 1.0
    if kind == SC1:
        a = 3.0 * c3 / one_t
        return a * (bessel_i0e(a) + bessel_i1e(a)) / 2.0 if a > 0 else 0.0
    raise ValueError(f"unknown heuristic {kind!r}")


def rho1(state: DensityState) -> float:
    return 1.0 - state.c2 / (1.0 - state.t)


def to_phase_coords(state: DensityState) -> PhasePoint:
    """The (p, alpha) change of variables; undefined without clauses."""
    return phase_coords(state.c2, state.c3, 1.0 - state.t, state.t)


@dataclass
class BranchTrajectory:
    alpha0: float
    heuristic: str
    ss: List[float]                 # integration abscissae, s = -ln(1-t)
    states: List[DensityState]
    derivs: List[Tuple[float, float]]   # d(c2,c3)/ds at the nodes
    termination: str
    rho1_min: float
    rho1_min_state: DensityState

    @property
    def t_end(self) -> float:
        return self.states[-1].t

    def at(self, t: float) -> DensityState:
        """Cubic-Hermite interpolated state at assigned fraction t."""
        if not 0.0 <= t <= self.t_end + 1e-15:
            raise ValueError(f"t={t} outside integrated range [0, {self.t_end}]")
        s = -math.log(max(1.0 - t, 1e-300))
        i = bisect.bisect_right(self.ss, s) - 1
        i = min(max(i, 0), len(self.ss) - 2)
        c2, c3 = hermite_eval(self.ss[i], self.states[i][1:], self.derivs[i],
                              self.ss[i + 1], self.states[i + 1][1:],
                              self.derivs[i + 1], s)
        return DensityState(t, c2, c3)

    def phase_points(self) -> List[PhasePoint]:
        return [to_phase_coords(st) for st in self.states
                if st.c2 >= 0.0 and st.c2 + st.c3 > 0]


def integrate_branch(alpha0: float, heuristic: str,
                     max_step: float = MAX_STEP) -> BranchTrajectory:
    """Adaptive integration from (t=0, c2=0, c3=alpha0) until the clauses are
    exhausted, rho1 crosses 0, or c2 leaves the physical range; steps are at
    most `max_step` in s = -ln(1-t)."""
    check_alpha0(alpha0)
    if heuristic == GUC and alpha0 <= 2 / 3:
        raise UnsupportedDomainError("GUC branch ODEs need alpha0 > 2/3")
    check_heuristic(heuristic)

    def rhs(s, y):
        c2, c3 = y
        one_t = math.exp(-s)
        r1 = 1.0 - c2 / one_t
        r1 = min(1.0, max(0.0, r1))
        h = heuristic_h(heuristic, c3, one_t)
        return [1.5 * c3 - 2.0 * c2 - one_t * r1 * h, -3.0 * c3]

    def stop(s, y):
        c2, c3 = y
        one_t = math.exp(-s)
        return (c2 + c3 < EPS_END or c2 < 0.0
                or 1.0 - c2 / one_t < 0.0)

    ss, ys, fs = integrate_ode(rhs, 0.0, S_MAX, [0.0, alpha0],
                               max_step=max_step, stop=stop)
    states = [DensityState(1.0 - math.exp(-s), y[0], y[1]) for s, y in zip(ss, ys)]
    derivs = [(f[0], f[1]) for f in fs]
    # termination reason from the final state
    last = states[-1]
    if last.c2 + last.c3 < EPS_END:
        term = CLAUSES_EXHAUSTED
    elif rho1(last) < 0.0:
        term = RHO1_NEGATIVE
    elif last.c2 < 0.0:
        term = C2_NEGATIVE
    else:
        term = S_LIMIT
    # minimum of rho1 over the samples, with parabolic refinement
    r = [rho1(st) for st in states]
    i = min(range(len(r)), key=r.__getitem__)
    rmin, smin = r[i], ss[i]
    if 0 < i < len(r) - 1:
        s0, s1, s2 = ss[i - 1], ss[i], ss[i + 1]
        r0, r1_, r2 = r[i - 1], r[i], r[i + 1]
        denom = (s0 - s1) * (s0 - s2) * (s1 - s2)
        if denom != 0:
            a = (s2 * (r1_ - r0) + s1 * (r0 - r2) + s0 * (r2 - r1_)) / denom
            b = (s2 * s2 * (r0 - r1_) + s1 * s1 * (r2 - r0) + s0 * s0 * (r1_ - r2)) / denom
            if a > 0:
                sv = -b / (2 * a)
                if s0 <= sv <= s2:
                    c = r1_ - a * s1 * s1 - b * s1
                    rmin = a * sv * sv + b * sv + c
                    smin = sv
    t_at_min = 1.0 - math.exp(-smin)
    traj = BranchTrajectory(alpha0, heuristic, ss, states, derivs, term,
                            rmin, DensityState(t_at_min, 0.0, 0.0))
    traj.rho1_min_state = traj.at(min(t_at_min, traj.t_end))
    return traj


def find_alpha_l(heuristic: str, tol: float = 2e-4,
                 max_step: float = MAX_STEP) -> float:
    """Largest start ratio whose trajectory never leaves the sat phase, by
    bisection to width tol; branches integrate with steps of at most
    `max_step` in s.

    A trajectory leaves the sat phase when rho1 dips below 0, i.e. when it
    touches alpha (1-p) = 1, which for the marginal start happens exactly at
    the tricritical point on the critical line."""
    if tol <= 0:
        raise ValueError("tol must be positive")

    def crosses(alpha0):
        traj = integrate_branch(alpha0, heuristic, max_step)
        return traj.termination == RHO1_NEGATIVE or traj.rho1_min < 0.0
    lo, hi = 2.0, 4.0  # brackets alpha_L under every heuristic
    if crosses(lo):
        raise ValueError(f"bracket low end {lo} already crosses")
    if not crosses(hi):
        raise ValueError(f"bracket high end {hi} does not cross")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if crosses(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def tricritical_check(alpha_l: float, heuristic: str) -> Tuple[float, float]:
    """Contact point of the marginal trajectory from alpha_l (find_alpha_l):
    solves rho1 = drho1/dt = 0 numerically along it; returns (p_T, t_T)."""
    traj = integrate_branch(alpha_l, heuristic)
    st = traj.rho1_min_state
    return to_phase_coords(st).p, st.t


# ---------------------------------------------------------- critical line

class CriticalLine:
    """Sat/unsat boundary alpha_C(p): exactly 1/(1-p) for p <= 2/5, and a
    monotone interpolated table above.  The default table carries only the
    anchors (2/5, 5/3) and (1, 4.3); quantitative work above p = 2/5 should
    supply a better table."""

    P_EXACT_MAX = 0.4

    def __init__(self, table: Optional[Sequence[Tuple[float, float]]] = None):
        pts = sorted(table) if table else [(1.0, 4.3)]
        for p, alpha in pts:
            if not (math.isfinite(p) and math.isfinite(alpha)):
                raise ValueError(f"critical-line table point ({p}, {alpha}) "
                                 "is not finite")
        anchor = (self.P_EXACT_MAX, 5.0 / 3.0)
        if not pts or pts[0][0] > self.P_EXACT_MAX + 1e-12:
            pts.insert(0, anchor)
        elif abs(pts[0][0] - self.P_EXACT_MAX) < 1e-12:
            if abs(pts[0][1] - anchor[1]) > 1e-6:
                raise ValueError("table must meet the exact branch: alpha_C(2/5) = 5/3")
        else:
            raise ValueError("table points must have p >= 2/5")
        alphas = [a for _, a in pts]
        if any(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError("critical-line table must be non-decreasing in p")
        if abs(pts[-1][0] - 1.0) > 1e-9:
            raise ValueError("table must extend to p = 1")
        self.table = pts

    def alpha_c(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if p <= self.P_EXACT_MAX:
            return 1.0 / (1.0 - p)
        ps = [q for q, _ in self.table]
        i = min(bisect.bisect_right(ps, p), len(ps) - 1)
        (p0, a0), (p1, a1) = self.table[i - 1], self.table[i]
        if p1 == p0:
            return a1
        return a0 + (a1 - a0) * (p - p0) / (p1 - p0)


def find_g(alpha0: float, heuristic: str,
           critical_line: CriticalLine) -> Optional[GPoint]:
    """First crossing of the branch trajectory with the critical line; None
    when the trajectory stays in the sat phase (alpha0 <= alpha_L).

    With the crude default table the chord above p = 2/5 overestimates the
    line near the tricritical point, so crossings marginally above alpha_L
    can be missed; supply a denser table there for such studies.
    """
    if alpha0 >= critical_line.alpha_c(1.0):
        raise ValueError("alpha0 is not in the upper sat regime for this line")
    traj = integrate_branch(alpha0, heuristic)

    def margin_at(t):
        st = traj.at(t)
        pt = to_phase_coords(st)
        return pt.alpha - critical_line.alpha_c(pt.p)

    prev_t = None
    prev_m = None
    for st in traj.states:
        if st.c2 < 0.0 or st.c2 + st.c3 <= 0:
            break
        pt = to_phase_coords(st)
        m = pt.alpha - critical_line.alpha_c(pt.p)
        if prev_m is not None and prev_m < 0.0 <= m:
            t_cross = bisect_root(margin_at, prev_t, st.t, tol=1e-12) \
                if m > 0.0 else st.t
            pc = to_phase_coords(traj.at(t_cross))
            return GPoint(t_cross, pc.p, pc.alpha)
        prev_t, prev_m = st.t, m
    if traj.termination == RHO1_NEGATIVE:
        # the branch reached its own halt alpha (1-p) = 1 without crossing the
        # configured line: a table at or above the exact hyperbola near the
        # tangency point hides marginal crossings, but the branch has exited
        # the sat phase here (the true line never exceeds the hyperbola), so
        # the exit point is the degenerate G
        pc = to_phase_coords(traj.states[-1])
        return GPoint(traj.states[-1].t, pc.p, pc.alpha)
    return None

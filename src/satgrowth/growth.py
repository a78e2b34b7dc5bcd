"""Search-tree growth PDE solved by the method of characteristics.

The log-generating-function surface phi(y2, y3; t) of branch counts obeys
phi_t = H(phi_y2, phi_y3, y2, y3, t) after the kernel choice
y1 = Y1(y2) = y2 - ln((1 + sqrt(1 + 4 e^{y2}))/2) removes the unknown
unit-clause boundary term.  Characteristics are the Hamilton-Jacobi system

    dy/dt = -dH/dq,   dq/dt = +dH/dy,   dphi/dt = H - q . dH/dq

with q = (c2, c3) the gradient of phi.  The initial data is linear
(phi = c2(0) y2 + c3(0) y3), so q(0) is fixed and each target time is a
two-point boundary problem in the launch point y(0), solved by a damped
Newton shooting iteration with continuation along the time grid.

phi(0,0; t) is the branch-growth exponent omega*(t) in nats; its gradient
gives the dominant branch densities; the split probability along dominant
branches is rho_S = exp(H at the endpoint) - 1.  Growth halts where rho_S
reaches 0, which for GUC happens on the line
alpha (1-p) = ((3+sqrt5)/2) ln((1+sqrt5)/2) ~ 1.2599.  The tree-size
exponent omega_THE is phi(0,0; t_halt)/ln 2, in bits per variable.

Each formula has one definition: _y1_terms gives Y1 and its derivative,
_ham_grad gives H and its gradient for GUC and UC, and
trajectory.to_phase_coords maps densities to (p, alpha).
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .cnf import check_alpha0
from .dpll import GUC, UC
from .numerics import IntegrationError, integrate_ode
from .trajectory import (CriticalLine, DensityState, GPoint, find_g,
                         to_phase_coords)

LN2 = math.log(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
HALT_CONSTANT = (3.0 + math.sqrt(5.0)) / 2.0 * math.log(GOLDEN)
ASYMPTOTIC_CONSTANT = (3.0 + math.sqrt(5.0)) / (6.0 * LN2) * math.log(GOLDEN) ** 2


class UnsupportedHeuristicError(ValueError):
    pass


class ShootingError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _y1_terms(y2: float) -> Tuple[float, float, float, float]:
    """(Y1, e^{-Y1}, dY1/dy2, e^{y2}) at y2, where Y1, the root of the kernel
    K(y1, y2) = e^{-y2}(e^{2 y1} + e^{y1}) - 1, is
    Y1 = y2 - ln((1 + sqrt(1 + 4 e^{y2}))/2), evaluated through log1p and
    the conjugate form so the y2 -> -inf tail stays accurate.
    """
    ey2 = math.exp(y2)
    r = math.sqrt(1.0 + 4.0 * ey2)
    return (y2 - math.log1p(2.0 * ey2 / (1.0 + r)), (1.0 + r) / (2.0 * ey2),
            (r + 1.0) / (2.0 * r), ey2)


def hamiltonian(heuristic: str, c2: float, c3: float, y2: float, y3: float,
                t: float) -> float:
    """Growth-PDE Hamiltonian; GUC and UC only (no SC1 growth analysis)."""
    return _ham_grad(heuristic, c2, c3, y2, y3, t)[0]


def _ham_grad(heuristic: str, c2, c3, y2, y3, t):
    """(H, dH/dc2, dH/dc3, dH/dy2, dH/dy3) of
    H = base(y2) + 3 c3 b3(y2, y3)/(1-t) + c2 k2(y2)/(1-t).

    The heuristic sets only base and k2: GUC has base = -Y1 and
    k2 = e^{-Y1} - 2, UC has base = ln 2 and k2 = 1.5 e^{-y2} - 2.
    """
    if t >= 1.0:
        raise ValueError("t must be below 1")
    if heuristic == GUC:
        y1, e_m_y1, y1p, ey2 = _y1_terms(y2)
        base, k2 = -y1, e_m_y1 - 2.0
        # dk2/dy2 = -dk2_a * dk2_b
        d_base, dk2_a, dk2_b = -y1p, y1p, e_m_y1
    elif heuristic == UC:
        ey2 = math.exp(y2)
        e_m_y2 = math.exp(-y2)
        base, k2 = LN2, 1.5 * e_m_y2 - 2.0
        # -0.0 is the exact additive identity, so d_y2 gets no base term
        d_base, dk2_a, dk2_b = -0.0, 1.5, e_m_y2
    else:
        raise UnsupportedHeuristicError(f"no growth Hamiltonian for {heuristic!r}")
    one_t = 1.0 - t
    e_m_y3 = math.exp(-y3)
    b3 = e_m_y3 * (1.0 + ey2) / 2.0 - 1.0
    a3 = 3.0 * c3 / one_t
    a2 = c2 / one_t
    return (base + a3 * b3 + a2 * k2, k2 / one_t, 3.0 * b3 / one_t,
            d_base + a3 * (e_m_y3 * ey2 / 2.0) - a2 * dk2_a * dk2_b,
            a3 * (-e_m_y3 * (1.0 + ey2) / 2.0))


def halt_line_alpha(p: float) -> float:
    """Halt line of dominant GUC branches: alpha = 1.2599.../(1-p)."""
    if p >= 1.0:
        raise ValueError("halt line diverges at p = 1")
    if p < 0.0:
        raise ValueError("p must be non-negative")
    return HALT_CONSTANT / (1.0 - p)


def asymptotic_omega(alpha0: float) -> float:
    """Closed-form large-ratio GUC asymptote of omega_THE, in bits."""
    check_alpha0(alpha0)
    return ASYMPTOTIC_CONSTANT / alpha0


class GrowthSample(NamedTuple):
    t: float
    omega_nats: float     # phi(0,0;t)
    c2_star: float
    c3_star: float
    p_star: float
    alpha_star: float
    rho_split: float

    @property
    def omega_bits(self) -> float:
        return self.omega_nats / LN2


NEWTON_MAX_ITER = 60
T_MAX = 0.95          # the march stops before this target time
SURFACE_Y_SPAN = 1.2  # legendre_surface launches y(0) in [-span, span]^2


@dataclass
class Controls:
    rtol: float = 1e-11
    atol: float = 1e-13
    shoot_tol: float = 1e-10
    t_step: Optional[float] = None   # marching step; default scales with 1/alpha0
    halt_tol: float = 1e-7


@dataclass
class GrowthSeries:
    heuristic: str
    c2_init: float
    c3_init: float
    samples: List[GrowthSample]
    halted: bool
    t_halt: Optional[float]          # halt time, or closest-approach time
    omega_nats: Optional[float]      # phi(0,0;.) there
    rho_min: float                   # smallest split probability seen

    @property
    def omega_bits(self) -> Optional[float]:
        return None if self.omega_nats is None else self.omega_nats / LN2


class _Shooter:
    """Characteristic integrator + Newton shooting for one initial condition."""

    def __init__(self, heuristic, c2_init, c3_init, controls: Controls):
        self.h = heuristic
        self.q0 = (c2_init, c3_init)
        self.ctl = controls

    def _rhs(self, t, u):
        y2, y3, c2, c3, phi = u
        H, dc2, dc3, dy2, dy3 = _ham_grad(self.h, c2, c3, y2, y3, t)
        return [-dc2, -dc3, dy2, dy3, H - c2 * dc2 - c3 * dc3]

    def integrate(self, y0: Tuple[float, float], t_target: float):
        phi0 = self.q0[0] * y0[0] + self.q0[1] * y0[1]
        u0 = [y0[0], y0[1], self.q0[0], self.q0[1], phi0]
        ts, us, _ = integrate_ode(self._rhs, 0.0, t_target, u0,
                                  rtol=self.ctl.rtol, atol=self.ctl.atol,
                                  max_step=max(t_target / 8.0, 1e-4))
        return us[-1]

    def shoot(self, t_target: float, guess: Tuple[float, float]):
        """Newton-iterate the launch point until y(t_target) = (0,0)."""
        y0 = [guess[0], guess[1]]
        end = self.integrate(y0, t_target)
        res = abs(end[0]) + abs(end[1])
        for _ in range(NEWTON_MAX_ITER):
            if res < self.ctl.shoot_tol:
                return y0, end
            eps = 1e-7
            j = [[0.0, 0.0], [0.0, 0.0]]
            for k in range(2):
                yp = list(y0)
                yp[k] += eps
                endp = self.integrate(yp, t_target)
                j[0][k] = (endp[0] - end[0]) / eps
                j[1][k] = (endp[1] - end[1]) / eps
            det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
            if det == 0.0:
                raise ShootingError("singular shooting Jacobian", residual=res)
            dx = (-end[0] * j[1][1] + end[1] * j[0][1]) / det
            dy = (-j[0][0] * end[1] + j[1][0] * end[0]) / det
            lam = 1.0
            while lam > 1e-6:
                cand = [y0[0] + lam * dx, y0[1] + lam * dy]
                endc = self.integrate(cand, t_target)
                resc = abs(endc[0]) + abs(endc[1])
                if resc < res:
                    y0, end, res = cand, endc, resc
                    break
                lam *= 0.5
            else:
                raise ShootingError("shooting Newton stalled", residual=res)
        if res < self.ctl.shoot_tol * 100:
            return y0, end
        raise ShootingError("shooting did not converge", residual=res)

    def sample(self, t_target: float, guess) -> Tuple[list, GrowthSample]:
        y0, end = self.shoot(t_target, guess)
        c2s, c3s, phi = end[2], end[3], end[4]
        h_end = hamiltonian(self.h, c2s, c3s, 0.0, 0.0, t_target)
        if c2s + c3s > 0:
            p_star, alpha_star, _ = to_phase_coords(DensityState(t_target, c2s, c3s))
        else:
            p_star, alpha_star = float("nan"), (c2s + c3s) / (1.0 - t_target)
        return y0, GrowthSample(t_target, phi, c2s, c3s, p_star, alpha_star,
                                math.exp(h_end) - 1.0)


def solve_characteristics(alpha0: float, heuristic: str,
                          c2_init: float = 0.0,
                          c3_init: Optional[float] = None,
                          controls: Optional[Controls] = None) -> GrowthSeries:
    """March target times from 0, shooting each, until the split probability
    crosses 0 (halt, refined by bisection) or passes its minimum without
    halting (marginal start; the series then carries the closest approach).

    Default initial data is the 3-SAT start (c2, c3) = (0, alpha0); pass the
    G-point densities (alpha_G (1-p_G), alpha_G p_G) for upper-sat subtrees.
    Raises ValueError unless alpha0 is finite and >= 0; the upper-sat start
    passes 0, since there the densities come from c2_init and c3_init.
    """
    if not 0.0 <= alpha0 < math.inf:
        raise ValueError(f"alpha0 must be finite and >= 0, got {alpha0}")
    if c3_init is None:
        c3_init = alpha0
    ctl = controls or Controls()
    shooter = _Shooter(heuristic, c2_init, c3_init, ctl)
    dt = ctl.t_step if ctl.t_step is not None else min(0.02, 0.08 / max(alpha0, 1.0))
    samples: List[GrowthSample] = []
    guess = (0.0, 0.0)
    t = dt
    prev_t: Optional[float] = None
    prev_guess = guess
    best = None  # (rho, t, guess, sample) closest approach
    while t < T_MAX:
        y0, smp = shooter.sample(t, guess)
        samples.append(smp)
        if smp.rho_split < 0.0:
            break
        if best is None or smp.rho_split < best[0]:
            best = (smp.rho_split, t, tuple(y0), smp)
        elif smp.rho_split > 4.0 * best[0] + 1e-3:
            # past the minimum and rising: marginal start, no halt
            return GrowthSeries(heuristic, c2_init, c3_init, samples, False,
                                best[1], best[3].omega_nats, best[0])
        prev_t, prev_guess = t, tuple(y0)
        guess = y0
        t += dt
    else:
        return GrowthSeries(heuristic, c2_init, c3_init, samples, False,
                            None if best is None else best[1],
                            None if best is None else best[3].omega_nats,
                            float("inf") if best is None else best[0])
    if prev_t is None:
        raise ShootingError("split probability negative at the first target time")
    # bisect the halt time on the sign of rho_split
    lo, hi = prev_t, t
    guess = prev_guess
    lo_sample = None
    while hi - lo > ctl.halt_tol:
        mid = 0.5 * (lo + hi)
        y0, smp = shooter.sample(mid, guess)
        if smp.rho_split < 0.0:
            hi = mid
        else:
            lo, guess, lo_sample = mid, tuple(y0), smp
    if lo_sample is None:
        _, lo_sample = shooter.sample(lo, guess)
    samples = [s for s in samples if s.t < lo]
    samples.append(lo_sample)
    rho_min = min(s.rho_split for s in samples)
    return GrowthSeries(heuristic, c2_init, c3_init, samples, True, lo,
                        lo_sample.omega_nats, rho_min)


def omega_theory(alpha0: float, heuristic: str = GUC,
                 controls: Optional[Controls] = None) -> float:
    """Predicted tree-size exponent (bits per variable) for a 3-SAT start in
    the unsat regime: phi(0,0;.) at the halt time, divided by ln 2."""
    series = solve_characteristics(alpha0, heuristic, controls=controls)
    if not series.halted:
        raise ShootingError(
            f"growth from alpha0={alpha0} never halts (minimum split "
            f"probability {series.rho_min:.4g}); not in the unsat growth regime")
    return series.omega_bits


class UpperSatResult(NamedTuple):
    omega_bits: float       # omega_G (1 - t_G), per original variable
    omega_g_bits: float     # subtree exponent per remaining variable
    g: GPoint
    halted: bool            # False: marginal G, closest-approach value used


def omega_upper_sat_from_g(g: GPoint, heuristic: str = GUC) -> UpperSatResult:
    """Upper-sat composition from a known G point (tabulated or measured):
    rerun the growth process from the G initial data and scale by (1 - t_G).

    A G exactly on the sat/unsat boundary is marginal for the annealed growth
    dynamics and may never halt; the closest approach to the halt line is
    then used and flagged (halted=False).
    """
    series = solve_characteristics(0.0, heuristic,
                                   c2_init=g.alpha_g * (1.0 - g.p_g),
                                   c3_init=g.alpha_g * g.p_g)
    if series.omega_nats is None:
        raise ShootingError("no growth sample produced for the G start")
    om_g = series.omega_bits
    return UpperSatResult(om_g * (1.0 - g.t_g), om_g, g, series.halted)


def omega_upper_sat(alpha0: float, heuristic: str = GUC,
                    critical_line: Optional[CriticalLine] = None
                    ) -> UpperSatResult:
    """Upper-sat prediction omega_G x (1 - t_G): locate G where the branch
    trajectory crosses the critical line, then grow the subtree from G."""
    line = critical_line or CriticalLine()
    g = find_g(alpha0, heuristic, line)
    if g is None:
        raise ValueError(f"trajectory from alpha0={alpha0} never crosses the "
                         "critical line (alpha0 <= alpha_L?)")
    return omega_upper_sat_from_g(g, heuristic)


# ------------------------------------------------------------ omega surface

class SurfaceSnapshot(NamedTuple):
    t: float
    p_axis: List[float]
    alpha_axis: List[float]
    omega: List[List[float]]          # omega[i][j] at (alpha_axis[i], p_axis[j]); nan absent
    samples: List[Tuple[float, float, float]]  # raw (p, alpha, omega_nats)


def legendre_surface(alpha0: float, heuristic: str, t: float,
                     n_fan: int = 41, grid: Tuple[int, int] = (40, 40)
                     ) -> SurfaceSnapshot:
    """Snapshot of the omega(p, alpha; t) surface of the 3-SAT start
    (0, alpha0) via a fan of characteristics.

    Each characteristic launched from y(0) on a grid contributes one surface
    sample at its endpoint: densities c = q(t) and height
    omega = phi - y(t) . q(t) (the Legendre transform at its stationary
    point).  Samples are rasterized onto a (p, alpha) grid keeping cell maxima.
    Raises ValueError, before any characteristic is launched, unless alpha0
    is positive and finite and 0 <= t < 1.
    """
    check_alpha0(alpha0)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1), got {t}")
    shooter = _Shooter(heuristic, 0.0, alpha0, Controls())
    raw = []
    for i in range(n_fan):
        y2 = -SURFACE_Y_SPAN + 2.0 * SURFACE_Y_SPAN * i / (n_fan - 1)
        for j in range(n_fan):
            y3 = -SURFACE_Y_SPAN + 2.0 * SURFACE_Y_SPAN * j / (n_fan - 1)
            try:
                end = shooter.integrate((y2, y3), t)
            except (OverflowError, ValueError, IntegrationError):
                continue
            y2_end, y3_end, c2, c3, phi = end
            if c2 < 0 or c3 < 0 or c2 + c3 <= 0:
                continue
            p, alpha, _ = to_phase_coords(DensityState(t, c2, c3))
            raw.append((p, alpha, phi - y2_end * c2 - y3_end * c3))
    if not raw:
        raise ValueError("no valid surface samples; lower t")
    n_p, n_a = grid
    p_lo = min(r[0] for r in raw)
    p_hi = max(r[0] for r in raw)
    a_lo = min(r[1] for r in raw)
    a_hi = max(r[1] for r in raw)
    p_axis = [p_lo + (p_hi - p_lo) * i / (n_p - 1) for i in range(n_p)]
    alpha_axis = [a_lo + (a_hi - a_lo) * i / (n_a - 1) for i in range(n_a)]
    nan = float("nan")
    cells = [[nan] * n_p for _ in range(n_a)]
    for p, a, om in raw:
        j = min(int((p - p_lo) / (p_hi - p_lo + 1e-300) * (n_p - 1) + 0.5), n_p - 1)
        i = min(int((a - a_lo) / (a_hi - a_lo + 1e-300) * (n_a - 1) + 0.5), n_a - 1)
        if math.isnan(cells[i][j]) or om > cells[i][j]:
            cells[i][j] = om
    return SurfaceSnapshot(t, p_axis, alpha_axis, cells, raw)

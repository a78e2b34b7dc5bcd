import contextlib
import hashlib
import itertools
import math
import signal

import numpy as np
import pytest

from satgrowth import growth, native
from satgrowth.growth import (ASYMPTOTIC_CONSTANT, HALT_CONSTANT, Controls,
                              UnsupportedHeuristicError, asymptotic_omega,
                              halt_line_alpha, hamiltonian,
                              legendre_surface, omega_theory, omega_upper_sat,
                              omega_upper_sat_from_g, solve_characteristics)
from satgrowth.numerics import IntegrationError, integrate_ode
from satgrowth.trajectory import CriticalLine, GPoint

GOLDEN_LOG = math.log((1 + math.sqrt(5)) / 2)


def test_kernel_y1_values():
    def kernel(y1, y2):
        return math.exp(-y2) * (math.exp(2.0 * y1) + math.exp(y1)) - 1.0

    def kernel_y1(y2):
        return growth._y1_terms(y2)[0]

    assert abs(kernel_y1(0.0) + GOLDEN_LOG) < 1e-14
    # for very negative y2 the log term vanishes: Y1 -> y2
    assert abs(kernel_y1(-30.0) - (-30.0)) < 1e-12
    for y2 in (-2.0, -0.5, 0.0, 0.7, 2.0):
        assert abs(kernel(kernel_y1(y2), y2)) < 1e-13


def test_hamiltonian_values():
    # no 2-clauses: GUC grows at the golden-ratio rate, UC at ln 2
    assert abs(hamiltonian("GUC", 0.0, 5.0, 0.0, 0.0, 0.3) - GOLDEN_LOG) < 1e-14
    assert abs(hamiltonian("UC", 0.0, 7.0, 0.0, 0.0, 0.2) - math.log(2)) < 1e-14
    # on the halt line the split probability vanishes
    t = 0.3
    h = hamiltonian("GUC", HALT_CONSTANT * (1 - t), 1.7, 0.0, 0.0, t)
    assert abs(h) < 1e-12
    with pytest.raises(UnsupportedHeuristicError):
        hamiltonian("SC1", 0.0, 1.0, 0.0, 0.0, 0.1)


def test_uc_growth_rate_bounded():
    # with every step a split, ln 2 bounds the UC growth rate at y = 0
    for c2, c3, t in ((0.0, 3.0, 0.1), (0.5, 2.0, 0.3), (1.2, 0.3, 0.6)):
        assert hamiltonian("UC", c2, c3, 0.0, 0.0, t) <= math.log(2) + 1e-12


def test_halt_line():
    assert abs(halt_line_alpha(0.0) - 1.2598289) < 1e-6
    assert abs(halt_line_alpha(0.5) - 2 * halt_line_alpha(0.0)) < 1e-12
    assert halt_line_alpha(0.0) > 1.0  # differs from the single-branch halt
    with pytest.raises(ValueError):
        halt_line_alpha(1.0)


def test_series_small_t_limit():
    series = solve_characteristics(10.0, "GUC",
                                   controls=Controls(t_step=0.002))
    first = series.samples[0]
    assert first.omega_nats < 0.002
    assert abs(first.c2_star) < 0.05
    assert abs(first.c3_star - 10.0) < 0.1


def test_halt_time_alpha10():
    series = solve_characteristics(10.0, "GUC")
    assert series.halted
    assert abs(series.t_halt - 0.094) < 0.003


def test_tree_trajectory_approaches_halt_line():
    series = solve_characteristics(10.0, "GUC")
    vals = [s.alpha_star * (1 - s.p_star) for s in series.samples]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - HALT_CONSTANT) < 5e-4
    omegas = [s.omega_nats for s in series.samples]
    assert all(b >= a - 1e-12 for a, b in zip(omegas, omegas[1:]))
    rhos = [s.rho_split for s in series.samples]
    assert all(r > -1e-8 for r in rhos)
    assert rhos[-1] < 1e-4


def test_omega_theory_spot_value():
    assert abs(omega_theory(10.0, "GUC") - 0.0323) < 0.001


def test_omega_theory_tolerance_stability():
    loose = omega_theory(10.0, "GUC",
                         controls=Controls(rtol=1e-8, atol=1e-10,
                                           shoot_tol=1e-7, halt_tol=1e-6))
    tight = omega_theory(10.0, "GUC")
    assert abs(loose - tight) < 1e-4


def test_hamilton_jacobi_consistency():
    # phi accumulated by the integrator equals the quadrature of
    # H - q . dH/dq along the same characteristic
    ctl = Controls()
    sh = growth._Shooter("GUC", 0.0, 10.0, ctl)
    from satgrowth.numerics import integrate_ode
    ts, us, _ = integrate_ode(sh._rhs, 0.0, 0.08, [0.05, -0.03, 0.0, 10.0,
                                                   0.05 * 0.0 + -0.03 * 10.0],
                              rtol=1e-11, atol=1e-13, max_step=4e-4)
    quad = 0.0
    vals = []
    for t, u in zip(ts, us):
        h, dc2, dc3, _, _ = growth._ham_grad("GUC", u[2], u[3], u[0], u[1], t)
        vals.append(h - u[2] * dc2 - u[3] * dc3)
    for i in range(len(ts) - 1):
        quad += 0.5 * (vals[i] + vals[i + 1]) * (ts[i + 1] - ts[i])
    assert abs((us[-1][4] - us[0][4]) - quad) < 1e-6


def test_asymptotic_constant_and_trend():
    # 50-digit evaluation of (3+sqrt5)/(6 ln 2) ln((1+sqrt5)/2)^2
    assert abs(ASYMPTOTIC_CONSTANT - 0.29154201198660445) < 1e-14
    assert abs(asymptotic_omega(20.0) - 0.0153) / 0.0153 < 0.05
    for alpha0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            asymptotic_omega(alpha0)


def test_upper_sat_from_marginal_g_flagged():
    # a G exactly on the measured critical line grazes the halt line
    res = omega_upper_sat_from_g(GPoint(0.1805, 0.78, 3.02))
    assert not res.halted
    assert 0.03 < res.omega_bits < 0.05


def test_upper_sat_from_interior_g_halts():
    res = omega_upper_sat_from_g(GPoint(0.1805, 0.78, 3.10))
    assert res.halted
    assert abs(res.omega_bits - 0.0351) < 0.002


def test_upper_sat_continuity_at_alpha_c():
    # just below the 3-SAT threshold the G start reduces to the 3-SAT start
    res = omega_upper_sat(4.29, "GUC", CriticalLine())
    direct = omega_theory(4.3, "GUC")
    assert res.halted
    assert abs(res.omega_bits - direct) / direct < 0.05


def test_omega_theory_rejects_sat_regime():
    with pytest.raises(growth.ShootingError):
        omega_theory(3.5, "GUC")


def test_characteristics_reject_bad_alpha0():
    # a negative start used to march as a "no halt" series (omega 0.0148
    # bits at -5); 0 stays valid: the upper-sat start from G passes it
    # (test_upper_sat_from_interior_g_halts)
    for alpha0 in (-5.0, -1e-9, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="alpha0"):
            solve_characteristics(alpha0, "GUC")


def _grid_phi(alpha0, t_end, y_span=1.0, n_grid=81, dt=2e-4):
    """phi(0, 0; t_end) of the GUC growth PDE from the 3-SAT start
    phi = alpha0 y3, by a coarse Lax-Friedrichs solve on a (y2, y3) grid.

    H is affine in q = (c2, c3) with slopes scaled by 1/(1-t), so its
    intercept and slopes are read off _ham_grad at q = 0, t = 0.
    """
    h = 2.0 * y_span / (n_grid - 1)
    axis = np.linspace(-y_span, y_span, n_grid)
    base, k2, k3 = np.array([[growth._ham_grad("GUC", 0.0, 0.0, y2, y3, 0.0)[:3]
                              for y3 in axis] for y2 in axis]).transpose(2, 0, 1)
    phi = alpha0 * np.meshgrid(axis, axis, indexing="ij")[1]
    for k in range(int(round(t_end / dt))):
        one_t = 1.0 - k * dt
        q2, q3 = np.gradient(phi, h)
        ham = base + (q3 * k3 + q2 * k2) / one_t
        # Lax-Friedrichs dissipation, scaled by the local gradient speeds
        ham[1:-1, :] -= np.abs(k2[1:-1, :]) / one_t * (
            phi[2:, :] - 2 * phi[1:-1, :] + phi[:-2, :]) / (2 * h)
        ham[:, 1:-1] -= np.abs(k3[:, 1:-1]) / one_t * (
            phi[:, 2:] - 2 * phi[:, 1:-1] + phi[:, :-2]) / (2 * h)
        phi = phi + dt * ham
    return float(phi[n_grid // 2, n_grid // 2])


def test_grid_solver_cross_check():
    # the coarse upwind grid solve agrees with the characteristics route
    sh = growth._Shooter("GUC", 0.0, 10.0, Controls())
    guess = (0.0, 0.0)
    for t_end in (0.03, 0.05):
        guess, smp = sh.sample(t_end, guess)
        grid = _grid_phi(10.0, t_end)
        assert abs(grid - smp.omega_nats) / smp.omega_nats < 0.01


def test_legendre_surface():
    series = solve_characteristics(10.0, "GUC")
    near = min(series.samples, key=lambda s: abs(s.t - 0.05))
    snap = legendre_surface(10.0, "GUC", 0.05, n_fan=21)
    apex = max(snap.samples, key=lambda s: s[2])
    assert abs(apex[2] - near.omega_nats) < 5e-3
    assert abs(apex[0] - near.p_star) < 0.02
    assert abs(apex[1] - near.alpha_star) < 0.15
    # early snapshot collapses toward (p = 1, alpha = alpha0) with omega -> 0
    snap0 = legendre_surface(10.0, "GUC", 0.002, n_fan=11)
    assert all(s[0] > 0.95 for s in snap0.samples)
    assert all(abs(s[1] - 10.0) < 0.3 for s in snap0.samples)
    assert max(s[2] for s in snap0.samples) < 2e-3


def test_legendre_surface_concavity():
    # omega is a Legendre transform: concave along sections through the apex
    snap = legendre_surface(10.0, "GUC", 0.05, n_fan=31, grid=(24, 24))
    best = None
    for i, row in enumerate(snap.omega):
        for j, om in enumerate(row):
            if om == om and (best is None or om > best[0]):
                best = (om, i, j)
    _, i0, _ = best
    row = [om for om in snap.omega[i0] if om == om]
    diffs = [b - a for a, b in zip(row, row[1:])]
    # allow small rasterization jitter
    assert sum(1 for a, b in zip(diffs, diffs[1:]) if b > a + 5e-4) <= 2


def _digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


# Golden values of the growth layer, computed before H, dH and Y1 were
# given one definition each; every float must stay identical.  The omegas
# are GUC omega_THE in bits; the digests are blake2b digests of the repr of
# _ham_grad's 5-tuples on a UC/GUC grid and of a surface's raw samples.
_GOLDEN_OMEGAS = {4.3: 0.09164200621346194, 7.0: 0.048653650860546106,
                  10.0: 0.03230162366053462, 15.0: 0.020754357287275066,
                  20.0: 0.015298410628130466}


def test_growth_golden_values():
    for alpha0, want in _GOLDEN_OMEGAS.items():
        assert omega_theory(alpha0) == want, alpha0
    assert omega_upper_sat(3.5).omega_bits == 0.011523750746573521
    grid = [growth._ham_grad(*point) for point in itertools.product(
        ("UC", "GUC"), (0.0, 0.7, 3.1), (0.0, 2.5, 9.0),
        (-1.3, -0.2, 0.0, 0.4, 1.1), (-0.9, 0.0, 0.6), (0.0, 0.1, 0.45))]
    assert _digest(grid) == "0fb4f6da0124a782ac023f271a7b1a95"
    snap = legendre_surface(10.0, "GUC", 0.05, n_fan=11)
    assert _digest(snap.samples) == "719fe4aad54fcd8a96cf159210f25b4f"


def test_growth_golden_values_on_reference(reference):
    # the Python integrator, the fallback without gcc, gives the same bits
    with reference():
        test_growth_golden_values()


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError inside the block once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
@pytest.mark.parametrize("field, value", [
    ("t_step", 0.0), ("t_step", -0.01), ("t_step", math.nan),
    ("t_step", growth.T_MAX), ("t_step", math.inf), ("rtol", 0.0),
    ("atol", -1e-13), ("shoot_tol", math.nan), ("halt_tol", 0.0),
    ("halt_tol", math.inf)])
def test_controls_reject_bad_values(field, value):
    # a zero or negative marching step and a zero halt tolerance used to
    # march or bisect forever, and a NaN step returned an empty series
    with _deadline(10), pytest.raises(ValueError, match=field):
        solve_characteristics(10.0, "GUC", controls=Controls(**{field: value}))


def _outcome(call):
    """(float, the floats call() returns) or (the type of its exception,
    an IntegrationError's time and state), the floats as hex."""
    try:
        return float, [x.hex() for x in call()]
    except IntegrationError as exc:
        return IntegrationError, [x.hex() for x in (exc.t, *exc.y)]
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        return type(exc), None


def test_kernel_characteristic_matches_integrate_ode(kernel):
    # the compiled characteristic gives integrate_ode's floats and
    # exceptions, from the 3-SAT and an upper-sat start, out to launch
    # points where exp overflows (y2 or -y3 large) or underflows to a
    # division by zero (GUC, y2 very negative) and steps underflow; a NaN
    # launch point underflows, and a NaN target returns the launch state
    g = GPoint(0.1805, 0.78, 3.10)
    starts = ((0.0, 4.3), (0.0, 10.0), (0.0, 20.0),
              (g.alpha_g * (1.0 - g.p_g), g.alpha_g * g.p_g))
    launches = [(y2, y3) for i, y2 in enumerate((-800.0, -60.0, -1.5, 0.0,
                                                 0.6, 60.0, 800.0))
                for y3 in ((-800.0, -0.7, 0.0, 0.4, 50.0, 800.0)[i % 3::3])]
    launches.append((math.nan, 0.0))
    seen = set()
    for heuristic, (c2, c3), ctl in itertools.product(
            ("GUC", "UC"), starts,
            (Controls(), Controls(rtol=1e-8, atol=1e-10))):
        shooter = growth._Shooter(heuristic, c2, c3, ctl)
        for (y2, y3), t in itertools.product(
                launches, (0.0, 1e-4, 0.05, 0.3, 0.94, 0.999, math.nan)):
            got = _outcome(lambda: shooter.integrate((y2, y3), t))
            u0 = [y2, y3, c2, c3, c2 * y2 + c3 * y3]
            want = _outcome(lambda: integrate_ode(
                shooter._rhs, 0.0, t, u0, rtol=ctl.rtol, atol=ctl.atol,
                max_step=max(t / 8.0, 1e-4))[1][-1])
            assert got == want, (heuristic, c2, c3, ctl, y2, y3, t)
            seen.add(want[0])
    assert seen == {float, OverflowError, ZeroDivisionError, IntegrationError}

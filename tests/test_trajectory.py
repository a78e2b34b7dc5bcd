import math
import re

import pytest

from satgrowth.numerics import bessel_i0e, bessel_i1e
from satgrowth.trajectory import (CriticalLine, DensityState,
                                  UnsupportedDomainError, find_alpha_l, find_g,
                                  heuristic_h, integrate_branch, rho1,
                                  to_phase_coords, tricritical_check)


def test_heuristic_h_values():
    assert heuristic_h("UC", 1.5, 0.8) == 0.0
    assert heuristic_h("GUC", 1.5, 0.8) == 1.0
    assert heuristic_h("SC1", 0.0, 0.7) == 0.0
    a = 3.0 * 1.5 / 0.8  # SC1: a e^-a (I0 + I1)/2 at a = 3 c3/(1-t)
    assert heuristic_h("SC1", 1.5, 0.8) == a * (bessel_i0e(a) + bessel_i1e(a)) / 2.0
    with pytest.raises(ValueError):
        heuristic_h("DLIS", 1.5, 0.8)


def test_sc1_h_shape():
    # a e^-a (I0 + I1)/2 rises from 0 like a and grows as sqrt(a/2pi)
    vals = [heuristic_h("SC1", a / 3.0, 1.0) for a in
            (0.1, 1.0, 3.0, 9.0)]
    assert all(v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2] < vals[3]
    assert abs(vals[3] - math.sqrt(9.0 / (2 * math.pi))) < 0.05


def test_c3_closed_form():
    for a0 in (2.0, 3.0, 10.0):
        traj = integrate_branch(a0, "GUC")
        worst = max(abs(st.c3 - a0 * (1 - st.t) ** 3) for st in traj.states)
        assert worst < 1e-8


def test_rho1_starts_at_one():
    for a0 in (2.0, 5.0):
        traj = integrate_branch(a0, "GUC")
        assert abs(rho1(traj.states[0]) - 1.0) < 1e-12


def test_guc_alpha0_2_shape():
    traj = integrate_branch(2.0, "GUC")
    pts = traj.phase_points()
    assert min(pt.alpha for pt in pts) < 2.0  # heads down-left first
    assert pts[-1].p > 0.99                   # returns to the 3-SAT axis


def test_phase_coords():
    assert to_phase_coords(DensityState(0.0, 0.0, 4.0)) == (1.0, 4.0, 0.0)
    pt = to_phase_coords(DensityState(0.5, 0.1, 0.3))
    assert abs(pt.p - 0.75) < 1e-15 and abs(pt.alpha - 0.8) < 1e-15
    with pytest.raises(ValueError):
        to_phase_coords(DensityState(0.1, 0.0, 0.0))


def test_phase_identity_pointwise():
    # alpha (1-p) = c2/(1-t) = 1 - rho1 along any trajectory
    traj = integrate_branch(2.5, "GUC")
    for st in traj.states:
        if st.c2 < 0 or st.c2 + st.c3 <= 0:
            continue
        pt = to_phase_coords(st)
        lhs = pt.alpha * (1 - pt.p)
        assert abs(lhs - st.c2 / (1 - st.t)) < 1e-12
        assert abs(lhs - (1 - rho1(st))) < 1e-12


def test_alpha_l_values():
    assert abs(find_alpha_l("GUC") - 3.003) < 0.01
    assert abs(find_alpha_l("UC") - 8.0 / 3.0) < 0.01


def test_marginal_trajectory_tangency():
    al = find_alpha_l("GUC", tol=1e-4)
    traj = integrate_branch(al, "GUC")
    assert abs(traj.rho1_min) < 5e-3
    pt = to_phase_coords(traj.rho1_min_state)
    assert abs(pt.p - 0.4) < 0.01 and abs(pt.alpha - 5.0 / 3.0) < 0.01
    # max over t of alpha (1-p): tangency to the 2-clause bound
    peak = max(p.alpha * (1 - p.p) for p in traj.phase_points())
    assert abs(peak - 1.0) < 0.005


def test_tricritical_point():
    for h, tol in (("UC", 0.005), ("GUC", 0.005), ("SC1", 0.01)):
        p_t, t_t = tricritical_check(find_alpha_l(h), h)
        assert abs(p_t - 0.4) < tol
        assert 0.0 < t_t < 1.0


def test_sat_phase_containment():
    line = CriticalLine()
    for a0 in (2.0, 2.5, 2.9):
        traj = integrate_branch(a0, "GUC")
        for pt in traj.phase_points():
            assert pt.alpha <= line.alpha_c(pt.p) + 1e-9


def test_alpha_l_step_halving():
    coarse = find_alpha_l("GUC", tol=1e-4, max_step=0.02)
    fine = find_alpha_l("GUC", tol=1e-4, max_step=0.01)
    assert abs(coarse - fine) < 5e-5


def test_guc_low_alpha_rejected():
    with pytest.raises(UnsupportedDomainError):
        integrate_branch(0.5, "GUC")


def test_critical_line_validation():
    line = CriticalLine()
    assert abs(line.alpha_c(0.0) - 1.0) < 1e-12
    assert abs(line.alpha_c(0.4) - 5.0 / 3.0) < 1e-12
    assert abs(line.alpha_c(1.0) - 4.3) < 1e-12
    assert line.alpha_c(0.2) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        CriticalLine([(0.5, 3.0), (1.0, 2.0)])  # decreasing
    with pytest.raises(ValueError):
        CriticalLine([(0.4, 2.0), (1.0, 4.3)])  # mismatched anchor
    with pytest.raises(ValueError):
        CriticalLine([(0.6, 2.5)])  # does not reach p = 1
    for point in ((0.7, math.nan), (0.7, math.inf), (math.nan, 3.0)):
        with pytest.raises(ValueError, match=re.escape(f"{point} is not finite")):
            CriticalLine([point, (1.0, 4.3)])
    with pytest.raises(ValueError):
        line.alpha_c(1.5)


def test_find_g_lies_on_line():
    line = CriticalLine()
    g = find_g(3.5, "GUC", line)
    assert g is not None
    assert abs(g.alpha_g - line.alpha_c(g.p_g)) < 1e-6
    assert 0 < g.t_g < 1


def test_find_g_with_anchored_table():
    # a table carrying the known point (0.78, 3.02): the trajectory crossing
    # lands near it, confirming the trajectory passes where measured
    line = CriticalLine([(0.78, 3.02), (1.0, 4.3)])
    g = find_g(3.5, "GUC", line)
    assert abs(g.p_g - 0.78) < 0.03
    assert abs(g.alpha_g - 3.02) < 0.03


def test_find_g_just_above_alpha_l():
    # continuity: the crossing degenerates toward the tangency point
    g = find_g(3.01, "GUC", CriticalLine())
    assert g is not None
    assert abs(g.p_g - 0.4) < 0.08
    assert abs(g.alpha_g - 1 / (1 - g.p_g)) < 5e-3


def test_find_g_no_crossing():
    assert find_g(2.9, "GUC", CriticalLine()) is None


def test_find_g_requires_upper_sat():
    with pytest.raises(ValueError):
        find_g(4.5, "GUC", CriticalLine())

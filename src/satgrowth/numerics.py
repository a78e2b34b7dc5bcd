"""Shared numerical helpers: adaptive Runge-Kutta, root bracketing, Bessel functions.

Everything here is plain float arithmetic on small state vectors; no numpy
needed in the hot paths.  integrate_ode is also the reference of the
compiled characteristic integrator (growth_kernel.c), which repeats its
Dormand-Prince loop operation for operation for the growth PDE.
"""

import math


class IntegrationError(RuntimeError):
    """Adaptive stepping failed (step size underflow); carries the last state."""

    def __init__(self, message, t=None, y=None):
        super().__init__(message)
        self.t = t
        self.y = y


# Dormand-Prince 5(4) coefficients.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def integrate_ode(f, t0, t1, y0, rtol=1e-10, atol=1e-12, max_step=None,
                  stop=None):
    """Integrate y' = f(t, y) from t0 to t1 with a Dormand-Prince 5(4) pair.

    f returns a list of derivatives.  `stop(t, y)`, if given, is checked after
    every accepted step; a truthy value ends the integration early.

    Returns (ts, ys, fs): accepted step points, states, and derivatives there
    (suitable for cubic Hermite interpolation between nodes).
    """
    n = len(y0)
    t = t0
    y = list(y0)
    span = t1 - t0
    if max_step is None:
        max_step = abs(span) / 16 or 1e-3
    h = min(max_step, abs(span) / 100 or 1e-6)
    ts = [t]
    ys = [list(y)]
    k1 = f(t, y)
    fs = [list(k1)]
    hmin = abs(span) * 1e-15 + 1e-300
    while (t1 - t) > 0:
        h = min(h, t1 - t, max_step)
        if h < hmin:
            raise IntegrationError("step size underflow", t=t, y=list(y))
        ks = [k1]
        failed = False
        for i in range(1, 7):
            yi = y[:]
            ai = _A[i]
            for j in range(i):
                aij = ai[j]
                if aij != 0.0:
                    kj = ks[j]
                    for m in range(n):
                        yi[m] += h * aij * kj[m]
            try:
                ks.append(f(t + _C[i] * h, yi))
            except (OverflowError, ValueError):
                failed = True
                break
        if not failed:
            y5 = y[:]
            err = 0.0
            for m in range(n):
                s5 = 0.0
                s4 = 0.0
                for i in range(7):
                    kim = ks[i][m]
                    s5 += _B5[i] * kim
                    s4 += _B4[i] * kim
                y5[m] = y[m] + h * s5
                sc = atol + rtol * max(abs(y[m]), abs(y5[m]))
                e = h * (s5 - s4) / sc
                err += e * e
            err = math.sqrt(err / n)
        if failed or not math.isfinite(err):
            h *= 0.25
            continue
        if err <= 1.0:
            t += h
            y = y5
            k1 = ks[6] if _C[6] == 1.0 else f(t, y)
            ts.append(t)
            ys.append(list(y))
            fs.append(list(k1))
            if stop is not None and stop(t, y):
                break
        h *= min(5.0, max(0.2, 0.9 * (1.0 / err) ** 0.2 if err > 0 else 5.0))
    return ts, ys, fs


def hermite_eval(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite interpolation of one step's state at time t."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return [h00 * a + h10 * h * fa + h01 * b + h11 * h * fb
            for a, fa, b, fb in zip(y0, f0, y1, f1)]


def bisect_root(fn, lo, hi, tol=1e-10):
    """Bisection for fn(lo) and fn(hi) of opposite sign; returns the midpoint
    once the bracket is narrower than tol, or after 200 halvings."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"root not bracketed on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bessel_i0e(a):
    """exp(-a) * I0(a) for a >= 0."""
    if a < 0:
        raise ValueError("a must be non-negative")
    if a <= 30.0:
        x = (a / 2.0) ** 2
        term = 1.0
        total = 1.0
        for k in range(1, 200):
            term *= x / (k * k)
            total += term
            if term < total * 1e-17:
                break
        return total * math.exp(-a)
    # asymptotic series, relative error well below 1e-12 for a > 30
    z = 1.0 / (8.0 * a)
    total = 1.0
    term = 1.0
    for k in range(1, 12):
        term *= (2 * k - 1) ** 2 * z / k
        total += term
    return total / math.sqrt(2.0 * math.pi * a)


def bessel_i1e(a):
    """exp(-a) * I1(a) for a >= 0."""
    if a < 0:
        raise ValueError("a must be non-negative")
    if a <= 30.0:
        x = (a / 2.0) ** 2
        term = a / 2.0
        total = term
        for k in range(1, 200):
            term *= x / (k * (k + 1))
            total += term
            if term < total * 1e-17:
                break
        return total * math.exp(-a)
    z = 1.0 / (8.0 * a)
    total = 1.0
    term = 1.0
    for k in range(1, 12):
        term *= ((2 * k - 1) ** 2 - 4.0) * z / k
        total += term
    return total / math.sqrt(2.0 * math.pi * a)

/* Characteristics of the growth PDE (growth.py), integrated to one target
 * time.
 *
 * sg_characteristic runs the Dormand-Prince 5(4) loop of
 * numerics.integrate_ode on growth._Shooter._rhs, with _ham_grad and
 * _y1_terms inlined for GUC and UC, and returns the final state, which is
 * all _Shooter.integrate reads.  Every float equals the Python one:
 *
 *   - each expression keeps Python's operation order: h * aij * kj[m] is
 *     (h * aij) * kj[m], and a chain of + and - runs left to right;
 *   - exp, log1p, sqrt and pow are the libm functions that CPython calls,
 *     and -ffp-contract=off keeps every product and sum rounded on its own;
 *   - py_min and py_max keep the first argument unless the other compares
 *     strictly less (greater), as the builtins do, NaN included.
 *
 * Where Python raises, the kernel returns a status code, and native.py
 * raises the same exception.  Inside a step's stages, the OverflowError and
 * ValueError that integrate_ode catches (a math function's range or domain
 * error, t >= 1) reject the step, and h is quartered; in the first right-hand
 * side, which integrate_ode calls outside its try, they are returned.  A
 * division by zero is always returned, and so is a step-size underflow,
 * with the time and state reached in out[5] and out[0 .. 4].
 */

#include <math.h>
#include <stdint.h>

#define GUC 1 /* native.HEURISTIC_CODES; the kernel runs UC (0) and GUC */
#define DIM 5 /* the state: y2, y3, c2, c3, phi */

/* status codes, mapped to exceptions by native.characteristic */
enum { OK, RANGE_ERROR, DOMAIN_ERROR, ZERO_DIVISION, T_NOT_BELOW_1,
       STEP_UNDERFLOW };

#define TRY(call) do { int st_ = (call); if (st_) return st_; } while (0)

static const double LN2 = 0.693147180559945309417232121458176568;

/* Dormand-Prince 5(4) coefficients, as numerics._A, _C, _B5 and _B4 */
static const double A[7][6] = {
    {0},
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
};
static const double C[7] = {0.0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1.0, 1.0};
static const double B5[7] = {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192,
                             -2187.0 / 6784, 11.0 / 84, 0.0};
static const double B4[7] = {5179.0 / 57600, 0.0, 7571.0 / 16695, 393.0 / 640,
                             -92097.0 / 339200, 187.0 / 2100, 1.0 / 40};

static inline double py_min(double a, double b) { return b < a ? b : a; }
static inline double py_max(double a, double b) { return b > a ? b : a; }

/* The error CPython's math module raises for r = f(x): a NaN from a
   non-NaN argument is a domain error, an infinity from a finite one a
   range error where f can overflow and a domain error elsewhere. */
static inline int math_check(double x, double r, int can_overflow)
{
    if (isnan(r) && !isnan(x))
        return DOMAIN_ERROR;
    if (isinf(r) && isfinite(x))
        return can_overflow ? RANGE_ERROR : DOMAIN_ERROR;
    return OK;
}

static inline int py_exp(double x, double *r)
{
    *r = exp(x);
    return math_check(x, *r, 1);
}

static inline int py_sqrt(double x, double *r)
{
    *r = sqrt(x);
    return math_check(x, *r, 0);
}

static inline int py_log1p(double x, double *r)
{
    *r = x == 0.0 ? x : log1p(x);
    return math_check(x, *r, 0);
}

static inline int py_div(double a, double b, double *r)
{
    if (b == 0.0)
        return ZERO_DIVISION;
    *r = a / b;
    return OK;
}

/* growth._ham_grad: g = (H, dH/dc2, dH/dc3, dH/dy2, dH/dy3), with
   growth._y1_terms inlined for GUC. */
static int ham_grad(int heuristic, double c2, double c3, double y2, double y3,
                    double t, double *g)
{
    double base, k2, d_base, dk2_a, dk2_b, ey2;
    if (t >= 1.0)
        return T_NOT_BELOW_1;
    if (heuristic == GUC) {
        double r, arg, log_term, e_m_y1, y1p;
        TRY(py_exp(y2, &ey2));
        TRY(py_sqrt(1.0 + 4.0 * ey2, &r));
        TRY(py_div(2.0 * ey2, 1.0 + r, &arg));
        TRY(py_log1p(arg, &log_term));
        TRY(py_div(1.0 + r, 2.0 * ey2, &e_m_y1));
        TRY(py_div(r + 1.0, 2.0 * r, &y1p));
        base = -(y2 - log_term);
        k2 = e_m_y1 - 2.0;
        d_base = -y1p;
        dk2_a = y1p;
        dk2_b = e_m_y1;
    } else {
        double e_m_y2;
        TRY(py_exp(y2, &ey2));
        TRY(py_exp(-y2, &e_m_y2));
        base = LN2;
        k2 = 1.5 * e_m_y2 - 2.0;
        d_base = -0.0;
        dk2_a = 1.5;
        dk2_b = e_m_y2;
    }
    double one_t = 1.0 - t, e_m_y3, a3, a2;
    TRY(py_exp(-y3, &e_m_y3));
    double b3 = e_m_y3 * (1.0 + ey2) / 2.0 - 1.0;
    TRY(py_div(3.0 * c3, one_t, &a3));
    TRY(py_div(c2, one_t, &a2));
    g[0] = base + a3 * b3 + a2 * k2;
    TRY(py_div(k2, one_t, &g[1]));
    TRY(py_div(3.0 * b3, one_t, &g[2]));
    g[3] = d_base + a3 * (e_m_y3 * ey2 / 2.0) - a2 * dk2_a * dk2_b;
    g[4] = a3 * (-e_m_y3 * (1.0 + ey2) / 2.0);
    return OK;
}

/* growth._Shooter._rhs */
static int rhs(int heuristic, double t, const double *u, double *k)
{
    double g[5];
    TRY(ham_grad(heuristic, u[2], u[3], u[0], u[1], t, g));
    k[0] = -g[1];
    k[1] = -g[2];
    k[2] = g[3];
    k[3] = g[4];
    k[4] = g[0] - u[2] * g[1] - u[3] * g[2];
    return OK;
}

/* integrate_ode(_rhs, 0.0, t1, u0, rtol, atol, max_step)[1][-1] into
   out[0 .. 4]; returns a status code.  On STEP_UNDERFLOW, out[5] is the
   time reached. */
int sg_characteristic(int32_t heuristic, const double *u0, double t1,
                      double rtol, double atol, double max_step, double *out)
{
    double t = 0.0, y[DIM], yi[DIM], y5[DIM], k[7][DIM];
    for (int m = 0; m < DIM; m++)
        y[m] = u0[m];
    double span = t1 - t;
    double h = fabs(span) / 100;
    h = py_min(max_step, h == 0.0 ? 1e-6 : h);
    TRY(rhs(heuristic, t, y, k[0]));
    double hmin = fabs(span) * 1e-15 + 1e-300;
    while (t1 - t > 0) {
        h = py_min(py_min(h, t1 - t), max_step);
        if (h < hmin) {
            for (int m = 0; m < DIM; m++)
                out[m] = y[m];
            out[DIM] = t;
            return STEP_UNDERFLOW;
        }
        int failed = 0;
        for (int i = 1; i < 7 && !failed; i++) {
            for (int m = 0; m < DIM; m++)
                yi[m] = y[m];
            for (int j = 0; j < i; j++) {
                double aij = A[i][j];
                if (aij != 0.0)
                    for (int m = 0; m < DIM; m++)
                        yi[m] += h * aij * k[j][m];
            }
            int st = rhs(heuristic, t + C[i] * h, yi, k[i]);
            if (st == ZERO_DIVISION)
                return st;
            failed = st != OK;
        }
        double err = 0.0;
        if (!failed) {
            for (int m = 0; m < DIM; m++) {
                double s5 = 0.0, s4 = 0.0;
                for (int i = 0; i < 7; i++) {
                    s5 += B5[i] * k[i][m];
                    s4 += B4[i] * k[i][m];
                }
                y5[m] = y[m] + h * s5;
                double sc = atol + rtol * py_max(fabs(y[m]), fabs(y5[m])), e;
                TRY(py_div(h * (s5 - s4), sc, &e));
                err += e * e;
            }
            err = sqrt(err / DIM);
        }
        if (failed || !isfinite(err)) {
            h *= 0.25;
            continue;
        }
        if (err <= 1.0) {
            t += h;
            for (int m = 0; m < DIM; m++) {
                y[m] = y5[m];
                k[0][m] = k[6][m];
            }
        }
        h *= py_min(5.0, py_max(0.2, err > 0 ? 0.9 * pow(1.0 / err, 0.2) : 5.0));
    }
    for (int m = 0; m < DIM; m++)
        out[m] = y[m];
    return OK;
}

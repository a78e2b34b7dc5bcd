/* Shift-and-add passes of the annealed clause-vector chain (annealed.py).

   Both passes move mass along one axis of a C-contiguous double array.  The
   weight table w has nw rows of len entries: entry w[j*len + i] is the
   binomial weight of taking j items from source index i along that axis
   (entries i < j are unused).  annealed.py computes the table with numpy, so
   the weights have one definition; this file only does the multiply-adds.

   Every destination cell is the sum, in ascending j and starting from 0.0,
   of its terms src * w, as in the numpy loops of annealed.py (which add
   into a zeroed output).  With -ffp-contract=off each term is a rounded
   product followed by a rounded sum, so the results are bit-identical to
   numpy's.  The loops differ from numpy's only in the order in which they
   visit cells: each destination row or block of cells keeps its partial
   sums in registers across j, and the innermost loop runs over contiguous
   memory.

   Each call splits its destination rows into nthreads contiguous ranges,
   one per thread: the (o, r) rows of a thinning pass (single cells when
   inner == 1), so that a window with one outer row still divides, and the
   (o, y) rows of a conversion pass.  sg_fan_out (dpll_kernel.c) runs the
   ranges: the first on the calling thread, the others on threads joined
   before the call returns, so no thread outlives it.  A thread only reads
   the source and the table and writes the cells of its own rows, each cell
   by exactly one thread with the same terms in the same order, so the bits
   do not depend on nthreads. */

#include <stddef.h>
#include <stdint.h>

#define BLOCK 8

/* Defined in dpll_kernel.c. */
extern const int32_t sg_max_threads;
void sg_fan_out(void *(*run)(void *), void *tasks, size_t size, int32_t n);

/* Cells r_lo .. r_hi - 1 of one destination row of len cells spaced `inner`
   apart (inner == 1) or of len rows of inner cells each (inner > 1):

     d[r*inner + t] = sum over j = j_lo .. min(j_hi, len - 1 - r) of
                      s[(j - j_lo)*j_step + (r + j)*inner + t] * w[j*len + r + j]

   s points at the source row of the terms j_lo; j_step is the offset to the
   source of the next j (0 when items leave the axis, minus one slab when
   they also move one step up the receiving axis). */
static inline __attribute__((always_inline)) void
dest_row(double *restrict d, const double *restrict s, int64_t j_step,
         int64_t len, int64_t inner, const double *restrict w, int64_t j_lo,
         int64_t j_hi, int64_t r_lo, int64_t r_hi)
{
    if (inner == 1) {
        int64_t r = r_lo;
        for (; r + BLOCK <= r_hi; r += BLOCK) {
            double acc[BLOCK] = {0.0};
            int64_t j = j_lo;
            /* every lane of the block has a source for these j */
            int64_t j_all = j_hi < len - BLOCK - r ? j_hi : len - BLOCK - r;
            for (; j <= j_all; j++) {
                const double *a = s + (j - j_lo) * j_step + r + j;
                const double *b = w + j * len + r + j;
                for (int q = 0; q < BLOCK; q++)
                    acc[q] += a[q] * b[q];
            }
            for (; j <= j_hi && r + j < len; j++) {
                const double *a = s + (j - j_lo) * j_step + r + j;
                const double *b = w + j * len + r + j;
                for (int64_t q = 0; q < BLOCK && r + q + j < len; q++)
                    acc[q] += a[q] * b[q];
            }
            for (int q = 0; q < BLOCK; q++)
                d[r + q] = acc[q];
        }
        for (; r < r_hi; r++) {
            double acc = 0.0;
            for (int64_t j = j_lo; j <= j_hi && r + j < len; j++)
                acc += s[(j - j_lo) * j_step + r + j] * w[j * len + r + j];
            d[r] = acc;
        }
        return;
    }
    for (int64_t r = r_lo; r < r_hi; r++) {
        double *dr = d + r * inner;
        int64_t t = 0;
        for (; t + BLOCK <= inner; t += BLOCK) {
            double acc[BLOCK] = {0.0};
            for (int64_t j = j_lo; j <= j_hi && r + j < len; j++) {
                const double x = w[j * len + r + j];
                const double *a = s + (j - j_lo) * j_step + (r + j) * inner + t;
                for (int q = 0; q < BLOCK; q++)
                    acc[q] += a[q] * x;
            }
            for (int q = 0; q < BLOCK; q++)
                dr[t + q] = acc[q];
        }
        for (; t < inner; t++) {
            double acc = 0.0;
            for (int64_t j = j_lo; j <= j_hi && r + j < len; j++)
                acc += s[(j - j_lo) * j_step + (r + j) * inner + t] * w[j * len + r + j];
            dr[t] = acc;
        }
    }
}

/* The arguments of one pass; recv and recv_out are unused by thinning. */
struct pass {
    const double *src;
    double *dst;
    int64_t outer, recv, recv_out, len, inner;
    const double *w;
    int64_t nw;
};

/* Thinning: src and dst are (outer, len, inner); dst[o, i - j, x] =
   sum over j of src[o, i, x] * w[j, i].  Computes the flattened (o, r)
   destination rows lo .. hi - 1. */
static inline __attribute__((always_inline)) void
thin(const struct pass *p, int64_t lo, int64_t hi)
{
    int64_t len = p->len, slab = len * p->inner;
    for (int64_t o = lo / len; o * len < hi; o++) {
        int64_t r_lo = lo > o * len ? lo - o * len : 0;
        int64_t r_hi = hi < (o + 1) * len ? hi - o * len : len;
        dest_row(p->dst + o * slab, p->src + o * slab, 0, len, p->inner, p->w,
                 0, p->nw - 1, r_lo, r_hi);
    }
}

/* Conversion: src is (outer, recv, len, inner), dst (outer, recv_out, len,
   inner) with recv_out >= recv + nw - 1; dst[o, y + k, i - k, x] = sum over
   k of src[o, y, i, x] * w[k, i].  Computes the flattened (o, y)
   destination rows lo .. hi - 1. */
static inline __attribute__((always_inline)) void
convert(const struct pass *p, int64_t lo, int64_t hi)
{
    int64_t slab = p->len * p->inner;
    for (int64_t row = lo; row < hi; row++) {
        int64_t o = row / p->recv_out, y = row % p->recv_out;
        int64_t k_lo = y - p->recv + 1 > 0 ? y - p->recv + 1 : 0;
        int64_t k_hi = y < p->nw - 1 ? y : p->nw - 1;
        if (k_lo > k_hi)
            continue;
        dest_row(p->dst + row * slab, p->src + (o * p->recv + y - k_lo) * slab,
                 -slab, p->len, p->inner, p->w, k_lo, k_hi, 0, p->len);
    }
}

typedef void rows_fn(const struct pass *, int64_t, int64_t);

struct range {
    rows_fn *rows;
    const struct pass *p;
    int64_t lo, hi;
};

static void *run_range(void *arg)
{
    const struct range *r = arg;
    r->rows(r->p, r->lo, r->hi);
    return NULL;
}

/* Runs rows(p, lo, hi) over n_rows rows cut into nthreads contiguous
   ranges (at most one per row), and returns when all of them are done. */
static void split(rows_fn *rows, const struct pass *p, int64_t n_rows,
                  int64_t nthreads)
{
    if (n_rows <= 0)
        return;
    if (nthreads > n_rows)
        nthreads = n_rows;
    if (nthreads > sg_max_threads)
        nthreads = sg_max_threads;
    if (nthreads < 1)
        nthreads = 1;
    struct range ranges[nthreads];
    for (int64_t t = 0; t < nthreads; t++)
        ranges[t] = (struct range){rows, p, n_rows * t / nthreads,
                                   n_rows * (t + 1) / nthreads};
    sg_fan_out(run_range, ranges, sizeof *ranges, (int32_t)nthreads);
}

/* The exported entry points: the same loops compiled for the baseline
   instruction set and, on x86-64, for AVX2.  The AVX2 pair only widens the
   vectors that carry a block of destination cells; the lanes run across
   cells, never across j, so every cell still adds its terms in ascending j,
   one rounded multiply and one rounded add each (target "avx2" enables no
   fused multiply-add, and -ffp-contract=off forbids contracting anyway).
   Both pairs give the same bits.  native.py binds the AVX2 pair when
   sg_has_avx2() says the CPU runs it. */
#define THIN_ARGS const double *src, double *dst, int64_t outer, int64_t len, \
    int64_t inner, const double *w, int64_t nw, int64_t nthreads
#define CONVERT_ARGS const double *src, double *dst, int64_t outer, \
    int64_t recv, int64_t recv_out, int64_t len, int64_t inner, \
    const double *w, int64_t nw, int64_t nthreads
#define THIN_PASS {src, dst, outer, 0, 0, len, inner, w, nw}
#define CONVERT_PASS {src, dst, outer, recv, recv_out, len, inner, w, nw}

static void thin_base(const struct pass *p, int64_t lo, int64_t hi)
{
    thin(p, lo, hi);
}

static void convert_base(const struct pass *p, int64_t lo, int64_t hi)
{
    convert(p, lo, hi);
}

void sg_thin(THIN_ARGS)
{
    struct pass p = THIN_PASS;
    split(thin_base, &p, outer * len, nthreads);
}

void sg_convert(CONVERT_ARGS)
{
    struct pass p = CONVERT_PASS;
    split(convert_base, &p, outer * recv_out, nthreads);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) static void
thin_avx2(const struct pass *p, int64_t lo, int64_t hi)
{
    thin(p, lo, hi);
}

__attribute__((target("avx2"))) static void
convert_avx2(const struct pass *p, int64_t lo, int64_t hi)
{
    convert(p, lo, hi);
}

void sg_thin_avx2(THIN_ARGS)
{
    struct pass p = THIN_PASS;
    split(thin_avx2, &p, outer * len, nthreads);
}

void sg_convert_avx2(CONVERT_ARGS)
{
    struct pass p = CONVERT_PASS;
    split(convert_avx2, &p, outer * recv_out, nthreads);
}

int sg_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}
#else
int sg_has_avx2(void) { return 0; }
#endif

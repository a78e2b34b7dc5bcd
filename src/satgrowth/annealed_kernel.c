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

   Each call computes one contiguous range lo .. hi - 1 of its destination
   rows: the (o, r) rows of a thinning pass (single cells when inner == 1),
   so that a window with one outer row still divides, and the (o, y) rows
   of a conversion pass.  native.fan_out cuts a pass into ranges and runs
   one call per range, the first on the calling thread and the others on
   Python threads; the kernel starts no thread.  A call only reads the
   source and the table and writes the cells of its own rows, each cell by
   exactly one call with the same terms in the same order, so the bits do
   not depend on how the rows are cut.

   A call skips the cells whose terms are all zero.  It finds, once per
   source run (a row of the axis when inner == 1, else a row of inner
   cells), the first and the last nonzero cell, and runs the multiply-adds
   of a destination row only over the union of its source runs' spans,
   shifted as the terms shift them; it writes 0.0 to the cells outside.  A
   skipped term is src * w = +0.0 with src == 0 and w finite, and every
   partial sum is non-negative, so each cell keeps its bits.  Every
   destination cell is written, so the caller's array needs no zeroing. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 8

/* The nonzero cells of one source run lie in lo .. hi - 1; none when
   lo == hi. */
typedef struct {
    int64_t lo, hi;
} span;

/* The spans of a call's source runs, each found on first use: run r is the
   `run` cells from base + r * run, and memo[r].lo < 0 until its span is
   known.  Without a memo (malloc failed) every use scans again. */
typedef struct {
    const double *base;
    int64_t run;
    span *memo;
} spans;

static void spans_init(spans *sp, const double *base, int64_t run, int64_t runs)
{
    sp->base = base;
    sp->run = run;
    sp->memo = malloc(runs * sizeof(span));
    for (int64_t r = 0; sp->memo && r < runs; r++)
        sp->memo[r].lo = -1;
}

static inline span run_span(spans *sp, const double *row)
{
    span *m = sp->memo ? sp->memo + (row - sp->base) / sp->run : NULL;
    if (m && m->lo >= 0)
        return *m;
    span x = {0, sp->run};
    while (x.lo < x.hi && row[x.lo] == 0.0)
        x.lo++;
    while (x.hi > x.lo && row[x.hi - 1] == 0.0)
        x.hi--;
    if (m)
        *m = x;
    return x;
}

/* Widen u to cover the nonempty span x shifted by -shift. */
static inline void widen(span *u, span x, int64_t shift)
{
    if (x.lo == x.hi)
        return;
    if (x.lo - shift < u->lo)
        u->lo = x.lo - shift;
    if (x.hi - shift > u->hi)
        u->hi = x.hi - shift;
}

/* u clipped to lo .. hi - 1, with d[lo .. u.lo - 1] and d[u.hi .. hi - 1]
   set to 0.0; an empty u becomes lo .. lo - 1 and zeroes them all. */
static inline span zero_outside(double *d, span u, int64_t lo, int64_t hi)
{
    if (u.lo < lo)
        u.lo = lo;
    if (u.hi > hi)
        u.hi = hi;
    if (u.lo >= u.hi)
        u.lo = u.hi = lo;
    for (int64_t i = lo; i < u.lo; i++)
        d[i] = 0.0;
    for (int64_t i = u.hi; i < hi; i++)
        d[i] = 0.0;
    return u;
}

/* Cells r_lo .. r_hi - 1 of one destination row of len cells spaced `inner`
   apart (inner == 1) or of len rows of inner cells each (inner > 1):

     d[r*inner + t] = sum over j = j_lo .. min(j_hi, len - 1 - r) of
                      s[(j - j_lo)*j_step + (r + j)*inner + t] * w[j*len + r + j]

   s points at the source row of the terms j_lo; j_step is the offset to the
   source of the next j (0 when items leave the axis, minus one slab when
   they also move one step up the receiving axis).  sp holds the spans of
   the source runs: when inner == 1 a run is a source row and cell r reads
   cell r + j of the row of j; otherwise a run is the inner cells of index
   r + j of the row of j, which cells r*inner .. r*inner + inner - 1 read. */
static inline __attribute__((always_inline)) void
dest_row(double *restrict d, const double *restrict s, int64_t j_step,
         int64_t len, int64_t inner, const double *restrict w, int64_t j_lo,
         int64_t j_hi, int64_t r_lo, int64_t r_hi, spans *sp)
{
    if (inner == 1) {
        span u = {r_hi, r_lo};
        for (int64_t j = j_lo; j <= j_hi; j++)
            widen(&u, run_span(sp, s + (j - j_lo) * j_step), j);
        u = zero_outside(d, u, r_lo, r_hi);
        r_hi = u.hi;
        int64_t r = u.lo;
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
        int64_t j_top = j_hi < len - 1 - r ? j_hi : len - 1 - r;
        span u = {inner, 0};
        for (int64_t j = j_lo; j <= j_top; j++)
            widen(&u, run_span(sp, s + (j - j_lo) * j_step + (r + j) * inner), 0);
        u = zero_outside(dr, u, 0, inner);
        int64_t t = u.lo;
        for (; t + BLOCK <= u.hi; t += BLOCK) {
            double acc[BLOCK] = {0.0};
            for (int64_t j = j_lo; j <= j_top; j++) {
                const double x = w[j * len + r + j];
                const double *a = s + (j - j_lo) * j_step + (r + j) * inner + t;
                for (int q = 0; q < BLOCK; q++)
                    acc[q] += a[q] * x;
            }
            for (int q = 0; q < BLOCK; q++)
                dr[t + q] = acc[q];
        }
        for (; t < u.hi; t++) {
            double acc = 0.0;
            for (int64_t j = j_lo; j <= j_top; j++)
                acc += s[(j - j_lo) * j_step + (r + j) * inner + t] * w[j * len + r + j];
            dr[t] = acc;
        }
    }
}

/* The exported entry points: the same loops compiled for the baseline
   instruction set and, on x86-64, for AVX2.  The AVX2 pair only widens the
   vectors that carry a block of destination cells; the lanes run across
   cells, never across j, so every cell still adds its terms in ascending j,
   one rounded multiply and one rounded add each (target "avx2" enables no
   fused multiply-add, and -ffp-contract=off forbids contracting anyway).
   Both pairs give the same bits.  native.py binds the AVX2 pair when
   sg_has_avx2() says the CPU runs it. */
#define THIN_ARGS const double *src, double *dst, int64_t len, int64_t inner, \
    const double *w, int64_t nw, int64_t lo, int64_t hi
#define CONVERT_ARGS const double *src, double *dst, int64_t recv, \
    int64_t recv_out, int64_t len, int64_t inner, const double *w, \
    int64_t nw, int64_t lo, int64_t hi

/* Thinning: src and dst are (outer, len, inner); dst[o, i - j, x] =
   sum over j of src[o, i, x] * w[j, i].  Computes the flattened (o, r)
   destination rows lo .. hi - 1, lo < hi. */
static inline __attribute__((always_inline)) void thin(THIN_ARGS)
{
    int64_t slab = len * inner;
    if (slab == 0)
        return;  /* rows of no cells */
    int64_t o_lo = lo / len, o_hi = (hi - 1) / len + 1;
    int64_t run = inner == 1 ? len : inner;
    spans sp;
    spans_init(&sp, src + o_lo * slab, run, (o_hi - o_lo) * slab / run);
    for (int64_t o = o_lo; o < o_hi; o++) {
        int64_t r_lo = lo > o * len ? lo - o * len : 0;
        int64_t r_hi = hi < (o + 1) * len ? hi - o * len : len;
        dest_row(dst + o * slab, src + o * slab, 0, len, inner, w, 0, nw - 1,
                 r_lo, r_hi, &sp);
    }
    free(sp.memo);
}

/* Conversion: src is (outer, recv, len, inner), dst (outer, recv_out, len,
   inner) with recv_out >= recv + nw - 1; dst[o, y + k, i - k, x] = sum over
   k of src[o, y, i, x] * w[k, i].  Computes the flattened (o, y)
   destination rows lo .. hi - 1. */
static inline __attribute__((always_inline)) void convert(CONVERT_ARGS)
{
    int64_t slab = len * inner;
    if (slab == 0)
        return;  /* rows of no cells */
    int64_t o_lo = lo / recv_out;
    int64_t run = inner == 1 ? len : inner;
    spans sp;
    spans_init(&sp, src + o_lo * recv * slab, run,
               ((hi - 1) / recv_out + 1 - o_lo) * recv * slab / run);
    for (int64_t row = lo; row < hi; row++) {
        int64_t o = row / recv_out, y = row % recv_out;
        int64_t k_lo = y - recv + 1 > 0 ? y - recv + 1 : 0;
        int64_t k_hi = y < nw - 1 ? y : nw - 1;
        if (k_lo > k_hi)  /* no source row moves here */
            memset(dst + row * slab, 0, slab * sizeof(double));
        else
            dest_row(dst + row * slab, src + (o * recv + y - k_lo) * slab,
                     -slab, len, inner, w, k_lo, k_hi, 0, len, &sp);
    }
    free(sp.memo);
}

void sg_thin(THIN_ARGS)
{
    thin(src, dst, len, inner, w, nw, lo, hi);
}

void sg_convert(CONVERT_ARGS)
{
    convert(src, dst, recv, recv_out, len, inner, w, nw, lo, hi);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void sg_thin_avx2(THIN_ARGS)
{
    thin(src, dst, len, inner, w, nw, lo, hi);
}

__attribute__((target("avx2"))) void sg_convert_avx2(CONVERT_ARGS)
{
    convert(src, dst, recv, recv_out, len, inner, w, nw, lo, hi);
}

int sg_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}
#else
int sg_has_avx2(void) { return 0; }
#endif

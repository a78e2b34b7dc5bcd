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
   memory. */

#include <stdint.h>

#define BLOCK 8

/* One destination row of len cells spaced `inner` apart (inner == 1) or of
   len rows of inner cells each (inner > 1):

     d[r*inner + t] = sum over j = j_lo .. min(j_hi, len - 1 - r) of
                      s[(j - j_lo)*j_step + (r + j)*inner + t] * w[j*len + r + j]

   s points at the source row of the terms j_lo; j_step is the offset to the
   source of the next j (0 when items leave the axis, minus one slab when
   they also move one step up the receiving axis). */
static inline __attribute__((always_inline)) void
dest_row(double *restrict d, const double *restrict s, int64_t j_step,
         int64_t len, int64_t inner, const double *restrict w, int64_t j_lo,
         int64_t j_hi)
{
    if (inner == 1) {
        int64_t r = 0;
        for (; r + BLOCK <= len; r += BLOCK) {
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
        for (; r < len; r++) {
            double acc = 0.0;
            for (int64_t j = j_lo; j <= j_hi && r + j < len; j++)
                acc += s[(j - j_lo) * j_step + r + j] * w[j * len + r + j];
            d[r] = acc;
        }
        return;
    }
    for (int64_t r = 0; r < len; r++) {
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

/* Thinning: src and dst are (outer, len, inner); dst[o, i - j, x] =
   sum over j of src[o, i, x] * w[j, i]. */
static inline __attribute__((always_inline)) void
thin(const double *src, double *dst, int64_t outer, int64_t len,
     int64_t inner, const double *w, int64_t nw)
{
    int64_t slab = len * inner;
    for (int64_t o = 0; o < outer; o++)
        dest_row(dst + o * slab, src + o * slab, 0, len, inner, w, 0, nw - 1);
}

/* Conversion: src is (outer, recv, len, inner), dst (outer, recv_out, len,
   inner) with recv_out >= recv + nw - 1; dst[o, y + k, i - k, x] = sum over
   k of src[o, y, i, x] * w[k, i]. */
static inline __attribute__((always_inline)) void
convert(const double *src, double *dst, int64_t outer, int64_t recv,
        int64_t recv_out, int64_t len, int64_t inner, const double *w,
        int64_t nw)
{
    int64_t slab = len * inner;
    for (int64_t o = 0; o < outer; o++)
        for (int64_t y = 0; y < recv_out; y++) {
            int64_t k_lo = y - recv + 1 > 0 ? y - recv + 1 : 0;
            int64_t k_hi = y < nw - 1 ? y : nw - 1;
            if (k_lo > k_hi)
                continue;
            dest_row(dst + (o * recv_out + y) * slab,
                     src + (o * recv + y - k_lo) * slab, -slab, len, inner, w,
                     k_lo, k_hi);
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
#define THIN_ARGS const double *src, double *dst, int64_t outer, int64_t len, \
    int64_t inner, const double *w, int64_t nw
#define CONVERT_ARGS const double *src, double *dst, int64_t outer, \
    int64_t recv, int64_t recv_out, int64_t len, int64_t inner, \
    const double *w, int64_t nw

void sg_thin(THIN_ARGS) { thin(src, dst, outer, len, inner, w, nw); }

void sg_convert(CONVERT_ARGS)
{
    convert(src, dst, outer, recv, recv_out, len, inner, w, nw);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void sg_thin_avx2(THIN_ARGS)
{
    thin(src, dst, outer, len, inner, w, nw);
}

__attribute__((target("avx2"))) void sg_convert_avx2(CONVERT_ARGS)
{
    convert(src, dst, outer, recv, recv_out, len, inner, w, nw);
}

int sg_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}
#else
int sg_has_avx2(void) { return 0; }
#endif

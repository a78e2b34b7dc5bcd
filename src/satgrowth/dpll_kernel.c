/* Compiled search loop of satgrowth.dpll.DpllSolver.solve.
 *
 * Every step mirrors the Python reference in dpll.py: the same live-clause
 * pools with the same swap-remove order, the same free-variable list, the
 * same frame stack and g-node rule, and the same random draws.  The stream is
 * CPython's random.Random: MT19937 seeded by init_by_array over the
 * little-endian 32-bit words of the seed, with random() built as
 * genrand_res53, so every int(random() * len) index agrees and the search
 * tree, its counters, the cloud and the sat assignment come out bit for bit
 * equal.  Phase points leave as integer (assigned, C2, C3) triples; Python
 * forms the floats.
 *
 * Literals are packed as 2 * variable + negated.  The kernel allocates all
 * of its state per call and keeps nothing between calls, so separate calls
 * may run in parallel.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------- MT19937 */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int mti;
} mt_state;

static void mt_init_genrand(mt_state *r, uint32_t s)
{
    r->mt[0] = s;
    for (int i = 1; i < MT_N; i++)
        r->mt[i] = 1812433253U * (r->mt[i - 1] ^ (r->mt[i - 1] >> 30)) + (uint32_t)i;
    r->mti = 0;
}

static void mt_init_by_array(mt_state *r, const uint32_t *key, int len)
{
    uint32_t *mt = r->mt;
    int i = 1, j = 0;
    mt_init_genrand(r, 19650218U);
    for (int k = MT_N > len ? MT_N : len; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
        if (j >= len) j = 0;
    }
    for (int k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
    }
    mt[0] = 0x80000000U;
}

/* The twist of mt[i] is made just before mt[i] is read, which gives the
   same stream as twisting all MT_N words at once. */
static uint32_t mt_next(mt_state *r)
{
    uint32_t *mt = r->mt;
    int i = r->mti;
    int j = i + 1 < MT_N ? i + 1 : 0;
    int k = i + MT_M < MT_N ? i + MT_M : i + MT_M - MT_N;
    uint32_t y = (mt[i] & 0x80000000U) | (mt[j] & 0x7fffffffU);
    y = mt[i] = mt[k] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
    r->mti = j;
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.random(): 53 bits from two draws */
static double mt_random(mt_state *r)
{
    uint32_t a = mt_next(r) >> 5;
    uint32_t b = mt_next(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static void mt_seed(mt_state *r, uint64_t seed)
{
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    mt_init_by_array(r, key, key[1] ? 2 : 1);
}

/* int(random() * len) */
static int32_t mt_index(mt_state *r, int32_t len)
{
    return (int32_t)(mt_random(r) * (double)len);
}

/* -------------------------------------------------------------- solver */

enum { UC = 0, GUC = 1, SC1 = 2 };

/* A clause's state packs dpll.py's satcnt and nfree as
   SAT1 * satcnt + nfree; undetermined clauses read below SAT1. */
#define SAT1 4

enum {
    SG_OK = 0,
    SG_NOMEM = -1,
    SG_UNIT_WITHOUT_FREE_LITERAL = -2,
};

typedef struct {
    int32_t point[3];   /* (assigned, C2, C3) at the split node; assigned is
                           the trail length that backtracking returns to */
    int32_t lit;
    int32_t flipped;
} frame;

typedef struct {
    const int32_t *lits, *start;    /* clause c: lits[start[c] .. start[c+1]) */
    int32_t *occ_start, *occ;       /* literal l: occ[occ_start[l] .. occ_start[l+1]) */
    int8_t *val;                    /* -1 unassigned, 0 false, 1 true */
    int32_t *st;                    /* SAT1 * satcnt + nfree, per clause */
    int32_t *livepos;
    int32_t *lives[4];              /* undetermined clauses by free-slot count */
    int32_t nlive[4];
    int32_t *trail;
    int32_t ntrail;
    int32_t *freevars, *freepos;    /* kept for UC and SC1 only */
    int32_t *move_c, *move_x;       /* pending pool moves, see assign() */
    int32_t nfreevars;
    int track_free;
    int conflict;
    mt_state rng;
} solver;

static void live_remove(solver *s, int k, int32_t c)
{
    int32_t *lst = s->lives[k];
    int32_t p = s->livepos[c];
    int32_t last = lst[--s->nlive[k]];
    /* when c is last these two stores rewrite what is already there */
    lst[p] = last;
    s->livepos[last] = p;
}

static void live_push(solver *s, int k, int32_t c)
{
    s->livepos[c] = s->nlive[k];
    s->lives[k][s->nlive[k]++] = c;
}

/* The clauses of one occurrence list whose state calls for a pool move,
   each with its state before the move, are gathered first and moved after:
   the pools never read st, so the moves come out in the same order, and
   the gathering loop has no branch to mispredict. */
static void assign(solver *s, int32_t lit)
{
    int32_t v = lit >> 1;
    s->val[v] = (int8_t)(1 - (lit & 1));
    s->trail[s->ntrail++] = lit;
    if (s->track_free) {
        int32_t p = s->freepos[v];
        int32_t last = s->freevars[--s->nfreevars];
        s->freevars[p] = last;
        s->freepos[last] = p;
    }
    const int32_t *restrict occ = s->occ;
    int32_t *restrict st = s->st;
    int32_t *restrict mc = s->move_c, *restrict mx = s->move_x;
    int32_t nm = 0;
    for (int32_t o = s->occ_start[lit], e = s->occ_start[lit + 1]; o < e; o++) {
        int32_t c = occ[o];
        int32_t x = st[c];
        st[c] = x + SAT1 - 1;
        mc[nm] = c;
        mx[nm] = x;
        nm += x < SAT1;
    }
    for (int32_t i = 0; i < nm; i++)
        live_remove(s, mx[i], mc[i]);
    nm = 0;
    for (int32_t o = s->occ_start[lit ^ 1], e = s->occ_start[(lit ^ 1) + 1]; o < e; o++) {
        int32_t c = occ[o];
        int32_t x = st[c]--;
        mc[nm] = c;
        mx[nm] = x;
        nm += x < SAT1;
    }
    for (int32_t i = 0; i < nm; i++) {
        live_remove(s, mx[i], mc[i]);
        if (mx[i] == 1)
            s->conflict = 1;
        else
            live_push(s, mx[i] - 1, mc[i]);
    }
}

static void unassign(solver *s)
{
    int32_t lit = s->trail[--s->ntrail];
    int32_t v = lit >> 1;
    const int32_t *restrict occ = s->occ;
    int32_t *restrict st = s->st;
    int32_t *restrict mc = s->move_c, *restrict mx = s->move_x;
    int32_t nm = 0;
    for (int32_t o = s->occ_start[(lit ^ 1) + 1] - 1, b = s->occ_start[lit ^ 1]; o >= b; o--) {
        int32_t c = occ[o];
        int32_t x = st[c]++;
        mc[nm] = c;
        mx[nm] = x;
        nm += x < SAT1;
    }
    for (int32_t i = 0; i < nm; i++) {
        if (mx[i] >= 1)
            live_remove(s, mx[i], mc[i]);
        live_push(s, mx[i] + 1, mc[i]);
    }
    nm = 0;
    for (int32_t o = s->occ_start[lit + 1] - 1, b = s->occ_start[lit]; o >= b; o--) {
        int32_t c = occ[o];
        int32_t x = st[c] - SAT1 + 1;
        st[c] = x;
        mc[nm] = c;
        mx[nm] = x;
        nm += x < SAT1;
    }
    for (int32_t i = 0; i < nm; i++)
        live_push(s, mx[i], mc[i]);
    s->val[v] = -1;
    if (s->track_free) {
        s->freepos[v] = s->nfreevars;
        s->freevars[s->nfreevars++] = v;
    }
}

/* 1 on contradiction, 0 when quiescent, < 0 on a broken invariant */
static int propagate(solver *s)
{
    if (s->conflict)
        return 1;
    while (s->nlive[1]) {
        int32_t c = s->lives[1][s->nlive[1] - 1];
        int32_t lit = -1;
        for (int32_t j = s->start[c]; j < s->start[c + 1]; j++) {
            if (s->val[s->lits[j] >> 1] < 0) {
                lit = s->lits[j];
                break;
            }
        }
        if (lit < 0)
            return SG_UNIT_WITHOUT_FREE_LITERAL;
        assign(s, lit);
        if (s->conflict)
            return 1;
    }
    return 0;
}

/* The split rule of DpllSolver.select_literal.  Only called after
 * propagate() emptied the unit pool with clauses still undetermined, so its
 * unit-clause case never arises here. */
static int32_t select_literal(solver *s, int heuristic)
{
    if (heuristic == GUC) {
        int k = s->nlive[2] ? 2 : 3;
        int32_t c = s->lives[k][mt_index(&s->rng, s->nlive[k])];
        int32_t slots[3];
        int32_t ns = 0;
        for (int32_t j = s->start[c]; j < s->start[c + 1]; j++)
            if (s->val[s->lits[j] >> 1] < 0)
                slots[ns++] = s->lits[j];
        return slots[mt_index(&s->rng, ns)];
    }
    int32_t v = s->freevars[mt_index(&s->rng, s->nfreevars)];
    if (heuristic == UC)
        return 2 * v + mt_index(&s->rng, 2);
    /* SC1: majority sign over undetermined 3-clauses */
    int32_t n_pos = 0, n_neg = 0;
    for (int32_t o = s->occ_start[2 * v]; o < s->occ_start[2 * v + 1]; o++) {
        int32_t c = s->occ[o];
        if (s->st[c] == 3)
            n_pos++;
    }
    for (int32_t o = s->occ_start[2 * v + 1]; o < s->occ_start[2 * v + 2]; o++) {
        int32_t c = s->occ[o];
        if (s->st[c] == 3)
            n_neg++;
    }
    if (n_pos > n_neg)
        return 2 * v;
    if (n_neg > n_pos)
        return 2 * v + 1;
    return 2 * v + mt_index(&s->rng, 2);
}

/* Fresh state for one solve, as DpllSolver.__init__ and reset() build it,
 * carved from one zeroed block that the caller frees.  Returns the frame
 * stack, n + 1 deep (a frame per assigned variable at most), or NULL when
 * out of memory. */
static frame *setup(solver *s, int32_t n, int32_t m, const int32_t *lits,
                    const int32_t *start, int heuristic, uint64_t seed)
{
    int32_t nlits = start[m];
    size_t mm = (size_t)m + 1, nn = (size_t)n + 1;
    size_t words = 4 * nn                       /* occ_start, fill */
                   + (size_t)nlits + 1          /* occ */
                   + 5 * mm                     /* st, livepos, lives[1..3] */
                   + 3 * nn                     /* trail, freevars, freepos */
                   + 2 * ((size_t)nlits + 1)    /* move_c, move_x */
                   + nn * (sizeof(frame) / sizeof(int32_t));
    int32_t *w = calloc(words * sizeof(int32_t) + nn, 1);
    memset(s, 0, sizeof *s);
    if (!w)
        return NULL;
    s->lits = lits;
    s->start = start;
    s->occ_start = w;
    int32_t *fill = w + 2 * nn;
    s->occ = fill + 2 * nn;
    s->st = s->occ + nlits + 1;
    s->livepos = s->st + mm;
    for (int k = 1; k <= 3; k++)
        s->lives[k] = s->livepos + k * mm;
    s->trail = s->livepos + 4 * mm;
    s->freevars = s->trail + nn;
    s->freepos = s->freevars + nn;
    s->move_c = s->freepos + nn;
    s->move_x = s->move_c + nlits + 1;
    frame *frames = (frame *)(s->move_x + nlits + 1);
    s->val = (int8_t *)(w + words);

    /* occurrence lists in clause order, duplicates kept, like dpll.py */
    for (int32_t j = 0; j < nlits; j++)
        s->occ_start[lits[j] + 1]++;
    for (int32_t l = 0; l < 2 * n; l++)
        s->occ_start[l + 1] += s->occ_start[l];
    memcpy(fill, s->occ_start, 2 * nn * sizeof(int32_t));
    for (int32_t c = 0; c < m; c++)
        for (int32_t j = start[c]; j < start[c + 1]; j++)
            s->occ[fill[lits[j]]++] = c;

    memset(s->val, -1, nn);
    for (int32_t c = 0; c < m; c++) {
        int32_t k = start[c + 1] - start[c];
        s->st[c] = k;
        live_push(s, k, c);
    }
    s->track_free = heuristic != GUC;
    if (s->track_free) {
        for (int32_t v = 0; v < n; v++) {
            s->freevars[v] = v;
            s->freepos[v] = v;
        }
        s->nfreevars = n;
    }
    mt_seed(&s->rng, seed);
    return frames;
}

/* One complete depth-first search of the instance.
 *
 * n, m:         variables and clauses; clause c holds the packed literals
 *               lits[start[c] .. start[c+1]), 1 to 3 of them
 * heuristic:    0 UC, 1 GUC, 2 SC1
 * seed:         the already mixed 64-bit seed of random.Random
 * out:          result (1 sat, 0 unsat), q_splits, b_leaves, then the
 *               g-node's (assigned, C2, C3), assigned = -1 without a g-node
 * assignment:   n bytes, set to the final values when the result is sat
 * cloud:        with record_cloud, receives q_splits (assigned, C2, C3)
 *               triples in a buffer the caller releases with sg_free
 *
 * Returns 0, or a negative SG_ code. */
int sg_solve(int32_t n, int32_t m, const int32_t *lits, const int32_t *start,
             int32_t heuristic, uint64_t seed, int32_t record_cloud,
             int64_t *out, uint8_t *assignment, int32_t **cloud)
{
    solver s;
    frame *frames = setup(&s, n, m, lits, start, heuristic, seed);
    int32_t *pts = NULL;
    int64_t npts = 0, cap = 0;
    int64_t q_splits = 0, b_leaves = 0;
    int32_t nframes = 0;
    int32_t g_point[3] = {-1, 0, 0};    /* g_point[0] < 0: no g-node yet */
    int rc = frames ? SG_OK : SG_NOMEM;
    int sat = 0;

    *cloud = NULL;
    while (rc == SG_OK) {
        int status = propagate(&s);
        if (status < 0) {
            rc = status;
            break;
        }
        if (status) {
            b_leaves++;
            while (nframes && frames[nframes - 1].flipped)
                nframes--;
            if (!nframes)
                break;
            frame *f = &frames[nframes - 1];
            int32_t tlen = f->point[0];
            while (s.ntrail > tlen)
                unassign(&s);
            s.conflict = 0;
            f->flipped = 1;
            if (g_point[0] < 0 || tlen < g_point[0])
                memcpy(g_point, f->point, sizeof g_point);
            assign(&s, f->lit ^ 1);
            continue;
        }
        if (!(s.nlive[1] || s.nlive[2] || s.nlive[3])) {
            sat = 1;
            b_leaves++;
            for (int32_t v = 0; v < n; v++)
                assignment[v] = s.val[v] == 1;
            break;
        }
        frame *f = &frames[nframes++];
        f->point[0] = s.ntrail;
        f->point[1] = s.nlive[2];
        f->point[2] = s.nlive[3];
        if (record_cloud) {
            if (npts == cap) {
                int64_t grown = cap ? 2 * cap : 64;
                int32_t *p = realloc(pts, (size_t)grown * 3 * sizeof(int32_t));
                if (!p) {
                    rc = SG_NOMEM;
                    break;
                }
                pts = p;
                cap = grown;
            }
            memcpy(pts + 3 * npts++, f->point, sizeof f->point);
        }
        f->lit = select_literal(&s, heuristic);
        f->flipped = 0;
        q_splits++;
        assign(&s, f->lit);
    }
    free(s.occ_start);
    if (rc != SG_OK) {
        free(pts);
        return rc;
    }
    out[0] = sat;
    out[1] = q_splits;
    out[2] = b_leaves;
    out[3] = g_point[0];
    out[4] = g_point[1];
    out[5] = g_point[2];
    *cloud = pts;
    return SG_OK;
}

/* The first `count` values of random.Random(seed).random(). */
void sg_random(uint64_t seed, int32_t count, double *out)
{
    mt_state r;
    mt_seed(&r, seed);
    for (int32_t i = 0; i < count; i++)
        out[i] = mt_random(&r);
}

void sg_free(void *p)
{
    free(p);
}

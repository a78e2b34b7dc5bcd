/* Compiled random streams of satgrowth's DPLL layer: the search loop of
 * dpll.DpllSolver.solve and the instance draw of
 * cnf.generate_random_instance.
 *
 * sg_search is the one search entry point.  It builds the occurrence lists
 * once and runs one search per seed, so a single solve is a batch of one
 * seed and a Monte Carlo run is a batch of many.  Each search writes one
 * six-value row (result, counters, g-node), its sat assignment and, when
 * asked, its split-node cloud; a new per-search output goes into that row.
 *
 * Every step mirrors the Python reference: the search keeps dpll.py's
 * live-clause pools with the same swap-remove order, the same free-variable
 * list, the same frame stack and g-node rule, and the same random draws;
 * the generator makes cnf.py's randrange calls in the same order.  The
 * stream is CPython's random.Random: MT19937 seeded by init_by_array over
 * the little-endian 32-bit words of the seed, with random() built as
 * genrand_res53, so every int(random() * len) index agrees, and randrange(n)
 * as _randbelow_with_getrandbits, so every drawn variable and sign agrees.
 * The search tree, its counters, the cloud and the sat assignment, and the
 * generated clauses, come out bit for bit equal.  Phase points leave as
 * integer (assigned, C2, C3) triples; Python forms the floats.  Every sat
 * assignment is checked against every clause before it leaves.
 *
 * A batch is cheaper per seed than a single solve in two ways, neither of
 * which changes a draw.  init_by_array is a serial chain of 1,247 dependent
 * multiply steps, so sg_search seeds every block of up to LANES seeds, a
 * single solve as a block of one, with one mixing pass over the block's
 * states at once (mt_seed_lanes), whose chains overlap.  And sg_search
 * cuts its seeds into contiguous ranges, one per thread, each with its own
 * solver state, and joins the threads before it returns; a call that
 * records the cloud runs on one thread and writes it in seed order.
 *
 * Literals are packed as 2 * variable + negated.  The kernel allocates all
 * of its state per call and keeps nothing between calls, so separate calls
 * may run in parallel.
 */

#include <pthread.h>
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

/* random.Random's init_by_array: init_genrand(19650218), then the key's
   mixing chain */
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

/* The most seeds that mt_seed_lanes mixes at once: the block that
   sg_search seeds, and so the unit of its thread ranges. */
#define LANES 16

/* random.Random(seeds[l]) for the count (1 <= count <= LANES) seeds of a
   block at once, each below 2^64: leaves the state of seed l in lane l of
   mt, which holds count states lane-minor (mt[i][l]), each starting from
   r0 = init_genrand(19650218), which the solver computes once.  The key
   of a seed is its one or two 32-bit words, and mt_init_by_array's step k
   adds key[j] + j with j = k mod len, which is add[k & 1][l]: key[0] at
   every step for a one-word key, key[0] and key[1] + 1 in turn for a
   two-word key.  Both mixing loops outlast either key length, so every
   lane steps i alike and each lane's chain is the one mt_init_by_array
   runs. */
static void mt_seed_lanes(int count, uint32_t (*mt)[count], const mt_state *r0,
                          const uint64_t *seeds)
{
    uint32_t add[2][LANES];
    for (int l = 0; l < count; l++) {
        uint32_t lo = (uint32_t)seeds[l], hi = (uint32_t)(seeds[l] >> 32);
        add[0][l] = lo;
        add[1][l] = hi ? hi + 1U : lo;
    }
    for (int i = 0; i < MT_N; i++)
        for (int l = 0; l < count; l++)
            mt[i][l] = r0->mt[i];
    int i = 1;
    for (int k = 0; k < MT_N; k++) {
        const uint32_t *a = add[k & 1];
        for (int l = 0; l < count; l++)
            mt[i][l] = (mt[i][l] ^ ((mt[i - 1][l] ^ (mt[i - 1][l] >> 30)) * 1664525U))
                       + a[l];
        if (++i >= MT_N) { memcpy(mt[0], mt[MT_N - 1], sizeof mt[0]); i = 1; }
    }
    for (int k = MT_N - 1; k; k--) {
        for (int l = 0; l < count; l++)
            mt[i][l] = (mt[i][l] ^ ((mt[i - 1][l] ^ (mt[i - 1][l] >> 30)) * 1566083941U))
                       - (uint32_t)i;
        if (++i >= MT_N) { memcpy(mt[0], mt[MT_N - 1], sizeof mt[0]); i = 1; }
    }
    for (int l = 0; l < count; l++)
        mt[0][l] = 0x80000000U;
}

/* Lane `lane` of the count states that mt_seed_lanes left in mt */
static void mt_lane(mt_state *r, int count, const uint32_t (*mt)[count], int lane)
{
    for (int i = 0; i < MT_N; i++)
        r->mt[i] = mt[i][lane];
    r->mti = 0;
}

/* int(random() * len) */
static int32_t mt_index(mt_state *r, int32_t len)
{
    return (int32_t)(mt_random(r) * (double)len);
}

/* randrange(n) for 0 < n < 2^31, as _randbelow_with_getrandbits draws it:
   getrandbits(n.bit_length()), the top bits of one word, until one is
   below n.  shift is 32 - n.bit_length(). */
static int32_t mt_below(mt_state *r, uint32_t n, int shift)
{
    uint32_t x;
    do
        x = mt_next(r) >> shift;
    while (x >= n);
    return (int32_t)x;
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
    SG_NOT_SATISFYING = -3,
};

typedef struct {
    int32_t point[3];   /* (assigned, C2, C3) at the split node; assigned is
                           the trail length that backtracking returns to */
    int32_t lit;
    int32_t flipped;
} frame;

typedef struct {
    int32_t n, m;                   /* variables and clauses */
    const int32_t *lits, *start;    /* clause c: lits[start[c] .. start[c+1]) */
    int32_t *occ_start, *occ;       /* literal l: occ[occ_start[l] .. occ_start[l+1]) */
    int8_t *val;                    /* -1 unassigned, 0 false, 1 true */
    uint8_t *values;                /* the sat assignment, one byte each */
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
    mt_state rng0;                  /* init_genrand(19650218) */
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

/* The part of the solver state that depends on the instance only: the
 * occurrence lists and room for everything else, carved from one zeroed
 * block that the caller frees (s->occ_start, NULL when out of memory).
 * Returns the frame stack, n + 1 deep (a frame per assigned variable at
 * most), or NULL when out of memory. */
static frame *setup(solver *s, int32_t n, int32_t m, const int32_t *lits,
                    const int32_t *start, int heuristic)
{
    int32_t nlits = start[m];
    size_t mm = (size_t)m + 1, nn = (size_t)n + 1;
    size_t words = 4 * nn                       /* occ_start, fill */
                   + (size_t)nlits + 1          /* occ */
                   + 5 * mm                     /* st, livepos, lives[1..3] */
                   + 3 * nn                     /* trail, freevars, freepos */
                   + 2 * ((size_t)nlits + 1)    /* move_c, move_x */
                   + nn * (sizeof(frame) / sizeof(int32_t));
    int32_t *w = calloc(words * sizeof(int32_t) + 2 * nn, 1);
    memset(s, 0, sizeof *s);
    if (!w)
        return NULL;
    s->n = n;
    s->m = m;
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
    s->values = (uint8_t *)s->val + nn;

    /* occurrence lists in clause order, duplicates kept, like dpll.py */
    for (int32_t j = 0; j < nlits; j++)
        s->occ_start[lits[j] + 1]++;
    for (int32_t l = 0; l < 2 * n; l++)
        s->occ_start[l + 1] += s->occ_start[l];
    memcpy(fill, s->occ_start, 2 * nn * sizeof(int32_t));
    for (int32_t c = 0; c < m; c++)
        for (int32_t j = start[c]; j < start[c + 1]; j++)
            s->occ[fill[lits[j]]++] = c;
    s->track_free = heuristic != GUC;
    mt_init_genrand(&s->rng0, 19650218U);
    return frames;
}

/* Fresh search state, as DpllSolver.reset() builds it; the caller seeds
   s->rng. */
static void reset(solver *s)
{
    memset(s->val, -1, (size_t)s->n);
    memset(s->nlive, 0, sizeof s->nlive);
    for (int32_t c = 0; c < s->m; c++) {
        int32_t k = s->start[c + 1] - s->start[c];
        s->st[c] = k;
        live_push(s, k, c);
    }
    s->ntrail = 0;
    s->conflict = 0;
    if (s->track_free) {
        for (int32_t v = 0; v < s->n; v++) {
            s->freevars[v] = v;
            s->freepos[v] = v;
        }
        s->nfreevars = s->n;
    }
}

/* 1 when every clause holds a literal that s->values makes true */
static int satisfied(const solver *s)
{
    for (int32_t c = 0; c < s->m; c++) {
        int32_t j = s->start[c];
        while (j < s->start[c + 1] && s->values[s->lits[j] >> 1] == (s->lits[j] & 1))
            j++;
        if (j == s->start[c + 1])
            return 0;
    }
    return 1;
}

typedef struct {
    int32_t *pts;   /* (assigned, C2, C3) per split node */
    int64_t n, cap;
} cloud_buf;

/* One complete depth-first search from the state reset() made.
 *
 * out:     result (1 sat, 0 unsat), q_splits, b_leaves, then the g-node's
 *          (assigned, C2, C3), assigned = -1 without a g-node
 * cloud:   NULL, or where the split nodes' triples are appended
 *
 * A sat result leaves its final values in s->values.  Returns 0, or a
 * negative SG_ code. */
static int search(solver *s, frame *frames, int heuristic, int64_t *out,
                  cloud_buf *cloud)
{
    int64_t q_splits = 0, b_leaves = 0;
    int32_t nframes = 0;
    int32_t g_point[3] = {-1, 0, 0};    /* g_point[0] < 0: no g-node yet */
    int sat = 0;

    for (;;) {
        int status = propagate(s);
        if (status < 0)
            return status;
        if (status) {
            b_leaves++;
            while (nframes && frames[nframes - 1].flipped)
                nframes--;
            if (!nframes)
                break;
            frame *f = &frames[nframes - 1];
            int32_t tlen = f->point[0];
            while (s->ntrail > tlen)
                unassign(s);
            s->conflict = 0;
            f->flipped = 1;
            if (g_point[0] < 0 || tlen < g_point[0])
                memcpy(g_point, f->point, sizeof g_point);
            assign(s, f->lit ^ 1);
            continue;
        }
        if (!(s->nlive[1] || s->nlive[2] || s->nlive[3])) {
            sat = 1;
            b_leaves++;
            for (int32_t v = 0; v < s->n; v++)
                s->values[v] = s->val[v] == 1;
            if (!satisfied(s))
                return SG_NOT_SATISFYING;
            break;
        }
        frame *f = &frames[nframes++];
        f->point[0] = s->ntrail;
        f->point[1] = s->nlive[2];
        f->point[2] = s->nlive[3];
        if (cloud) {
            if (cloud->n == cloud->cap) {
                int64_t grown = cloud->cap ? 2 * cloud->cap : 64;
                int32_t *p = realloc(cloud->pts, (size_t)grown * 3 * sizeof(int32_t));
                if (!p)
                    return SG_NOMEM;
                cloud->pts = p;
                cloud->cap = grown;
            }
            memcpy(cloud->pts + 3 * cloud->n++, f->point, sizeof f->point);
        }
        f->lit = select_literal(s, heuristic);
        f->flipped = 0;
        q_splits++;
        assign(s, f->lit);
    }
    out[0] = sat;
    out[1] = q_splits;
    out[2] = b_leaves;
    out[3] = g_point[0];
    out[4] = g_point[1];
    out[5] = g_point[2];
    return SG_OK;
}

/* One sg_search call: the instance, and where its searches write. */
typedef struct {
    int32_t n, m;
    const int32_t *lits, *start;
    int heuristic;
    const uint64_t *seeds;
    int64_t *out;
    uint8_t *assignments;
    cloud_buf *cloud;   /* NULL, or the one buffer of a one-thread call */
} batch;

/* Seeds lo .. hi - 1 of a batch, run on one thread with its own solver
   state; rc is 0 or the range's first negative SG_ code, at which the
   range stops. */
typedef struct {
    const batch *b;
    int32_t lo, hi;
    int rc;
} range;

/* Each block of LANES seeds from lo on, and the shorter tail, is seeded at
   once. */
static void *run_range(void *arg)
{
    range *r = arg;
    const batch *b = r->b;
    solver s;
    uint32_t lanes[MT_N * LANES];
    frame *frames = setup(&s, b->n, b->m, b->lits, b->start, b->heuristic);
    r->rc = frames ? SG_OK : SG_NOMEM;
    for (int32_t i = r->lo; r->rc == SG_OK && i < r->hi; i++) {
        int32_t lane = (i - r->lo) % LANES, first = i - lane;
        int block = r->hi - first < LANES ? r->hi - first : LANES;
        if (lane == 0)
            mt_seed_lanes(block, (void *)lanes, &s.rng0, b->seeds + i);
        reset(&s);
        mt_lane(&s.rng, block, (void *)lanes, lane);
        int64_t *row = b->out + 6 * (int64_t)i;
        r->rc = search(&s, frames, b->heuristic, row, b->cloud);
        if (r->rc == SG_OK && row[0])
            memcpy(b->assignments + (size_t)b->n * i, s.values, (size_t)b->n);
    }
    free(s.occ_start);
    return NULL;
}

/* The most tasks, and so threads, of one sg_fan_out call. */
const int32_t sg_max_threads = 256;

/* The library's one thread lifecycle, which annealed_kernel.c uses too:
   runs run(task) on each of the n (1 <= n <= sg_max_threads) tasks of
   `size` bytes at `tasks`, task 0 on the caller and the others on threads
   joined before the call returns, so no thread outlives it.  A task whose
   thread cannot be started runs on the caller after the others. */
void sg_fan_out(void *(*run)(void *), void *tasks, size_t size, int32_t n)
{
    char *task = tasks;
    pthread_t tid[n];
    int started[n];
    for (int32_t t = 1; t < n; t++)
        started[t] = pthread_create(&tid[t], NULL, run, task + t * size) == 0;
    run(task);
    for (int32_t t = 1; t < n; t++) {
        if (started[t])
            pthread_join(tid[t], NULL);
        else
            run(task + t * size);
    }
}

/* One search per seed, over one set of occurrence lists.
 *
 * n, m:         variables and clauses; clause c holds the packed literals
 *               lits[start[c] .. start[c+1]), 1 to 3 of them
 * heuristic:    0 UC, 1 GUC, 2 SC1
 * count, seeds: the already mixed 64-bit seeds of random.Random
 * out:          6 * count values, row i as search() fills it for seeds[i]
 * assignments:  n * count bytes; a sat search i sets assignments[n*i ..
 *               n*i + n) to its final values, other bytes stay as they are
 * cloud:        NULL, or set to a buffer the caller releases with sg_free:
 *               every search's q_splits (assigned, C2, C3) triples, back
 *               to back in seed order
 * nthreads:     the most threads to run the searches on
 *
 * The seeds are cut into contiguous ranges, one per thread, at multiples
 * of LANES, so that each range seeds whole blocks and only the last one a
 * shorter tail; there are at most count / LANES ranges, and at least one.
 * A call that records the cloud runs one range, so its searches append to
 * one buffer in seed order.  sg_fan_out runs the ranges, the first on the
 * caller.  Every search writes only its own row and assignment bytes, with
 * the draws it makes alone, so nothing depends on the thread count.
 *
 * Returns 0, or the negative SG_ code of the first failing range in seed
 * order (the code of the first failing seed), which leaves *cloud NULL. */
int sg_search(int32_t n, int32_t m, const int32_t *lits, const int32_t *start,
              int32_t heuristic, int32_t count, const uint64_t *seeds,
              int64_t *out, uint8_t *assignments, int32_t **cloud,
              int32_t nthreads)
{
    cloud_buf points = {NULL, 0, 0};
    batch b = {n, m, lits, start, heuristic, seeds, out, assignments,
               cloud ? &points : NULL};
    int64_t blocks = count / LANES;
    if (nthreads > blocks)
        nthreads = (int32_t)blocks;
    if (nthreads > sg_max_threads)
        nthreads = sg_max_threads;
    if (nthreads < 1 || cloud)
        nthreads = 1;
    range ranges[nthreads];
    for (int32_t t = 0; t < nthreads; t++)
        ranges[t] = (range){&b, (int32_t)(LANES * (blocks * t / nthreads)),
                            t + 1 < nthreads
                                ? (int32_t)(LANES * (blocks * (t + 1) / nthreads))
                                : count,
                            SG_OK};
    sg_fan_out(run_range, ranges, sizeof *ranges, nthreads);

    int rc = SG_OK;
    for (int32_t t = 0; t < nthreads && rc == SG_OK; t++)
        rc = ranges[t].rc;
    if (rc != SG_OK)
        free(points.pts);
    if (cloud)
        *cloud = rc == SG_OK ? points.pts : NULL;
    return rc;
}

/* The clauses of cnf.generate_random_instance(n, n2, n3, seed): n2
 * 2-clauses then n3 3-clauses, their 2 n2 + 3 n3 packed literals into lits
 * and their n2 + n3 + 1 offsets into starts.  key holds the keylen >= 1
 * little-endian 32-bit words of abs(seed), as random.Random(seed) reads
 * them; n <= 2^30, with 2 <= n when n2 > 0 and 3 <= n when n3 > 0.  Each
 * clause draws its distinct variables with randrange(n), then one sign per
 * variable with randrange(2). */
void sg_generate(int32_t n, int64_t n2, int64_t n3, const uint32_t *key,
                 int32_t keylen, int32_t *lits, int32_t *starts)
{
    mt_state r;
    int shift = __builtin_clz((uint32_t)n);
    int32_t *next = lits;
    mt_init_by_array(&r, key, keylen);
    for (int64_t c = 0; c < n2; c++) {
        int32_t v1 = mt_below(&r, (uint32_t)n, shift);
        int32_t v2;
        do
            v2 = mt_below(&r, (uint32_t)n, shift);
        while (v2 == v1);
        *starts++ = (int32_t)(next - lits);
        *next++ = 2 * v1 + mt_below(&r, 2, 30);
        *next++ = 2 * v2 + mt_below(&r, 2, 30);
    }
    for (int64_t c = 0; c < n3; c++) {
        int32_t v1 = mt_below(&r, (uint32_t)n, shift);
        int32_t v2, v3;
        do
            v2 = mt_below(&r, (uint32_t)n, shift);
        while (v2 == v1);
        do
            v3 = mt_below(&r, (uint32_t)n, shift);
        while (v3 == v1 || v3 == v2);
        *starts++ = (int32_t)(next - lits);
        *next++ = 2 * v1 + mt_below(&r, 2, 30);
        *next++ = 2 * v2 + mt_below(&r, 2, 30);
        *next++ = 2 * v3 + mt_below(&r, 2, 30);
    }
    *starts = (int32_t)(next - lits);
}

/* The first `count` values of random.Random(seeds[l]).random() for each
   of the nseeds (1 <= nseeds <= LANES) seeds, seeded as one block as
   sg_search seeds them: row l of out, count values, is seed l's. */
void sg_random(const uint64_t *seeds, int32_t nseeds, int32_t count, double *out)
{
    mt_state r, r0;
    uint32_t lanes[MT_N * LANES];
    mt_init_genrand(&r0, 19650218U);
    mt_seed_lanes(nseeds, (void *)lanes, &r0, seeds);
    for (int32_t l = 0; l < nseeds; l++) {
        mt_lane(&r, nseeds, (void *)lanes, l);
        for (int32_t i = 0; i < count; i++)
            *out++ = mt_random(&r);
    }
}

void sg_free(void *p)
{
    free(p);
}

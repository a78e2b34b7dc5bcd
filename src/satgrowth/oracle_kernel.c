/* Forward closure of the exact evolution operator (oracle.py).
 *
 * From the all-undetermined state (index 0) the walk pops states off a
 * stack, emits each popped state's column and pushes the successors it has
 * not seen yet, in column order, so the columns come out in the order of the
 * Python walk in oracle.py.  States are packed base-3 (digit i is the mark
 * of variable i: 0 = u, 1 = t, 2 = f), and a 3^N int32 array marks the
 * states seen (-1) and then holds each popped state's column position + 1.
 * After the walk every successor index is replaced by its column position.
 *
 * Each popped state is classified from scratch over the instance's packed
 * literals (2 * variable + negated) and clause offsets, as cnf.classify
 * does: a clause with a true literal is satisfied, one with no free slot is
 * violated (and stops the scan), any other is undetermined and keeps one
 * free slot per literal, repeated variables included.  Its column follows
 * oracle._transitions:
 *
 *   violating:      the self-loop, weight 1/1;
 *   all satisfied:  no entry;
 *   unit clauses:   one forced child per distinct unit literal, ascending,
 *                   weight cnt/C1;
 *   GUC:            over the shortest clauses, both children (T first) of
 *                   each variable of their slots, ascending, weight
 *                   cnt/(#shortest * kmin);
 *   UC and SC1:     both children of every free variable, ascending,
 *                   weight 1/#free.
 *
 * A weight num/den leaves unreduced as the key num * wbase + den, where
 * wbase exceeds every denominator; Python makes the Fractions and the
 * multipliers of its B(T) pass.  The kernel allocates all of its state per
 * call and keeps nothing between calls.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_VARS 39 /* 3^39 < 2^63 */
#define MARK_T 1
#define MARK_F 2
#define GUC 1 /* native.HEURISTIC_CODES; UC and SC1 split alike */

typedef struct {
    int64_t n_states;  /* columns */
    int64_t nnz;       /* entries */
    int64_t wbase;     /* weight key base */
    int64_t *state;    /* packed index of each column's state */
    char *violating;   /* 1 where that state violates a clause */
    int64_t *offset;   /* n_states + 1 offsets of the columns' entries */
    int64_t *succ;     /* successor column position of each entry */
    int64_t *weight;   /* num * wbase + den of each entry */
} sg_closure_t;

void sg_closure_free(sg_closure_t *out)
{
    free(out->state);
    free(out->violating);
    free(out->offset);
    free(out->succ);
    free(out->weight);
    memset(out, 0, sizeof *out);
}

/* Room for `need` columns, doubling *cap. */
static int reserve_columns(sg_closure_t *out, int64_t *cap, int64_t need)
{
    if (need <= *cap)
        return 0;
    int64_t c = 2 * *cap > need ? 2 * *cap : need;
    int64_t *state = realloc(out->state, (size_t)c * sizeof *state);
    if (!state)
        return -1;
    out->state = state;
    char *violating = realloc(out->violating, (size_t)c);
    if (!violating)
        return -1;
    out->violating = violating;
    int64_t *offset = realloc(out->offset, (size_t)(c + 1) * sizeof *offset);
    if (!offset)
        return -1;
    out->offset = offset;
    *cap = c;
    return 0;
}

/* Room for `need` entries, doubling *cap. */
static int reserve_entries(sg_closure_t *out, int64_t *cap, int64_t need)
{
    if (need <= *cap)
        return 0;
    int64_t c = 2 * *cap > need ? 2 * *cap : need;
    int64_t *succ = realloc(out->succ, (size_t)c * sizeof *succ);
    if (!succ)
        return -1;
    out->succ = succ;
    int64_t *weight = realloc(out->weight, (size_t)c * sizeof *weight);
    if (!weight)
        return -1;
    out->weight = weight;
    *cap = c;
    return 0;
}

/* Returns 0, or -1 when memory runs out or the columns outgrow int32
   positions (out is then empty). */
int sg_closure(int32_t n_vars, int32_t n_clauses, const int32_t *lits,
               const int32_t *starts, int32_t heuristic, sg_closure_t *out)
{
    memset(out, 0, sizeof *out);
    if (n_vars < 0 || n_vars > MAX_VARS || n_clauses < 0)
        return -1;
    int64_t pow3[MAX_VARS + 1];
    pow3[0] = 1;
    for (int v = 0; v < n_vars; v++)
        pow3[v + 1] = 3 * pow3[v];
    /* denominators: C1 <= m, #shortest * kmin <= 3m, #free <= N, and 1 */
    int64_t wbase = 3 * (int64_t)n_clauses > n_vars ? 3 * (int64_t)n_clauses : n_vars;
    wbase = wbase > 1 ? wbase + 1 : 2;

    int64_t col_cap = 0, ent_cap = 0, stack_cap = 64, depth = 0;
    int32_t *pos = calloc((size_t)pow3[n_vars], sizeof *pos);
    int64_t *stack = malloc((size_t)stack_cap * sizeof *stack);
    int32_t *slots = malloc((3 * (size_t)n_clauses + 1) * sizeof *slots);
    int8_t *len = malloc((size_t)n_clauses + 1);
    int32_t *cnt = calloc(2 * (size_t)n_vars + 1, sizeof *cnt);
    int rc = -1;
    if (!pos || !stack || !slots || !len || !cnt
        || reserve_columns(out, &col_cap, 64)
        || reserve_entries(out, &ent_cap, 256))
        goto done;

    uint8_t marks[MAX_VARS + 1];
    int64_t n_states = 0, nnz = 0;
    out->offset[0] = 0;
    pos[0] = -1;
    stack[depth++] = 0;
    while (depth) {
        int64_t idx = stack[--depth];
        if (n_states == INT32_MAX - 1)
            goto done;
        pos[idx] = (int32_t)(n_states + 1);
        int64_t rest = idx;
        for (int v = 0; v < n_vars; v++) {
            marks[v] = (uint8_t)(rest % 3);
            rest /= 3;
        }
        /* classify without a branch per literal or clause: the k-th
           undetermined clause keeps its len[k] free slots at slots[3k...];
           a slot is kept only when free, and a literal is true when its
           variable's mark is T + negated */
        int viol = 0;
        int32_t nu = 0, c1 = 0;
        for (int32_t c = 0; c < n_clauses && !viol; c++) {
            int32_t *free_slots = slots + 3 * nu;
            int k = 0, sat = 0;
            for (int32_t i = starts[c]; i < starts[c + 1]; i++) {
                int32_t lit = lits[i];
                int m = marks[lit >> 1];
                free_slots[k] = lit;
                k += m == 0;
                sat |= m == MARK_T + (lit & 1);
            }
            int undet = !sat;
            len[nu] = (int8_t)k;
            nu += undet;
            c1 += undet & (k == 1);
            viol = undet & (k == 0);
        }

        /* a column holds the self-loop or at most two entries per variable */
        if (reserve_columns(out, &col_cap, n_states + 1)
            || reserve_entries(out, &ent_cap, nnz + 2 * (int64_t)n_vars + 1))
            goto done;
        int64_t first = nnz;
        out->state[n_states] = idx;
        out->violating[n_states] = (char)viol;
        if (viol) {
            out->succ[nnz] = idx;
            out->weight[nnz++] = wbase + 1;
        } else if (c1) {
            for (int32_t q = 0; q < nu; q++)
                if (len[q] == 1)
                    cnt[slots[3 * q]]++;
            for (int lit = 0; lit < 2 * n_vars; lit++) {
                if (!cnt[lit])
                    continue;
                out->succ[nnz] = idx + ((lit & 1) ? MARK_F : MARK_T) * pow3[lit >> 1];
                out->weight[nnz++] = cnt[lit] * wbase + c1;
                cnt[lit] = 0;
            }
        } else if (nu && heuristic == GUC) {
            int kmin = 3;
            int32_t n_short = 0;
            for (int32_t q = 0; q < nu; q++)
                if (len[q] < kmin)
                    kmin = len[q];
            for (int32_t q = 0; q < nu; q++) {
                if (len[q] != kmin)
                    continue;
                n_short++;
                for (int k = 0; k < kmin; k++)
                    cnt[slots[3 * q + k] >> 1]++;
            }
            int64_t den = (int64_t)n_short * kmin;
            for (int v = 0; v < n_vars; v++) {
                if (!cnt[v])
                    continue;
                int64_t w = cnt[v] * wbase + den;
                out->succ[nnz] = idx + MARK_T * pow3[v];
                out->weight[nnz++] = w;
                out->succ[nnz] = idx + MARK_F * pow3[v];
                out->weight[nnz++] = w;
                cnt[v] = 0;
            }
        } else if (nu) {
            int64_t n_free = 0;
            for (int v = 0; v < n_vars; v++)
                n_free += marks[v] == 0;
            for (int v = 0; v < n_vars; v++) {
                if (marks[v])
                    continue;
                out->succ[nnz] = idx + MARK_T * pow3[v];
                out->weight[nnz++] = wbase + n_free;
                out->succ[nnz] = idx + MARK_F * pow3[v];
                out->weight[nnz++] = wbase + n_free;
            }
        }
        out->offset[++n_states] = nnz;

        if (viol)
            continue;
        for (int64_t e = first; e < nnz; e++) {
            int64_t s2 = out->succ[e];
            if (pos[s2])
                continue;
            pos[s2] = -1;
            if (depth == stack_cap) {
                int64_t *grown = realloc(stack, 2 * (size_t)stack_cap * sizeof *stack);
                if (!grown)
                    goto done;
                stack = grown;
                stack_cap *= 2;
            }
            stack[depth++] = s2;
        }
    }
    /* every successor has been popped, so each has its position */
    for (int64_t e = 0; e < nnz; e++)
        out->succ[e] = pos[out->succ[e]] - 1;
    out->n_states = n_states;
    out->nnz = nnz;
    out->wbase = wbase;
    rc = 0;
done:
    free(pos);
    free(stack);
    free(slots);
    free(len);
    free(cnt);
    if (rc)
        sg_closure_free(out);
    return rc;
}

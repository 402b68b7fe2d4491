/* One-pass multi-granularity sweep kernel: C fast path.
 *
 * Simulates the cache geometries kernel.py resolves from a sweep's
 * ladder and pressures in one trace traversal, and produces the integer
 * counters of replaying each geometry through CodeCacheSimulator;
 * kernel-check and the kernel tests hold the two equal.  The ladder
 * pass (one_pass) keeps no floating point at all: the overheads of
 * Equations 2-4 are priced from these counters by the caller's stats
 * records, so the order in which geometries, victims and links are
 * counted is free.
 *
 * Residency is one 64-bit word per block, bit g set while the block is
 * resident in geometry g, so up to 64 geometries share a traversal.  An
 * access walks only the geometries it misses, one loop per kind over
 * that kind's missing bits, so no geometry pays a bit test or a kind
 * switch.  Links come as one neighbour row per block: its out-targets,
 * then (from nb_split) its in-sources, self-loops excluded and kept in
 * sf.  An insert scans its row once.
 *
 * The priority-function cells (priority_pass) are the one place doubles
 * appear: they score resident blocks with a postfix expression VM whose
 * arithmetic must match Python's float semantics exactly, so the file
 * is compiled with -ffp-contract=off and never with -ffast-math.
 */

#include <math.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef unsigned long long u64;

/* Counters written per geometry; the layout is read by ckernel.py. */
#define N_OUT 10
#define MAX_GEOMS 64

/* Geometry kinds as ckernel.KIND_CODES numbers them.  Flush comes only
 * with links tracked; without links FLUSH is a one-unit unit geometry. */
enum { KIND_FLUSH, KIND_UNIT, KIND_FIFO, N_KINDS };

typedef struct {
    int kind;
    i64 cap;       /* flush / fifo: byte capacity; unit: per unit */
    int ucount;    /* unit: number of units */
    /* flush frontier */
    int *blocks;
    int blen;
    /* unit frontier: singly-linked chains per unit, and each block's
     * unit (-1 when not resident) when links are tracked */
    int *next, *uhead, *utail, *ua;
    i64 *uused;
    int fill;
    /* fifo frontier: ring buffer */
    int *queue;
    int qhead, qtail;
    i64 fused;     /* flush / fifo resident bytes */
    /* counters */
    i64 misses, ins, inv, evb, evB, ulops, ulrem, intra, inter;
    i64 live, plive;
} Geom;

static void free_geoms(Geom *geoms, int n_geoms, u64 *residency)
{
    int g;
    for (g = 0; g < n_geoms; g++) {
        free(geoms[g].blocks);
        free(geoms[g].next);
        free(geoms[g].uhead);
        free(geoms[g].utail);
        free(geoms[g].ua);
        free(geoms[g].uused);
        free(geoms[g].queue);
    }
    free(geoms);
    free(residency);
}

/* Counts an insert's new live links and keeps the peak. */
static inline void add_live(Geom *G, i64 links)
{
    G->live += links;
    G->plive = G->live > G->plive ? G->live : G->plive;
}

/* Writes N_OUT counters per geometry to out.  Returns 0 on success,
 * -2 on a geometry count outside 1..64, -3 on allocation failure. */
int one_pass(
    i64 n_acc, const int *trace,
    int n_blocks, const i64 *sizes,
    int track_links,
    const int *nb_idx, const int *nb_split, const int *nb_dat,
    const unsigned char *sf,
    int n_geoms, const int *kinds, const i64 *caps, const i64 *ucaps,
    const int *ucounts,
    i64 *out)
{
    Geom *geoms;
    u64 *residency, full, of_kind[N_KINDS] = {0, 0, 0};
    size_t n = (size_t)n_blocks + 1;
    i64 a;
    int g, k;

    if (n_geoms < 1 || n_geoms > MAX_GEOMS)
        return -2;
    full = ~0ULL >> (MAX_GEOMS - n_geoms);

    geoms = (Geom *)calloc((size_t)n_geoms, sizeof(Geom));
    residency = (u64 *)calloc(n, sizeof(u64));
    if (!geoms || !residency) {
        free(geoms);
        free(residency);
        return -3;
    }
    for (g = 0; g < n_geoms; g++) {
        Geom *G = &geoms[g];
        G->kind = kinds[g];
        of_kind[G->kind] |= 1ULL << g;
        if (G->kind == KIND_FLUSH) {
            G->cap = caps[g];
            G->blocks = (int *)malloc(sizeof(int) * n);
            if (!G->blocks)
                goto oom;
        } else if (G->kind == KIND_UNIT) {
            G->cap = ucaps[g];
            G->ucount = ucounts[g];
            G->next = (int *)malloc(sizeof(int) * n);
            G->uhead = (int *)malloc(sizeof(int) * (size_t)G->ucount);
            G->utail = (int *)malloc(sizeof(int) * (size_t)G->ucount);
            G->uused = (i64 *)calloc((size_t)G->ucount, sizeof(i64));
            if (!G->next || !G->uhead || !G->utail || !G->uused)
                goto oom;
            memset(G->uhead, -1, sizeof(int) * (size_t)G->ucount);
            memset(G->utail, -1, sizeof(int) * (size_t)G->ucount);
            if (track_links) {
                G->ua = (int *)malloc(sizeof(int) * n);
                if (!G->ua)
                    goto oom;
                memset(G->ua, -1, sizeof(int) * n);
            }
        } else {
            G->cap = caps[g];
            G->queue = (int *)malloc(sizeof(int) * n);
            if (!G->queue)
                goto oom;
        }
    }

    for (a = 0; a < n_acc; a++) {
        int sid = trace[a];
        u64 missing = full & ~residency[sid], m;
        i64 size, self;
        int lo = 0, hi = 0;
        if (!missing)
            continue;
        size = sizes[sid];
        self = 0;
        if (track_links) {
            /* Without links the row arrays are one-slot stand-ins. */
            self = sf[sid];
            lo = nb_idx[sid];
            hi = nb_idx[sid + 1];
        }

        /* -- FLUSH: one unit, links tracked.  A flush drops every live
         * link with the code, so it keeps no unlink records. */
        for (m = missing & of_kind[KIND_FLUSH]; m; m &= m - 1) {
            int bit = __builtin_ctzll(m);
            Geom *G = &geoms[bit];
            i64 est = self;
            G->misses++;
            G->ins += size;
            if (G->fused + size > G->cap) {
                u64 keep = ~(1ULL << bit);
                G->inv++;
                G->evb += G->blen;
                G->evB += G->fused;
                for (k = 0; k < G->blen; k++)
                    residency[G->blocks[k]] &= keep;
                G->blen = 0;
                G->fused = 0;
                G->live = 0;
            }
            G->blocks[G->blen++] = sid;
            G->fused += size;
            for (k = lo; k < hi; k++)
                est += (residency[nb_dat[k]] >> bit) & 1;
            G->intra += est;
            add_live(G, est);
        }

        /* -- UNIT: FIFO over ucount units, each evicted whole. */
        for (m = missing & of_kind[KIND_UNIT]; m; m &= m - 1) {
            int bit = __builtin_ctzll(m);
            Geom *G = &geoms[bit];
            int *ua = G->ua, *next = G->next;
            int f = G->fill;
            G->misses++;
            G->ins += size;
            if (G->uused[f] + size > G->cap) {
                int h;
                f = f + 1 == G->ucount ? 0 : f + 1;
                G->fill = f;
                h = G->uhead[f];
                if (h >= 0) {
                    u64 keep = ~(1ULL << bit);
                    i64 vlen = 0;
                    int v;
                    G->inv++;
                    G->evB += G->uused[f];
                    if (track_links) {
                        /* One walk: each victim scans its whole row,
                         * then is unflagged, so a link between two
                         * victims is counted once, by the first one
                         * walked.  Survivors are resident in-sources
                         * outside the unit. */
                        i64 dead = 0;
                        for (v = h; v >= 0; v = next[v]) {
                            int sp = nb_split[v], end = nb_idx[v + 1];
                            i64 sur = 0;
                            vlen++;
                            dead += sf[v];
                            for (k = nb_idx[v]; k < sp; k++)
                                dead += ua[nb_dat[k]] >= 0;
                            for (; k < end; k++) {
                                int u = ua[nb_dat[k]];
                                dead += u >= 0;
                                sur += (u >= 0) & (u != f);
                            }
                            G->ulops += sur != 0;
                            G->ulrem += sur;
                            ua[v] = -1;
                            residency[v] &= keep;
                        }
                        G->live -= dead;
                    } else {
                        for (v = h; v >= 0; v = next[v]) {
                            vlen++;
                            residency[v] &= keep;
                        }
                    }
                    G->evb += vlen;
                    G->uhead[f] = -1;
                    G->utail[f] = -1;
                    G->uused[f] = 0;
                }
            }
            if (G->utail[f] < 0)
                G->uhead[f] = sid;
            else
                next[G->utail[f]] = sid;
            G->utail[f] = sid;
            next[sid] = -1;
            G->uused[f] += size;
            if (track_links) {
                i64 est = self, li = self;
                ua[sid] = f;
                for (k = lo; k < hi; k++) {
                    int u = ua[nb_dat[k]];
                    est += u >= 0;
                    li += u == f;
                }
                G->intra += li;
                G->inter += est - li;
                add_live(G, est);
            }
        }

        /* -- FIFO: byte-granularity circular buffer; every victim is
         * its own eviction event. */
        for (m = missing & of_kind[KIND_FIFO]; m; m &= m - 1) {
            int bit = __builtin_ctzll(m);
            Geom *G = &geoms[bit];
            u64 keep = ~(1ULL << bit);
            G->misses++;
            G->ins += size;
            while (G->fused + size > G->cap) {
                int v = G->queue[G->qhead];
                i64 vs = sizes[v];
                G->qhead = G->qhead == n_blocks ? 0 : G->qhead + 1;
                G->fused -= vs;
                G->inv++;
                G->evB += vs;
                if (track_links) {
                    int sp = nb_split[v], end = nb_idx[v + 1];
                    i64 sur = 0, outd = 0;
                    for (k = nb_idx[v]; k < sp; k++)
                        outd += (residency[nb_dat[k]] >> bit) & 1;
                    for (; k < end; k++)
                        sur += (residency[nb_dat[k]] >> bit) & 1;
                    G->ulops += sur != 0;
                    G->ulrem += sur;
                    G->live -= sur + sf[v] + outd;
                }
                residency[v] &= keep;
            }
            G->queue[G->qtail] = sid;
            G->qtail = G->qtail == n_blocks ? 0 : G->qtail + 1;
            G->fused += size;
            if (track_links) {
                i64 ln = 0;
                for (k = lo; k < hi; k++)
                    ln += (residency[nb_dat[k]] >> bit) & 1;
                G->inter += ln;
                G->intra += self;
                add_live(G, ln + self);
            }
        }
        residency[sid] = full;
    }

    for (g = 0; g < n_geoms; g++) {
        Geom *G = &geoms[g];
        i64 *oi = out + (i64)g * N_OUT;
        oi[0] = G->misses;
        oi[1] = G->ins;
        oi[2] = G->inv;
        oi[3] = (G->kind == KIND_FIFO) ? G->inv : G->evb;
        oi[4] = G->evB;
        oi[5] = G->ulops;
        oi[6] = G->ulrem;
        oi[7] = G->intra;
        oi[8] = G->inter;
        oi[9] = G->plive;
    }
    free_geoms(geoms, n_geoms, residency);
    return 0;

oom:
    free_geoms(geoms, n_geoms, residency);
    return -3;
}


/* -- Priority-function cells ---------------------------------------------
 *
 * A priority policy is fine-grained FIFO storage whose victim is picked
 * by score.  The score expression arrives compiled to a postfix program
 * (repro.search.expr.compile_program): one opcode per node, with an
 * immediate slot that only constants read.  Opcodes 0..N_FEATURES-1
 * load a feature in FEATURES order; the rest follow OPCODES there.
 *
 * Three features (size, in_degree, out_degree) are fixed per block, so
 * priority_pass splits each program once (split_program): every
 * maximal subtree that reads only those and constants is hoisted into
 * a prelude that scores it once per block, and the residual program a
 * victim scan runs loads the hoisted value instead.  One VM, vm_score,
 * runs the prelude, the scan and ckernel.score, each over a column of
 * rows at a time.
 */

#define N_FEATURES 7
#define SCORE_LIMIT 1e18

/* FEATURES positions. */
enum { F_AGE, F_SIZE, F_IN_DEGREE, F_OUT_DEGREE, F_HOTNESS, F_RECENCY,
       F_OCCUPANCY };
#define FIXED_FEATURES \
    ((1u << F_SIZE) | (1u << F_IN_DEGREE) | (1u << F_OUT_DEGREE))

enum {
    OP_CONST = N_FEATURES, OP_NEG, OP_LOG1P,
    OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MIN, OP_MAX,
    /* Residual programs only: OP_SLOT + j loads hoisted value j. */
    OP_SLOT
};

/* expr._clamp: NaN collapses to zero, then into +-SCORE_LIMIT. */
static double clamp(double v)
{
    if (v != v)
        return 0.0;
    if (v > SCORE_LIMIT)
        return SCORE_LIMIT;
    if (v < -SCORE_LIMIT)
        return -SCORE_LIMIT;
    return v;
}

/* Runs a postfix program over n rows at once, one opcode across every
 * row, and leaves row i's score in stack[i]; returns row 0's.  Opcode
 * op loads column cols[op]: a feature (op < N_FEATURES) is clamped on
 * the way in, as expr.evaluate clamps feature reads, and a hoisted
 * value (op >= OP_SLOT) is taken as the prelude left it.  Each row
 * sees evaluate's IEEE operations: the results of neg, add, sub, mul
 * and div are clamped; div by a divisor inside +-1e-9 yields the
 * clamped numerator; log1p reads the magnitude; constants, log1p, min
 * and max pass through unclamped.  stack holds depth * n doubles,
 * depth being the most values the program holds at once. */
double vm_score(int n_code, const int *code, const double *imm, i64 n,
                const double *const *cols, double *stack)
{
    i64 held = 0, i;
    int pc;
    for (pc = 0; pc < n_code; pc++) {
        int op = code[pc];
        double *top, *r;
        if (op < N_FEATURES) {
            const double *src = cols[op];
            top = stack + n * held++;
            for (i = 0; i < n; i++)
                top[i] = clamp(src[i]);
            continue;
        }
        if (op >= OP_SLOT) {
            memcpy(stack + n * held++, cols[op], sizeof(double) * (size_t)n);
            continue;
        }
        if (op == OP_CONST) {
            double v = imm[pc];
            top = stack + n * held++;
            for (i = 0; i < n; i++)
                top[i] = v;
            continue;
        }
        top = stack + n * (held - 1);
        if (op == OP_NEG) {
            for (i = 0; i < n; i++)
                top[i] = clamp(-top[i]);
            continue;
        }
        if (op == OP_LOG1P) {
            for (i = 0; i < n; i++)
                top[i] = log1p(fabs(top[i]));
            continue;
        }
        r = top;
        top -= n;
        held--;
        switch (op) {
        case OP_ADD:
            for (i = 0; i < n; i++)
                top[i] = clamp(top[i] + r[i]);
            break;
        case OP_SUB:
            for (i = 0; i < n; i++)
                top[i] = clamp(top[i] - r[i]);
            break;
        case OP_MUL:
            for (i = 0; i < n; i++)
                top[i] = clamp(top[i] * r[i]);
            break;
        case OP_DIV:
            for (i = 0; i < n; i++) {
                double d = r[i];
                top[i] = clamp((-1e-9 < d && d < 1e-9) ? top[i]
                                                       : top[i] / d);
            }
            break;
        case OP_MIN:
            for (i = 0; i < n; i++)
                if (r[i] < top[i])
                    top[i] = r[i];
            break;
        case OP_MAX:
            for (i = 0; i < n; i++)
                if (r[i] > top[i])
                    top[i] = r[i];
            break;
        }
    }
    return stack[0];
}

/* A program split for the victim scan by split_program. */
typedef struct {
    int n_code;          /* the residual program */
    int *code;
    double *imm;
    int n_slots;         /* hoisted value j is code[lo[j]..hi[j]) of */
    int *lo, *hi;        /* the program as compiled */
    int depth;           /* the most values the program holds at once */
    unsigned reads;      /* bit f set when the residual loads feature f */
} Split;

static void free_split(Split *S)
{
    free(S->code);
    free(S->imm);
    free(S->lo);
    free(S->hi);
    memset(S, 0, sizeof(*S));
}

/* Splits program code[0..n) into the residual a scan runs and the
 * maximal subtrees it hoists: those whose leaves are only fixed
 * features and constants, a lone constant excepted (it is as cheap to
 * push as to load).  A hoisted subtree keeps its place in postfix
 * order, so the residual computes what the program computes.  Returns
 * 0, or -3 on allocation failure. */
static int split_program(int n, const int *code, const double *imm,
                         Split *S)
{
    size_t len = (size_t)n + 1;
    int *first = (int *)malloc(sizeof(int) * len);
    int *parent = (int *)malloc(sizeof(int) * len);
    int *pending = (int *)malloc(sizeof(int) * len);
    int *end_at = (int *)malloc(sizeof(int) * len);
    unsigned char *fixed = (unsigned char *)malloc(len);
    int pc, k, sp = -1, status = -3;

    memset(S, 0, sizeof(*S));
    S->code = (int *)malloc(sizeof(int) * len);
    S->imm = (double *)malloc(sizeof(double) * len);
    S->lo = (int *)malloc(sizeof(int) * len);
    S->hi = (int *)malloc(sizeof(int) * len);
    if (!first || !parent || !pending || !end_at || !fixed || !S->code
            || !S->imm || !S->lo || !S->hi)
        goto done;
    /* Each node's first opcode, its parent and whether it is fixed. */
    for (pc = 0; pc < n; pc++) {
        int op = code[pc];
        parent[pc] = -1;
        end_at[pc] = -1;
        if (op <= OP_CONST) {
            first[pc] = pc;
            fixed[pc] = op == OP_CONST || ((FIXED_FEATURES >> op) & 1);
            pending[++sp] = pc;
            if (sp + 1 > S->depth)
                S->depth = sp + 1;
        } else if (op <= OP_LOG1P) {
            int child = pending[sp];
            first[pc] = first[child];
            fixed[pc] = fixed[child];
            parent[child] = pc;
            pending[sp] = pc;
        } else {
            int right = pending[sp--], left = pending[sp];
            first[pc] = first[left];
            fixed[pc] = fixed[left] & fixed[right];
            parent[left] = parent[right] = pc;
            pending[sp] = pc;
        }
    }
    for (pc = 0; pc < n; pc++)
        if (fixed[pc] && code[pc] != OP_CONST
                && (parent[pc] < 0 || !fixed[parent[pc]]))
            end_at[first[pc]] = pc;
    for (k = 0; k < n; S->n_code++) {
        if (end_at[k] >= 0) {
            S->lo[S->n_slots] = k;
            S->hi[S->n_slots] = end_at[k] + 1;
            S->code[S->n_code] = OP_SLOT + S->n_slots++;
            S->imm[S->n_code] = 0.0;
            k = end_at[k] + 1;
        } else {
            if (code[k] < N_FEATURES)
                S->reads |= 1u << code[k];
            S->code[S->n_code] = code[k];
            S->imm[S->n_code] = imm[k];
            k++;
        }
    }
    status = 0;

done:
    free(first);
    free(parent);
    free(pending);
    free(end_at);
    free(fixed);
    if (status != 0)
        free_split(S);
    return status;
}

/* One workload's priority cells: the trace and links they replay, the
 * program they score with, and the state one cell runs on. */
typedef struct {
    i64 n_acc;
    const int *trace;
    const i64 *sizes;
    int track_links;
    const int *nb_idx, *nb_split, *nb_dat;
    const unsigned char *sf;
    size_t n;               /* blocks + 1: the stride of every column */
    Split split;
    double *slots;          /* hoisted value j of block b at [j * n + b] */
    int *order;             /* the residents in insertion order */
    i64 *born, *touch, *hits;
    unsigned char *res;
    /* The scan: the VM's column table, over the dynamic feature
     * columns and the residents' hoisted values (value j of resident
     * i at held[j * n + i]), and its stack. */
    const double **cols;
    double *age, *hot, *rec, *occ, *held;
    double *stack;
} Cells;

/* Frees what priority_pass allocates per program. */
static void free_program(Cells *C)
{
    free_split(&C->split);
    free(C->cols);
    free(C->stack);
    free(C->slots);
    free(C->held);
    C->cols = NULL;
    C->stack = C->slots = C->held = NULL;
}

/* The index in insertion order of the first resident whose score is
 * strictly lower than every earlier one's, scored with the features
 * the residual program reads at this clock and occupancy. */
static int pick_victim(Cells *C, int n_res, i64 clock, double occupancy)
{
    const Split *S = &C->split;
    const int *order = C->order;
    double lowest = HUGE_VAL;
    int i, j, v = -1;
    if (S->reads & (1u << F_AGE))
        for (i = 0; i < n_res; i++)
            C->age[i] = (double)(clock - C->born[order[i]]);
    if (S->reads & (1u << F_HOTNESS))
        for (i = 0; i < n_res; i++)
            C->hot[i] = (double)C->hits[order[i]];
    if (S->reads & (1u << F_RECENCY))
        for (i = 0; i < n_res; i++)
            C->rec[i] = (double)(clock - C->touch[order[i]]);
    if (S->reads & (1u << F_OCCUPANCY))
        for (i = 0; i < n_res; i++)
            C->occ[i] = occupancy;
    for (j = 0; j < S->n_slots; j++) {
        double *held = C->held + j * C->n;
        const double *slot = C->slots + j * C->n;
        for (i = 0; i < n_res; i++)
            held[i] = slot[order[i]];
    }
    vm_score(S->n_code, S->code, S->imm, n_res, C->cols, C->stack);
    for (i = 0; i < n_res; i++)
        if (C->stack[i] < lowest) {
            lowest = C->stack[i];
            v = i;
        }
    return v;
}

/* Simulates one (capacity, expression) cell of PriorityFunctionPolicy
 * under CodeCacheSimulator.  The policy's clock advances once per
 * access, hit or miss, so clock = access index + 1; a hit sets the
 * block's last touch to the clock and counts a hit; an insert starts
 * the block at insert clock = last touch = clock with no hits and
 * appends it to the residents in insertion order.  Each victim is the
 * first resident whose score is strictly lower than every earlier
 * one's, scored with occupancy = used / cap as it stands before that
 * victim.  Links follow the fifo geometry: each victim is its own
 * eviction event, accounted when it is chosen.  Writes N_OUT counters
 * to out.  Returns 0, or -2 when no resident block can make room (cap
 * below the largest block). */
static int priority_cell(Cells *C, i64 cap, i64 *out)
{
    const i64 *sizes = C->sizes;
    const int *nb_idx = C->nb_idx, *nb_dat = C->nb_dat;
    unsigned char *res = C->res;
    i64 a, used = 0;
    i64 misses = 0, ins = 0, inv = 0, evB = 0, ulops = 0, ulrem = 0;
    i64 intra = 0, inter = 0, live = 0, plive = 0;
    int k, n_res = 0;

    memset(res, 0, C->n);
    for (a = 0; a < C->n_acc; a++) {
        int sid = C->trace[a];
        i64 clock = a + 1, size;
        if (res[sid]) {
            C->touch[sid] = clock;
            C->hits[sid]++;
            continue;
        }
        size = sizes[sid];
        misses++;
        ins += size;
        while (used + size > cap) {
            int v, b;
            if (n_res == 0)
                return -2;
            v = pick_victim(C, n_res, clock, (double)used / (double)cap);
            if (v < 0)
                return -2;
            b = C->order[v];
            n_res--;
            memmove(C->order + v, C->order + v + 1,
                    sizeof(int) * (size_t)(n_res - v));
            used -= sizes[b];
            inv++;
            evB += sizes[b];
            if (C->track_links) {
                int sp = C->nb_split[b], end = nb_idx[b + 1];
                i64 sur = 0, outd = 0;
                for (k = nb_idx[b]; k < sp; k++)
                    outd += res[nb_dat[k]];
                for (; k < end; k++)
                    sur += res[nb_dat[k]];
                ulops += sur != 0;
                ulrem += sur;
                live -= sur + C->sf[b] + outd;
            }
            res[b] = 0;
        }
        C->order[n_res++] = sid;
        C->born[sid] = clock;
        C->touch[sid] = clock;
        C->hits[sid] = 0;
        used += size;
        res[sid] = 1;
        if (C->track_links) {
            i64 ln = 0, s = C->sf[sid];
            for (k = nb_idx[sid]; k < nb_idx[sid + 1]; k++)
                ln += res[nb_dat[k]];
            inter += ln;
            intra += s;
            live += ln + s;
            plive = live > plive ? live : plive;
        }
    }
    out[0] = misses;
    out[1] = ins;
    out[2] = inv;
    out[3] = inv;
    out[4] = evB;
    out[5] = ulops;
    out[6] = ulrem;
    out[7] = intra;
    out[8] = inter;
    out[9] = plive;
    return 0;
}

/* Simulates a workload's priority cells over one marshalled trace.
 * Program p is code[bounds[p]..bounds[p + 1]) with its immediates;
 * cell c runs program programs[c] at capacity caps[c] and writes
 * N_OUT counters to out + c * N_OUT.  Each program is split and its
 * hoisted values scored for every block once, however many cells run
 * it.  in_deg/out_deg are the raw degrees the policy reads:
 * len(incoming) and len(outgoing), self-loops and repeated out-links
 * included.  Returns 0, -2 when a cell's capacity is below the
 * largest block, or -3 on allocation failure. */
int priority_pass(
    i64 n_acc, const int *trace,
    int n_blocks, const i64 *sizes,
    const int *in_deg, const int *out_deg,
    int track_links,
    const int *nb_idx, const int *nb_split, const int *nb_dat,
    const unsigned char *sf,
    int n_programs, const int *bounds, const int *code, const double *imm,
    int n_cells, const int *programs, const i64 *caps,
    i64 *out)
{
    size_t n = (size_t)n_blocks + 1;
    double *fixed = (double *)malloc(sizeof(double) * 3 * n);
    double *dyn = (double *)malloc(sizeof(double) * 4 * n);
    Cells C;
    int b, c, j, p, status = -3;

    memset(&C, 0, sizeof(C));
    C.n_acc = n_acc;
    C.trace = trace;
    C.sizes = sizes;
    C.track_links = track_links;
    C.nb_idx = nb_idx;
    C.nb_split = nb_split;
    C.nb_dat = nb_dat;
    C.sf = sf;
    C.n = n;
    C.order = (int *)malloc(sizeof(int) * n);
    C.born = (i64 *)malloc(sizeof(i64) * n);
    C.touch = (i64 *)malloc(sizeof(i64) * n);
    C.hits = (i64 *)malloc(sizeof(i64) * n);
    C.res = (unsigned char *)malloc(n);
    if (!fixed || !dyn || !C.order || !C.born || !C.touch || !C.hits
            || !C.res)
        goto done;
    C.age = dyn;
    C.hot = dyn + n;
    C.rec = dyn + 2 * n;
    C.occ = dyn + 3 * n;
    for (b = 0; b < n_blocks; b++) {
        fixed[b] = (double)sizes[b];
        fixed[n + b] = (double)in_deg[b];
        fixed[2 * n + b] = (double)out_deg[b];
    }

    for (p = 0; p < n_programs; p++) {
        const int *pcode = code + bounds[p];
        const double *pimm = imm + bounds[p];
        size_t width;
        status = -3;
        if (split_program(bounds[p + 1] - bounds[p], pcode, pimm,
                          &C.split) != 0)
            goto done;
        width = (size_t)C.split.n_slots * n;
        C.cols = (const double **)calloc(
            (size_t)OP_SLOT + (size_t)C.split.n_slots, sizeof(double *));
        C.stack = (double *)malloc(
            sizeof(double) * (size_t)C.split.depth * n);
        C.slots = (double *)malloc(sizeof(double) * (width + 1));
        C.held = (double *)malloc(sizeof(double) * (width + 1));
        if (!C.cols || !C.stack || !C.slots || !C.held)
            goto done;

        /* The prelude: each hoisted subtree over every block. */
        C.cols[F_SIZE] = fixed;
        C.cols[F_IN_DEGREE] = fixed + n;
        C.cols[F_OUT_DEGREE] = fixed + 2 * n;
        for (j = 0; j < C.split.n_slots; j++) {
            int lo = C.split.lo[j];
            vm_score(C.split.hi[j] - lo, pcode + lo, pimm + lo, n_blocks,
                     C.cols, C.stack);
            memcpy(C.slots + j * n, C.stack, sizeof(double) * n_blocks);
        }

        /* The scan reads dynamic features and residents' hoisted
         * values only. */
        C.cols[F_SIZE] = C.cols[F_IN_DEGREE] = C.cols[F_OUT_DEGREE] = NULL;
        C.cols[F_AGE] = C.age;
        C.cols[F_HOTNESS] = C.hot;
        C.cols[F_RECENCY] = C.rec;
        C.cols[F_OCCUPANCY] = C.occ;
        for (j = 0; j < C.split.n_slots; j++)
            C.cols[OP_SLOT + j] = C.held + j * n;
        for (c = 0; c < n_cells; c++) {
            if (programs[c] != p)
                continue;
            status = priority_cell(&C, caps[c], out + (i64)c * N_OUT);
            if (status != 0)
                goto done;
        }
        free_program(&C);
    }
    status = 0;

done:
    free_program(&C);
    free(C.order);
    free(C.born);
    free(C.touch);
    free(C.hits);
    free(C.res);
    free(fixed);
    free(dyn);
    return status;
}

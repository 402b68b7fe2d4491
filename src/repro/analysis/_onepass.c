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
 * The priority-function cell (priority_pass) is the one place doubles
 * appear: it scores resident blocks with a postfix expression VM whose
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
 */

#define N_FEATURES 7
#define SCORE_LIMIT 1e18

enum {
    OP_CONST = N_FEATURES, OP_NEG, OP_LOG1P,
    OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MIN, OP_MAX
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

/* Scores one feature vector (N_FEATURES doubles in FEATURES order) as
 * expr.evaluate does: feature reads and the results of neg, add, sub,
 * mul and div are clamped; div by a divisor inside +-1e-9 yields the
 * clamped numerator; log1p reads the magnitude; constants, log1p, min
 * and max pass through unclamped.  stack holds the program's depth.
 * priority_pass's victim scan calls this same function. */
double vm_score(int n_code, const int *code, const double *imm,
                const double *feat, double *stack)
{
    int pc, sp = -1;
    for (pc = 0; pc < n_code; pc++) {
        int op = code[pc];
        double r;
        if (op < N_FEATURES) {
            stack[++sp] = clamp(feat[op]);
            continue;
        }
        switch (op) {
        case OP_CONST:
            stack[++sp] = imm[pc];
            continue;
        case OP_NEG:
            stack[sp] = clamp(-stack[sp]);
            continue;
        case OP_LOG1P:
            stack[sp] = log1p(fabs(stack[sp]));
            continue;
        }
        r = stack[sp--];
        switch (op) {
        case OP_ADD:
            stack[sp] = clamp(stack[sp] + r);
            break;
        case OP_SUB:
            stack[sp] = clamp(stack[sp] - r);
            break;
        case OP_MUL:
            stack[sp] = clamp(stack[sp] * r);
            break;
        case OP_DIV:
            stack[sp] = clamp((-1e-9 < r && r < 1e-9) ? stack[sp]
                                                      : stack[sp] / r);
            break;
        case OP_MIN:
            if (r < stack[sp])
                stack[sp] = r;
            break;
        case OP_MAX:
            if (r > stack[sp])
                stack[sp] = r;
            break;
        }
    }
    return stack[0];
}

/* Simulates one (capacity, expression) cell of PriorityFunctionPolicy
 * under CodeCacheSimulator.  The policy's clock advances once per
 * access, hit or miss, so clock = access index + 1; a hit sets the
 * block's last touch to the clock and counts a hit; an insert starts
 * the block at insert clock = last touch = clock with no hits and
 * appends it to an insertion-ordered doubly linked list.  Each victim
 * is the first listed block whose score is strictly lower than every
 * earlier one's, scored with occupancy = used / cap as it stands
 * before that victim.  in_deg/out_deg are the raw degrees the policy
 * reads: len(incoming) and len(outgoing), self-loops and repeated
 * out-links included.  Links follow the fifo geometry: each victim is
 * its own eviction event, accounted when it is chosen.  Writes N_OUT
 * counters to out.  Returns 0 on success, -2 when no resident block
 * can make room (cap below the largest block), -3 on allocation
 * failure. */
int priority_pass(
    i64 n_acc, const int *trace,
    int n_blocks, const i64 *sizes,
    const int *in_deg, const int *out_deg,
    int track_links,
    const int *nb_idx, const int *nb_split, const int *nb_dat,
    const unsigned char *sf,
    i64 cap,
    int n_code, const int *code, const double *imm, int depth,
    i64 *out)
{
    size_t n = (size_t)n_blocks + 1;
    i64 *born = (i64 *)malloc(sizeof(i64) * n);
    i64 *touch = (i64 *)malloc(sizeof(i64) * n);
    i64 *hits = (i64 *)malloc(sizeof(i64) * n);
    int *prev = (int *)malloc(sizeof(int) * n);
    int *next = (int *)malloc(sizeof(int) * n);
    unsigned char *res = (unsigned char *)calloc(n, 1);
    double *stack = (double *)malloc(sizeof(double) * ((size_t)depth + 1));
    double feat[N_FEATURES];
    i64 a, used = 0;
    i64 misses = 0, ins = 0, inv = 0, evB = 0, ulops = 0, ulrem = 0;
    i64 intra = 0, inter = 0, live = 0, plive = 0;
    int k, head = -1, tail = -1, status = -3;

    if (!born || !touch || !hits || !prev || !next || !res || !stack)
        goto done;
    status = -2;
    for (a = 0; a < n_acc; a++) {
        int sid = trace[a];
        i64 clock = a + 1, size;
        if (res[sid]) {
            touch[sid] = clock;
            hits[sid]++;
            continue;
        }
        size = sizes[sid];
        misses++;
        ins += size;
        while (used + size > cap) {
            double lowest = HUGE_VAL;
            int b, v = -1;
            feat[6] = (double)used / (double)cap;
            for (b = head; b >= 0; b = next[b]) {
                double s;
                feat[0] = (double)(clock - born[b]);
                feat[1] = (double)sizes[b];
                feat[2] = (double)in_deg[b];
                feat[3] = (double)out_deg[b];
                feat[4] = (double)hits[b];
                feat[5] = (double)(clock - touch[b]);
                s = vm_score(n_code, code, imm, feat, stack);
                if (s < lowest) {
                    lowest = s;
                    v = b;
                }
            }
            if (v < 0)
                goto done;
            if (prev[v] >= 0)
                next[prev[v]] = next[v];
            else
                head = next[v];
            if (next[v] >= 0)
                prev[next[v]] = prev[v];
            else
                tail = prev[v];
            used -= sizes[v];
            inv++;
            evB += sizes[v];
            if (track_links) {
                int sp = nb_split[v], end = nb_idx[v + 1];
                i64 sur = 0, outd = 0;
                for (k = nb_idx[v]; k < sp; k++)
                    outd += res[nb_dat[k]];
                for (; k < end; k++)
                    sur += res[nb_dat[k]];
                ulops += sur != 0;
                ulrem += sur;
                live -= sur + sf[v] + outd;
            }
            res[v] = 0;
        }
        prev[sid] = tail;
        next[sid] = -1;
        if (tail >= 0)
            next[tail] = sid;
        else
            head = sid;
        tail = sid;
        born[sid] = clock;
        touch[sid] = clock;
        hits[sid] = 0;
        used += size;
        res[sid] = 1;
        if (track_links) {
            i64 ln = 0, s = sf[sid];
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
    status = 0;

done:
    free(born);
    free(touch);
    free(hits);
    free(prev);
    free(next);
    free(res);
    free(stack);
    return status;
}

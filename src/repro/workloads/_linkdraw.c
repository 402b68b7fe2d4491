/*
 * The link graph's per-link draws (repro.workloads.linkgraph).
 *
 * For every outward link of every block this takes the two draws the
 * Python loop takes, in the same order and from the same generator:
 * numpy's own geometric sampler (random_geometric, the function
 * Generator.geometric calls, linked from numpy's libnpyrandom.a) for
 * the id distance, then one next_double (Generator.random) for the
 * sign.  The caller passes the Generator's bit generator and holds its
 * lock, so the generator's state afterwards is exactly the Python
 * loop's.  Targets are reflected off both ends of the id space and
 * deduplicated in first-seen order, and the rows come out as CSR
 * columns.
 */
#include <stdint.h>
#include <stdlib.h>

#include "numpy/random/bitgen.h"

extern int64_t random_geometric(bitgen_t *bitgen_state, double p);

/*
 * Block b's outgoing targets go to targets[offsets[b]:offsets[b + 1]]:
 * itself first when self_loops[b] is set, then its outward[b] drawn
 * targets that are neither itself nor already in the row.  offsets
 * has count + 1 slots and targets room for every self-loop and draw.
 * Returns 0, or -3 when the row-mark array cannot be allocated.
 */
int draw_links(bitgen_t *bitgen, int64_t count, const uint8_t *self_loops,
               const int64_t *outward, double p, int64_t *offsets,
               int64_t *targets)
{
    /* mark[t] is the last block whose row took target t. */
    int64_t *mark = malloc((size_t)count * sizeof *mark);
    if (!mark)
        return -3;
    for (int64_t t = 0; t < count; t++)
        mark[t] = -1;
    /* A distance of 3 * count or more reflects to block 0 either way,
       so longer ones (numpy caps them at INT64_MAX, not C's overflow
       limit) are clamped to it. */
    const int64_t far = 3 * count;
    int64_t n = 0;
    offsets[0] = 0;
    for (int64_t sid = 0; sid < count; sid++) {
        if (self_loops[sid]) {
            mark[sid] = sid;
            targets[n++] = sid;
        }
        for (int64_t k = 0; k < outward[sid]; k++) {
            int64_t distance = random_geometric(bitgen, p);
            double sign = bitgen->next_double(bitgen->state);
            if (distance > far)
                distance = far;
            int64_t target = sign < 0.5 ? sid + distance : sid - distance;
            if (target < 0)
                target = -target;
            if (target >= count) {
                target = 2 * (count - 1) - target;
                if (target < 0)
                    target = 0;
            }
            if (target != sid && mark[target] != sid) {
                mark[target] = sid;
                targets[n++] = target;
            }
        }
        offsets[sid + 1] = n;
    }
    free(mark);
    return 0;
}

/*
 * Compiled Theorem-1 search (see search_kernel.py, which binds and
 * self-checks it).  Both entry points search one fault set and are called
 * once per fault set from the Python loops over fault sets:
 *
 * sweep_fault_set is the exhaustive sweep of bitset.py's _search_fault_set
 * (which stays as the NumPy fallback and the oracle): every candidate L
 * mask in ascending order, the insulation test, then the deletion closure
 * of the complement, the first (L, R) returned.
 *
 * solve_universe is exact.py's _UniverseSolver.solve (which stays as the
 * Python fallback and the oracle): the DPLL search with unit propagation
 * on the outside-degree counters, the seeding on one trail, the first
 * unassigned node as pivot, the labels tried in the order L, R, C, and the
 * decision budget counted exactly as there.  Propagation pops its queue
 * last in, first out and walks each node's out-neighbours in the order
 * given, as the Python solver does.
 */

#include <stdint.h>
#include <stdlib.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT(x) __builtin_popcountll(x)
#define LOWEST(x) __builtin_ctzll(x)
#else
static int POPCOUNT(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}
static int LOWEST(uint64_t x)
{
    return POPCOUNT((x & (0 - x)) - 1);
}
#endif

/* ------------------------------------------------------------------------
 * The exhaustive sweep
 * ------------------------------------------------------------------------ */

/* Whether no member of set has threshold or more in-neighbours in outside. */
static int insulated(const uint64_t *in_masks, uint64_t set, uint64_t outside,
                     int64_t threshold)
{
    while (set) {
        if (POPCOUNT(in_masks[LOWEST(set)] & outside) >= threshold) {
            return 0;
        }
        set &= set - 1;
    }
    return 1;
}

/* The deletion closure of pool inside universe: delete every node with
   threshold or more in-neighbours outside the current set until none is
   left.  The closure is confluent, so the deletion order does not change
   the fixed point. */
static uint64_t closure(const uint64_t *in_masks, uint64_t pool,
                        uint64_t universe, int64_t threshold)
{
    uint64_t current = pool;
    int changed = 1;
    while (changed && current) {
        changed = 0;
        uint64_t outside = universe & ~current;
        for (uint64_t scan = current; scan; scan &= scan - 1) {
            uint64_t low = scan & (0 - scan);
            if (POPCOUNT(in_masks[LOWEST(scan)] & outside) >= threshold) {
                current ^= low;
                outside |= low;
                changed = 1;
            }
        }
    }
    return current;
}

/* Sweep the candidate L masks 1 ... 2^count - 2 of one fault set.
   in_masks[i] is surviving node i's in-neighbour word over the count
   surviving nodes (count <= 64).  Returns 1 and stores L and R in found[0]
   and found[1] for the first insulated L whose complement closes to a
   non-empty R, or 0 when there is none. */
int sweep_fault_set(const uint64_t *in_masks, int64_t count, int64_t threshold,
                    uint64_t *found)
{
    /* 1 << 64 is undefined in C: 64 surviving nodes fill the word. */
    uint64_t full = count >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << count) - 1;
    for (uint64_t mask = 1; mask < full; mask++) {
        uint64_t outside = full & ~mask;
        if (!insulated(in_masks, mask, outside, threshold)) {
            continue;
        }
        uint64_t right = closure(in_masks, outside, full, threshold);
        if (right) {
            found[0] = mask;
            found[1] = right;
            return 1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * The DPLL solver
 * ------------------------------------------------------------------------ */

enum { LABEL_L = 1, LABEL_R = 2, LABEL_C = 3 };
enum { BIT_L = 1, BIT_R = 2, DOMAIN_ALL = 7, DOMAIN_C_ONLY = 4 };
static const int8_t DOMAIN_BIT[4] = {0, 1, 2, 4};

/* Trail entries, as in exact.py: an assignment, a not_l bump, a not_r
   bump, or a domain change with the old domain. */
enum { TRAIL_ASSIGN, TRAIL_NOT_L, TRAIL_NOT_R, TRAIL_DOMAIN };

typedef struct {
    int64_t kind, node, payload;
} Entry;

typedef struct {
    int64_t node, label;
} Pending;

typedef struct {
    int64_t m, tau, limit, decisions;
    const int64_t *starts, *successors;
    int8_t *assigned, *allowed;
    int64_t *not_l, *not_r;
    Entry *trail;
    int64_t trail_size;
    Pending *queue;
    int64_t queue_size;
} Solver;

static void push(Solver *s, int64_t kind, int64_t node, int64_t payload)
{
    Entry *entry = &s->trail[s->trail_size++];
    entry->kind = kind;
    entry->node = node;
    entry->payload = payload;
}

/* Roll the state back to trail position mark. */
static void undo(Solver *s, int64_t mark)
{
    while (s->trail_size > mark) {
        Entry *entry = &s->trail[--s->trail_size];
        switch (entry->kind) {
        case TRAIL_ASSIGN:
            s->assigned[entry->node] = 0;
            break;
        case TRAIL_NOT_L:
            s->not_l[entry->node]--;
            break;
        case TRAIL_NOT_R:
            s->not_r[entry->node]--;
            break;
        default:
            s->allowed[entry->node] = (int8_t)entry->payload;
        }
    }
}

/* Remove domain bit from node; queue node := C when only C is left.
   Returns 0 on conflict (node already holds the removed label).  *queued
   counts the entries queued. */
static int restrict_domain(Solver *s, int64_t node, int bit, Pending *queue,
                           int64_t *queued)
{
    int label = bit == BIT_L ? LABEL_L : LABEL_R;
    if (s->assigned[node] == label) {
        return 0;
    }
    if (s->assigned[node] == 0 && (s->allowed[node] & bit)) {
        push(s, TRAIL_DOMAIN, node, s->allowed[node]);
        s->allowed[node] &= (int8_t)~bit;
        if (s->allowed[node] == DOMAIN_C_ONLY) {
            queue[*queued].node = node;
            queue[*queued].label = LABEL_C;
            (*queued)++;
        }
    }
    return 1;
}

/* Assign node := label and propagate; 0 on conflict (the caller undoes
   the trail). */
static int assign(Solver *s, int64_t node, int64_t label)
{
    int64_t queued = 1;
    s->queue[0].node = node;
    s->queue[0].label = label;
    while (queued) {
        queued--;
        int64_t current = s->queue[queued].node;
        int64_t value = s->queue[queued].label;
        if (s->assigned[current]) {
            if (s->assigned[current] != value) {
                return 0;
            }
            continue;
        }
        if (!(s->allowed[current] & DOMAIN_BIT[value])) {
            return 0;
        }
        s->assigned[current] = (int8_t)value;
        push(s, TRAIL_ASSIGN, current, 0);
        const int64_t *first = s->successors + s->starts[current];
        const int64_t *last = s->successors + s->starts[current + 1];
        if (value != LABEL_L) {
            for (const int64_t *next = first; next < last; next++) {
                s->not_l[*next]++;
                push(s, TRAIL_NOT_L, *next, 0);
                if (s->not_l[*next] == s->tau
                    && !restrict_domain(s, *next, BIT_L, s->queue, &queued)) {
                    return 0;
                }
            }
        }
        if (value != LABEL_R) {
            for (const int64_t *next = first; next < last; next++) {
                s->not_r[*next]++;
                push(s, TRAIL_NOT_R, *next, 0);
                if (s->not_r[*next] == s->tau
                    && !restrict_domain(s, *next, BIT_R, s->queue, &queued)) {
                    return 0;
                }
            }
        }
    }
    return 1;
}

/* Depth-first search over the unassigned nodes: 1 found, 0 none, -1 the
   decision budget ran out. */
static int dfs(Solver *s)
{
    int64_t pivot = -1;
    for (int64_t node = 0; node < s->m; node++) {
        if (!s->assigned[node]) {
            pivot = node;
            break;
        }
    }
    if (pivot < 0) {
        return 1;
    }
    s->decisions++;
    if (s->decisions > s->limit) {
        return -1;
    }
    for (int64_t label = LABEL_L; label <= LABEL_C; label++) {
        if (!(s->allowed[pivot] & DOMAIN_BIT[label])) {
            continue;
        }
        int64_t mark = s->trail_size;
        if (assign(s, pivot, label)) {
            int found = dfs(s);
            if (found) {
                return found;
            }
        }
        undo(s, mark);
    }
    return 0;
}

/* The seeding on one trail of _UniverseSolver.solve. */
static int seed_and_search(Solver *s)
{
    for (int64_t i = 0; i < s->m - 1; i++) {
        int64_t before_left = s->trail_size;
        if (assign(s, i, LABEL_L)) {
            for (int64_t j = i + 1; j < s->m; j++) {
                int64_t before_right = s->trail_size;
                if (assign(s, j, LABEL_R)) {
                    int found = dfs(s);
                    if (found) {
                        return found;
                    }
                }
                undo(s, before_right);
                Pending barred[1];
                int64_t queued = 0;
                if (!restrict_domain(s, j, BIT_R, barred, &queued)
                    || (queued && !assign(s, j, LABEL_C))) {
                    break;
                }
            }
        }
        undo(s, before_left);
        if (!assign(s, i, LABEL_C)) {
            return 0;
        }
    }
    return 0;
}

/* Search one universe of m nodes for a violating labelling.  Node x's
   out-neighbours inside the universe are successors[starts[x]] ...
   successors[starts[x + 1] - 1].  *decisions carries the decisions made
   so far across fault sets; the search stops once it would pass limit.
   Returns 1 with the labels (1 = L, 2 = R, 3 = C) in labels, 0 when there
   is no violating labelling, -1 when the budget ran out, -2 when the work
   buffers cannot be allocated. */
int solve_universe(int64_t m, const int64_t *starts, const int64_t *successors,
                   int64_t tau, int64_t limit, int64_t *decisions,
                   int8_t *labels)
{
    if (m < 2 || tau <= 0) {
        return 0;
    }
    /* Each node is assigned once, loses each of L and R once and bumps
       each out-neighbour's two counters once while on the trail. */
    int64_t edges = starts[m];
    Solver s = {m, tau, limit, *decisions, starts, successors};
    s.assigned = calloc((size_t)m, sizeof(int8_t));
    s.allowed = malloc((size_t)m * sizeof(int8_t));
    s.not_l = calloc((size_t)m, sizeof(int64_t));
    s.not_r = calloc((size_t)m, sizeof(int64_t));
    s.trail = malloc((size_t)(3 * m + 2 * edges) * sizeof(Entry));
    s.queue = malloc((size_t)(m + 1) * sizeof(Pending));
    int result = -2;
    if (s.assigned && s.allowed && s.not_l && s.not_r && s.trail && s.queue) {
        for (int64_t node = 0; node < m; node++) {
            s.allowed[node] = DOMAIN_ALL;
        }
        result = seed_and_search(&s);
        *decisions = s.decisions;
        if (result == 1) {
            for (int64_t node = 0; node < m; node++) {
                labels[node] = s.assigned[node];
            }
        }
    }
    free(s.assigned);
    free(s.allowed);
    free(s.not_l);
    free(s.not_r);
    free(s.trail);
    free(s.queue);
    return result;
}

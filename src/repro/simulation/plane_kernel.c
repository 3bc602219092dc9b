/*
 * Compiled plane kernel of the batch engines (see native.py, which builds,
 * loads and self-checks it, and reduce_plane in vectorized.py, which is
 * its only caller and holds the NumPy form of the same round).
 *
 * For every batch row and every fault-free receiver, one pass gathers the
 * receiver's received values through its plane slots, sorts them in
 * np.sort's order (NaN last), drops the f smallest and the f largest, and
 * then either averages the survivors with the receiver's own value --
 * summed left to right starting from the own value, np.cumsum's order --
 * or takes the midpoint of own and survivors.  The float32 mean is clamped
 * into the local trim hull exactly as the NumPy kernel clamps it.
 *
 * Every operation must round as the NumPy ufuncs do, so the library is
 * built with -ffp-contract=off and without fast-math.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Values are sorted by min/max compare-exchange networks in registers,
   padded with +inf (which sorts after every number): up to 8 values by the
   8-network, more in runs of RUN by the 16-network, merged bottom-up. */
#define RUN 16

/* Compare-exchange: v[a] gets the smaller value, v[b] the larger (equal
   values stay put, so -0.0 and 0.0 are kept).  The indices are constants,
   so v stays in registers, and the two comparisons compile to branch-free
   min and max instructions. */
#define CE(T, v, a, b)                                                        \
    do {                                                                      \
        T x_ = v[a], y_ = v[b];                                               \
        v[a] = y_ < x_ ? y_ : x_;                                             \
        v[b] = x_ < y_ ? y_ : x_;                                             \
    } while (0)

/* The 19-comparator network for 8 values. */
#define NETWORK8(T, v)                                                        \
    CE(T, v, 0, 2); CE(T, v, 1, 3); CE(T, v, 4, 6); CE(T, v, 5, 7);           \
    CE(T, v, 0, 4); CE(T, v, 1, 5); CE(T, v, 2, 6); CE(T, v, 3, 7);           \
    CE(T, v, 0, 1); CE(T, v, 2, 3); CE(T, v, 4, 5); CE(T, v, 6, 7);           \
    CE(T, v, 2, 4); CE(T, v, 3, 5);                                           \
    CE(T, v, 1, 4); CE(T, v, 3, 6);                                           \
    CE(T, v, 1, 2); CE(T, v, 3, 4); CE(T, v, 5, 6)

/* Green's 60-comparator network for 16 values. */
#define NETWORK16(T, v)                                                       \
    CE(T, v, 0, 13); CE(T, v, 1, 12); CE(T, v, 2, 15); CE(T, v, 3, 14);       \
    CE(T, v, 4, 8); CE(T, v, 5, 6); CE(T, v, 7, 11); CE(T, v, 9, 10);         \
    CE(T, v, 0, 5); CE(T, v, 1, 7); CE(T, v, 2, 9); CE(T, v, 3, 4);           \
    CE(T, v, 6, 13); CE(T, v, 8, 14); CE(T, v, 10, 15); CE(T, v, 11, 12);     \
    CE(T, v, 0, 1); CE(T, v, 2, 3); CE(T, v, 4, 5); CE(T, v, 6, 8);           \
    CE(T, v, 7, 9); CE(T, v, 10, 11); CE(T, v, 12, 13); CE(T, v, 14, 15);     \
    CE(T, v, 0, 2); CE(T, v, 1, 3); CE(T, v, 4, 10); CE(T, v, 5, 11);         \
    CE(T, v, 6, 7); CE(T, v, 8, 9); CE(T, v, 12, 14); CE(T, v, 13, 15);       \
    CE(T, v, 1, 2); CE(T, v, 3, 12); CE(T, v, 4, 6); CE(T, v, 5, 7);          \
    CE(T, v, 8, 10); CE(T, v, 9, 11); CE(T, v, 13, 14);                       \
    CE(T, v, 1, 4); CE(T, v, 2, 6); CE(T, v, 5, 8); CE(T, v, 7, 10);          \
    CE(T, v, 9, 13); CE(T, v, 11, 14);                                        \
    CE(T, v, 2, 4); CE(T, v, 3, 6); CE(T, v, 9, 12); CE(T, v, 11, 13);        \
    CE(T, v, 3, 5); CE(T, v, 6, 8); CE(T, v, 7, 9); CE(T, v, 10, 12);         \
    CE(T, v, 3, 4); CE(T, v, 5, 6); CE(T, v, 7, 8); CE(T, v, 9, 10);          \
    CE(T, v, 11, 12);                                                         \
    CE(T, v, 6, 7); CE(T, v, 8, 9)

#define LOAD8(v, a, o)                                                        \
    v[o] = a[o]; v[o + 1] = a[o + 1]; v[o + 2] = a[o + 2];                    \
    v[o + 3] = a[o + 3]; v[o + 4] = a[o + 4]; v[o + 5] = a[o + 5];            \
    v[o + 6] = a[o + 6]; v[o + 7] = a[o + 7]

#define STORE8(a, v, o)                                                       \
    a[o] = v[o]; a[o + 1] = v[o + 1]; a[o + 2] = v[o + 2];                    \
    a[o + 3] = v[o + 3]; a[o + 4] = v[o + 4]; a[o + 5] = v[o + 5];            \
    a[o + 6] = v[o + 6]; a[o + 7] = v[o + 7]

#define PLANE_KERNEL(T, SUFFIX, CLAMP)                                        \
                                                                              \
/* np.minimum and np.maximum: a NaN operand gives NaN. */                     \
static T min_##SUFFIX(T a, T b) { return (a != a || a < b) ? a : b; }         \
static T max_##SUFFIX(T a, T b) { return (a != a || a > b) ? a : b; }         \
                                                                              \
/* np.clip: a NaN in any operand gives NaN. */                                \
static T clip_##SUFFIX(T x, T low, T high)                                    \
{                                                                             \
    T t = (x != x || x > low) ? x : low;                                      \
    return (t != t || t < high) ? t : high;                                   \
}                                                                             \
                                                                              \
/* Sort a[0:8] and a[0:16] with the networks. */                           \
static void network8_##SUFFIX(T *a)                                           \
{                                                                             \
    T v[8];                                                                   \
    LOAD8(v, a, 0);                                                           \
    NETWORK8(T, v);                                                           \
    STORE8(a, v, 0);                                                          \
}                                                                             \
static void network16_##SUFFIX(T *a)                                          \
{                                                                             \
    T v[16];                                                                  \
    LOAD8(v, a, 0);                                                           \
    LOAD8(v, a, 8);                                                           \
    NETWORK16(T, v);                                                          \
    STORE8(a, v, 0);                                                          \
    STORE8(a, v, 8);                                                          \
}                                                                             \
                                                                              \
/* Ascending sort of the n NaN-free values in a[0:n].  a has room for n      \
   rounded up to a multiple of RUN, which the padding may overwrite; tmp     \
   holds n more. */                                                           \
static void sort_##SUFFIX(T *a, T *tmp, int64_t n)                            \
{                                                                             \
    int64_t padded = n <= 8 ? 8 : (n + RUN - 1) / RUN * RUN;                  \
    for (int64_t k = n; k < padded; k++) {                                    \
        a[k] = (T)INFINITY;                                                   \
    }                                                                         \
    if (n <= 8) {                                                             \
        network8_##SUFFIX(a);                                                 \
        return;                                                               \
    }                                                                         \
    for (int64_t lo = 0; lo < n; lo += RUN) {                                 \
        network16_##SUFFIX(a + lo);                                           \
    }                                                                         \
    T *src = a, *dst = tmp;                                                   \
    for (int64_t width = RUN; width < n; width *= 2) {                        \
        for (int64_t lo = 0; lo < n; lo += 2 * width) {                       \
            int64_t mid = lo + width < n ? lo + width : n;                    \
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;             \
            int64_t i = lo, j = mid, k = lo;                                  \
            while (i < mid && j < hi) {                                       \
                dst[k++] = src[j] < src[i] ? src[j++] : src[i++];             \
            }                                                                 \
            while (i < mid) {                                                 \
                dst[k++] = src[i++];                                          \
            }                                                                 \
            while (j < hi) {                                                  \
                dst[k++] = src[j++];                                          \
            }                                                                 \
        }                                                                     \
        T *swap = src;                                                        \
        src = dst;                                                            \
        dst = swap;                                                           \
    }                                                                         \
    if (src != a) {                                                           \
        memcpy(a, src, (size_t)n * sizeof(T));                                \
    }                                                                         \
}                                                                             \
                                                                              \
/* One round for rows x receivers.  Row r reads source[r * source_width +   \
   slots[k]] for plane slot k; receiver i owns the slots starts[i] to        \
   starts[i + 1] and the state column receivers[i], and no receiver owns     \
   more than max_degree slots.  state and out are rows x width.  Returns 0,  \
   or -1 if the work buffer cannot be allocated. */                          \
int reduce_plane_##SUFFIX(                                                    \
    const T *source, int64_t source_width, int64_t rows,                      \
    const int64_t *slots, const int64_t *receivers, const int64_t *starts,    \
    int64_t receiver_count, int64_t max_degree, const T *state, T *out,       \
    int64_t width, int64_t f, int64_t midpoint)                               \
{                                                                             \
    int64_t size = max_degree > RUN ? (max_degree + RUN - 1) / RUN * RUN : RUN; \
    T *work = malloc(2 * (size_t)size * sizeof(T));                           \
    if (work == NULL) {                                                       \
        return -1;                                                            \
    }                                                                         \
    for (int64_t r = 0; r < rows; r++) {                                      \
        const T *values = source + r * source_width;                          \
        const T *own_row = state + r * width;                                 \
        T *out_row = out + r * width;                                         \
        for (int64_t i = 0; i < receiver_count; i++) {                        \
            const int64_t *slot = slots + starts[i];                          \
            int64_t degree = starts[i + 1] - starts[i];                       \
            /* Numbers first, in any order; NaN goes last, as np.sort puts   \
               it. */                                                         \
            int64_t numbers = 0;                                              \
            for (int64_t k = 0; k < degree; k++) {                            \
                T value = values[slot[k]];                                    \
                work[numbers] = value;                                        \
                numbers += value == value;                                    \
            }                                                                 \
            sort_##SUFFIX(work, work + size, numbers);                        \
            for (int64_t k = numbers; k < degree; k++) {                      \
                work[k] = (T)NAN;                                             \
            }                                                                 \
            T own = own_row[receivers[i]];                                    \
            int64_t kept = degree - 2 * f > 0 ? degree - 2 * f : 0;           \
            T low = own, high = own;                                          \
            if (kept) {                                                       \
                low = min_##SUFFIX(own, work[f]);                             \
                high = max_##SUFFIX(own, work[f + kept - 1]);                 \
            }                                                                 \
            T value;                                                          \
            if (midpoint) {                                                   \
                value = (low + high) / (T)2;                                  \
            } else {                                                          \
                T total = own;                                                \
                for (int64_t k = f; k < f + kept; k++) {                      \
                    total += work[k];                                         \
                }                                                             \
                value = total / (T)(kept + 1);                                \
                if (CLAMP) {                                                  \
                    value = clip_##SUFFIX(value, low, high);                  \
                }                                                             \
            }                                                                 \
            out_row[receivers[i]] = value;                                    \
        }                                                                     \
    }                                                                         \
    free(work);                                                               \
    return 0;                                                                 \
}

PLANE_KERNEL(double, f64, 0)
PLANE_KERNEL(float, f32, 1)

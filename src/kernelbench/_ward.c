/* Ward's step loop, the body of clustering.ward_cuts; its docstring states
 * the algorithm and the tie rule.  clustering builds this file at import
 * with cc -O2 -ffp-contract=off -fPIC -shared: no product is contracted
 * into a fused multiply-add and nothing is reassociated or flushed to zero,
 * so each operation is rounded once, as numpy's elementwise operations
 * are, and subnormal numbers are kept.  The caller checks every shape,
 * dtype and contiguity and passes the scratch arrays, so this file
 * allocates nothing. */

#include <math.h>
#include <stdint.h>

/* np.minimum: the lesser, and a NaN wins. */
static double least(double x, double y)
{
    return (y < x || y != y) ? y : x;
}

/* np.min of x[0..n), n >= 1.  Four chains of x < m, which skips a NaN, so
 * the loop does not wait on one comparison per entry; a NaN is noted apart
 * and wins at the end. */
static double least_of(const double *x, int64_t n)
{
    double m0 = x[0], m1 = x[0], m2 = x[0], m3 = x[0];
    int nan = 0;
    int64_t j = 1;
    for (; j + 4 <= n; j += 4) {
        m0 = x[j] < m0 ? x[j] : m0;
        m1 = x[j + 1] < m1 ? x[j + 1] : m1;
        m2 = x[j + 2] < m2 ? x[j + 2] : m2;
        m3 = x[j + 3] < m3 ? x[j + 3] : m3;
        nan |= (x[j] != x[j]) | (x[j + 1] != x[j + 1]) | (x[j + 2] != x[j + 2])
               | (x[j + 3] != x[j + 3]);
    }
    for (; j < n; j++) {
        m0 = x[j] < m0 ? x[j] : m0;
        nan |= x[j] != x[j];
    }
    return nan ? NAN : least(least(m0, m1), least(m2, m3));
}

/* np.argmax(x <= bound): the first index within the bound, else 0. */
static int64_t first_within(const double *x, int64_t n, double bound)
{
    for (int64_t j = 0; j < n; j++)
        if (x[j] <= bound)
            return j;
    return 0;
}

/* Run ``steps`` Ward merges on each of the ``count`` n-by-n matrices of
 * ``stack`` (squared distances, overwritten).  ``parent`` (count, n)
 * receives each node's parent: the smallest node of the cluster it merged
 * into, or itself.  ``merges`` (count, steps, 4) receives the rows
 * (id_a, id_b, cost, new_size) unless it is NULL.  ``scratch`` holds 3n
 * doubles and ``ids`` n int64s. */
void ward_cuts(double *stack, int64_t count, int64_t n, int64_t steps, double tie_tol,
               double *merges, int64_t *parent, double *scratch, int64_t *ids)
{
    double *row_min = scratch, *sizes = scratch + n, *upd = scratch + 2 * n;
    for (int64_t m = 0; m < count; m++) {
        double *w = stack + m * n * n;
        int64_t *up = parent + m * n;
        for (int64_t i = 0; i < n; i++) {
            double *row = w + i * n;
            for (int64_t j = 0; j < n; j++)
                row[j] /= 2.0;
            row[i] = INFINITY;
            row_min[i] = least_of(row, n);
            sizes[i] = 1.0;
            ids[i] = i;
            up[i] = i;
        }
        for (int64_t step = 0; step < steps; step++) {
            double bound = least_of(row_min, n) + tie_tol;
            int64_t a = first_within(row_min, n, bound);
            double *wa = w + a * n;
            int64_t b = first_within(wa, n, bound);
            double *wb = w + b * n;
            double cost = wa[b], na = sizes[a], nb = sizes[b], ns = na + nb;
            /* Lance-Williams, in numpy's order; inf wherever wa or wb is:
               at a, at b and in dead columns */
            for (int64_t j = 0; j < n; j++) {
                double s = sizes[j];
                double u = (na + s) * wa[j];
                u += (nb + s) * wb[j];
                u -= s * cost;
                u /= ns + s;
                upd[j] = u;
            }
            /* Every live row but a: column a becomes upd and column b dies.
               A row rescans if its least sat at a or b and the merge raised
               it; otherwise it keeps the lesser of its least and upd.  Row
               a is read here and written after.  A dead row (its slot
               merged into another) is left as it is: its least is inf and
               its column holds inf, so no search reaches it. */
            for (int64_t i = 0; i < n; i++) {
                if (i == a || up[i] != i)
                    continue;
                double *row = w + i * n;
                double old = row_min[i];
                int rescan = i != b && least(wa[i], wb[i]) == old && upd[i] > old;
                row[a] = upd[i];
                row[b] = INFINITY;
                row_min[i] = rescan ? least_of(row, n) : least(old, upd[i]);
            }
            row_min[a] = least_of(upd, n);
            for (int64_t j = 0; j < n; j++)
                wa[j] = upd[j];
            wa[b] = INFINITY;
            row_min[b] = INFINITY;
            sizes[a] = ns;
            up[b] = a;
            if (merges) {
                double *out = merges + (m * steps + step) * 4;
                out[0] = (double)ids[a];
                out[1] = (double)ids[b];
                out[2] = cost;
                out[3] = ns;
                ids[a] = n + step;
            }
        }
    }
}

/* Compiled day loop: the same update as _kernels_py.advance, in C.
 *
 * backends.py compiles this file and defines GOLDEN, MIX1, MIX2, RUN_SHIFT
 * and T_SHIFT on the command line from wealthsim.rng, so the counter layout
 * has a single source. The draws and the update order match the numpy
 * kernel, which makes free mode agree bit for bit; that needs the build to
 * forbid contracting a*b+c into a fused multiply-add (-ffp-contract=off).
 * The coupled total is Kahan-compensated, so coupled modes agree to roundoff.
 */
#include <stdint.h>

static inline uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* Advance excess[0..n) in place over days [t0, t0 + n_days). Returns -1, or
 * the first day whose coupled total falls below degen; that total is stored
 * in *bad_total and the day is left unrescaled. */
int64_t advance(double *excess, int64_t n, uint64_t key, uint64_t run,
                int64_t t0, int64_t n_days, double beta, double epsilon,
                double w1, int skewed, int coupled, double target_total,
                double degen, double *bad_total)
{
    for (int64_t t = t0; t < t0 + n_days; t++) {
        uint64_t base = run << RUN_SHIFT | (uint64_t)t << T_SHIFT;
        for (int64_t j = 0; j < n; j++) {
            uint64_t z = mix(key + (base + (uint64_t)j + 1) * GOLDEN);
            double lam = 1.0 + beta * (1.0 - 2.0 * ((double)(z >> 11) * 0x1p-53));
            if (skewed)
                lam *= 1.0 + epsilon * (excess[j] / (w1 + excess[j]));
            excess[j] *= lam;
        }
        if (!coupled)
            continue;
        double total = 0.0, comp = 0.0;
        for (int64_t j = 0; j < n; j++) {
            double y = excess[j] - comp, next = total + y;
            comp = (next - total) - y;
            total = next;
        }
        if (total < degen) {
            *bad_total = total;
            return t;
        }
        double g = target_total / total;
        for (int64_t j = 0; j < n; j++)
            excess[j] *= g;
    }
    return -1;
}

/* Compiled day loop: the same update as _kernels_py.advance, in C.
 *
 * backends.py compiles this file for the host CPU and defines GOLDEN, MIX1,
 * MIX2, RUN_SHIFT and T_SHIFT on the command line from wealthsim.rng, so the
 * counter layout has a single source. The draws and the per-element update
 * order match the numpy kernel, which makes free mode agree bit for bit;
 * that needs the build to forbid contracting a*b+c into a fused multiply-add
 * (-ffp-contract=off).
 *
 * A coupled day is one pass over the agents: draw, apply the rescale g left
 * pending by the day before, apply the multiplier, store, and add the value
 * to one of LANES independent compensated partial sums (Neumaier 1974, in
 * lanes as in Ogita, Rump & Oishi 2005). The pending g is settled in one
 * last pass before a normal return. Each element still sees
 * ((x * lam_t) * g_t) * lam_t+1, rounded step by step as in the numpy
 * kernel; only the order in which the total is summed differs, so coupled
 * modes agree with numpy to roundoff.
 */
#include <stdint.h>

/* 16 lanes fill two 512-bit vectors. On an AVX-512 host GCC 12 splits an
 * 8-lane block into 256-bit halves, and the coupled day runs ~1.6x slower. */
#define LANES 16

static inline uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* The multiplier of agent j on the day whose counter base is base. */
static inline double multiplier(uint64_t key, uint64_t base, int64_t j,
                                double beta, double x, int skewed,
                                double epsilon, double w1)
{
    uint64_t z = mix(key + (base + (uint64_t)j + 1) * GOLDEN);
    double lam = 1.0 + beta * (1.0 - 2.0 * ((double)(z >> 11) * 0x1p-53));
    if (skewed)
        lam *= 1.0 + epsilon * (x / (w1 + x));
    return lam;
}

/* Compensated step: add x to the sum *s and its rounding error to *c. The
 * error comes from Knuth's branch-free TwoSum, which finds exactly the term
 * Neumaier's magnitude test picks, so the sums are Neumaier's bit for bit;
 * without the test the lane loop vectorizes better. */
static inline void compensated_add(double *s, double *c, double x)
{
    double t = *s + x, xt = t - *s;
    *c += (*s - (t - xt)) + (x - xt);
    *s = t;
}

/* Advance excess[0..n) in place over days [t0, t0 + n_days). Returns -1, or
 * the first day whose coupled total falls below degen; that total is stored
 * in *bad_total and the day is left unrescaled. */
int64_t advance(double *excess, int64_t n, uint64_t key, uint64_t run,
                int64_t t0, int64_t n_days, double beta, double epsilon,
                double w1, int skewed, int coupled, double target_total,
                double degen, double *bad_total)
{
    if (!coupled) {
        for (int64_t t = t0; t < t0 + n_days; t++) {
            uint64_t base = run << RUN_SHIFT | (uint64_t)t << T_SHIFT;
            for (int64_t j = 0; j < n; j++)
                excess[j] *= multiplier(key, base, j, beta, excess[j], skewed,
                                        epsilon, w1);
        }
        return -1;
    }
    double g = 1.0; /* the rescale owed by the day before */
    for (int64_t t = t0; t < t0 + n_days; t++) {
        uint64_t base = run << RUN_SHIFT | (uint64_t)t << T_SHIFT;
        double sum[LANES] = {0.0}, comp[LANES] = {0.0};
        int64_t j = 0;
        for (; j + LANES <= n; j += LANES)
            for (int k = 0; k < LANES; k++) {
                double x = excess[j + k] * g;
                x *= multiplier(key, base, j + k, beta, x, skewed, epsilon, w1);
                excess[j + k] = x;
                compensated_add(&sum[k], &comp[k], x);
            }
        for (int k = 0; j < n; j++, k++) {
            double x = excess[j] * g;
            x *= multiplier(key, base, j, beta, x, skewed, epsilon, w1);
            excess[j] = x;
            compensated_add(&sum[k], &comp[k], x);
        }
        double total = 0.0, err = 0.0;
        for (int k = 0; k < LANES; k++) {
            compensated_add(&total, &err, sum[k]);
            err += comp[k];
        }
        total += err;
        if (total < degen) {
            *bad_total = total;
            return t;
        }
        g = target_total / total;
    }
    for (int64_t j = 0; j < n; j++)
        excess[j] *= g;
    return -1;
}

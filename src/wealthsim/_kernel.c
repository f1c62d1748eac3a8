/* Compiled day loop, CSV row formatter and banded LU.
 *
 * advance is the same update as _kernels_py.advance, in C: its stop loop
 * runs the day loop through a block of stop days and stores the vector at
 * each, for the engine to record. backends.py compiles this file for the
 * host CPU and defines GOLDEN, MIX1, MIX2, RUN_SHIFT and T_SHIFT on the
 * command line from wealthsim.rng, so the counter layout has one source. The draws and
 * the per-element update order match the numpy kernel, which makes free
 * mode agree bit for bit; that needs the build to forbid contracting a*b+c
 * into a fused multiply-add (-ffp-contract=off).
 *
 * A coupled day is one pass over the agents: draw, apply the rescale g left
 * pending by the day before, apply the multiplier, store, and add the value
 * to one of LANES independent compensated partial sums (Neumaier 1974, in
 * lanes as in Ogita, Rump & Oishi 2005). g starts at 1 at each stop, and
 * a coupled stop settles it in one last pass before its row is copied.
 * Each element still sees ((x * lam_t) * g_t) * lam_t+1, rounded step by
 * step as in the numpy kernel; only the order in which the total is summed
 * differs, so coupled modes agree with numpy to roundoff.
 *
 * format_rows writes int64 and float64 columns as the CSV lines that
 * tableio.format_value defines, cell for cell. A float's 17 significant
 * digits come from its exact value m * 2^e in integer arithmetic, rounded
 * half to even as Python's '%.17g' rounds them (the exact-integer approach
 * of float printers such as Adams, "Ryu: fast float-to-string conversion",
 * PLDI 2018): unsigned __int128 covers 2^-19 <= |v| < 1e16, and 64-bit
 * limbs cover the rest. No printf: its decimal point follows LC_NUMERIC.
 *
 * band_lu and band_solve factor and solve an m x m band matrix with p
 * sub- and q super-diagonals (Golub & Van Loan, Matrix Computations,
 * sec. 4.3), for stationary.leading_eigenpair's shifted matrix. It is
 * strictly column diagonally dominant, so elimination needs no pivoting.
 */
#include <stdint.h>
#include <string.h>

/* 16 lanes of doubles fill two 512-bit vectors, as backends.py builds for an
 * AVX-512 host (-mprefer-vector-width=512), or four 256-bit ones. */
#define LANES 16

static inline uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

/* The multiplier of the agent with counter c. Agent j's counter on the day
 * whose counter base is base is key + (base + j + 1) * GOLDEN, so each
 * agent's counter is the one before plus GOLDEN (mod 2^64): the day loop
 * grows it by addition. */
static inline double multiplier(uint64_t c, double beta, double x, int skewed,
                                double epsilon, double w1)
{
    uint64_t z = mix(c);
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

/* The counter of agent 0 on day t of run run. */
static inline uint64_t first_counter(uint64_t key, uint64_t run, int64_t t)
{
    return key + ((run << RUN_SHIFT | (uint64_t)t << T_SHIFT) + 1) * GOLDEN;
}

/* Advance excess[0..n) in place from day t0 through each of the n_stops
 * increasing days stops[i], and copy the vector at stops[i] into row i of
 * out (n_stops x n), unless out is NULL. Every stop settles the pending
 * rescale, so the rows are the vectors that one call per stop would leave.
 * Returns -1, or the first day whose coupled total falls below degen; that
 * total is stored in *bad_total and the day is left unrescaled. */
int64_t advance(double *excess, int64_t n, uint64_t key, uint64_t run,
                int64_t t0, const int64_t *stops, int64_t n_stops,
                double *out, double beta, double epsilon, double w1,
                int skewed, int coupled, double target_total, double degen,
                double *bad_total)
{
    for (int64_t i = 0; i < n_stops; t0 = stops[i++]) {
        double g = 1.0; /* the rescale owed by the day before */
        for (int64_t t = t0; t < stops[i]; t++) {
            uint64_t c = first_counter(key, run, t);
            if (!coupled) {
                for (int64_t j = 0; j < n; j++, c += GOLDEN)
                    excess[j] *= multiplier(c, beta, excess[j], skewed, epsilon, w1);
                continue;
            }
            double sum[LANES] = {0.0}, comp[LANES] = {0.0};
            int64_t j = 0;
            for (; j + LANES <= n; j += LANES, c += LANES * GOLDEN)
                for (int k = 0; k < LANES; k++) {
                    double x = excess[j + k] * g;
                    x *= multiplier(c + k * GOLDEN, beta, x, skewed, epsilon, w1);
                    excess[j + k] = x;
                    compensated_add(&sum[k], &comp[k], x);
                }
            for (int k = 0; j < n; j++, k++) {
                double x = excess[j] * g;
                x *= multiplier(c + k * GOLDEN, beta, x, skewed, epsilon, w1);
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
        if (coupled)
            for (int64_t j = 0; j < n; j++)
                excess[j] *= g;
        if (out)
            memcpy(out + i * n, excess, (size_t)n * sizeof *excess);
    }
    return -1;
}


/* ---- CSV rows ---- */

typedef unsigned __int128 u128;

/* The longest cell format_rows writes, with its separator:
 * "-2.2250738585072014e-308," (an int64 takes at most 21). */
const int64_t cell_bytes = 25;

static const uint64_t POW10[20] = {
    1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull,
    10000000ull, 100000000ull, 1000000000ull, 10000000000ull,
    100000000000ull, 1000000000000ull, 10000000000000ull,
    100000000000000ull, 1000000000000000ull, 10000000000000000ull,
    100000000000000000ull, 1000000000000000000ull,
    10000000000000000000ull,
};
static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

#define TEN16 POW10[16]
#define TEN17 POW10[17]

/* What a truncated quotient dropped, against half a unit of its last digit. */
enum { EXACT, BELOW_HALF, HALF, ABOVE_HALF };

static int classify(u128 rest, u128 half)
{
    return rest == 0 ? EXACT : rest < half ? BELOW_HALF
         : rest == half ? HALF : ABOVE_HALF;
}

/* floor(m * 10^j / 2^s) for m < 2^53, j >= 1, s >= 1; *rest classifies the
 * bits shifted out. */
static uint64_t scale_up(uint64_t m, int j, int s, int *rest)
{
    if (j <= 22) { /* then |v| >= 2^-19, so s <= 71, and m * 10^j < 2^127 */
        u128 n = (u128)m * POW10[j < 19 ? j : 19];
        if (j > 19)
            n *= POW10[j - 19];
        *rest = classify(n & (((u128)1 << s) - 1), (u128)1 << (s - 1));
        return (uint64_t)(n >> s);
    }
    /* m * 10^j < 2^1187 in 64-bit limbs, least significant first */
    uint64_t n[20] = {m};
    int len = 1;
    for (int left = j; left > 0; left -= 19) {
        uint64_t f = POW10[left < 19 ? left : 19], carry = 0;
        for (int i = 0; i < len; i++) {
            u128 p = (u128)n[i] * f + carry;
            n[i] = (uint64_t)p;
            carry = (uint64_t)(p >> 64);
        }
        if (carry)
            n[len++] = carry;
    }
    int w = s / 64, b = s % 64, h = (s - 1) / 64, hb = (s - 1) % 64;
    uint64_t q = n[w] >> b;
    if (b && w + 1 < len)
        q |= n[w + 1] << (64 - b);
    uint64_t low = n[h] & ((1ull << hb) - 1);
    for (int i = 0; i < h; i++)
        low |= n[i];
    *rest = n[h] >> hb & 1 ? (low ? ABOVE_HALF : HALF) : (low ? BELOW_HALF : EXACT);
    return q;
}

/* floor(m * 2^e / 10^k) for m < 2^53, e >= 1, k >= 0; *rest classifies the
 * remainder. m * 2^e < 2^1024 in 64-bit limbs is divided by 10^k in steps
 * of at most 10^19. The last step's divisor f is even, so its remainder r
 * against f / 2, with whether any earlier step left a remainder, says where
 * the whole remainder lies against 10^k / 2; for k = 0 nothing is left. */
static uint64_t scale_down(uint64_t m, int e, int k, int *rest)
{
    uint64_t n[17] = {0}, r = 0, f = 1;
    int len = e / 64 + 2, earlier = 0;
    n[e / 64] = m << (e % 64);
    if (e % 64)
        n[e / 64 + 1] = m >> (64 - e % 64);
    for (int left = k; left > 0; left -= 19) {
        earlier |= r != 0;
        f = POW10[left < 19 ? left : 19];
        r = 0;
        for (int i = len - 1; i >= 0; i--) {
            u128 cur = (u128)r << 64 | n[i];
            n[i] = (uint64_t)(cur / f);
            r = (uint64_t)(cur % f);
        }
    }
    *rest = !r ? (earlier ? BELOW_HALF : EXACT) : r < f / 2 ? BELOW_HALF
          : r == f / 2 ? (earlier ? ABOVE_HALF : HALF) : ABOVE_HALF;
    return n[0];
}

/* The 17 significant digits of the finite, positive double with IEEE bits
 * `bits`, rounded half to even, as an integer in [10^16, 10^17); *exp10 is
 * the decimal exponent of the first digit. */
static uint64_t digits17(uint64_t bits, int *exp10)
{
    int biased = (int)(bits >> 52);
    uint64_t m = bits & ((1ull << 52) - 1);
    int e = biased ? biased - 1075 : -1074;
    if (biased)
        m |= 1ull << 52;
    /* floor(log10 v) is x or x + 1 for x = floor(floor(log2 v) * log10 2),
     * which 78913 / 2^18 gives exactly over the whole double range */
    int x = ((63 - __builtin_clzll(m) + e) * 78913) >> 18, rest = EXACT;
    uint64_t q;
    if (x >= 16)
        q = scale_down(m, e, x - 16, &rest);
    else if (e >= 0) /* an integer below 2^54, so x is 15 */
        q = (m << e) * POW10[16 - x];
    else
        q = scale_up(m, 16 - x, -e, &rest);
    if (q >= TEN17) { /* 18 digits: floor(log10 v) is x + 1 */
        int d = (int)(q % 10);
        q /= 10;
        x++;
        rest = d > 5 ? ABOVE_HALF : d == 5 ? (rest ? ABOVE_HALF : HALF)
             : d || rest ? BELOW_HALF : EXACT;
    }
    q += rest == ABOVE_HALF || (rest == HALF && q & 1);
    if (q == TEN17) { /* rounded up into the next decade */
        q = TEN16;
        x++;
    }
    *exp10 = x;
    return q;
}

static char *put(char *p, const char *s, size_t n)
{
    memcpy(p, s, n);
    return p + n;
}

/* A float64 cell as format_value writes it: '%.17g', then '.0' if that
 * printed a bare integer. */
static char *put_double(char *p, double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t mag = bits & ~(1ull << 63);
    if (mag > 0x7ff0000000000000ull) /* nan of either sign */
        return put(p, "nan", 3);
    if (bits >> 63)
        *p++ = '-';
    if (mag == 0x7ff0000000000000ull)
        return put(p, "inf", 3);
    if (mag == 0)
        return put(p, "0.0", 3);
    int x;
    uint64_t q = digits17(mag, &x);
    char d[17];
    for (int i = 15; i > 0; i -= 2, q /= 100)
        memcpy(d + i, DIGIT_PAIRS + 2 * (q % 100), 2);
    d[0] = (char)('0' + q);
    int nd = 17; /* significant digits left after dropping trailing zeros */
    while (d[nd - 1] == '0')
        nd--;
    if (x < -4 || x >= 17) {
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            p = put(p, d + 1, (size_t)(nd - 1));
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        int ax = x < 0 ? -x : x;
        if (ax >= 100)
            *p++ = (char)('0' + ax / 100);
        *p++ = (char)('0' + ax / 10 % 10);
        *p++ = (char)('0' + ax % 10);
    } else if (x < 0) {
        p = put(p, "0.0000", (size_t)(1 - x));
        p = put(p, d, (size_t)nd);
    } else {
        p = put(p, d, (size_t)(x + 1));
        *p++ = '.';
        if (nd > x + 1)
            p = put(p, d + x + 1, (size_t)(nd - x - 1));
        else
            *p++ = '0';
    }
    return p;
}

static char *put_int(char *p, int64_t v)
{
    uint64_t u = (uint64_t)v;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    char d[20];
    int n = 0;
    do {
        d[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    while (n)
        *p++ = d[--n];
    return p;
}

/* Write rows [row0, row0 + n_rows) of n_columns >= 1 columns as CSV lines
 * into out, which holds at least n_rows * n_columns * cell_bytes bytes.
 * columns[c] points at doubles if is_float[c], else at int64 values.
 * Returns the number of bytes written. */
int64_t format_rows(const void *const *columns, const char *is_float,
                    int64_t n_columns, int64_t row0, int64_t n_rows, char *out)
{
    char *p = out;
    for (int64_t i = row0; i < row0 + n_rows; i++) {
        for (int64_t c = 0; c < n_columns; c++) {
            if (is_float[c])
                p = put_double(p, ((const double *)columns[c])[i]);
            else
                p = put_int(p, ((const int64_t *)columns[c])[i]);
            *p++ = ',';
        }
        p[-1] = '\n';
    }
    return p - out;
}


/* ---- Banded LU ---- */

/* The band is stored row-major, p + q + 1 entries a row: entry (i, j) of the
 * matrix, for i - p <= j <= i + q, is ab[i * (p + q + 1) + j - i + p], that
 * is row(ab, i, p, q)[j]. */
static inline double *row(double *ab, int64_t i, int64_t p, int64_t q)
{
    return ab + i * (p + q) + p;
}

/* Factor the band in place as L U, L unit lower with p sub-diagonals stored
 * below the diagonal, U upper with q super-diagonals stored on and above it.
 * No pivoting: each pivot must be nonzero, which strict column diagonal
 * dominance guarantees (it is then its column's largest entry). Without
 * pivoting neither factor fills in outside the band. */
void band_lu(double *ab, int64_t m, int64_t p, int64_t q)
{
    for (int64_t k = 0; k < m; k++) {
        const double *pivot_row = row(ab, k, p, q);
        int64_t last_row = k + p < m ? k + p : m - 1;
        int64_t last_col = k + q < m ? k + q : m - 1;
        for (int64_t i = k + 1; i <= last_row; i++) {
            double *r = row(ab, i, p, q);
            double l = r[k] /= pivot_row[k];
            for (int64_t j = k + 1; j <= last_col; j++)
                r[j] -= l * pivot_row[j];
        }
    }
}

/* Overwrite x[0..m) with the solution of L U x = x for the factors that
 * band_lu left in ab. Each row's sum takes the newest unknown last, so the
 * next row's other terms need not wait for it. */
void band_solve(double *ab, int64_t m, int64_t p, int64_t q, double *x)
{
    for (int64_t i = 1; i < m; i++) {
        const double *r = row(ab, i, p, q);
        double t = x[i];
        for (int64_t j = i > p ? i - p : 0; j < i; j++)
            t -= r[j] * x[j];
        x[i] = t;
    }
    for (int64_t i = m - 1; i >= 0; i--) {
        const double *r = row(ab, i, p, q);
        double t = x[i];
        for (int64_t j = i + q < m ? i + q : m - 1; j > i; j--)
            t -= r[j] * x[j];
        x[i] = t / r[i];
    }
}

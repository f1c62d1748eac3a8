/* Compiled day loop, CSV row formatter, recorder and banded LU.
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
 * to one of LANES partial sums. Inside a block of BLOCK agents each lane adds
 * its 64 values plainly; at the block's end each lane's plain sum goes into
 * the lane's compensated sum (Neumaier 1974, in lanes as in Ogita, Rump &
 * Oishi 2005). This blocked summation (Castaldo, Whaley & Chronopoulos, SIAM
 * J. Sci. Comput. 31(2), 2008) bounds the relative error of a total of terms
 * of one sign by about gamma_63 + 3u, 7e-15, at every n (Higham, Accuracy
 * and Stability of Numerical Algorithms, 2nd ed., sec. 4.2); plain lanes
 * over all n agents would allow gamma_(n/16), 1.2e-10 at 2^24 agents.
 * g starts at 1 at each stop, and a coupled stop settles it in one last
 * pass before its row is copied.
 * Each element still sees ((x * lam_t) * g_t) * lam_t+1, rounded step by
 * step as in the numpy kernel; only the order in which the total is summed
 * differs, so coupled modes agree with numpy to roundoff.
 *
 * format_rows writes int64 and float64 columns as the CSV lines that
 * tableio.format_value defines, cell for cell. A float's 17 significant
 * digits come from its exact value m * 2^e in integer arithmetic, rounded
 * half to even as Python's '%.17g' rounds them (the exact-integer approach
 * of Adams, "Ryu: fast float-to-string conversion", PLDI 2018, and "Ryu
 * revisited", OOPSLA 2019). Over 2^-19 <= |v| < 2^54, where the data lies,
 * one comparison with a power of ten fixes the decimal exponent first, so a
 * single unsigned __int128 product holds exactly the 17 digits and, in its
 * low 64 bits, what decides their rounding; 64-bit limbs cover the rest.
 * The digits go out as a first digit and two 8-digit words, each converted
 * in parallel byte lanes, and whole-word stores lay out the text. No store
 * reaches past cell_bytes from its cell's start, so n cells always fit in
 * n * cell_bytes bytes. No printf: its decimal point follows LC_NUMERIC.
 *
 * record_rows reads a block of rows that numpy has just sorted, one pass
 * a row, for the engine's max, Gini, rank, snapshot and histogram records,
 * bit for bit as _kernels_py.record_rows forms them with numpy: its Gini
 * sums the total as numpy's pairwise summation does and the rank-weighted
 * sum in one serial chain a row, as numpy's matmul does on a reversed view
 * (again without contraction), and runs several rows' chains interleaved.
 * One merge walk counts each snapshot's histogram and the window's.
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
/* Agents a coupled day sums plainly, 64 a lane, before it folds each lane's
 * plain sum into the lane's compensated one. */
#define BLOCK 1024

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
    double lam = 1.0 + beta * (1.0 - (double)(z >> 11) * 0x1p-52);
    if (skewed)
        lam *= 1.0 + epsilon * (x / (w1 + x));
    return lam;
}

/* Compensated step: add x to the sum *s and its rounding error to *c. The
 * error comes from Knuth's branch-free TwoSum, which finds exactly the term
 * Neumaier's magnitude test picks, so the sums are Neumaier's bit for bit;
 * without the test the fold vectorizes better. The day loop takes one step a
 * lane per block of agents, for the block's plain lane sums, and one an agent
 * in the tail of fewer than LANES. */
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
            while (j + LANES <= n) {
                int64_t end = n < j + BLOCK ? n : j + BLOCK;
                double part[LANES] = {0.0};
                for (; j + LANES <= end; j += LANES, c += LANES * GOLDEN)
                    for (int k = 0; k < LANES; k++) {
                        double x = excess[j + k] * g;
                        x *= multiplier(c + k * GOLDEN, beta, x, skewed, epsilon, w1);
                        excess[j + k] = x;
                        part[k] += x;
                    }
                for (int k = 0; k < LANES; k++)
                    compensated_add(&sum[k], &comp[k], part[k]);
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

/* The most bytes one cell of format_rows writes, its separator included:
 * the longest cell is "-2.2250738585072014e-308," (an int64 takes at most
 * 21), and the furthest 8-byte store of put_double, the last digit word of
 * "-0.000ddddddddddddddddd", ends at the cell's 23rd byte. */
const int64_t cell_bytes = 25;

static const uint64_t POW10[20] = {
    1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull, 1000000ull,
    10000000ull, 100000000ull, 1000000000ull, 10000000000ull,
    100000000000ull, 1000000000000ull, 10000000000000ull,
    100000000000000ull, 1000000000000000ull, 10000000000000000ull,
    100000000000000000ull, 1000000000000000000ull,
    10000000000000000000ull,
};
/* 5^j: 10^j is 5^j * 2^j */
static const uint64_t POW5[23] = {
    1ull, 5ull, 25ull, 125ull, 625ull,
    3125ull, 15625ull, 78125ull, 390625ull, 1953125ull,
    9765625ull, 48828125ull, 244140625ull, 1220703125ull, 6103515625ull,
    30517578125ull, 152587890625ull, 762939453125ull, 3814697265625ull,
    19073486328125ull, 95367431640625ull, 476837158203125ull,
    2384185791015625ull,
};
/* DECADE[i] is the least double >= 10^(i - 5): 1e0 to 1e16 are exact, and
 * the literals 1e-5 to 1e-1 each round up, so v >= DECADE[i] exactly when
 * v >= 10^(i - 5). */
static const double DECADE[22] = {
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
    1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
};

#define TEN16 POW10[16]
#define TEN17 POW10[17]

/* What a truncated quotient dropped, against half a unit of its last digit. */
enum { EXACT, BELOW_HALF, HALF, ABOVE_HALF };

/* floor(m * 10^j / 2^s) for m < 2^53, j >= 1, s >= 1; *rest classifies the
 * bits shifted out. m * 10^j < 2^1187 in 64-bit limbs, least significant
 * first. */
static uint64_t scale_up(uint64_t m, int j, int s, int *rest)
{
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
    int x = ((63 - __builtin_clzll(m) + e) * 78913) >> 18, rest;
    if (x >= -6 && x < 16) {
        /* 2^-19 <= v < 2^54. One comparison fixes the decade first, so the
         * product below has 17 digits before it is rounded. */
        double v;
        memcpy(&v, &bits, sizeof v);
        x += v >= DECADE[x + 6];
        *exp10 = x;
        int j = 16 - x;
        if (e >= 0) /* an integer below 2^54: x is 15 or 16 */
            return (m << e) * POW10[j];
        /* v * 10^j = m * 5^j / 2^u, with u = -e - j in [0, 49] here, so the
         * remainder r fits in 64 bits; 2r + (q & 1) > 2^u rounds up exactly
         * when r is above half, or half with q odd. That never carries into
         * an 18th digit, which needs v within 5e-18 of 10^(x + 1), relatively:
         * the doubles below it lie at least half an ulp, over 5e-17, below. */
        int u = -e - j;
        u128 n = (u128)m * POW5[j];
        uint64_t q = (uint64_t)(n >> u), r = (uint64_t)n & ((1ull << u) - 1);
        return q + (2 * r + (q & 1) > 1ull << u);
    }
    uint64_t q = x >= 16 ? scale_down(m, e, x - 16, &rest)
                         : scale_up(m, 16 - x, -e, &rest);
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

/* The 8 decimal digits of q < 10^8 as byte values, the first in the lowest
 * byte: q splits into 4-digit halves, then pairs, then digits, each step
 * one multiply-and-shift across all of its lanes (SWAR). A step leaves each
 * lane's quotient hi in its low half and the remainder in its high half as
 * (w << width) + hi * (1 - (divisor << width)), which equals
 * ((w - divisor * hi) << width) + hi with the shift off the critical path. */
static inline uint64_t digits8(uint32_t q)
{
    uint64_t hi = q / 10000;
    uint64_t w = ((uint64_t)q << 32) + hi * (1 - (10000ull << 32));
    hi = (w * 10486 >> 20) & 0x0000007f0000007full; /* lane / 100 */
    w = (w << 16) + hi * (1 - (100ull << 16));
    hi = (w * 103 >> 10) & 0x000f000f000f000full;   /* lane / 10 */
    return (w << 8) + hi * (1 - (10ull << 8));
}

/* How many of the digits in w, as digits8 lays them out, are trailing zeros. */
static inline int zero_tail(uint64_t w)
{
    return w ? __builtin_clzll(w) / 8 : 8;
}

/* w with '.' put in before its byte i < 8, and its last byte pushed out. */
static inline uint64_t with_point(uint64_t w, int i)
{
    uint64_t low = (1ull << 8 * i) - 1;
    return (w & low) | (uint64_t)'.' << 8 * i | (w & ~low) << 8;
}

/* Store the 8 bytes of w at p, its lowest byte first. */
static inline void put8(char *p, uint64_t w)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    memcpy(p, &w, sizeof w);
}

static char *put(char *p, const char *s, size_t n)
{
    memcpy(p, s, n);
    return p + n;
}

#define ASCII_ZEROS 0x3030303030303030ull /* "00000000" */
#define ZERO_POINT 0x3030303030302e30ull  /* "0.000000" */

/* A float64 cell as format_value writes it: '%.17g', then '.0' if that
 * printed a bare integer. The 17 digits go out as a first digit and two
 * 8-digit words in whole-word stores, which may run past the text: the
 * returned end leaves those bytes to the separator and the next cell. */
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
    uint32_t head = (uint32_t)(q / 100000000); /* the first 9 digits */
    char first = (char)('0' + head / 100000000);
    uint64_t a = digits8(head % 100000000), b = digits8((uint32_t)(q % 100000000));
    int nd = 17 - (b ? zero_tail(b) : 8 + zero_tail(a)); /* significant digits */
    a += ASCII_ZEROS;
    b += ASCII_ZEROS;
    if (x < -4 || x >= 17) {
        p[0] = first;
        p[1] = '.';
        put8(p + 2, a);
        put8(p + 10, b);
        p += nd > 1 ? nd + 1 : 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        int ax = x < 0 ? -x : x;
        if (ax >= 100)
            *p++ = (char)('0' + ax / 100);
        *p++ = (char)('0' + ax / 10 % 10);
        *p++ = (char)('0' + ax % 10);
        return p;
    }
    if (x < 0) { /* "0." and up to 3 zeros before the digits */
        put8(p, ZERO_POINT);
        p[1 - x] = first;
        put8(p + 2 - x, a);
        put8(p + 10 - x, b);
        return p + 1 - x + nd;
    }
    /* x + 1 digits, '.', the rest: at least one digit, a '0' if nothing is
     * left, which is then the digit the point pushed along */
    p[0] = first;
    if (x < 8) {
        put8(p + 1, with_point(a, x));
        p[9] = (char)(a >> 56);
        put8(p + 10, b);
    } else if (x < 16) {
        put8(p + 1, a);
        put8(p + 9, with_point(b, x - 8));
        p[17] = (char)(b >> 56);
    } else { /* x is 16: an integer */
        put8(p + 1, a);
        put8(p + 9, b);
        return put(p + 17, ".0", 2);
    }
    return p + 1 + (nd > x + 1 ? nd : x + 2);
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
 * A cell writes only inside the cell_bytes that follow its first byte, so
 * the last cell stays inside out however long the cells before it were;
 * what a cell stores past its own text the next cell, its separator or the
 * returned length covers. Returns the number of bytes written. */
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


/* ---- Recording ---- */

/* Rows whose dot-product chains run interleaved: each chain is serial, so
 * alone it waits out every add's latency. */
#define GROUP 8
/* Products formed at a time, a row's worth for each row of a group */
#define CHUNK 128

/* a before b in numpy's sort order, NaN last */
static inline int before(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* The sum of x[i] + wp over i < n as numpy's pairwise summation forms it:
 * a plain loop below 8 terms, 8 accumulators up to 128, and above that the
 * halves, split at a multiple of 8. */
static double pairwise_sum(const double *x, int64_t n, double wp)
{
    if (n < 8) {
        double s = 0.0;
        for (int64_t i = 0; i < n; i++)
            s += x[i] + wp;
        return s;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++)
            r[k] = x[k] + wp;
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += x[i + k] + wp;
        double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            s += x[i] + wp;
        return s;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(x, n2, wp) + pairwise_sum(x + n2, n - n2, wp);
}

/* The Gini of each of the m <= GROUP ascending rows rows[g] (plus wp) into
 * gini[g], as stats._gini_sorted gives it: the total summed pairwise, and
 * the rank-weighted sum in one serial chain a row, as numpy's matmul sums
 * a reversed view. Returns the first g whose total is 0, or -1. */
static int gini_group(const double *const *rows, int m, int64_t n, double wp,
                      double *gini)
{
    const double *x[GROUP];
    double dot[GROUP] = {0.0}, p[GROUP][CHUNK];
    for (int g = 0; g < GROUP; g++)
        x[g] = rows[g < m ? g : m - 1];
    for (int64_t i0 = 0; i0 < n; i0 += CHUNK) {
        int c = n - i0 < CHUNK ? (int)(n - i0) : CHUNK;
        for (int g = 0; g < GROUP; g++)
            for (int j = 0; j < c; j++)
                p[g][j] = (x[g][i0 + j] + wp) * (double)(i0 + j + 1);
        for (int j = 0; j < c; j++)
            for (int g = 0; g < GROUP; g++)
                dot[g] += p[g][j];
    }
    for (int g = 0; g < m; g++) {
        double total = pairwise_sum(rows[g], n, wp);
        if (total == 0.0)
            return g;
        gini[g] = (2.0 * dot[g] - (double)(n + 1) * total) / ((double)n * total);
    }
    return -1;
}

/* Add to counts[0..n_edges] how many of the n values (x[i] + shift) - shift
 * lie below edges[0], in each [edges[j - 1], edges[j]), and at or above the
 * last, as numpy's searchsorted(side="left") counts for any edges. x ascends
 * (NaN last) and rounding is monotone, so those values do too: a merge walk. */
static void bin_row(const double *x, int64_t n, double shift, const double *edges,
                    int64_t n_edges, int64_t *counts)
{
    int64_t at = 0, below = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        while (at > 0 && !before((x[at - 1] + shift) - shift, edges[e]))
            at--;
        while (at + 8 <= n && before((x[at + 7] + shift) - shift, edges[e]))
            at += 8; /* the values ascend: all 8 lie below */
        while (at < n && before((x[at] + shift) - shift, edges[e]))
            at++;
        counts[e] += at - below;
        below = at;
    }
    counts[n_edges] += n - below;
}

/* Record the k ascending rows of n values in block, each just sorted as numpy
 * sorts (NaN last). The i-th row flagged in ticks, plus wp, puts its top value
 * in max_out[i], its Gini in gini_out[i] and its value at each 1-based
 * descending rank rank_ids[r] in rank_out[r * rank_stride + i]; the i-th
 * flagged in snaps goes to row i of snap_out (n values a row), reversed, plus
 * wp, and its bin_row counts less wp, as exported, to row i of snap_counts
 * (n_edges + 1 a row); each one flagged in window adds its bin_row counts to
 * counts[0..n_edges]. Returns -1, or the position among the tick rows of one
 * whose total is 0, with the Gini of that row and those after it unwritten. */
int64_t record_rows(const double *block, int64_t k, int64_t n, double wp,
                    const char *ticks, const char *snaps, const char *window,
                    const int64_t *rank_ids, int64_t n_ranks, double *max_out,
                    double *gini_out, double *rank_out, int64_t rank_stride,
                    double *snap_out, const double *edges, int64_t n_edges,
                    int64_t *counts, int64_t *snap_counts)
{
    const double *group[GROUP];
    int64_t tick = 0, first = -1;
    int m = 0;
    for (int64_t i = 0; i < k; i++) {
        const double *x = block + i * n;
        if (snaps[i]) {
            for (int64_t j = 0; j < n; j++)
                snap_out[j] = x[n - 1 - j] + wp;
            snap_out += n;
            bin_row(x, n, wp, edges, n_edges, snap_counts);
            snap_counts += n_edges + 1;
        }
        if (window[i])
            bin_row(x, n, 0.0, edges, n_edges, counts);
        if (ticks[i]) {
            max_out[tick] = x[n - 1] + wp;
            for (int64_t r = 0; r < n_ranks; r++)
                rank_out[r * rank_stride + tick] = x[n - rank_ids[r]] + wp;
            if (!m)
                first = tick;
            group[m++] = x;
            tick++;
        }
        if (m == GROUP || (m && i == k - 1)) {
            int bad = gini_group(group, m, n, wp, gini_out + first);
            if (bad >= 0)
                return first + bad;
            m = 0;
        }
    }
    return -1;
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

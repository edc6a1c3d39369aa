/* Density-kernel rows lo, lo + stride, ... < hi (see specfun._march_rows).
 *
 * Each row fills its integrand with the float operations of the numpy
 * fill, sums it in numpy's pairwise order and applies the half-cell rule
 * of the Python row tail, all in the same order; build without
 * contraction (-ffp-contract=off) and without -ffast-math so that no FMA
 * or reassociation changes a bit.  Cells are independent, so vectorising
 * the fill changes none.  pos >= 0 after the clamp, so truncation equals
 * floor; the caller passes w tables of fewer than 2^31 points only. */
#include <stdint.h>

#if defined(__AVX512F__) && defined(__GNUC__) && !defined(__clang__)
/* gcc keeps 256-bit vectors by default; 512 runs the fill 8 wide.  Its
 * generic tune builds each w lookup from 8 scalar loads; AVX512-FP16 hosts
 * (Sapphire Rapids on, spared by Downfall) tune to use vgatherdpd. */
#pragma GCC target("prefer-vector-width=512")
#if defined(__AVX512FP16__)
#pragma GCC target("tune=sapphirerapids")
#endif
#endif

/* numpy's float64 pairwise_sum: under 8 terms a plain loop, up to 128
 * eight accumulators, above that two halves split at a multiple of 8. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

static void fill(const double *restrict inv_up1,
                 const double *restrict scaled, const double *restrict wv,
                 const double *restrict dw, double *restrict f,
                 double inv_hw, double top, int32_t last, int64_t c,
                 double v)
{
    const double vp1 = v + 1.0;
    for (int64_t k = 0; k < c; k++) {
        double pos = (inv_up1[k] * vp1 - 2.0) * inv_hw;
        pos = pos > top ? top : pos;
        pos = pos < 0.0 ? 0.0 : pos;
        int32_t idx = (int32_t)pos;
        idx = idx > last ? last : idx;
        double frac = pos - (double)idx;
        f[k] = (dw[idx] * frac + wv[idx]) * scaled[k];
    }
}

void march_rows(const double *inv_up1, double *d, double *scaled,
                const double *wv, const double *dw, double *f,
                double inv_hw, double top, int32_t last, int64_t m,
                double g, int64_t lo, int64_t hi, int64_t stride)
{
    for (int64_t i = lo; i < hi; i += stride) {
        double v = (double)i * g;
        int64_t full = (i - m) / 2;  /* i > m: the limit (v-1)/2 */
        int64_t odd = (i - m) % 2;   /* in half steps is i - m */
        fill(inv_up1, scaled, wv, dw, f, inv_hw, top, last, full + 1, v);
        double acc = 0.0;
        if (full > 0)
            acc = g * (pairwise_sum(f, full + 1) - 0.5 * (f[0] + f[full]));
        if (odd) {
            double upper = 0.5 * (v - 1.0);
            double d_mid = 0.5 * (d[full] + d[full + 1]);
            double f_end = d_mid / (upper + 1.0);
            acc += 0.25 * g * (f[full] + f_end);
        }
        d[i] = 1.0 - acc;
        scaled[i] = d[i] * inv_up1[i];
    }
}

/* Integrand of one density-kernel row (see specfun._march_rows).
 *
 * Each cell does the float operations of the numpy fill in the same
 * order; build without contraction (-ffp-contract=off) and without
 * -ffast-math so that no FMA or reassociation changes a bit.  pos >= 0
 * after the clamp, so truncation equals floor. */
#include <stdint.h>

void march_row(const double *inv_up1, const double *scaled,
               const double *wv, const double *dw, double *f,
               double inv_hw, double top, int64_t last, int64_t c, double v)
{
    for (int64_t k = 0; k < c; k++) {
        double pos = (inv_up1[k] * (v + 1.0) - 2.0) * inv_hw;
        if (pos > top) pos = top;
        if (pos < 0.0) pos = 0.0;
        int64_t idx = (int64_t)pos;
        if (idx > last) idx = last;
        double frac = pos - (double)idx;
        f[k] = (dw[idx] * frac + wv[idx]) * scaled[k];
    }
}

/* Integer CSV rows (see cli._int_blocks): rows [lo, hi) of the ncols
 * int64 columns cols[0..ncols-1], each value in decimal as "%d" prints
 * it, commas between values and '\n' after each row, written to out.
 * out must hold 21 bytes per cell: a sign, up to 19 digits and the
 * separator.  Returns the bytes written. */
#include <stdint.h>

int64_t csv_rows(const int64_t *const *cols, int64_t ncols, int64_t lo,
                 int64_t hi, char *out)
{
    char *p = out;
    for (int64_t i = lo; i < hi; i++)
        for (int64_t j = 0; j < ncols; j++) {
            int64_t v = cols[j][i];
            /* unsigned negation is exact for INT64_MIN too */
            uint64_t u = v < 0 ? -(uint64_t)v : (uint64_t)v;
            char digits[20];
            int k = 0;
            do {
                digits[k++] = (char)('0' + u % 10);
                u /= 10;
            } while (u);
            if (v < 0)
                *p++ = '-';
            while (k)
                *p++ = digits[--k];
            *p++ = j + 1 < ncols ? ',' : '\n';
        }
    return p - out;
}

/* The walk engine: one fused loop that draws each replica's Philox stream
 * and steps its walk.
 *
 * Replica i reads the stream of
 *     np.random.Generator(np.random.Philox(key=[seed_i, replica_i]))
 * through Generator.random(dtype=np.float32), one uniform per step: draw t
 * decides step t + 1. Philox4x64-10 is counter-based, so draw t is found
 * from the key and t alone. numpy increments the counter before it fills
 * its buffer, so draws 8b .. 8b+7 come from counter b + 1; each of the four
 * uint64 outputs gives its low 32 bits first, then its high 32 bits, and a
 * uint32 u becomes the float32 (u >> 8) * 2^-24.
 *
 * Step 1 is Bernoulli(s); at step t + 1 >= 2 the walk adds
 * U < q + (alpha / t) * S_t, evaluated in double in exactly that order, as
 * numpy does. Compile without floating-point contraction (-ffp-contract=off)
 * so that no fused multiply-add changes a comparison.
 */
#include <stdint.h>
#include <stddef.h>

/* Replicas advanced together, so that their Philox rounds and step
 * dependency chains overlap in the pipeline. */
#define LANES 8

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

typedef unsigned __int128 u128;

/* Philox4x64-10 at counter (ctr, 0, 0, 0) for each of the first `lanes`
 * lanes, turned into the eight float32 draws of that block, as doubles:
 * u[d][l] is draw 8 * (ctr - 1) + d of lane l. */
static inline __attribute__((always_inline)) void
philox_draws(int lanes, uint64_t ctr, const uint64_t *k0, const uint64_t *k1, double u[8][LANES])
{
    uint64_t c0[LANES], c1[LANES], c2[LANES], c3[LANES], a[LANES], b[LANES];
    for (int l = 0; l < lanes; l++) {
        c0[l] = ctr;
        c1[l] = c2[l] = c3[l] = 0;
        a[l] = k0[l];
        b[l] = k1[l];
    }
    for (int round = 0; round < 10; round++) {
        for (int l = 0; l < lanes; l++) {
            if (round) {
                a[l] += PHILOX_W0;
                b[l] += PHILOX_W1;
            }
            u128 p0 = (u128)PHILOX_M0 * c0[l];
            u128 p1 = (u128)PHILOX_M1 * c2[l];
            uint64_t x0 = (uint64_t)(p1 >> 64) ^ c1[l] ^ a[l];
            uint64_t x2 = (uint64_t)(p0 >> 64) ^ c3[l] ^ b[l];
            c1[l] = (uint64_t)p1;
            c3[l] = (uint64_t)p0;
            c0[l] = x0;
            c2[l] = x2;
        }
    }
    for (int l = 0; l < lanes; l++) {
        uint64_t w[4] = {c0[l], c1[l], c2[l], c3[l]};
        for (int d = 0; d < 8; d++) {
            uint32_t bits = (uint32_t)(w[d / 2] >> (32 * (d % 2)));
            u[d][l] = (double)((float)(bits >> 8) * (1.0f / 16777216.0f));
        }
    }
}

/* Advance `lanes` replicas, whose keys are k0, k1 and positions x, from
 * step m through step m + steps; see mrw_advance. */
static inline __attribute__((always_inline)) void
advance_group(int lanes, const uint64_t *k0, const uint64_t *k1, double *x, int64_t m, int64_t steps,
              double s, double q, double alpha, double *out, int64_t stride)
{
    double u[8][LANES];
    for (int64_t t = m, end = m + steps; t < end;) {
        philox_draws(lanes, (uint64_t)(t / 8) + 1, k0, k1, u);
        int64_t stop = (t / 8 + 1) * 8 < end ? (t / 8 + 1) * 8 : end;
        if (t == 0) {
            for (int l = 0; l < lanes; l++)
                x[l] = (double)(u[0][l] < s);
            if (out)
                for (int l = 0; l < lanes; l++)
                    out[l] = x[l];
            t++;
        }
        for (; t < stop; t++) {
            double c = alpha / (double)t;
            const double *ut = u[t % 8];
            for (int l = 0; l < lanes; l++)
                x[l] += (double)(ut[l] < q + c * x[l]);
            if (out)
                for (int l = 0; l < lanes; l++)
                    out[(t - m) * stride + l] = x[l];
        }
    }
}

/* Advance replicas 0 .. R-1 from step m through step m + steps.
 *
 * keys holds (seed, replica) per replica, R x 2; S holds S_m per replica and
 * is updated in place (S_0 = 0). When out is not NULL, out[j * R + i]
 * receives S_{m+1+j} of replica i, a steps x R row-major tile. */
void mrw_advance(const uint64_t *keys, double *S, int64_t R, int64_t m, int64_t steps,
                 double s, double q, double alpha, double *out)
{
    for (int64_t i0 = 0; i0 < R; i0 += LANES) {
        int width = R - i0 < LANES ? (int)(R - i0) : LANES;
        uint64_t k0[LANES], k1[LANES];
        double x[LANES];
        for (int l = 0; l < width; l++) {
            k0[l] = keys[2 * (i0 + l)];
            k1[l] = keys[2 * (i0 + l) + 1];
            x[l] = S[i0 + l];
        }
        double *o = out ? out + i0 : NULL;
        if (width == LANES)
            advance_group(LANES, k0, k1, x, m, steps, s, q, alpha, o, R);
        else
            advance_group(width, k0, k1, x, m, steps, s, q, alpha, o, R);
        for (int l = 0; l < width; l++)
            S[i0 + l] = x[l];
    }
}

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
 * so that no fused multiply-add changes a comparison. The eight coefficients
 * alpha / t of a Philox block are divided once per block, off the chain of
 * dependent steps; each is the same correctly rounded quotient. Step 1 is
 * the same step with s in place of q: its coefficient is alpha / 1, finite,
 * and S_0 = 0, so its bound s + (alpha / 1) * 0 is exactly s.
 *
 * Two paths give the same bytes. advance_group, the scalar path, is the
 * reference and runs on any CPU. When the library loads it asks the CPU
 * (__builtin_cpu_supports) for AVX-512 F and DQ; with them, mrw_advance runs
 * every whole set of 8 replicas on the AVX-512 path, in units of 32 while 32
 * remain and then of 16 and 8, and only a remainder under 8 on
 * advance_group. The build flags name no instruction set, so one cached
 * library serves every x86-64 machine; built with -DMRW_SCALAR_ONLY it
 * leaves the AVX-512 path out and runs advance_group alone, which is how the
 * tests reach the scalar reference on an AVX-512 machine. The bytes do not
 * depend on the path:
 *   - the Philox words are integers, however the products are formed (the
 *     AVX-512 path takes its first two rounds from a scalar product per
 *     block and a product per replica fixed for the call);
 *   - a draw (bits >> 8) < 2^24 converts to double exactly, and scaling it
 *     by 2^-24 is exact, so it equals the float32 draw widened to double;
 *   - the bound q + c * x is a multiply, then an add, with no contraction;
 *   - an ordered quiet less-than compare is C's `<` on these operands,
 *     none of which is a NaN.
 * An AVX2 path (four lanes per register) for CPUs without AVX-512 is not
 * written; they run the scalar path.
 *
 * Besides S, a call keeps at most one output, the kind of its reducer: the
 * position tile, or the QSL sums. The QSL reducer adds, per replica and step
 * k of the call,
 *     point = scale_k * (S_k / k - centre),  p2 = point * point,
 *     term = weight_k * p2,  then term *= p2 r - 1 times,  acc += term,
 * the IEEE operations of the numpy reducer it replaces, in its order, with
 * S_k / k the correctly rounded quotient (a plain multiply by 1/k would round
 * differently). scale_k and weight_k come from the caller, so no libm
 * function runs here. The scalar path divides; the AVX-512 path forms the
 * same quotient from 1/k, once per step, and two fused multiply-adds (see
 * quotient_x8). Every other vector operation is the correctly rounded scalar
 * one, lane by lane on the same doubles, so the sums do not depend on the
 * path either.
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

/* The one output of a call besides S, picked by kind; see mrw_advance. */
enum { KEEP_NONE, KEEP_TILE, KEEP_QSL };
struct reducer {
    int64_t kind;
    double *dst;
    const double *scale, *weight;
    double centre;
    int64_t r;
};

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

/* The coefficients alpha / t of the steps t = 8 * block + d of a Philox
 * block, d = 0 .. 7. Step 0 divides by 1, not by 0, so no floating-point
 * exception flag is raised, and its coefficient alpha / 1 multiplies
 * x = S_0 = 0, adding a zero to s. */
static inline __attribute__((always_inline)) void
step_coefficients(int64_t block, double alpha, double c[8])
{
    for (int d = 0; d < 8; d++) {
        double t = (double)(8 * block + d);
        c[d] = alpha / (t > 1.0 ? t : 1.0);
    }
}

/* Add the QSL terms of step k, step j of its call, at the positions x of
 * `lanes` replicas to their sums acc. */
static inline __attribute__((always_inline)) void
qsl_terms(int lanes, const struct reducer *red, int64_t j, int64_t k, const double *x, double *acc)
{
    double scale = red->scale[j], weight = red->weight[j];
    for (int l = 0; l < lanes; l++) {
        double point = scale * (x[l] / (double)k - red->centre);
        double p2 = point * point, term = weight * p2;
        for (int64_t i = 1; i < red->r; i++)
            term *= p2;
        acc[l] += term;
    }
}

/* Advance replicas i0 .. i0 + lanes - 1 of a call of mrw_advance, whose
 * arguments follow i0, in local copies of their keys, positions and sums. */
static inline __attribute__((always_inline)) void
advance_group(int lanes, int64_t i0, const uint64_t *keys, double *S, int64_t R, int64_t m, int64_t steps,
              double s, double q, double alpha, const struct reducer *red)
{
    double *out = red->kind == KEEP_TILE ? red->dst + i0 : NULL, *sums = red->kind == KEEP_QSL ? red->dst + i0 : NULL;
    uint64_t k0[LANES], k1[LANES];
    double x[LANES], acc[LANES], u[8][LANES], c[8];
    for (int l = 0; l < lanes; l++) {
        k0[l] = keys[2 * (i0 + l)];
        k1[l] = keys[2 * (i0 + l) + 1];
        x[l] = S[i0 + l];
        acc[l] = sums ? sums[l] : 0.0;
    }
    for (int64_t t = m, end = m + steps; t < end;) {
        step_coefficients(t / 8, alpha, c);
        philox_draws(lanes, (uint64_t)(t / 8) + 1, k0, k1, u);
        int64_t stop = (t / 8 + 1) * 8 < end ? (t / 8 + 1) * 8 : end;
        for (; t < stop; t++) {
            const double *ut = u[t % 8], ct = c[t % 8], qt = t ? q : s;
            for (int l = 0; l < lanes; l++)
                x[l] += (double)(ut[l] < qt + ct * x[l]);
            if (out)
                for (int l = 0; l < lanes; l++)
                    out[(t - m) * R + l] = x[l];
            if (sums)
                qsl_terms(lanes, red, t - m, t + 1, x, acc);
        }
    }
    for (int l = 0; l < lanes; l++) {
        S[i0 + l] = x[l];
        if (sums)
            sums[l] = acc[l];
    }
}

#if defined(__x86_64__) && !defined(MRW_SCALAR_ONLY)
#include <immintrin.h>

/* The AVX-512 path: one replica per 64-bit lane, eight per register, and up
 * to GROUPS such groups of eight interleaved, so that their Philox rounds and
 * step dependency chains overlap. It computes the Philox words of
 * philox_draws and takes the IEEE operations of advance_group in the same
 * order. */
#define AVX512 __attribute__((target("avx512f,avx512dq")))
#define GROUPS 4

/* The 128-bit products of the 64-bit lanes of a with the constant whose
 * 32-bit halves are broadcast in m_lo and m_hi, from four 32 x 32 -> 64-bit
 * products. The middle sum cross = (ll >> 32) + (hl & low32) + lh is at most
 * 2 (2^32 - 1) + (2^32 - 1)^2 = 2^64 - 1, so it carries nothing out.
 *
 * The 32-bit shifts are half swaps: SWAP (0xB1) exchanges the two 32-bit
 * halves of each lane, so with the high halves zeroed (mask 0x5555) it
 * gives x >> 32, and merged into the high halves of ll (mask 0xAAAA) it gives
 * lo = (cross << 32) | (ll & low32) in one instruction. a's swap needs no
 * mask, since mul_epu32 reads only the low half of each lane. A swap runs on
 * the shuffle port and a shift on the port the multiplies use, so the shifts
 * would wait behind the products. */
#define SWAP _MM_PERM_CDAB
static inline __attribute__((always_inline)) AVX512 void
mulhilo_x8(__m512i a, __m512i m_lo, __m512i m_hi, __m512i *lo, __m512i *hi)
{
    const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFF);
    __m512i a_hi = _mm512_shuffle_epi32(a, SWAP);
    __m512i ll = _mm512_mul_epu32(a, m_lo), lh = _mm512_mul_epu32(a, m_hi);
    __m512i hl = _mm512_mul_epu32(a_hi, m_lo), hh = _mm512_mul_epu32(a_hi, m_hi);
    __m512i cross = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_maskz_shuffle_epi32(0x5555, ll, SWAP), _mm512_and_si512(hl, low32)), lh);
    *lo = _mm512_mask_shuffle_epi32(ll, 0xAAAA, cross, SWAP);
    *hi = _mm512_add_epi64(_mm512_add_epi64(hh, _mm512_maskz_shuffle_epi32(0x5555, hl, SWAP)),
                           _mm512_maskz_shuffle_epi32(0x5555, cross, SWAP));
}

/* philox_draws for `groups` groups of eight lanes: u[g][d] holds draw
 * 8 * (ctr - 1) + d of the lanes of group g, whose round keys are
 * k0[g][round] and k1[g][round].
 *
 * Rounds 0 and 1 start from constants. The counter (ctr, 0, 0, 0) is the
 * same in every lane, so round 0 leaves c0 = k0, c1 = 0,
 * c2 = hi(M0 ctr) ^ k1 and c3 = lo(M0 ctr), with M0 ctr one scalar product
 * per block. Round 1's M0 product is then M0 k0, fixed for the whole call:
 * m0k0_lo[g] and m0k0_hi[g] hold it, so round 1 forms only M1 c2. */
static inline __attribute__((always_inline)) AVX512 void
philox_draws_x8(int groups, uint64_t ctr, __m512i k0[GROUPS][10], __m512i k1[GROUPS][10],
                const __m512i m0k0_lo[GROUPS], const __m512i m0k0_hi[GROUPS], __m512d u[GROUPS][8])
{
    const __m512i m0_lo = _mm512_set1_epi64(PHILOX_M0 & 0xFFFFFFFF), m0_hi = _mm512_set1_epi64(PHILOX_M0 >> 32);
    const __m512i m1_lo = _mm512_set1_epi64(PHILOX_M1 & 0xFFFFFFFF), m1_hi = _mm512_set1_epi64(PHILOX_M1 >> 32);
    const __m512i low24 = _mm512_set1_epi64(0xFFFFFF);
    const __m512d scale = _mm512_set1_pd(1.0 / 16777216.0);
    const u128 p = (u128)PHILOX_M0 * ctr;
    const __m512i p_lo = _mm512_set1_epi64((long long)(uint64_t)p);
    const __m512i p_hi = _mm512_set1_epi64((long long)(uint64_t)(p >> 64));
    __m512i c0[GROUPS], c1[GROUPS], c2[GROUPS], c3[GROUPS];
    for (int g = 0; g < groups; g++) {
        __m512i hi1;
        mulhilo_x8(_mm512_xor_si512(p_hi, k1[g][0]), m1_lo, m1_hi, &c1[g], &hi1);
        c0[g] = _mm512_xor_si512(hi1, k0[g][1]);
        /* 0x96 is A ^ B ^ C. */
        c2[g] = _mm512_ternarylogic_epi64(m0k0_hi[g], p_lo, k1[g][1], 0x96);
        c3[g] = m0k0_lo[g];
    }
    for (int round = 2; round < 10; round++) {
        for (int g = 0; g < groups; g++) {
            __m512i lo0, hi0, lo1, hi1;
            mulhilo_x8(c0[g], m0_lo, m0_hi, &lo0, &hi0);
            mulhilo_x8(c2[g], m1_lo, m1_hi, &lo1, &hi1);
            c0[g] = _mm512_ternarylogic_epi64(hi1, c1[g], k0[g][round], 0x96);
            c2[g] = _mm512_ternarylogic_epi64(hi0, c3[g], k1[g][round], 0x96);
            c1[g] = lo1;
            c3[g] = lo0;
        }
    }
    for (int g = 0; g < groups; g++) {
        __m512i w[4] = {c0[g], c1[g], c2[g], c3[g]};
        for (int d = 0; d < 8; d++) {
            __m512i bits = d % 2 ? _mm512_srli_epi64(w[d / 2], 40)
                                 : _mm512_and_si512(_mm512_srli_epi64(w[d / 2], 8), low24);
            u[g][d] = _mm512_mul_pd(_mm512_cvtepi64_pd(bits), scale);
        }
    }
}

/* The correctly rounded quotients x / k, with no vector divide: y = 1 / k
 * rounded to nearest, q0 = x y is within an ulp of x / k, the residual
 * e = x - q0 k is exact in one fused multiply-add, and q0 + e y, rounded
 * once, is x / k (Markstein's theorem; here x and k are integers below
 * 2^53, 0 <= x <= k). x = 0 gives +0. The fused multiply-adds are explicit;
 * -ffp-contract=off forbids only those the compiler would form itself. Each
 * group's call inlines the same scalar 1 / k, which is divided once. */
static inline __attribute__((always_inline)) AVX512 __m512d
quotient_x8(__m512d x, double k)
{
    const __m512d kv = _mm512_set1_pd(k), y = _mm512_set1_pd(1.0 / k), q0 = _mm512_mul_pd(x, y);
    return _mm512_fmadd_pd(_mm512_fnmadd_pd(q0, kv, x), y, q0);
}

/* qsl_terms for `groups` groups of eight lanes. */
static inline __attribute__((always_inline)) AVX512 void
qsl_terms_x8(int groups, const struct reducer *red, int64_t j, int64_t k, const __m512d xv[GROUPS], __m512d acc[GROUPS])
{
    const __m512d centre = _mm512_set1_pd(red->centre);
    const __m512d scale = _mm512_set1_pd(red->scale[j]), weight = _mm512_set1_pd(red->weight[j]);
    __m512d p2[GROUPS], term[GROUPS];
    for (int g = 0; g < groups; g++) {
        __m512d point = _mm512_mul_pd(scale, _mm512_sub_pd(quotient_x8(xv[g], (double)k), centre));
        p2[g] = _mm512_mul_pd(point, point);
        term[g] = _mm512_mul_pd(weight, p2[g]);
    }
    for (int64_t i = 1; i < red->r; i++)
        for (int g = 0; g < groups; g++)
            term[g] = _mm512_mul_pd(term[g], p2[g]);
    for (int g = 0; g < groups; g++)
        acc[g] = _mm512_add_pd(acc[g], term[g]);
}

/* advance_group for replicas i0 .. i0 + groups * LANES - 1 of a call of
 * mrw_advance, whose arguments follow i0. */
static inline __attribute__((always_inline)) AVX512 void
advance_groups_x8(int groups, int64_t i0, const uint64_t *keys, double *S, int64_t R, int64_t m, int64_t steps,
                  double s, double q, double alpha, const struct reducer *red)
{
    double *x = S + i0, *out = red->kind == KEEP_TILE ? red->dst + i0 : NULL;
    double *acc = red->kind == KEEP_QSL ? red->dst + i0 : NULL;
    keys += 2 * i0;
    const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512d one = _mm512_set1_pd(1.0), sv = _mm512_set1_pd(s), qv = _mm512_set1_pd(q);
    const __m512d alv = _mm512_set1_pd(alpha), lane = _mm512_setr_pd(0, 1, 2, 3, 4, 5, 6, 7);
    __m512i k0[GROUPS][10], k1[GROUPS][10], m0k0_lo[GROUPS], m0k0_hi[GROUPS];
    __m512d xv[GROUPS], av[GROUPS], u[GROUPS][8];
    for (int g = 0; g < groups; g++) {
        __m512i a = _mm512_loadu_si512(keys + 2 * LANES * g), b = _mm512_loadu_si512(keys + 2 * LANES * g + LANES);
        k0[g][0] = _mm512_permutex2var_epi64(a, even, b);
        k1[g][0] = _mm512_permutex2var_epi64(a, odd, b);
        mulhilo_x8(k0[g][0], _mm512_set1_epi64(PHILOX_M0 & 0xFFFFFFFF), _mm512_set1_epi64(PHILOX_M0 >> 32),
                   &m0k0_lo[g], &m0k0_hi[g]);
        for (int round = 1; round < 10; round++) {
            k0[g][round] = _mm512_add_epi64(k0[g][round - 1], _mm512_set1_epi64((long long)PHILOX_W0));
            k1[g][round] = _mm512_add_epi64(k1[g][round - 1], _mm512_set1_epi64((long long)PHILOX_W1));
        }
        xv[g] = _mm512_loadu_pd(x + LANES * g);
        av[g] = acc ? _mm512_loadu_pd(acc + LANES * g) : _mm512_setzero_pd();
    }
    for (int64_t t = m, end = m + steps; t < end;) {
        /* step_coefficients in one divide, computed ahead of the Philox rounds. */
        const __m512d tv = _mm512_add_pd(_mm512_set1_pd((double)(t / 8 * 8)), lane);
        const __m512d cv = _mm512_div_pd(alv, _mm512_max_pd(tv, one));
        philox_draws_x8(groups, (uint64_t)(t / 8) + 1, k0, k1, m0k0_lo, m0k0_hi, u);
        int64_t stop = (t / 8 + 1) * 8 < end ? (t / 8 + 1) * 8 : end;
        for (; t < stop; t++) {
            const __m512d c = _mm512_permutexvar_pd(_mm512_set1_epi64(t % 8), cv), qt = t ? qv : sv;
            for (int g = 0; g < groups; g++) {
                __m512d bound = _mm512_add_pd(qt, _mm512_mul_pd(c, xv[g]));
                xv[g] = _mm512_mask_add_pd(xv[g], _mm512_cmp_pd_mask(u[g][t % 8], bound, _CMP_LT_OQ), xv[g], one);
                if (out)
                    _mm512_storeu_pd(out + (t - m) * R + LANES * g, xv[g]);
            }
            if (acc)
                qsl_terms_x8(groups, red, t - m, t + 1, xv, av);
        }
    }
    for (int g = 0; g < groups; g++) {
        _mm512_storeu_pd(x + LANES * g, xv[g]);
        if (acc)
            _mm512_storeu_pd(acc + LANES * g, av[g]);
    }
}

/* The AVX-512 path of mrw_advance: units of GROUPS groups of eight replicas
 * while a whole unit remains, then one unit of GROUPS / 2 groups and one of
 * a single group while whole sets of eight remain (GROUPS = 4 tiles them
 * all). Each call inlines advance_groups_x8 with a constant `groups`, so its
 * loops over the groups unroll. Returns the number of replicas run. */
static AVX512 int64_t
advance_sets_x8(const uint64_t *keys, double *S, int64_t R, int64_t m, int64_t steps, double s, double q,
                double alpha, const struct reducer *red)
{
    int64_t i0 = 0;
    for (; i0 + GROUPS * LANES <= R; i0 += GROUPS * LANES)
        advance_groups_x8(GROUPS, i0, keys, S, R, m, steps, s, q, alpha, red);
    if (i0 + GROUPS / 2 * LANES <= R) {
        advance_groups_x8(GROUPS / 2, i0, keys, S, R, m, steps, s, q, alpha, red);
        i0 += GROUPS / 2 * LANES;
    }
    if (i0 + LANES <= R) {
        advance_groups_x8(1, i0, keys, S, R, m, steps, s, q, alpha, red);
        i0 += LANES;
    }
    return i0;
}

/* Whether this CPU runs the AVX-512 path, settled when the library loads. */
static int use_avx512;

__attribute__((constructor)) static void pick_path(void)
{
    __builtin_cpu_init();
    use_avx512 = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}
#endif

/* Advance replicas 0 .. R-1 from step m through step m + steps.
 *
 * keys holds (seed, replica) per replica, R x 2; S holds S_m per replica and
 * is updated in place. Step 1 adds to S like every other step, so S must be
 * 0 at m = 0. kind picks the one other output, dst: none (KEEP_NONE), a
 * steps x R row-major tile whose dst[j * R + i] receives S_{m+1+j} of
 * replica i (KEEP_TILE), or sums whose dst[i] gains the QSL term of replica i
 * at each step k = m + 1 + j of the call, in step order, with scale[j] and
 * weight[j] as scale_k and weight_k (KEEP_QSL, the one kind that reads them;
 * see the top of this file), so a sum that starts after step 1 starts a call.
 * On a CPU with AVX-512 F and DQ the AVX-512 path runs every whole set of 8
 * replicas and advance_group a remainder under 8; elsewhere advance_group runs
 * them all. */
void mrw_advance(const uint64_t *keys, double *S, int64_t R, int64_t m, int64_t steps, double s, double q,
                 double alpha, int64_t kind, double *dst, const double *scale, const double *weight, double centre,
                 int64_t r)
{
    const struct reducer red = {kind, dst, scale, weight, centre, r};
    int64_t i0 = 0;
#if defined(__x86_64__) && !defined(MRW_SCALAR_ONLY)
    if (use_avx512)
        i0 = advance_sets_x8(keys, S, R, m, steps, s, q, alpha, &red);
#endif
    for (; i0 + LANES <= R; i0 += LANES)
        advance_group(LANES, i0, keys, S, R, m, steps, s, q, alpha, &red);
    if (i0 < R)
        advance_group((int)(R - i0), i0, keys, S, R, m, steps, s, q, alpha, &red);
}

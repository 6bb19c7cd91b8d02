/**
 * @file
 * Vectorized variants of the set_scan.hh primitives.
 *
 * The packed tag words are already SoA-contiguous (set_scan.hh), so a
 * 4-way set scan is one 32-byte load: the AVX2 paths compare four
 * packed words per step and fold the fused victim selection
 * (victimOrderKey min) into the same sweep. Dispatch is two-level:
 *
 *  - compile time: `UNISON_FORCE_SCALAR_SCAN` (CMake option of the
 *    same name) or a non-x86-64 target compiles the *Fast entry points
 *    straight down to the scalar reference implementations -- that
 *    build is what the golden-byte-compare CI job pins against the
 *    SIMD build;
 *  - run time: one cached `__builtin_cpu_supports("avx2")` probe picks
 *    the AVX2 kernels (compiled with a `target("avx2")` attribute so
 *    the rest of the binary stays baseline x86-64); without AVX2 the
 *    hit scan falls back to a 2-wide SSE2 kernel and the fused scan
 *    to the scalar encoded-min loop, because baseline SSE2 has no
 *    64-bit compares (pcmpeqq/pcmpgtq are SSE4.1/4.2) -- the 64-bit
 *    equality below is synthesized from pcmpeqd + a lane-swapped AND.
 *
 * Every kernel returns bit-identical results to its scalar reference:
 * the lowest matching way for hit scans (at most one way can match in
 * a live set, but the property tests feed duplicates), and the unique
 * victimOrderKey minimum for the victim half of the fused scan.
 * tests/set_scan_simd_test.cpp fuzzes that equivalence across assoc
 * 1-32 and a wide 113-way set.
 */

#ifndef UNISON_CACHE_SET_SCAN_SIMD_HH
#define UNISON_CACHE_SET_SCAN_SIMD_HH

#include <cstdint>

#include "cache/set_scan.hh"

#if !defined(UNISON_FORCE_SCALAR_SCAN) && defined(__x86_64__)
#define UNISON_SET_SCAN_SIMD 1
#include <immintrin.h>
#else
#define UNISON_SET_SCAN_SIMD 0
#endif

namespace unison {

#if UNISON_SET_SCAN_SIMD

namespace simd_detail {

/** One probe at static-init time; the hot paths read a plain bool. */
inline const bool kHaveAvx2 = __builtin_cpu_supports("avx2") != 0;

/** Lowest way with (tags[w] & mask) == key, 4 words per step. */
__attribute__((target("avx2"))) inline int
scanWaysAvx2(const std::uint64_t *tags, std::uint32_t assoc,
             std::uint64_t mask, std::uint64_t key)
{
    const __m256i vmask =
        _mm256_set1_epi64x(static_cast<long long>(mask));
    const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key));
    std::uint32_t w = 0;
    for (; w + 4 <= assoc; w += 4) {
        const __m256i words = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const __m256i eq =
            _mm256_cmpeq_epi64(_mm256_and_si256(words, vmask), vkey);
        const int lanes = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
        if (lanes != 0)
            return static_cast<int>(
                w + static_cast<std::uint32_t>(__builtin_ctz(
                        static_cast<unsigned>(lanes))));
    }
    for (; w < assoc; ++w)
        if ((tags[w] & mask) == key)
            return static_cast<int>(w);
    return -1;
}

/**
 * SSE2 hit scan: 64-bit equality from pcmpeqd -- a lane is equal iff
 * both of its 32-bit halves compare equal, so AND the dword-compare
 * result with its halves swapped.
 */
inline int
scanWaysSse2(const std::uint64_t *tags, std::uint32_t assoc,
             std::uint64_t mask, std::uint64_t key)
{
    const __m128i vmask = _mm_set1_epi64x(static_cast<long long>(mask));
    const __m128i vkey = _mm_set1_epi64x(static_cast<long long>(key));
    std::uint32_t w = 0;
    for (; w + 2 <= assoc; w += 2) {
        const __m128i words = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tags + w));
        const __m128i eq32 =
            _mm_cmpeq_epi32(_mm_and_si128(words, vmask), vkey);
        const __m128i eq64 = _mm_and_si128(
            eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
        const int lanes = _mm_movemask_pd(_mm_castsi128_pd(eq64));
        if (lanes != 0)
            return static_cast<int>(
                w + static_cast<std::uint32_t>(__builtin_ctz(
                        static_cast<unsigned>(lanes))));
    }
    if (w < assoc && (tags[w] & mask) == key)
        return static_cast<int>(w);
    return -1;
}

/** Horizontal unsigned min over the four victim keys of a vector. */
__attribute__((target("avx2"))) inline std::uint64_t
victimKeyMinAvx2(__m256i keys)
{
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), keys);
    const std::uint64_t lo =
        lanes[0] < lanes[1] ? lanes[0] : lanes[1];
    const std::uint64_t hi =
        lanes[2] < lanes[3] ? lanes[2] : lanes[3];
    return lo < hi ? lo : hi;
}

/**
 * Fused hit + victim sweep, 4 ways per step. Victim keys are built
 * exactly as victimOrderKey does -- widen the u32 stamps, blend the
 * encoded key against the bare index on the validity compare -- and
 * reduced with a sign-biased signed compare (unsigned 64-bit min).
 */
__attribute__((target("avx2"))) inline void
scanSetAvx2(const std::uint64_t *tags, const std::uint32_t *last_use,
            std::uint32_t assoc, std::uint64_t mask, std::uint64_t key,
            std::uint64_t valid_bit, int &hit_way,
            std::uint32_t &victim_way)
{
    const __m256i vmask =
        _mm256_set1_epi64x(static_cast<long long>(mask));
    const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key));
    const __m256i vvalid =
        _mm256_set1_epi64x(static_cast<long long>(valid_bit));
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(1ull << 63));
    const __m256i step = _mm256_set1_epi64x(4);
    __m256i vidx = _mm256_set_epi64x(3, 2, 1, 0);
    __m256i vbest = _mm256_set1_epi64x(-1);
    int hit = -1;
    std::uint32_t w = 0;
    for (; w + 4 <= assoc; w += 4) {
        const __m256i words = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const __m256i eq =
            _mm256_cmpeq_epi64(_mm256_and_si256(words, vmask), vkey);
        const int lanes = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
        if (lanes != 0 && hit < 0)
            hit = static_cast<int>(
                w + static_cast<std::uint32_t>(__builtin_ctz(
                        static_cast<unsigned>(lanes))));
        const __m256i stamps = _mm256_cvtepu32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(last_use + w)));
        const __m256i validm = _mm256_cmpeq_epi64(
            _mm256_and_si256(words, vvalid), vvalid);
        const __m256i encoded = _mm256_or_si256(
            _mm256_or_si256(sign, _mm256_slli_epi64(stamps, 8)), vidx);
        const __m256i vk =
            _mm256_blendv_epi8(vidx, encoded, validm);
        const __m256i worse = _mm256_cmpgt_epi64(
            _mm256_xor_si256(vbest, sign), _mm256_xor_si256(vk, sign));
        vbest = _mm256_blendv_epi8(vbest, vk, worse);
        vidx = _mm256_add_epi64(vidx, step);
    }
    std::uint64_t best = victimKeyMinAvx2(vbest);
    for (; w < assoc; ++w) {
        const std::uint64_t word = tags[w];
        if (hit < 0 && (word & mask) == key)
            hit = static_cast<int>(w);
        const std::uint64_t vk =
            victimOrderKey(word, last_use[w], w, valid_bit);
        best = vk < best ? vk : best;
    }
    hit_way = hit;
    victim_way = static_cast<std::uint32_t>(best & 255);
}

} // namespace simd_detail

#endif // UNISON_SET_SCAN_SIMD

/** scanWays with the best kernel the build + host support. */
inline int
scanWaysFast(const std::uint64_t *tags, std::uint32_t assoc,
             std::uint64_t mask, std::uint64_t key)
{
#if UNISON_SET_SCAN_SIMD
    if (assoc >= 4) {
        if (simd_detail::kHaveAvx2)
            return simd_detail::scanWaysAvx2(tags, assoc, mask, key);
        return simd_detail::scanWaysSse2(tags, assoc, mask, key);
    }
#endif
    return scanWays(tags, assoc, mask, key);
}

/** scanWaysMru with the vector scan behind the hint probe. */
inline int
scanWaysMruFast(const std::uint64_t *tags, std::uint32_t assoc,
                std::uint64_t mask, std::uint64_t key, std::uint32_t mru)
{
    if ((tags[mru] & mask) == key)
        return static_cast<int>(mru);
    return scanWaysFast(tags, assoc, mask, key);
}

/** Fused scanSet with the best kernel the build + host support. */
inline void
scanSetFast(const std::uint64_t *tags, const std::uint32_t *last_use,
            std::uint32_t assoc, std::uint64_t mask, std::uint64_t key,
            std::uint64_t valid_bit, int &hit_way,
            std::uint32_t &victim_way)
{
#if UNISON_SET_SCAN_SIMD
    if (assoc >= 4 && simd_detail::kHaveAvx2) {
        simd_detail::scanSetAvx2(tags, last_use, assoc, mask, key,
                                 valid_bit, hit_way, victim_way);
        return;
    }
#endif
    scanSet(tags, last_use, assoc, mask, key, valid_bit, hit_way,
            victim_way);
}

} // namespace unison

#endif // UNISON_CACHE_SET_SCAN_SIMD_HH

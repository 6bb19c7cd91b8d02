/**
 * @file
 * Branch-reduced scans over packed per-set tag arrays.
 *
 * Every cache model in the simulator keeps its per-set way metadata as
 * struct-of-arrays: one contiguous array of packed 64-bit tag words
 * (valid/dirty folded into the top bits, the tag in the low bits)
 * indexed by `set * assoc + way`, with the cold per-way fields (LRU
 * stamps, footprint masks, trigger PCs) in parallel arrays of their
 * own. A 4-way tag scan then touches 32 contiguous bytes -- half a
 * host cache line -- instead of pointer-chasing way objects, and the
 * compare loop below compiles to conditional moves instead of a
 * mispredicting early-exit branch per way.
 */

#ifndef UNISON_CACHE_SET_SCAN_HH
#define UNISON_CACHE_SET_SCAN_HH

#include <cstdint>

namespace unison {

/**
 * Shared packed tag-word layout: valid in bit 63, dirty (for caches
 * that fold it in) in bit 62, the tag in the low bits. Every cache
 * model's packed words use these positions, so the layout has one
 * source of truth next to the scans that interpret it.
 */
inline constexpr std::uint64_t kWayValidBit = 1ull << 63;
inline constexpr std::uint64_t kWayDirtyBit = 1ull << 62;
inline constexpr std::uint64_t kWayTagMask = kWayDirtyBit - 1;

/**
 * Find the way whose packed tag word matches `key` under `mask`:
 * returns the first `w < assoc` with `(tags[w] & mask) == key`, or -1.
 *
 * Tag words within a set are unique, so at most one way matches; the
 * ternary accumulation keeps the scan branchless (cmov chain) for the
 * small associativities (1-32) the designs use.
 */
inline int
scanWays(const std::uint64_t *tags, std::uint32_t assoc,
         std::uint64_t mask, std::uint64_t key)
{
    int hit = -1;
    for (std::uint32_t w = assoc; w-- > 0;)
        hit = (tags[w] & mask) == key ? static_cast<int>(w) : hit;
    return hit;
}

/**
 * scanWays with a most-recently-hit way hint probed first: block
 * repeats and bursty reuse make the hint hit often, and a hint hit
 * touches exactly one tag word.
 */
inline int
scanWaysMru(const std::uint64_t *tags, std::uint32_t assoc,
            std::uint64_t mask, std::uint64_t key, std::uint32_t mru)
{
    if ((tags[mru] & mask) == key)
        return static_cast<int>(mru);
    return scanWays(tags, assoc, mask, key);
}

/**
 * Victim-order key of one way: `invalid ? w : 2^63 | stamp << 8 | w`.
 * The replacement order every design here uses -- first invalid way,
 * else smallest stamp, lowest way on stamp ties -- becomes a plain
 * unsigned min over these keys, and the winning way index rides in the
 * low byte (which caps supported associativity at 256 ways; the page
 * designs allow at most 32). Keys within a set are unique because of
 * that low byte, so the min is order-independent -- which is what lets
 * the scalar and SIMD scans below, and the strided page-set victim
 * scan, all share this one definition.
 */
inline std::uint64_t
victimOrderKey(std::uint64_t word, std::uint32_t stamp, std::uint32_t w,
               std::uint64_t valid_bit)
{
    return (word & valid_bit) != 0
               ? (1ull << 63) | (static_cast<std::uint64_t>(stamp) << 8) |
                     w
               : w;
}

/**
 * One fused pass over a set: the hit way under (mask, key), and the
 * victim the miss path would evict (victimOrderKey min), so hit search
 * and victim selection share one sweep of the packed tag words instead
 * of two. The loop runs descending so the *lowest* matching way wins
 * -- the same answer scanWays gives -- which only matters for
 * synthetic duplicate-tag inputs (the property tests exercise them;
 * live sets never hold duplicates); the victim min is
 * order-independent.
 */
inline void
scanSet(const std::uint64_t *tags, const std::uint32_t *last_use,
        std::uint32_t assoc, std::uint64_t mask, std::uint64_t key,
        std::uint64_t valid_bit, int &hit_way, std::uint32_t &victim_way)
{
    int hit = -1;
    std::uint64_t best = ~0ull;
    for (std::uint32_t w = assoc; w-- > 0;) {
        const std::uint64_t word = tags[w];
        hit = (word & mask) == key ? static_cast<int>(w) : hit;
        const std::uint64_t vk =
            victimOrderKey(word, last_use[w], w, valid_bit);
        best = vk < best ? vk : best;
    }
    hit_way = hit;
    victim_way = static_cast<std::uint32_t>(best & 255);
}

} // namespace unison

#endif // UNISON_CACHE_SET_SCAN_HH

/**
 * @file
 * Bit-manipulation helpers used by the address-mapping, predictor-hash
 * and geometry code.
 */

#ifndef UNISON_COMMON_BITOPS_HH
#define UNISON_COMMON_BITOPS_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"

namespace unison {

/** True iff v is a power of two (v > 0). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2(v); v must be non-zero. */
constexpr std::uint32_t
floorLog2(std::uint64_t v)
{
    return 63u - static_cast<std::uint32_t>(std::countl_zero(v));
}

/** log2 of an exact power of two. */
inline std::uint32_t
exactLog2(std::uint64_t v)
{
    UNISON_ASSERT(isPowerOfTwo(v), "exactLog2 of non-power-of-two ", v);
    return floorLog2(v);
}

/** Round v up to the next multiple of `align` (align a power of two). */
constexpr std::uint64_t
roundUpPow2(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Extract bits [lo, lo+count) of v. */
constexpr std::uint64_t
extractBits(std::uint64_t v, std::uint32_t lo, std::uint32_t count)
{
    return (v >> lo) & ((count >= 64) ? ~0ull : ((1ull << count) - 1));
}

/** Number of set bits. */
constexpr std::uint32_t
popCount(std::uint64_t v)
{
    return static_cast<std::uint32_t>(std::popcount(v));
}

/** Widest page the 32-bit block bitmaps hold: the `pageBlocks` knob
 *  maximum of every footprint-tracking design. */
constexpr std::uint32_t kMaxPageBlocks = 32;

/** All-ones mask for a page of `page_blocks` blocks (block bitmaps are
 *  32 bits wide; 32-block pages saturate the mask). */
constexpr std::uint32_t
fullBlockMask(std::uint32_t page_blocks)
{
    return (page_blocks >= kMaxPageBlocks) ? 0xffffffffu
                                           : ((1u << page_blocks) - 1);
}

/**
 * XOR-fold a 64-bit value down to `bits` bits. This is the hash the
 * Unison way predictor uses on page addresses (Sec. III-A.6: "a 2-bit
 * array directly indexed by the 12-bit XOR hash of the page address").
 */
inline std::uint64_t
xorFold(std::uint64_t v, std::uint32_t bits)
{
    UNISON_ASSERT(bits > 0 && bits < 64, "xorFold to ", bits, " bits");
    std::uint64_t folded = 0;
    while (v != 0) {
        folded ^= v & ((1ull << bits) - 1);
        v >>= bits;
    }
    return folded;
}

/** splitmix64 finalizer: a strong 64-bit mixer. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/**
 * Mix two values (e.g. PC and block offset) into one well-distributed
 * hash. Used for footprint-history and miss-predictor indexing. Both
 * inputs are mixed *before* combination: a linear pre-mix (the classic
 * boost hash_combine) would make structurally related pairs such as
 * (pc, offset) and (pc + 64k, offset - k) collide exactly, which
 * silently cripples the footprint history table.
 */
inline std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return mix64(mix64(a + 0x9e3779b97f4a7c15ull) ^
                 (b * 0xc2b2ae3d27d4eb4full));
}

} // namespace unison

#endif // UNISON_COMMON_BITOPS_HH

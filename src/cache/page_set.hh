/**
 * @file
 * Set metadata for page-granular cache frames (Unison Cache,
 * Footprint Cache, and the tagged-page straw man share the same
 * per-way record: tag, trigger PC, footprint bit vectors, LRU stamp).
 *
 * The layout is three parallel arrays indexed `set * assoc + way`,
 * split by access temperature -- on multi-MB metadata that misses the
 * host cache, the number of distinct lines a hit touches is what the
 * simulator's speed is made of:
 *
 *  - `tagv`: packed 64-bit tag words alone, so the hot lookup --
 *    "which way of this set holds page tag T?" -- sweeps contiguous
 *    8-byte loads (a 4-way set's tags are half a host cache line);
 *  - `hot`: the four fields every hit updates (fetched/touched/dirty
 *    masks + LRU stamp), 16 bytes, so a 4-way set's hit state is one
 *    64-byte line;
 *  - `cold`: fields read or written only at allocation and eviction
 *    (trigger PC, predicted mask, trigger offset, stats generation).
 *
 * (A fully exploded struct-of-arrays -- one array per field -- was
 * measured slower: five separate mask arrays meant five lines dirtied
 * per hit.)
 */

#ifndef UNISON_CACHE_PAGE_SET_HH
#define UNISON_CACHE_PAGE_SET_HH

#include <cstdint>
#include <vector>

#include "cache/set_scan.hh"
#include "cache/set_scan_simd.hh"
#include "common/prefault.hh"
#include "common/state_io.hh"

namespace unison {

/** Per-way fields every hit touches (one 64 B line per 4-way set). */
struct PageWayHot
{
    std::uint32_t fetched = 0;   //!< valid blocks
    std::uint32_t touched = 0;   //!< demanded blocks
    std::uint32_t dirty = 0;     //!< dirty blocks
    std::uint32_t lastUse = 0;   //!< LRU stamp
};
static_assert(sizeof(PageWayHot) == 16, "hot page-way state unpacked");

/** Per-way fields touched only at allocation / eviction. */
struct PageWayCold
{
    std::uint32_t pcHash = 0;    //!< trigger PC (stored in row)
    std::uint32_t predicted = 0; //!< predicted-footprint mask
    std::uint8_t trigger = 0;    //!< trigger block offset
    std::uint8_t gen = 0;        //!< measurement generation
};

/** Metadata installed when a page is allocated into a way (Fig. 2:
 *  tag, bit vectors, trigger PC + offset, measurement generation). */
struct PageInstall
{
    std::uint64_t tag = 0;
    std::uint32_t pcHash = 0;
    std::uint8_t trigger = 0;
    std::uint32_t predicted = 0;
    std::uint32_t fetched = 0;
    std::uint32_t touched = 0;
    std::uint32_t lastUse = 0;
    std::uint8_t gen = 0;
};

/** Page-way metadata; all arrays are indexed `set * assoc + way`. */
struct PageWaySoa
{
    /** Packed tag word: kValid | page tag (tags fit well below 2^62). */
    static constexpr std::uint64_t kValid = 1ull << 63;

    std::vector<std::uint64_t> tagv;  //!< kValid | tag, 0 = invalid
    std::vector<PageWayHot> hot;
    std::vector<PageWayCold> cold;

    void
    resize(std::size_t ways)
    {
        assignPrefaulted(tagv, ways, 0);
        assignPrefaulted(hot, ways, PageWayHot{});
        assignPrefaulted(cold, ways, PageWayCold{});
    }

    bool valid(std::size_t idx) const { return tagv[idx] != 0; }
    std::uint64_t tag(std::size_t idx) const { return tagv[idx] & ~kValid; }
    void invalidate(std::size_t idx) { tagv[idx] = 0; }

    /** Install a freshly allocated page's metadata into way `idx`. */
    void
    install(std::size_t idx, const PageInstall &p)
    {
        tagv[idx] = kValid | p.tag;
        cold[idx].pcHash = p.pcHash;
        cold[idx].trigger = p.trigger;
        cold[idx].predicted = p.predicted;
        cold[idx].gen = p.gen;
        hot[idx].fetched = p.fetched;
        hot[idx].touched = p.touched;
        hot[idx].dirty = 0;
        hot[idx].lastUse = p.lastUse;
    }

    /** Way of the set at `base` holding `tag`, or -1 (absent). */
    int
    findWay(std::size_t base, std::uint32_t assoc, std::uint64_t tag) const
    {
        return scanWaysFast(&tagv[base], assoc, ~0ull, kValid | tag);
    }

    /** Victim way for the set at `base`: invalid first, else LRU --
     *  the shared victimOrderKey order. The stamps live strided
     *  inside PageWayHot (16 B apart), so this stays a scalar
     *  encoded-min loop rather than growing a gather. */
    std::uint32_t
    pickVictim(std::size_t base, std::uint32_t assoc) const
    {
        std::uint64_t best = ~0ull;
        for (std::uint32_t w = assoc; w-- > 0;) {
            const std::uint64_t vk = victimOrderKey(
                tagv[base + w], hot[base + w].lastUse, w, kValid);
            best = vk < best ? vk : best;
        }
        return static_cast<std::uint32_t>(best & 255);
    }

    /** Warm-state checkpoint of all three parallel arrays. */
    void
    saveState(StateWriter &out) const
    {
        out.podVector(tagv);
        out.podVector(hot);
        out.podVector(cold);
    }

    void
    loadState(StateReader &in)
    {
        in.podVectorExact(tagv);
        in.podVectorExact(hot);
        in.podVectorExact(cold);
    }
};

} // namespace unison

#endif // UNISON_CACHE_PAGE_SET_HH

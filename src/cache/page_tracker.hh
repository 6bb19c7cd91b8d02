/**
 * @file
 * Page-group tracking for *block*-organized caches that still want
 * page-level footprint learning (the naive block+FP splice and the
 * composed alloy-fp hybrid): while any block of a logical page is
 * resident, the tracker remembers the page's trigger (PC, offset) and
 * its fetched/touched/resident masks so the footprint predictor can
 * be trained when the last block leaves.
 *
 * The tracker models an SRAM-side structure and charges no timing;
 * designs that would have to reconstruct this information from the
 * in-DRAM tags (Sec. III-B.1) charge those scans themselves.
 *
 * Storage is a flat open-addressing table (common/flat_map.hh): the
 * tracker sits on the per-access hot path and its population is the
 * cache's live page set, so it must be O(active set) in memory and
 * pointer-chase-free per lookup even when a datacenter-scale mix keeps
 * millions of distinct pages in flight.
 */

#ifndef UNISON_CACHE_PAGE_TRACKER_HH
#define UNISON_CACHE_PAGE_TRACKER_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/state_io.hh"

namespace unison {

class PageGroupTracker
{
  public:
    struct PageInfo
    {
        std::uint32_t pcHash = 0;
        std::uint8_t triggerOffset = 0;
        /** Named padding, zeroed so warm snapshots (which write this
         *  struct as raw bytes) are deterministic. */
        std::uint8_t pad[3] = {};
        std::uint32_t fetchedMask = 0;
        std::uint32_t touchedMask = 0;
        std::uint32_t residentMask = 0;
    };

    /** Tracked info for `page`, nullptr when no block is resident. */
    PageInfo *find(std::uint64_t page) { return pages_.find(page); }

    bool tracked(std::uint64_t page) const { return pages_.contains(page); }

    /** Start tracking a page at its trigger miss (replaces any stale
     *  entry for the same page). */
    PageInfo &
    insert(std::uint64_t page, const PageInfo &info)
    {
        return pages_.insertOrAssign(page, info);
    }

    /**
     * A block of `page` left the cache. Clears its resident bit; when
     * that was the last resident block, copies the page's info to
     * `out`, stops tracking it and returns true -- the caller trains
     * the footprint predictor (and charges whatever tag-reconstruction
     * traffic its organization implies).
     */
    bool
    removeBlock(std::uint64_t page, std::uint32_t offset, PageInfo &out)
    {
        PageInfo *info = pages_.find(page);
        if (info == nullptr)
            return false;
        info->residentMask &= ~(1u << offset);
        if (info->residentMask != 0)
            return false;
        out = *info;
        pages_.erase(page);
        return true;
    }

    std::size_t size() const { return pages_.size(); }

    void clear() { pages_.clear(); }

    /** Warm-state checkpoint. The table is serialized as a flat
     *  key/value vector in slot order: its only operations are keyed
     *  lookups, so the rebuilt table's slot layout cannot affect
     *  behaviour. */
    struct FlatEntry
    {
        std::uint64_t page;
        PageInfo info;
        std::uint32_t pad = 0; //!< named tail padding (see PageInfo)
    };
    static_assert(sizeof(FlatEntry) == 32,
                  "warm-snapshot page records keep their layout");

    void
    saveState(StateWriter &out) const
    {
        std::vector<FlatEntry> flat;
        flat.reserve(pages_.size());
        pages_.forEach([&flat](std::uint64_t page, const PageInfo &info) {
            flat.push_back({page, info});
        });
        out.podVector(flat);
    }

    void
    loadState(StateReader &in)
    {
        std::vector<FlatEntry> flat;
        in.podVectorResize(flat);
        pages_.clear();
        pages_.reserve(flat.size());
        for (const FlatEntry &e : flat)
            pages_.insertOrAssign(e.page, e.info);
    }

  private:
    FlatU64Map<PageInfo> pages_;
};

} // namespace unison

#endif // UNISON_CACHE_PAGE_TRACKER_HH

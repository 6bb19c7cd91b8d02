/**
 * @file
 * The CacheOrganization layer of the DRAM-cache policy framework: how
 * a byte address maps onto the stacked array's frames, and where the
 * tags that answer "is it here?" live. Every design in the repo is a
 * composition of one of these organizations with a fetch policy
 * (predictors/fetch_policy.hh) and the shared fill/writeback engines
 * (core/fill_engine.hh); the organizations own the packed-SoA tag
 * state and the branch-reduced scans from cache/set_scan.hh.
 *
 * Three tag granularities cover the whole design space of the paper:
 *
 *  - PageOrganization: page-granular frames in set-associative sets
 *    (Unison Cache, Footprint Cache; associativity 1 degenerates to
 *    the direct-mapped tagged-page straw man);
 *  - DirectOrganization: direct-mapped block frames with one packed
 *    32-bit tag word each (Alloy Cache and the block-footprint splice
 *    behind `alloyfp` and `naiveblockfp`);
 *  - RowSetOrganization: one DRAM row per set with a wide way array
 *    (the Loh-Hill organization).
 *
 * None of these charge any timing: *where* tags live decides what the
 * design's access path must read, and that is the design's own
 * composition logic. The organizations only answer lookup, victim and
 * install questions over their metadata arrays.
 */

#ifndef UNISON_CACHE_ORGANIZATION_HH
#define UNISON_CACHE_ORGANIZATION_HH

#include <cstdint>
#include <vector>

#include "cache/page_set.hh"
#include "cache/set_scan.hh"
#include "cache/set_scan_simd.hh"
#include "common/fastdiv.hh"
#include "common/flat_map.hh"
#include "common/prefault.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace unison {

/** Where a byte address falls in a page-organized cache. */
struct PageLocation
{
    std::uint64_t page = 0;   //!< global page number
    std::uint32_t offset = 0; //!< block offset within the page
    std::uint64_t set = 0;
    std::uint64_t tag = 0;
};

/**
 * Page-granular, set-associative organization: `numSets * assoc` page
 * frames whose per-way metadata (packed tag words, footprint masks,
 * LRU stamps, trigger PCs) lives in the hot/cold-split PageWaySoa.
 * The page split and the set split both use invariant-divisor
 * reciprocals, so non-power-of-two page sizes (15/31 blocks) cost the
 * same as the power-of-two ones.
 */
class PageOrganization
{
  public:
    PageOrganization() = default;

    void
    init(std::uint32_t page_blocks, std::uint64_t num_sets,
         std::uint32_t assoc)
    {
        pageBlocks_ = page_blocks;
        numSets_ = num_sets;
        assoc_ = assoc;
        pageDiv_.init(page_blocks);
        numSetsDiv_.init(num_sets);
        ways_.resize(num_sets * assoc);
    }

    /** Page number and in-page block offset for a byte address. */
    void
    mapAddress(Addr addr, std::uint64_t &page,
               std::uint32_t &offset) const
    {
        std::uint64_t q, r;
        pageDiv_.divMod(blockNumber(addr), q, r);
        page = q;
        offset = static_cast<std::uint32_t>(r);
    }

    PageLocation
    locate(Addr addr) const
    {
        PageLocation loc;
        mapAddress(addr, loc.page, loc.offset);
        std::uint64_t q, r;
        numSetsDiv_.divMod(loc.page, q, r);
        loc.set = r;
        loc.tag = q;
        return loc;
    }

    /** Inverse of locate's set split: the global page number of the
     *  page resident in (set, way). */
    std::uint64_t
    pageOf(std::uint64_t set, std::uint32_t way) const
    {
        return ways_.tag(setBase(set) + way) * numSets_ + set;
    }

    /** Base SoA index of `set` (way fields live at base + way). */
    std::size_t
    setBase(std::uint64_t set) const
    {
        return static_cast<std::size_t>(set) * assoc_;
    }

    /** Way of `set` holding page tag `tag`, or -1 (absent). */
    int
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        return ways_.findWay(setBase(set), assoc_, tag);
    }

    /** Victim way of `set`: an invalid way if any, else LRU. */
    int
    pickVictim(std::uint64_t set) const
    {
        return static_cast<int>(ways_.pickVictim(setBase(set), assoc_));
    }

    std::uint32_t pageBlocks() const { return pageBlocks_; }
    std::uint64_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

    PageWaySoa &ways() { return ways_; }
    const PageWaySoa &ways() const { return ways_; }

    /** Warm-state checkpoint of the per-way metadata arrays. */
    void saveState(StateWriter &out) const { ways_.saveState(out); }
    void loadState(StateReader &in) { ways_.loadState(in); }

  private:
    std::uint32_t pageBlocks_ = 1;
    std::uint64_t numSets_ = 1;
    std::uint32_t assoc_ = 1;
    /** Page split (block -> page, offset). The modelled hardware uses
     *  a residue-arithmetic adder tree for its 2^n - 1 page sizes; the
     *  simulator computes the identical mapping with a reciprocal
     *  multiply, which also covers non-Mersenne ablation page sizes. */
    FastDiv64 pageDiv_;
    FastDiv64 numSetsDiv_;
    PageWaySoa ways_;
};

/**
 * Direct-mapped block organization: one packed 32-bit tag word per
 * frame -- bit 31 valid, bit 30 dirty, bits 0-29 the tag -- so the
 * whole lookup is a single 4-byte load and masked compare.
 *
 * Tags are exact at any width. A tag of 2^30 - 1 or more leaves
 * kEscape in the word's tag field and its full value in a side map
 * keyed by frame. The map stays empty until such a tag is installed:
 * at 1 GB that takes a byte address beyond 2^59, while a one-row cache
 * under a multiprogrammed mix (regions based at 2^46) escapes on every
 * install. The checkpoint image is the 64-bit word per frame of
 * set_scan.hh's layout (valid bit 63, dirty bit 62, the full tag).
 */
class DirectOrganization
{
  public:
    DirectOrganization() = default;

    void
    init(std::uint64_t num_frames)
    {
        numFrames_ = num_frames;
        numFramesDiv_.init(num_frames);
        assignPrefaulted(words_, num_frames, 0);
        wideTags_.clear();
    }

    /** Frame and tag of a global block number. */
    void
    locate(std::uint64_t block, std::uint64_t &frame,
           std::uint64_t &tag) const
    {
        numFramesDiv_.divMod(block, tag, frame);
    }

    /** Global block number resident in `frame` (from its tag). */
    std::uint64_t
    blockOf(std::uint64_t frame) const
    {
        return tagOf(frame) * numFrames_ + frame;
    }

    bool
    present(std::uint64_t frame, std::uint64_t tag) const
    {
        const std::uint32_t field = narrow(tag);
        if ((words_[frame] & ~kDirty) != (kValid | field))
            return false;
        return field != kEscape || *wideTags_.find(frame) == tag;
    }

    bool
    valid(std::uint64_t frame) const
    {
        return (words_[frame] & kValid) != 0;
    }

    bool
    dirty(std::uint64_t frame) const
    {
        return (words_[frame] & kDirty) != 0;
    }

    /** Make `frame` hold `tag`, valid, dirty as given. */
    void
    install(std::uint64_t frame, std::uint64_t tag, bool is_dirty)
    {
        store(frame, (is_dirty ? kValid | kDirty : kValid), tag);
    }

    void markDirty(std::uint64_t frame) { words_[frame] |= kDirty; }

    std::uint64_t numFrames() const { return numFrames_; }

    /** Frames whose tag lives in the side map. */
    std::size_t escapedTags() const { return wideTags_.size(); }

    /** Bytes of the per-frame tag array. */
    std::size_t
    tagArrayBytes() const
    {
        return words_.size() * sizeof(words_[0]);
    }

    /** Warm-state checkpoint: one 64-bit set_scan.hh word per frame. */
    void
    saveState(StateWriter &out) const
    {
        out.podSequence<std::uint64_t>(
            words_.size(), [this](std::size_t frame) {
                const std::uint64_t flags = words_[frame] & ~kEscape;
                return (flags << 32) | tagOf(frame);
            });
    }

    void
    loadState(StateReader &in)
    {
        wideTags_.clear();
        in.podSequenceExact<std::uint64_t>(
            words_.size(), [this](std::size_t frame, std::uint64_t w) {
                store(frame,
                      static_cast<std::uint32_t>(
                          (w & (kWayValidBit | kWayDirtyBit)) >> 32),
                      w & kWayTagMask);
            });
    }

  private:
    static constexpr std::uint32_t kValid = 1u << 31;
    static constexpr std::uint32_t kDirty = 1u << 30;
    /** Tag-field value meaning "the full tag is in the side map". */
    static constexpr std::uint32_t kEscape = kDirty - 1;

    static std::uint32_t
    narrow(std::uint64_t tag)
    {
        return tag < kEscape ? static_cast<std::uint32_t>(tag) : kEscape;
    }

    std::uint64_t
    tagOf(std::uint64_t frame) const
    {
        const std::uint32_t field = words_[frame] & kEscape;
        return field != kEscape ? field : *wideTags_.find(frame);
    }

    /** Write `frame`'s word from its valid/dirty `flags` and `tag`,
     *  keeping the side map in step. */
    void
    store(std::uint64_t frame, std::uint32_t flags, std::uint64_t tag)
    {
        const std::uint32_t field = narrow(tag);
        if (field == kEscape)
            wideTags_.insertOrAssign(frame, tag);
        else if ((words_[frame] & kEscape) == kEscape)
            wideTags_.erase(frame);
        words_[frame] = flags | field;
    }

    std::uint64_t numFrames_ = 1;
    FastDiv64 numFramesDiv_;
    /** One packed word per direct-mapped frame. */
    std::vector<std::uint32_t> words_;
    /** Full tags of the frames whose tag field holds kEscape. */
    FlatU64Map<std::uint64_t> wideTags_;
};

/**
 * Row-as-set organization (Loh-Hill): every DRAM row is one very wide
 * set (113 ways of 8 B tag + 64 B data); packed tag words and LRU
 * stamps live in two parallel arrays indexed `set * waysPerSet + way`.
 */
class RowSetOrganization
{
  public:
    RowSetOrganization() = default;

    void
    init(std::uint64_t num_sets, std::uint32_t ways_per_set)
    {
        numSets_ = num_sets;
        waysPerSet_ = ways_per_set;
        numSetsDiv_.init(num_sets);
        assignPrefaulted(tagv_, num_sets * ways_per_set, 0);
        assignPrefaulted(lastUse_, num_sets * ways_per_set, 0);
    }

    /** Set and tag of a global block number. */
    void
    locate(std::uint64_t block, std::uint64_t &set,
           std::uint64_t &tag) const
    {
        numSetsDiv_.divMod(block, tag, set);
    }

    /** Global block number resident in (set, way). */
    std::uint64_t
    blockOf(std::uint64_t set, std::uint32_t way) const
    {
        return (tagv_[base(set) + way] & kWayTagMask) * numSets_ + set;
    }

    std::size_t
    base(std::uint64_t set) const
    {
        return static_cast<std::size_t>(set) * waysPerSet_;
    }

    int
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        return scanWaysFast(&tagv_[base(set)], waysPerSet_,
                            ~kWayDirtyBit, kWayValidBit | tag);
    }

    int
    pickVictim(std::uint64_t set) const
    {
        const std::size_t b = base(set);
        return static_cast<int>(pickVictimWayFast(
            &tagv_[b], &lastUse_[b], waysPerSet_, kWayValidBit));
    }

    std::uint64_t &tagWord(std::size_t idx) { return tagv_[idx]; }
    const std::uint64_t &
    tagWord(std::size_t idx) const
    {
        return tagv_[idx];
    }
    std::uint32_t &lastUse(std::size_t idx) { return lastUse_[idx]; }

    std::uint64_t numSets() const { return numSets_; }
    std::uint32_t waysPerSet() const { return waysPerSet_; }

    /** Warm-state checkpoint of the tag and LRU arrays. */
    void
    saveState(StateWriter &out) const
    {
        out.podVector(tagv_);
        out.podVector(lastUse_);
    }

    void
    loadState(StateReader &in)
    {
        in.podVectorExact(tagv_);
        in.podVectorExact(lastUse_);
    }

  private:
    std::uint64_t numSets_ = 1;
    std::uint32_t waysPerSet_ = 1;
    FastDiv64 numSetsDiv_;
    std::vector<std::uint64_t> tagv_;
    std::vector<std::uint32_t> lastUse_;
};

} // namespace unison

#endif // UNISON_CACHE_ORGANIZATION_HH

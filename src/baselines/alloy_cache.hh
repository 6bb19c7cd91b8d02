/**
 * @file
 * The direct-mapped block body: Alloy Cache (Qureshi & Loh, MICRO
 * 2012; Sec. II-A and IV-C.3 of the Unison paper) and the
 * block-footprint splices of Sec. III-B.1 (Fig. 4a).
 *
 * Every 64 B data block is "alloyed" with its 8 B tag into a 72 B TAD
 * unit, streamed in a single DRAM access (112 TADs per 8 KB row). In
 * framework terms this is DirectOrganization (one packed tag word per
 * TAD frame) plus the shared fill/writeback engines. Three registry
 * designs share the body; what tells them apart is fixed at
 * construction, not by knobs:
 *
 *  - `alloy` groups nothing: it fetches the demanded block only,
 *    allocates write misses without an off-chip fetch (a full-block
 *    write), and may put a MAP-I miss predictor in front of the probe
 *    (the `missPredictor` knob). A predicted miss issues the off-chip
 *    fetch at once and the probe only verifies; mispredicted hits cost
 *    a useless memory fetch, mispredicted misses serialize the probe
 *    before the memory access.
 *  - `alloyfp` groups blocks into logical pages and prefetches each
 *    page's predicted footprint (FootprintFetchPolicy +
 *    PageGroupTracker), with the page-presence and footprint metadata
 *    in SRAM, so the splice pays no metadata penalty.
 *  - `naiveblockfp` is the straw man the paper rejects: the same
 *    grouping with the metadata in the DRAM row, so classifying a read
 *    miss as a trigger miss needs a scan of every TAD tag in the row
 *    (which the fills then wait for), and reconstructing a page's
 *    footprint when its last block leaves needs another scan of the
 *    covering row (NaiveBlockFpStats).
 *
 * The grouping splices write around on a write miss: footprints must
 * not be trained from writeback PCs. They build no miss predictor.
 *
 * On a grouped trigger miss the FHT predicts the page's footprint from
 * the trigger (PC, offset) and the predicted group streams from memory
 * into the block frames; the tracker keeps each page's
 * fetched/touched/resident masks so the predictor is trained when the
 * page's last block is evicted. In the in-DRAM variant the tracker
 * stands in for per-page (PC, offset) metadata the hardware has no
 * natural home for (measured in `pageInfoPeak`), and pages can only
 * coexist in a row while their footprints are disjoint at the TAD
 * level: a conflicting fill evicts another page's blocks one by one,
 * truncating its footprint (`prematureEvictions`).
 *
 * One victim rule serves all three: a dirty victim's data is free when
 * the probe already streamed its TAD (a read miss), and costs a 64 B
 * stacked read when it did not (a prefetch fill, or Alloy's write
 * miss, which probes only the 8 B tag).
 */

#ifndef UNISON_BASELINES_ALLOY_CACHE_HH
#define UNISON_BASELINES_ALLOY_CACHE_HH

#include <cstdint>
#include <memory>

#include "cache/organization.hh"
#include "cache/page_tracker.hh"
#include "core/dram_cache.hh"
#include "core/fill_engine.hh"
#include "core/geometry.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"
#include "predictors/fetch_policy.hh"
#include "predictors/miss_predictor.hh"

namespace unison {

/** Configuration of the Alloy Cache baseline (Sec. IV-C.3). */
struct AlloyConfig
{
    std::uint64_t capacityBytes = 1_GiB;
    bool missPredictorEnabled = true;
    int numCores = 16;
    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();
};

/** Configuration of the block-footprint splice. */
struct AlloyFpConfig
{
    std::uint64_t capacityBytes = 1_GiB;

    /** Blocks per logical page / prefetch group (power of two, at
     *  most kMaxPageBlocks). */
    std::uint32_t pageBlocks = 16;

    /** Fetch predicted footprints (false: only the demanded block). */
    bool footprintPredictionEnabled = true;

    FootprintTableConfig fhtConfig{};

    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();
};

/** `naiveblockfp`'s configuration: the same fields, a distinct type
 *  because DesignVariant's alternatives are indexed by DesignKind. */
struct NaiveBlockFpConfig : AlloyFpConfig
{
};

/** Where a splice keeps its page-presence and footprint metadata. */
enum class BlockFpMetadata
{
    Sram,   //!< `alloyfp`: no metadata penalty
    InDram, //!< `naiveblockfp`: row scans on misses and page evictions
};

/** The row-scan and conflict pathologies Sec. III-B.1 predicts, counted
 *  by the in-DRAM variant only. (pageInfoPeak deliberately survives
 *  reset: it measures a structural storage requirement, not a rate.) */
#define UNISON_NAIVE_BLOCK_FP_STATS_FIELDS(X)                           \
    X(Counter, rowScans)           /* full-row tag scans issued */      \
    X(Counter, scanBytes)          /* stacked bytes those scans read */ \
    X(Counter, prematureEvictions) /* pages truncated by a fill */      \
    X(Counter, conflictFills)      /* fills displacing another page */

struct NaiveBlockFpStats
{
    UNISON_STAT_STRUCT_BODY(UNISON_NAIVE_BLOCK_FP_STATS_FIELDS)

    std::uint64_t pageInfoPeak = 0; //!< high-water mark of side-table pages
};

class AlloyCache final : public DramCache
{
  public:
    /** `alloy`: no footprint grouping, write-allocate, MAP-I when
     *  enabled. */
    AlloyCache(const AlloyConfig &config, MemoryBackend *offchip);

    /** `alloyfp` / `naiveblockfp`: footprint grouping with its
     *  metadata where `metadata` says, write-around, no MAP-I. */
    AlloyCache(const AlloyFpConfig &config, MemoryBackend *offchip,
               BlockFpMetadata metadata);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override;
    std::uint64_t capacityBytes() const override { return capacityBytes_; }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const AlloyGeometry &geometry() const { return geometry_; }
    const MissPredictor *missPredictor() const { return missPred_.get(); }

    /** @name Test hooks */
    /**@{*/
    bool blockPresent(Addr addr) const;
    bool blockDirty(Addr addr) const;
    /** The grouping splices only. */
    const NaiveBlockFpStats &naiveStats() const;
    bool pageTracked(Addr addr) const;
    std::size_t trackedPages() const;
    /**@}*/

    bool checkpointable() const override { return true; }

    /** Payload: org, stacked, [grouping state], [MAP-I]. The in-DRAM
     *  variant's pageInfoPeak rides along although it lives in the
     *  stats struct: it deliberately survives the warm-boundary reset
     *  (a structural high-water mark), so a resumed run must inherit
     *  it. */
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

  private:
    /** Footprint grouping state of the splices. */
    struct Grouping
    {
        Grouping(const AlloyFpConfig &config, BlockFpMetadata metadata);

        std::uint32_t pageBlocks;
        bool inDram;
        /** Logical-page split (pageBlocks is a runtime power of two). */
        FastDiv64 pageDiv;
        FootprintFetchPolicy fetchPolicy;
        PageGroupTracker pages;
        NaiveBlockFpStats naiveStats;
    };

    struct Location
    {
        std::uint64_t block = 0;
        std::uint64_t frame = 0;
        std::uint64_t tag = 0;
        std::uint64_t page = 0;   //!< grouping only
        std::uint32_t offset = 0; //!< grouping only
    };

    AlloyCache(std::uint64_t capacity_bytes,
               const DramOrganization &stacked_org,
               const DramTimingParams &stacked_timing,
               MemoryBackend *offchip, DramCacheKind kind);

    Location locate(Addr addr) const;

    /** Charge one full-row tag scan to the stacked DRAM (in-DRAM
     *  metadata only). */
    Cycle chargeRowScan(std::uint64_t row, Cycle start);

    /** A grouping splice's read miss: classify it, fetch, and install
     *  the demanded block plus any predicted footprint. */
    Cycle groupedReadMiss(const DramCacheRequest &req,
                          const Location &loc, Cycle tad_done);

    /** Install `loc`'s block (dirty as given), evicting the
     *  direct-mapped victim; returns when the TAD write completes. A
     *  dirty victim costs a 64 B stacked read unless
     *  `victim_streamed`: the probe already read its TAD. */
    Cycle installBlock(const Location &loc, Cycle when,
                       bool victim_streamed, bool dirty);

    /** Grouping bookkeeping for an evicted block: drop it from its
     *  page and, when the page's last block leaves, train the FHT. */
    void evictFromGroup(std::uint64_t victim_block, Cycle when);

    std::uint64_t capacityBytes_;
    AlloyGeometry geometry_;
    std::unique_ptr<MemoryBackend> stacked_;
    std::unique_ptr<MissPredictor> missPred_;
    /** Footprint grouping state; null for `alloy`. */
    std::unique_ptr<Grouping> groups_;
    /** CacheOrganization: one packed 32-bit word per direct-mapped
     *  TAD frame; the whole lookup is a single 4-byte load and masked
     *  compare. */
    DirectOrganization org_;
    FillEngine fill_;
    WritebackEngine writeback_;
};

} // namespace unison

#endif // UNISON_BASELINES_ALLOY_CACHE_HH

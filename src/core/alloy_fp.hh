/**
 * @file
 * The block-footprint splice of Sec. III-B.1 (Fig. 4a): a
 * direct-mapped block cache (Alloy Cache's organization, 72 B TAD
 * units, 112 per 8 KB row) with footprint-grouped prefetching. Two
 * registry designs share this one body:
 *
 *  - `alloyfp` keeps the page-presence and footprint metadata in SRAM,
 *    so the splice pays no metadata penalty;
 *  - `naiveblockfp` is the straw man the paper rejects: the metadata
 *    lives in the DRAM row, so classifying a read miss as a trigger
 *    miss needs a scan of every TAD tag in the row (which the fills
 *    then wait for), and reconstructing a page's footprint when its
 *    last block leaves needs another scan of the covering row.
 *
 * Where the metadata lives (BlockFpMetadata) is a constructor argument
 * of the registry build functions, not a knob: it gates exactly the
 * two row-scan charges and the in-DRAM counters (NaiveBlockFpStats).
 * Running the two side by side isolates what the in-DRAM placement
 * costs.
 *
 * The composition is DirectOrganization + FootprintFetchPolicy over
 * *logical pages* (groups of neighbouring blocks) + PageGroupTracker +
 * the shared fill/writeback engines. On a trigger miss the FHT
 * predicts the page's footprint from the trigger (PC, offset) and the
 * predicted group streams from memory into the block frames; the
 * tracker keeps each page's fetched/touched/resident masks so the
 * predictor is trained when the page's last block is evicted. In the
 * in-DRAM variant the tracker stands in for per-page (PC, offset)
 * metadata the hardware has no natural home for (measured in
 * `pageInfoPeak`), and pages can only coexist in a row while their
 * footprints are disjoint at the TAD level: a conflicting fill evicts
 * another page's blocks one by one, truncating its footprint
 * (`prematureEvictions`).
 */

#ifndef UNISON_CORE_ALLOY_FP_HH
#define UNISON_CORE_ALLOY_FP_HH

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

namespace unison {

/** Configuration of the block-footprint splice. */
struct AlloyFpConfig
{
    std::uint64_t capacityBytes = 1_GiB;

    /** Blocks per logical page / prefetch group (power of two, at
     *  most kMaxPageBlocks). */
    std::uint32_t pageBlocks = 16;

    /** Fetch predicted footprints (false degenerates to Alloy without
     *  its miss predictor). */
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

/** Where the page-presence and footprint metadata lives. */
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

class AlloyFpCache final : public DramCache
{
  public:
    AlloyFpCache(const AlloyFpConfig &config, MemoryBackend *offchip,
                 BlockFpMetadata metadata);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string
    name() const override
    {
        return inDram_ ? "NaiveBlockFP" : "AlloyFP";
    }
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const AlloyFpConfig &config() const { return config_; }
    const AlloyGeometry &geometry() const { return geometry_; }
    const NaiveBlockFpStats &naiveStats() const { return naiveStats_; }
    const FootprintHistoryTable &footprintTable() const
    {
        return fetchPolicy_.footprintTable();
    }

    /** @name Test hooks */
    /**@{*/
    bool blockPresent(Addr addr) const;
    bool blockDirty(Addr addr) const;
    bool pageTracked(Addr addr) const;
    std::size_t trackedPages() const { return pages_.size(); }
    /**@}*/

    bool checkpointable() const override { return true; }

    /** The in-DRAM variant's pageInfoPeak rides along although it lives
     *  in the stats struct: it deliberately survives the warm-boundary
     *  reset (a structural high-water mark), so a resumed run must
     *  inherit it. */
    void
    saveState(StateWriter &out) const override
    {
        org_.saveState(out);
        stacked_->saveState(out);
        fetchPolicy_.saveState(out);
        pages_.saveState(out);
        if (inDram_)
            out.pod(naiveStats_.pageInfoPeak);
    }

    void
    loadState(StateReader &in) override
    {
        org_.loadState(in);
        stacked_->loadState(in);
        fetchPolicy_.loadState(in);
        pages_.loadState(in);
        if (inDram_)
            in.pod(naiveStats_.pageInfoPeak);
    }

  private:
    struct Location
    {
        std::uint64_t block = 0;
        std::uint64_t page = 0;
        std::uint32_t offset = 0;
        std::uint64_t frame = 0;
        std::uint64_t tag = 0;
    };

    Location locate(Addr addr) const;

    /** Charge one full-row tag scan to the stacked DRAM (in-DRAM
     *  metadata only). */
    Cycle chargeRowScan(std::uint64_t row, Cycle start);

    /** Install `loc`'s block, evicting the direct-mapped victim (and
     *  training the FHT when the victim page's last block leaves). */
    void installBlock(const Location &loc, Cycle when);

    AlloyFpConfig config_;
    bool inDram_;
    AlloyGeometry geometry_;
    /** Logical-page split (pageBlocks is a runtime power of two). */
    FastDiv64 pageDiv_;
    std::unique_ptr<MemoryBackend> stacked_;
    FootprintFetchPolicy fetchPolicy_;
    /** CacheOrganization: one packed 32-bit word per direct-mapped
     *  frame. */
    DirectOrganization org_;
    PageGroupTracker pages_;
    FillEngine fill_;
    WritebackEngine writeback_;
    NaiveBlockFpStats naiveStats_;
};

} // namespace unison

#endif // UNISON_CORE_ALLOY_FP_HH

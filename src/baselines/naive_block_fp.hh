/**
 * @file
 * "Block-based cache with footprint prediction" -- the first naive
 * combination of Alloy Cache and Footprint Cache that Sec. III-B.1 of
 * the paper analyzes (Fig. 4a) and rejects. Implemented here as an
 * ablation baseline so the bench suite can quantify the problems the
 * paper describes qualitatively.
 *
 * In framework terms: DirectOrganization (Alloy's 72 B TAD units, 112
 * per 8 KB row) + FootprintFetchPolicy over *logical pages* (groups
 * of neighbouring blocks) + a PageGroupTracker standing in for
 * metadata the hardware could not actually keep. The design inherits
 * exactly the mismatches the paper calls out:
 *
 *  - there is no fast page-presence lookup, so classifying a miss as a
 *    trigger miss requires scanning all the TAD tags in the DRAM row
 *    (`tagScanBytes` read charged per miss);
 *  - block-presence information is spread over the row, so
 *    reconstructing a page's footprint at eviction requires another
 *    row scan;
 *  - pages can only coexist in a row while their footprints are
 *    disjoint at the TAD level; a conflicting fill evicts another
 *    page's blocks one by one, truncating that page's footprint
 *    prematurely (counted in `prematureEvictions`);
 *  - per-page (PC, offset) metadata has no natural home in the row; it
 *    is modelled as a side table whose storage the hardware could not
 *    actually provide (documented, measured in `pageInfoPeak`).
 *
 * Contrast with core/alloy_fp.hh: the *same* composition minus the
 * penalty charges -- what the splice would cost if the page-presence
 * and footprint metadata lived in SRAM.
 */

#ifndef UNISON_BASELINES_NAIVE_BLOCK_FP_HH
#define UNISON_BASELINES_NAIVE_BLOCK_FP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/organization.hh"
#include "cache/page_tracker.hh"
#include "core/dram_cache.hh"
#include "core/fill_engine.hh"
#include "core/geometry.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"
#include "predictors/fetch_policy.hh"

namespace unison {

/** Configuration of the Fig. 4a rejected design. */
struct NaiveBlockFpConfig
{
    std::uint64_t capacityBytes = 1_GiB;

    /** Blocks per logical page (power of two so block mapping stays
     *  trivial; the footprint predictor tracks this granularity). */
    std::uint32_t pageBlocks = 16;

    /** Fetch predicted footprints (false degenerates to Alloy). */
    bool footprintPredictionEnabled = true;

    FootprintTableConfig fhtConfig{};

    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();
};

/** The row-scan and conflict pathologies Sec. III-B.1 predicts.
 *  (pageInfoPeak deliberately survives reset: it measures a structural
 *  storage requirement, not a rate.) */
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

/** Block-based direct-mapped TAD cache with bolted-on footprint
 *  prefetching (the Sec. III-B.1 straw man). */
class NaiveBlockFpCache final : public DramCache
{
  public:
    NaiveBlockFpCache(const NaiveBlockFpConfig &config, MemoryBackend *offchip);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override { return "NaiveBlockFP"; }
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const NaiveBlockFpConfig &config() const { return config_; }
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

    /** pageInfoPeak rides along although it lives in the stats struct:
     *  it deliberately survives the warm-boundary reset (a structural
     *  high-water mark), so a resumed run must inherit it. */
    void
    saveState(StateWriter &out) const override
    {
        org_.saveState(out);
        stacked_->saveState(out);
        fetchPolicy_.saveState(out);
        pages_.saveState(out);
        out.pod(naiveStats_.pageInfoPeak);
    }

    void
    loadState(StateReader &in) override
    {
        org_.loadState(in);
        stacked_->loadState(in);
        fetchPolicy_.loadState(in);
        pages_.loadState(in);
        in.pod(naiveStats_.pageInfoPeak);
    }

  private:
    /** Packed TAD word (the shared set_scan.hh positions). */
    static constexpr std::uint64_t kValid = kWayValidBit;
    static constexpr std::uint64_t kDirty = kWayDirtyBit;
    static constexpr std::uint64_t kTagMask = kWayTagMask;

    struct Location
    {
        std::uint64_t block = 0;
        std::uint64_t page = 0;
        std::uint32_t offset = 0;
        std::uint64_t tadIdx = 0;
        std::uint64_t tag = 0;
    };

    Location locate(Addr addr) const;

    /** Charge one full-row tag scan to the stacked DRAM. */
    Cycle chargeRowScan(std::uint64_t row, Cycle start);

    /**
     * Install `loc`'s block, evicting whatever direct-mapped victim
     * occupies the TAD slot. Returns the victim writeback time.
     */
    void installBlock(const Location &loc, bool dirty, Cycle when);

    /** Remove one block of `page` from the side table; when the last
     *  block leaves, train the FHT (charging the eviction scan). */
    void noteBlockEvicted(std::uint64_t page, std::uint32_t offset,
                          Cycle when);

    Addr
    blockAddr(std::uint64_t block) const
    {
        return blockAddress(block);
    }

    NaiveBlockFpConfig config_;
    AlloyGeometry geometry_;
    /** Logical-page split (pageBlocks is a runtime power of two). */
    FastDiv64 pageDiv_;
    std::unique_ptr<MemoryBackend> stacked_;
    FootprintFetchPolicy fetchPolicy_;
    /** CacheOrganization: one packed word per direct-mapped TAD frame. */
    DirectOrganization org_;
    PageGroupTracker pages_;
    FillEngine fill_;
    WritebackEngine writeback_;
    NaiveBlockFpStats naiveStats_;
};

} // namespace unison

#endif // UNISON_BASELINES_NAIVE_BLOCK_FP_HH

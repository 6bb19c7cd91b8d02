/**
 * @file
 * `alloyfp` -- the second design composed from the policy framework: a
 * direct-mapped block cache (Alloy Cache's organization) with
 * footprint-grouped prefetching.
 *
 * The composition is DirectOrganization + FootprintFetchPolicy +
 * PageGroupTracker + the shared fill/writeback engines. On a trigger
 * miss to a logical page, the FHT predicts the page's footprint from
 * the trigger (PC, offset) and the whole predicted group streams from
 * memory into the block frames; the SRAM-side tracker keeps the
 * page's fetched/touched/resident masks so the predictor can be
 * trained when the page's last block is evicted.
 *
 * This is the hybrid the Sec. III-B.1 straw man *wanted* to be: the
 * same block array + footprint prediction splice, but with the page
 * presence and footprint metadata held in SRAM, so none of the
 * row-scan penalties the naive design pays (compare
 * baselines/naive_block_fp.hh, which charges them). Running the two
 * side by side isolates exactly what the in-DRAM metadata placement
 * costs -- the kind of design-space point the framework exists to
 * make cheap.
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

/** Configuration of the composed alloy-fp hybrid. */
struct AlloyFpConfig
{
    std::uint64_t capacityBytes = 1_GiB;

    /** Blocks per logical prefetch group (power of two). */
    std::uint32_t pageBlocks = 16;

    /** Fetch predicted footprints (false degenerates to Alloy without
     *  its miss predictor). */
    bool footprintPredictionEnabled = true;

    FootprintTableConfig fhtConfig{};

    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();
};

class AlloyFpCache final : public DramCache
{
  public:
    AlloyFpCache(const AlloyFpConfig &config, MemoryBackend *offchip);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override { return "AlloyFP"; }
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const AlloyFpConfig &config() const { return config_; }
    const AlloyGeometry &geometry() const { return geometry_; }
    const FootprintHistoryTable &footprintTable() const
    {
        return fetchPolicy_.footprintTable();
    }

    /** @name Test hooks */
    /**@{*/
    bool blockPresent(Addr addr) const;
    bool blockDirty(Addr addr) const;
    bool pageTracked(Addr addr) const;
    /**@}*/

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        org_.saveState(out);
        stacked_->saveState(out);
        fetchPolicy_.saveState(out);
        pages_.saveState(out);
    }

    void
    loadState(StateReader &in) override
    {
        org_.loadState(in);
        stacked_->loadState(in);
        fetchPolicy_.loadState(in);
        pages_.loadState(in);
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
        std::uint64_t frame = 0;
        std::uint64_t tag = 0;
    };

    Location locate(Addr addr) const;

    /** Install `loc`'s block, evicting the direct-mapped victim (and
     *  training the FHT when the victim page's last block leaves). */
    void installBlock(const Location &loc, Cycle when);

    std::uint32_t
    fullMask() const
    {
        return fullBlockMask(config_.pageBlocks);
    }

    AlloyFpConfig config_;
    AlloyGeometry geometry_;
    /** Logical-page split (pageBlocks is a runtime power of two). */
    FastDiv64 pageDiv_;
    std::unique_ptr<MemoryBackend> stacked_;
    FootprintFetchPolicy fetchPolicy_;
    /** CacheOrganization: one packed word per direct-mapped frame. */
    DirectOrganization org_;
    PageGroupTracker pages_;
    FillEngine fill_;
    WritebackEngine writeback_;
};

} // namespace unison

#endif // UNISON_CORE_ALLOY_FP_HH

/**
 * @file
 * Footprint Cache baseline (Jevdjic et al., ISCA 2013; Sec. II-B and
 * IV-C.2 of the Unison paper).
 *
 * A page-based stacked-DRAM cache with *SRAM* tags, expressed as a
 * composition over the policy framework: PageOrganization (2 KB
 * pages, 32-way sets) + FootprintFetchPolicy (the same footprint
 * predictor and singleton machinery as Unison Cache) + the shared
 * fill/writeback engines. Every access pays the SRAM tag-array
 * latency (Table IV, 6-48 cycles depending on capacity) before the
 * DRAM data access -- the scalability problem Unison Cache exists to
 * remove. Misses, however, are detected at SRAM speed (FC's
 * miss-latency advantage).
 */

#ifndef UNISON_BASELINES_FOOTPRINT_CACHE_HH
#define UNISON_BASELINES_FOOTPRINT_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/organization.hh"
#include "core/dram_cache.hh"
#include "core/fill_engine.hh"
#include "core/geometry.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"
#include "predictors/fetch_policy.hh"

namespace unison {

struct FootprintCacheConfig
{
    std::uint64_t capacityBytes = 512_MiB;

    /** Fetch predicted footprints (false: whole pages). */
    bool footprintPredictionEnabled = true;
    bool singletonEnabled = true;

    /** 0 uses Table IV's latency for the capacity. */
    Cycle tagLatencyOverride = 0;

    FootprintTableConfig fhtConfig{};
    SingletonTableConfig singletonConfig{};

    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();
};

class FootprintCache final : public DramCache
{
  public:
    FootprintCache(const FootprintCacheConfig &config, MemoryBackend *offchip);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override { return "Footprint"; }
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const FootprintCacheConfig &config() const { return config_; }
    const FootprintGeometry &geometry() const { return geometry_; }
    Cycle tagLatency() const { return tagLatency_; }
    const FootprintHistoryTable &footprintTable() const
    {
        return fetchPolicy_.footprintTable();
    }
    const SingletonTable &singletonTable() const
    {
        return fetchPolicy_.singletonTable();
    }

    /** @name Test hooks */
    /**@{*/
    bool pagePresent(Addr addr) const;
    bool blockPresent(Addr addr) const;
    bool blockDirty(Addr addr) const;
    /**@}*/

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        org_.saveState(out);
        stacked_->saveState(out);
        fetchPolicy_.saveState(out);
        out.pod(useCounter_);
        out.pod(statsGen_);
    }

    void
    loadState(StateReader &in) override
    {
        org_.loadState(in);
        stacked_->loadState(in);
        fetchPolicy_.loadState(in);
        in.pod(useCounter_);
        in.pod(statsGen_);
    }

  private:
    using Location = PageLocation;

    Location locate(Addr addr) const { return org_.locate(addr); }

    std::size_t setBase(std::uint64_t set) const
    {
        return org_.setBase(set);
    }
    int
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        return org_.findWay(set, tag);
    }
    void evictPage(std::uint64_t set, int way, Cycle when);

    PageWaySoa &ways() { return org_.ways(); }
    const PageWaySoa &ways() const { return org_.ways(); }

    Addr
    blockAddrOf(std::uint64_t page, std::uint32_t offset) const
    {
        return blockAddress(page * geometry_.pageBlocks + offset);
    }

    FootprintCacheConfig config_;
    FootprintGeometry geometry_;
    Cycle tagLatency_;
    std::unique_ptr<MemoryBackend> stacked_;
    FootprintFetchPolicy fetchPolicy_;
    /** CacheOrganization: SoA page-way metadata; FC's 32-way sets make
     *  the contiguous packed-tag scan matter most here (256 B vs a
     *  1 KB AoS sweep). */
    PageOrganization org_;
    FillEngine fill_;
    WritebackEngine writeback_;
    std::uint32_t useCounter_ = 0;
    std::uint8_t statsGen_ = 0; //!< see UnisonCacheT::statsGen_
};

} // namespace unison

#endif // UNISON_BASELINES_FOOTPRINT_CACHE_HH

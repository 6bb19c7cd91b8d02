/**
 * @file
 * Alloy Cache baseline (Qureshi & Loh, MICRO 2012; Sec. II-A and
 * IV-C.3 of the Unison paper).
 *
 * A direct-mapped, block-based stacked-DRAM cache that "alloys" each
 * 64 B data block with its 8 B tag into a 72 B TAD unit, streamed in a
 * single DRAM access (112 TADs per 8 KB row). In framework terms this
 * is DirectOrganization (one packed tag word per TAD frame) with the
 * single-block fetch policy -- no footprint machinery -- plus a MAP-I
 * miss predictor that moves the in-DRAM tag probe off the critical
 * path on predicted misses: the off-chip fetch is issued immediately
 * and the probe only verifies. Mispredicted hits cost a useless memory
 * fetch; mispredicted misses serialize the probe before the memory
 * access.
 */

#ifndef UNISON_BASELINES_ALLOY_CACHE_HH
#define UNISON_BASELINES_ALLOY_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/organization.hh"
#include "core/dram_cache.hh"
#include "core/fill_engine.hh"
#include "core/geometry.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"
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

class AlloyCache final : public DramCache
{
  public:
    AlloyCache(const AlloyConfig &config, MemoryBackend *offchip);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override { return "Alloy"; }
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const AlloyConfig &config() const { return config_; }
    const AlloyGeometry &geometry() const { return geometry_; }
    const MissPredictor *missPredictor() const { return missPred_.get(); }

    /** Test hook: is the block resident? */
    bool blockPresent(Addr addr) const;
    bool blockDirty(Addr addr) const;

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        org_.saveState(out);
        stacked_->saveState(out);
        if (missPred_)
            missPred_->saveState(out);
    }

    void
    loadState(StateReader &in) override
    {
        org_.loadState(in);
        stacked_->loadState(in);
        if (missPred_)
            missPred_->loadState(in);
    }

  private:
    AlloyConfig config_;
    AlloyGeometry geometry_;
    std::unique_ptr<MemoryBackend> stacked_;
    std::unique_ptr<MissPredictor> missPred_;
    /** CacheOrganization: one packed 32-bit word per direct-mapped
     *  TAD frame; the whole lookup is a single 4-byte load and masked
     *  compare. */
    DirectOrganization org_;
    FillEngine fill_;
    WritebackEngine writeback_;
};

} // namespace unison

#endif // UNISON_BASELINES_ALLOY_CACHE_HH

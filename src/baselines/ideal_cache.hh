/**
 * @file
 * The "latency-optimized" ideal DRAM cache the paper compares against
 * in Figs. 7-8: 100% hit rate and zero tag overhead -- equivalent to
 * die-stacked main memory. Every access is a single stacked-DRAM data
 * access; nothing ever goes off-chip.
 */

#ifndef UNISON_BASELINES_IDEAL_CACHE_HH
#define UNISON_BASELINES_IDEAL_CACHE_HH

#include <memory>

#include "core/dram_cache.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"

namespace unison {

/** Configuration of the ideal (never-miss) reference cache. */
struct IdealConfig
{
    std::uint64_t capacityBytes = 1_GiB;
    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();
};

/** The latency-optimized ideal cache of Figs. 7-8. */
class IdealCache final : public DramCache
{
  public:
    IdealCache(const IdealConfig &config, MemoryBackend *offchip)
        : DramCache(offchip),
          config_(config),
          stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming))
    {
    }

    DramCacheResult
    access(const DramCacheRequest &req) override
    {
        if (req.isWrite)
            ++stats_.writes;
        else
            ++stats_.reads;
        ++stats_.hits;

        // Rows hold 128 data blocks (no embedded metadata).
        const std::uint64_t row = blockNumber(req.addr) / kBlocksPerRow;
        DramCacheResult result;
        result.hit = true;
        result.doneAt = stacked_
                            ->rowAccess(row, kBlockBytes, req.isWrite,
                                        req.cycle)
                            .completion;
        return result;
    }

    std::string name() const override { return "Ideal"; }
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        stacked_->saveState(out);
    }

    void loadState(StateReader &in) override { stacked_->loadState(in); }

  private:
    IdealConfig config_;
    std::unique_ptr<MemoryBackend> stacked_;
};

} // namespace unison

#endif // UNISON_BASELINES_IDEAL_CACHE_HH

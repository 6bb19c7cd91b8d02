/**
 * @file
 * The no-DRAM-cache baseline: every L2 miss goes straight to the
 * single off-chip DDR3 channel. This is the denominator of the
 * speedups reported in Figs. 7-8.
 */

#ifndef UNISON_BASELINES_NO_CACHE_HH
#define UNISON_BASELINES_NO_CACHE_HH

#include "core/dram_cache.hh"

namespace unison {

/** No tunables: the baseline is the absence of a cache. Exists so the
 *  design registry's typed-config variant has an alternative per
 *  design. */
struct NoCacheConfig
{
};

/** The speedup denominator: no stacked DRAM at all. */
class NoCache final : public DramCache
{
  public:
    explicit NoCache(MemoryBackend *offchip)
        : DramCache(offchip)
    {
    }

    DramCacheResult
    access(const DramCacheRequest &req) override
    {
        if (req.isWrite)
            ++stats_.writes;
        else
            ++stats_.reads;
        ++stats_.misses;
        if (req.isWrite)
            ++stats_.offchipWritebackBlocks;
        else
            ++stats_.offchipDemandBlocks;

        DramCacheResult result;
        result.hit = false;
        result.doneAt = offchip_
                            ->addrAccess(req.addr, kBlockBytes,
                                         req.isWrite, req.cycle)
                            .completion;
        return result;
    }

    std::string name() const override { return "NoCache"; }
    std::uint64_t capacityBytes() const override { return 0; }

    /** Stateless (the off-chip pool is checkpointed by the system). */
    bool checkpointable() const override { return true; }
    void saveState(StateWriter &) const override {}
    void loadState(StateReader &) override {}
};

} // namespace unison

#endif // UNISON_BASELINES_NO_CACHE_HH

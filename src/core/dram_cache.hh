/**
 * @file
 * The DRAM-cache interface every design implements (Unison, Alloy,
 * Footprint, Ideal, NoCache), and the statistics contract the bench
 * harnesses consume.
 *
 * A DramCache sits below the SRAM hierarchy: it services L2 demand
 * misses (reads) and L2 dirty writebacks (writes), owns the stacked
 * DRAM pool, and issues fills/writebacks to the shared off-chip pool.
 */

#ifndef UNISON_CORE_DRAM_CACHE_HH
#define UNISON_CORE_DRAM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/state_io.hh"
#include "common/types.hh"
#include "dram/backend.hh"
#include "stats/stats.hh"

namespace unison {

/** One request arriving at the DRAM-cache level. */
struct DramCacheRequest
{
    Addr addr = 0;      //!< physical byte address of the demanded word
    Pc pc = 0;          //!< instruction that triggered the L2 miss
    int core = 0;       //!< issuing core
    bool isWrite = false; //!< true for L2 dirty writebacks
    Cycle cycle = 0;    //!< cycle the request reaches this level
};

/** Completion information returned to the timing model. */
struct DramCacheResult
{
    Cycle doneAt = 0;   //!< cycle the critical block is available
    bool hit = false;   //!< serviced from the stacked DRAM
};

/**
 * The one field list of DramCacheStats. reset(), the JSON schema
 * (sim/spec_json.cc) and table emission (addCounterRows) all iterate
 * this list through forEachCounter, in this declaration order:
 *
 *  - reads/writes/hits/misses: the access classification;
 *  - pageMisses (trigger misses), blockMisses (page present, block
 *    absent = underprediction), evictions;
 *  - offchip*Blocks: off-chip traffic in 64 B blocks (demand fetches,
 *    footprint blocks beyond demand, mispredict-wasted fetches, dirty
 *    writebacks);
 *  - fp*: footprint bookkeeping accumulated at page evictions
 *    (|predicted AND touched|, |touched|, |fetched AND NOT touched|,
 *    |fetched|);
 *  - singletonBypasses: pages served without allocation.
 */
#define UNISON_DRAM_CACHE_STATS_FIELDS(X)                               \
    X(Counter, reads)                                                   \
    X(Counter, writes)                                                  \
    X(Counter, hits)                                                    \
    X(Counter, misses)                                                  \
    X(Counter, pageMisses)                                              \
    X(Counter, blockMisses)                                             \
    X(Counter, evictions)                                               \
    X(Counter, offchipDemandBlocks)                                     \
    X(Counter, offchipPrefetchBlocks)                                   \
    X(Counter, offchipWastedBlocks)                                     \
    X(Counter, offchipWritebackBlocks)                                  \
    X(Counter, fpPredictedTouched)                                      \
    X(Counter, fpTouched)                                               \
    X(Counter, fpFetchedUntouched)                                      \
    X(Counter, fpFetched)                                               \
    X(Counter, singletonBypasses)

/** Statistics every design maintains (superset; unused stay zero). */
struct DramCacheStats
{
    UNISON_STAT_STRUCT_BODY(UNISON_DRAM_CACHE_STATS_FIELDS)

    std::uint64_t
    accesses() const
    {
        return reads.value() + writes.value();
    }

    /** Cache miss ratio in percent (Figs. 5-6). */
    double
    missRatioPercent() const
    {
        return percent(misses.value(), accesses());
    }

    /**
     * "FP Accuracy" as Table V defines it: the fraction of each page's
     * actual footprint that the predictor fetched up front.
     */
    double
    fpAccuracyPercent() const
    {
        return percent(fpPredictedTouched.value(), fpTouched.value());
    }

    /** "FP Overfetch": fetched blocks never touched before eviction. */
    double
    fpOverfetchPercent() const
    {
        return percent(fpFetchedUntouched.value(), fpFetched.value());
    }

    /** All off-chip fetched blocks (demand + prefetch + wasted). */
    std::uint64_t
    offchipFetchedBlocks() const
    {
        return offchipDemandBlocks.value() +
               offchipPrefetchBlocks.value() +
               offchipWastedBlocks.value();
    }
};

/**
 * Concrete-type tag of a DramCache instance.
 *
 * The timing loop (System::runLoop) is monomorphized per concrete
 * cache type so access() devirtualizes and inlines; this tag is how
 * the once-per-run dispatch recovers the concrete type without a
 * dynamic_cast chain. Every design the experiment factory can build
 * carries its own tag; `Other` is the explicit opt-in for out-of-tree
 * subclasses, which take the generic virtual-dispatch loop.
 */
enum class DramCacheKind : std::uint8_t
{
    Unison,
    Alloy,
    Footprint, //!< the UnisonCache body with SRAM tags
    LohHill,
    NaiveTaggedPage,
    Ideal,
    NoCache,
    AlloyFp,  //!< alloyfp and naiveblockfp: blocks + footprint prefetch
    UnisonWp, //!< no longer built: named only by perfbench/runner.cpp
    Other, //!< out-of-tree subclass: virtual per-access dispatch
};

/** Abstract DRAM cache. */
class DramCache
{
  public:
    /**
     * @param offchip the shared off-chip memory pool (not owned);
     *        nullptr only for designs that never touch memory.
     * @param kind concrete-type tag; subclasses outside this repo keep
     *        the `Other` default and run through virtual dispatch.
     */
    explicit DramCache(MemoryBackend *offchip,
                       DramCacheKind kind = DramCacheKind::Other)
        : offchip_(offchip), kind_(kind)
    {
    }
    virtual ~DramCache() = default;

    /** Concrete-type tag (see DramCacheKind). */
    DramCacheKind kind() const { return kind_; }

    DramCache(const DramCache &) = delete;
    DramCache &operator=(const DramCache &) = delete;

    /** Service one request, advancing all modelled state. */
    virtual DramCacheResult access(const DramCacheRequest &req) = 0;

    /** Design name as used in the paper's tables. */
    virtual std::string name() const = 0;

    /** Nominal stacked-DRAM capacity (0 for NoCache). */
    virtual std::uint64_t capacityBytes() const = 0;

    /** The stacked pool, if the design has one (for traffic stats). */
    virtual MemoryBackend *stackedDram() { return nullptr; }

    const DramCacheStats &stats() const { return stats_; }

    /** Reset measurement state (end of warm-up). */
    virtual void
    resetStats()
    {
        stats_.reset();
        if (stackedDram() != nullptr)
            stackedDram()->resetStats();
    }

    /**
     * Warm-state checkpoint support. A design that returns true must
     * serialize *all* mutable simulation state -- tag/stamp arrays,
     * predictor tables, trackers, the stacked pool's bank timing --
     * in saveState, such that loadState on a freshly constructed
     * identical design makes every subsequent access() bit-identical
     * to a design that simulated the warmup itself. Statistics are
     * excluded by contract (the warm boundary resets them). Default
     * false: out-of-tree designs simply opt out of checkpoint reuse.
     */
    virtual bool checkpointable() const { return false; }
    virtual void saveState(StateWriter &out) const { (void)out; }
    virtual void loadState(StateReader &in) { (void)in; }

  protected:
    MemoryBackend *offchip_;
    DramCacheStats stats_;

  private:
    DramCacheKind kind_;
};

} // namespace unison

#endif // UNISON_CORE_DRAM_CACHE_HH

/**
 * @file
 * Unison Cache (Sec. III of the paper) -- the primary contribution --
 * expressed as a composition over the policy framework:
 *
 *  - CacheOrganization: PageOrganization (cache/organization.hh) --
 *    pages of 15 blocks (960 B) or 31 blocks (1984 B) in 4-way sets,
 *    located with the residue-arithmetic-equivalent reciprocal divide
 *    (Sec. III-A.7);
 *  - FetchPolicy: FootprintFetchPolicy (predictors/fetch_policy.hh) --
 *    footprint prediction with singleton bypass (Sec. III-A.1-4);
 *  - FillEngine/WritebackEngine (core/fill_engine.hh) own all
 *    off-chip traffic and its accounting;
 *  - the way-location policy is a *compile-time* template parameter
 *    (Sec. III-A.5/6): UnisonCache instantiates the paper's hashed
 *    address-based predictor; core/unison_wp.hh instantiates the same
 *    cache body with swappable predictors for ablation.
 *
 * What remains in this file is what genuinely defines Unison Cache:
 * the in-DRAM tag placement and its timing. Tags live in the stacked
 * DRAM rows themselves; on every access the tag burst and the
 * (way-predicted) data-block read are issued back-to-back to the same
 * row, overlapped rather than serialized (Sec. III-A, first insight);
 * a static always-hit policy replaces Alloy Cache's miss predictor
 * (second insight, with an optional MAP-I ablation); and block state
 * uses the Footprint Cache V/D encoding so footprints can be learned
 * without extra storage (Sec. III-A.2).
 */

#ifndef UNISON_CORE_UNISON_CACHE_HH
#define UNISON_CORE_UNISON_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/organization.hh"
#include "cache/page_set.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/dram_cache.hh"
#include "core/fill_engine.hh"
#include "core/geometry.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"
#include "predictors/fetch_policy.hh"
#include "predictors/miss_predictor.hh"
#include "predictors/way_predictor.hh"

namespace unison {

/** How the correct way of a set is located (Sec. III-A.5 ablations). */
enum class UnisonWayPolicy
{
    Predict,   //!< way predictor, overlapped reads (the paper's design)
    FetchAll,  //!< stream all ways in parallel (4x hit traffic)
    SerialTag, //!< tag read, then data read (serialized)
};

/** Hit/miss speculation policy (Sec. III-A, second insight). */
enum class UnisonMissPolicy
{
    AlwaysHit, //!< static prediction; probe the cache first (default)
    MapI,      //!< Alloy-style dynamic miss predictor (ablation)
};

/** Full configuration of a Unison Cache instance. */
struct UnisonConfig
{
    std::uint64_t capacityBytes = 1_GiB;
    std::uint32_t pageBlocks = 15; //!< 15 (960 B) or 31 (1984 B)
    std::uint32_t assoc = 4;

    UnisonWayPolicy wayPolicy = UnisonWayPolicy::Predict;
    UnisonMissPolicy missPolicy = UnisonMissPolicy::AlwaysHit;

    /** Fetch predicted footprints (false: fetch whole pages). */
    bool footprintPredictionEnabled = true;

    /** Bypass pages predicted to be singletons. */
    bool singletonEnabled = true;

    /** 0 selects the paper's width for the capacity (12 or 16 bits). */
    std::uint32_t wayPredictorIndexBits = 0;

    FootprintTableConfig fhtConfig{};
    SingletonTableConfig singletonConfig{};

    DramOrganization stackedOrg = stackedDramOrganization();
    DramTimingParams stackedTiming = stackedDramTiming();

    int numCores = 16; //!< for the MAP-I ablation predictor
};

/**
 * The paper's way predictor as a composition policy: the hashed
 * address-based WayPredictor (Sec. III-A.6), ignoring the set index.
 */
class HashedWayPolicy
{
  public:
    static constexpr DramCacheKind kCacheKind = DramCacheKind::Unison;

    HashedWayPolicy(const UnisonConfig &config, const UnisonGeometry &)
        : pred_(config.wayPredictorIndexBits != 0
                    ? config.wayPredictorIndexBits
                    : WayPredictor::indexBitsForCapacity(
                          config.capacityBytes),
                config.assoc)
    {
    }

    std::uint32_t
    predict(std::uint64_t page, std::uint64_t) const
    {
        return pred_.predict(page);
    }

    void
    train(std::uint64_t page, std::uint64_t, std::uint32_t way)
    {
        pred_.train(page, way);
    }

    void recordOutcome(bool correct) { pred_.recordOutcome(correct); }

    const WayPredictorStats &stats() const { return pred_.stats(); }
    void resetStats() { pred_.resetStats(); }

    std::string nameSuffix() const { return ""; }

    void saveState(StateWriter &out) const { pred_.saveState(out); }
    void loadState(StateReader &in) { pred_.loadState(in); }

  private:
    WayPredictor pred_;
};

/**
 * The Unison Cache body, parameterized on the way-location predictor
 * (a compile-time policy: `final` instantiations keep the kind-tag
 * devirtualized dispatch, zero virtual calls on the access path).
 *
 * @tparam WayPolicyT  constructed from (config, geometry); provides
 *         predict(page, set), train(page, set, way),
 *         recordOutcome(correct), stats(), resetStats(),
 *         nameSuffix(), and the composition's DramCacheKind.
 * @tparam ConfigT     UnisonConfig, or a derived struct carrying the
 *         policy's extra knobs (see UnisonWpConfig).
 */
template <typename WayPolicyT, typename ConfigT = UnisonConfig>
class UnisonCacheT final : public DramCache
{
  public:
    UnisonCacheT(const ConfigT &config, MemoryBackend *offchip);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override;
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const ConfigT &config() const { return config_; }
    const UnisonGeometry &geometry() const { return geometry_; }
    const WayPredictorStats &wayPredictorStats() const
    {
        return wayPred_.stats();
    }
    const FootprintHistoryTable &footprintTable() const
    {
        return fetchPolicy_.footprintTable();
    }
    const SingletonTable &singletonTable() const
    {
        return fetchPolicy_.singletonTable();
    }
    const MissPredictor *missPredictor() const { return missPred_.get(); }

    /** @name Test hooks (model state inspection, no timing effects) */
    /**@{*/
    bool pagePresent(Addr addr) const;
    bool blockPresent(Addr addr) const;
    bool blockDirty(Addr addr) const;
    bool blockTouched(Addr addr) const;
    /**@}*/

    /** Page number and in-page block offset for a byte address. */
    void
    mapAddress(Addr addr, std::uint64_t &page,
               std::uint32_t &offset) const
    {
        org_.mapAddress(addr, page, offset);
    }

    bool checkpointable() const override { return true; }

    void
    saveState(StateWriter &out) const override
    {
        org_.saveState(out);
        stacked_->saveState(out);
        wayPred_.saveState(out);
        fetchPolicy_.saveState(out);
        if (missPred_)
            missPred_->saveState(out);
        out.pod(useCounter_);
        out.pod(statsGen_);
    }

    void
    loadState(StateReader &in) override
    {
        org_.loadState(in);
        stacked_->loadState(in);
        wayPred_.loadState(in);
        fetchPolicy_.loadState(in);
        if (missPred_)
            missPred_->loadState(in);
        in.pod(useCounter_);
        in.pod(statsGen_);
    }

  private:
    using Location = PageLocation;

    Location locate(Addr addr) const { return org_.locate(addr); }

    std::size_t
    setBase(std::uint64_t set) const
    {
        return org_.setBase(set);
    }

    int
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        return org_.findWay(set, tag);
    }

    PageWaySoa &ways() { return org_.ways(); }
    const PageWaySoa &ways() const { return org_.ways(); }

    /**
     * Time the overlapped tag + data reads that start every probe.
     * Returns the tag-resolve cycle and the predicted-way data cycle.
     */
    void issueProbeReads(const Location &loc, std::uint32_t pred_way,
                         Cycle start, Cycle &tag_done, Cycle &data_done);

    /** Service a hit to a fetched block. */
    DramCacheResult serveBlockHit(const DramCacheRequest &req,
                                  const Location &loc, int way,
                                  std::uint32_t pred_way, Cycle tag_done,
                                  Cycle data_done);

    /** Service an underprediction miss (page present, block absent). */
    DramCacheResult serveBlockMiss(const DramCacheRequest &req,
                                   const Location &loc, int way,
                                   Cycle tag_done);

    /** Service a trigger miss (page absent). */
    DramCacheResult serveTriggerMiss(const DramCacheRequest &req,
                                     const Location &loc, Cycle tag_done,
                                     Cycle offchip_head_start,
                                     bool offchip_started);

    /** Evict `way` of `set`: write back dirty data, train the FHT. */
    void evictPage(std::uint64_t set, int way, Cycle when);

    std::uint32_t
    blockBit(std::uint32_t offset) const
    {
        return 1u << offset;
    }

    std::uint32_t
    fullPageMask() const
    {
        return fullBlockMask(config_.pageBlocks);
    }

    Addr
    blockAddrOf(std::uint64_t page, std::uint32_t offset) const
    {
        return blockAddress(page * config_.pageBlocks + offset);
    }

    ConfigT config_;
    UnisonGeometry geometry_;

    /** CacheOrganization: page split + set metadata (hot/cold SoA). */
    PageOrganization org_;

    std::unique_ptr<MemoryBackend> stacked_;
    WayPolicyT wayPred_;
    FootprintFetchPolicy fetchPolicy_;
    std::unique_ptr<MissPredictor> missPred_;
    FillEngine fill_;
    WritebackEngine writeback_;

    std::uint32_t useCounter_ = 0;

    /**
     * Incremented on resetStats(); footprint accuracy/overfetch are
     * only accumulated for pages *allocated* in the current
     * generation, so cold-phase allocations (default full-page
     * predictions) cannot pollute post-warm statistics.
     */
    std::uint8_t statsGen_ = 0;
};

// ------------------------------------------------- template bodies
// (header-resident: the System timing loop monomorphizes on the
// concrete instantiation, so access() inlines with no virtual calls)

template <typename WayPolicyT, typename ConfigT>
UnisonCacheT<WayPolicyT, ConfigT>::UnisonCacheT(const ConfigT &config,
                                                MemoryBackend *offchip)
    : DramCache(offchip, WayPolicyT::kCacheKind),
      config_(config),
      geometry_(UnisonGeometry::compute(config.capacityBytes,
                                        config.pageBlocks, config.assoc)),
      stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming)),
      wayPred_(config, geometry_),
      fetchPolicy_([&] {
          FootprintFetchPolicy::Config c;
          c.fht = config.fhtConfig;
          c.fht.maxBlocksPerPage = config.pageBlocks;
          c.singleton = config.singletonConfig;
          c.footprintPrediction = config.footprintPredictionEnabled;
          c.singletonBypass = config.singletonEnabled;
          return c;
      }())
{
    UNISON_ASSERT(offchip != nullptr, "Unison Cache needs a memory pool");
    UNISON_ASSERT(config_.pageBlocks <= kMaxPageBlocks,
                  "page masks are 32 bits wide; pageBlocks = ",
                  config_.pageBlocks);
    if (config_.missPolicy == UnisonMissPolicy::MapI) {
        MissPredictorConfig mp;
        mp.numCores = config_.numCores;
        missPred_ = std::make_unique<MissPredictor>(mp);
    }
    org_.init(config_.pageBlocks, geometry_.numSets, config_.assoc);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

template <typename WayPolicyT, typename ConfigT>
std::string
UnisonCacheT<WayPolicyT, ConfigT>::name() const
{
    return "Unison-" + std::to_string(config_.pageBlocks * kBlockBytes) +
           "B-" + std::to_string(config_.assoc) + "way" +
           wayPred_.nameSuffix();
}

template <typename WayPolicyT, typename ConfigT>
void
UnisonCacheT<WayPolicyT, ConfigT>::resetStats()
{
    DramCache::resetStats();
    ++statsGen_;
    wayPred_.resetStats();
    fetchPolicy_.resetStats();
    if (missPred_)
        missPred_->resetStats();
}

template <typename WayPolicyT, typename ConfigT>
void
UnisonCacheT<WayPolicyT, ConfigT>::issueProbeReads(
    const Location &loc, std::uint32_t pred_way, Cycle start,
    Cycle &tag_done, Cycle &data_done)
{
    // Tag burst first, then the speculative data read: back-to-back
    // commands to the same row; the channel model overlaps the row
    // activation and serializes only the bus bursts (Sec. III-A).
    const std::uint64_t tag_row = geometry_.rowOfSet(loc.set);
    tag_done = stacked_
                   ->rowAccess(tag_row, geometry_.tagBurstBytes,
                               /*is_write=*/false, start)
                   .completion;

    if (config_.wayPolicy == UnisonWayPolicy::SerialTag) {
        data_done = 0; // the data read is issued after tag resolve
        return;
    }

    if (config_.wayPolicy == UnisonWayPolicy::FetchAll) {
        // Stream every way of the set (possibly from several rows).
        Cycle done = 0;
        if (geometry_.rowsPerSet == 1) {
            done = stacked_
                       ->rowAccess(tag_row,
                                   config_.assoc * kBlockBytes,
                                   false, start)
                       .completion;
        } else {
            for (std::uint32_t r = 0; r < geometry_.rowsPerSet; ++r) {
                done = std::max(
                    done,
                    stacked_
                        ->rowAccess(tag_row + r,
                                    geometry_.waysPerRow * kBlockBytes,
                                    false, start)
                        .completion);
            }
        }
        data_done = done;
        return;
    }

    const std::uint64_t data_row = geometry_.dataRowOfWay(loc.set,
                                                          pred_way);
    data_done = stacked_
                    ->rowAccess(data_row, kBlockBytes, false, start)
                    .completion;
}

template <typename WayPolicyT, typename ConfigT>
DramCacheResult
UnisonCacheT<WayPolicyT, ConfigT>::serveBlockHit(
    const DramCacheRequest &req, const Location &loc, int way,
    std::uint32_t pred_way, Cycle tag_done, Cycle data_done)
{
    const std::size_t idx = setBase(loc.set) + way;
    const std::uint32_t bit = blockBit(loc.offset);

    ++stats_.hits;
    ways().hot[idx].touched |= bit;
    if (req.isWrite)
        ways().hot[idx].dirty |= bit;
    ways().hot[idx].lastUse = ++useCounter_;

    DramCacheResult result;
    result.hit = true;

    if (req.isWrite) {
        // Tag check resolved the way; then the block write goes to the
        // (open) row. Writes are posted: done when accepted.
        result.doneAt = stacked_
                            ->rowAccess(geometry_.dataRowOfWay(loc.set,
                                                               way),
                                        kBlockBytes, true, tag_done)
                            .completion;
        if (config_.assoc > 1 &&
            config_.wayPolicy == UnisonWayPolicy::Predict)
            wayPred_.train(loc.page, loc.set,
                           static_cast<std::uint32_t>(way));
        return result;
    }

    switch (config_.wayPolicy) {
      case UnisonWayPolicy::Predict: {
        const bool correct =
            static_cast<std::uint32_t>(way) == pred_way ||
            config_.assoc == 1;
        if (config_.assoc > 1) {
            wayPred_.recordOutcome(correct);
            wayPred_.train(loc.page, loc.set,
                           static_cast<std::uint32_t>(way));
        }
        if (correct) {
            result.doneAt = data_done;
        } else {
            // Way mispredict: re-read the correct way. The row is now
            // open, so this is a cheap row-buffer hit (Sec. III-A.6).
            result.doneAt =
                stacked_
                    ->rowAccess(geometry_.dataRowOfWay(loc.set, way),
                                kBlockBytes, false,
                                std::max(tag_done, data_done))
                    .completion;
        }
        break;
      }
      case UnisonWayPolicy::FetchAll:
        result.doneAt = std::max(tag_done, data_done);
        break;
      case UnisonWayPolicy::SerialTag:
        result.doneAt =
            stacked_
                ->rowAccess(geometry_.dataRowOfWay(loc.set, way),
                            kBlockBytes, false, tag_done)
                .completion;
        break;
    }
    return result;
}

template <typename WayPolicyT, typename ConfigT>
DramCacheResult
UnisonCacheT<WayPolicyT, ConfigT>::serveBlockMiss(
    const DramCacheRequest &req, const Location &loc, int way,
    Cycle tag_done)
{
    const std::size_t idx = setBase(loc.set) + way;
    const std::uint32_t bit = blockBit(loc.offset);

    ++stats_.misses;
    ++stats_.blockMisses;
    ways().hot[idx].lastUse = ++useCounter_;

    DramCacheResult result;
    result.hit = false;

    const std::uint64_t data_row = geometry_.dataRowOfWay(loc.set, way);
    if (req.isWrite) {
        // Full-block write allocation: no off-chip fetch needed.
        ways().hot[idx].fetched |= bit;
        ways().hot[idx].touched |= bit;
        ways().hot[idx].dirty |= bit;
        result.doneAt = stacked_
                            ->rowAccess(data_row, kBlockBytes, true,
                                        tag_done)
                            .completion;
        return result;
    }

    // Underprediction (Sec. III-A.3): fetch just the missing block.
    // The miss is detected after the in-DRAM tag resolves.
    const Cycle mem_done = fill_.demandBlock(req.addr, tag_done);
    ways().hot[idx].fetched |= bit;
    ways().hot[idx].touched |= bit; // eviction propagates the correction

    // Background fill of the block into the stacked row.
    stacked_->rowAccess(data_row, kBlockBytes, true, mem_done);
    result.doneAt = mem_done;
    return result;
}

template <typename WayPolicyT, typename ConfigT>
void
UnisonCacheT<WayPolicyT, ConfigT>::evictPage(std::uint64_t set, int way,
                                             Cycle when)
{
    const std::size_t idx = setBase(set) + way;
    const std::uint64_t page =
        org_.pageOf(set, static_cast<std::uint32_t>(way));

    // The stored (PC, offset) pair is read from the row only now, at
    // eviction, and used to train the FHT with the observed footprint;
    // dirty blocks leave as one batched read plus per-block writes
    // (footprint-granular transfers, the Sec. V-D energy advantage).
    evictPageWay(
        ways(), idx, writeback_, *stacked_,
        geometry_.dataRowOfWay(set, static_cast<std::uint32_t>(way)),
        [&](std::uint32_t off) { return blockAddrOf(page, off); }, when,
        fetchPolicy_, stats_, statsGen_);
}

template <typename WayPolicyT, typename ConfigT>
DramCacheResult
UnisonCacheT<WayPolicyT, ConfigT>::serveTriggerMiss(
    const DramCacheRequest &req, const Location &loc, Cycle tag_done,
    Cycle offchip_head_start, bool offchip_started)
{
    ++stats_.misses;
    ++stats_.pageMisses;

    if (req.isWrite) {
        // Write-no-allocate: an L2 writeback whose page is not
        // resident goes straight to memory. Allocating here would
        // evict a useful page and (worse) fetch a footprint predicted
        // from a trigger PC that has nothing to do with this data.
        DramCacheResult result;
        result.hit = false;
        result.doneAt = writeback_.writeBlock(
            blockAddrOf(loc.page, loc.offset), tag_done);
        return result;
    }

    // Footprint prediction for the trigger (PC, offset), including the
    // singleton promotion check (Sec. III-A.4).
    const FetchDecision decision = fetchPolicy_.onTriggerMiss(
        loc.page, req.pc, loc.offset, fullPageMask());

    DramCacheResult result;
    result.hit = false;

    // Singleton bypass: serve the block straight from memory without
    // allocating a page.
    if (decision.bypassSingleton) {
        ++stats_.singletonBypasses;
        result.doneAt = fill_.demandBlock(
            blockAddrOf(loc.page, loc.offset),
            offchip_started ? offchip_head_start : tag_done);
        fetchPolicy_.noteBypass(loc.page, req.pc, loc.offset);
        return result;
    }

    // Allocate: evict the victim way first.
    const int victim = org_.pickVictim(loc.set);
    const std::size_t idx = setBase(loc.set) + victim;
    if (ways().valid(idx))
        evictPage(loc.set, victim, tag_done);

    // Fetch the predicted footprint, demanded block first; remaining
    // blocks stream behind the critical one sharing the memory row.
    const std::uint32_t fetch_mask = decision.mask;
    const FillEngine::FootprintFetch fetch = fill_.fetchFootprint(
        [&](std::uint32_t off) { return blockAddrOf(loc.page, off); },
        fetch_mask, loc.offset, tag_done,
        offchip_started ? offchip_head_start : tag_done);

    // Fill the page (data + metadata) into the stacked row.
    stacked_->rowAccess(geometry_.dataRowOfWay(loc.set, victim),
                        popCount(fetch_mask) * kBlockBytes +
                            geometry_.pageMetaBytes,
                        true, fetch.lastDone);

    // Install the page metadata (Fig. 2: tag, bit vectors, PC+offset).
    ways().install(idx,
                   {loc.tag,
                    static_cast<std::uint32_t>(fhtPc(req.pc)),
                    static_cast<std::uint8_t>(loc.offset),
                    decision.mask, fetch_mask, blockBit(loc.offset),
                    ++useCounter_, statsGen_});

    if (config_.assoc > 1 && config_.wayPolicy == UnisonWayPolicy::Predict)
        wayPred_.train(loc.page, loc.set,
                       static_cast<std::uint32_t>(victim));

    result.doneAt = fetch.critical;
    return result;
}

template <typename WayPolicyT, typename ConfigT>
DramCacheResult
UnisonCacheT<WayPolicyT, ConfigT>::access(const DramCacheRequest &req)
{
    const Location loc = locate(req.addr);
    if (req.isWrite)
        ++stats_.writes;
    else
        ++stats_.reads;

    // Miss-policy speculation (reads only; writes always probe).
    bool predicted_hit = true;
    Cycle start = req.cycle;
    if (missPred_ && !req.isWrite) {
        predicted_hit = missPred_->predictHit(req.core, req.pc);
        start += missPred_->config().latency;
    }

    const std::uint32_t pred_way =
        (config_.assoc > 1 && config_.wayPolicy == UnisonWayPolicy::Predict)
            ? wayPred_.predict(loc.page, loc.set)
            : 0;

    // Probe: tag burst (+ overlapped speculative data read for reads).
    Cycle tag_done = 0;
    Cycle data_done = 0;
    if (req.isWrite) {
        tag_done = stacked_
                       ->rowAccess(geometry_.rowOfSet(loc.set),
                                   geometry_.tagBurstBytes, false, start)
                       .completion;
    } else {
        issueProbeReads(loc, pred_way, start, tag_done, data_done);
    }

    const int way = findWay(loc.set, loc.tag);
    const bool block_hit =
        way >= 0 &&
        (ways().hot[setBase(loc.set) + way].fetched &
         blockBit(loc.offset)) != 0;

    // MAP-I ablation: train, and account for speculative memory reads.
    bool offchip_started = false;
    Cycle offchip_head_start = tag_done;
    if (missPred_ && !req.isWrite) {
        missPred_->train(req.core, req.pc, predicted_hit, block_hit);
        if (!predicted_hit) {
            if (block_hit) {
                // Useless fetch: the block was in the cache.
                fill_.wastedBlock(req.addr, start);
            } else {
                offchip_started = true;
                offchip_head_start = start;
            }
        }
    }

    if (way >= 0) {
        if (block_hit)
            return serveBlockHit(req, loc, way, pred_way, tag_done,
                                 data_done);
        return serveBlockMiss(req, loc, way, tag_done);
    }
    return serveTriggerMiss(req, loc, tag_done, offchip_head_start,
                            offchip_started);
}

template <typename WayPolicyT, typename ConfigT>
bool
UnisonCacheT<WayPolicyT, ConfigT>::pagePresent(Addr addr) const
{
    const Location loc = locate(addr);
    return findWay(loc.set, loc.tag) >= 0;
}

template <typename WayPolicyT, typename ConfigT>
bool
UnisonCacheT<WayPolicyT, ConfigT>::blockPresent(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].fetched &
            blockBit(loc.offset)) != 0;
}

template <typename WayPolicyT, typename ConfigT>
bool
UnisonCacheT<WayPolicyT, ConfigT>::blockDirty(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].dirty &
            blockBit(loc.offset)) != 0;
}

template <typename WayPolicyT, typename ConfigT>
bool
UnisonCacheT<WayPolicyT, ConfigT>::blockTouched(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].touched &
            blockBit(loc.offset)) != 0;
}

/** The paper's Unison Cache: the body above composed with the hashed
 *  address-based way predictor. */
using UnisonCache = UnisonCacheT<HashedWayPolicy>;

/** Knob-range validation shared by the `unison` and `unisonwp`
 *  registry entries (defined in unison_cache.cc). */
std::string validateUnisonKnobs(const UnisonConfig &config);

} // namespace unison

#endif // UNISON_CORE_UNISON_CACHE_HH

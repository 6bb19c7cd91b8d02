/**
 * @file
 * Unison Cache (Sec. III of the paper) -- the primary contribution --
 * expressed as a composition over the policy framework:
 *
 *  - CacheOrganization: PageOrganization (cache/organization.hh) --
 *    pages of 15 blocks (960 B) or 31 blocks (1984 B) in 4-way sets,
 *    located with a reciprocal-multiply divide (common/fastdiv.hh)
 *    standing in for the paper's residue-arithmetic adder tree
 *    (Sec. III-A.7);
 *  - FetchPolicy: FootprintFetchPolicy (predictors/fetch_policy.hh) --
 *    footprint prediction with singleton bypass (Sec. III-A.1-4);
 *  - FillEngine/WritebackEngine (core/fill_engine.hh) own all
 *    off-chip traffic and its accounting;
 *  - way location is the `wayPolicy` knob (Sec. III-A.5/6): the
 *    paper's hashed way predictor, two predictor ablations (per-set
 *    MRU, always way 0), or no predictor at all (fetch every way, or
 *    serialize the tag and data reads).
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
 *
 * The same body is the `footprint` design (Footprint Cache, Jevdjic
 * et al., ISCA 2013): Unison Cache with its tags moved back into SRAM.
 * Where the tags live is a constructor argument, not a knob: given an
 * SRAM tag latency (Table IV, 6-48 cycles depending on capacity), every
 * access resolves its tag that many cycles after it starts, no tag
 * burst or metadata bytes touch the stacked rows, and reads take the
 * serial tag-then-data path with no way predictor. Misses are thus
 * detected at SRAM speed, while the tag array grows with capacity --
 * the scalability problem Unison Cache exists to remove.
 */

#ifndef UNISON_CORE_UNISON_CACHE_HH
#define UNISON_CORE_UNISON_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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

/** How the correct way of a set is located (Sec. III-A.5/6 ablations). */
enum class UnisonWayPolicy
{
    Predict,        //!< hashed way predictor, overlapped reads (the paper's)
    PredictMru,     //!< predict the set's most-recently-used way
    PredictStatic0, //!< always predict way 0 (the predictor-less floor)
    FetchAll,       //!< stream all ways in parallel (4x hit traffic)
    SerialTag,      //!< tag read, then data read (serialized)
};

/** True for the policies that read one predicted way in unison with
 *  the tag; only these consult and train the way predictor. */
constexpr bool
predictsWay(UnisonWayPolicy policy)
{
    return policy == UnisonWayPolicy::Predict ||
           policy == UnisonWayPolicy::PredictMru ||
           policy == UnisonWayPolicy::PredictStatic0;
}

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

/** The `footprint` design's knobs. Its registry entry builds the
 *  Unison Cache body from them with SRAM tags, FootprintGeometry's
 *  2 KB pages and 32-way sets, and UnisonConfig's other defaults. */
struct FootprintCacheConfig
{
    /** Fetch predicted footprints (false: whole pages). */
    bool footprintPredictionEnabled = true;
    bool singletonEnabled = true;

    /** 0 uses Table IV's latency for the capacity. */
    Cycle tagLatencyOverride = 0;
};

/**
 * The way predictor of the `predict*` policies: the paper's hashed
 * address-based WayPredictor (Sec. III-A.6, ignoring the set index),
 * the set's most-recently-used way (one byte per set, no hash table),
 * or always way 0 (~1/assoc accuracy under LRU churn). Accuracy is
 * counted here, the same way for all three.
 */
class UnisonWayPredictor
{
  public:
    UnisonWayPredictor(const UnisonConfig &config, std::uint64_t num_sets)
        : policy_(config.wayPolicy),
          hashed_(config.wayPredictorIndexBits != 0
                      ? config.wayPredictorIndexBits
                      : WayPredictor::indexBitsForCapacity(
                            config.capacityBytes),
                  config.assoc)
    {
        if (policy_ == UnisonWayPolicy::PredictMru)
            mruWay_.assign(num_sets, 0);
    }

    std::uint32_t
    predict(std::uint64_t page, std::uint64_t set) const
    {
        switch (policy_) {
          case UnisonWayPolicy::PredictMru:
            return mruWay_[set];
          case UnisonWayPolicy::PredictStatic0:
            return 0;
          default:
            return hashed_.predict(page);
        }
    }

    void
    train(std::uint64_t page, std::uint64_t set, std::uint32_t way)
    {
        switch (policy_) {
          case UnisonWayPolicy::PredictMru:
            mruWay_[set] = static_cast<std::uint8_t>(way);
            break;
          case UnisonWayPolicy::PredictStatic0:
            break;
          default:
            hashed_.train(page, way);
            break;
        }
    }

    void
    recordOutcome(bool correct)
    {
        ++stats_.predictions;
        if (correct)
            ++stats_.correct;
    }

    const WayPredictorStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Warm-state checkpoint: the hashed table under every policy (it
     *  is all there is for `predict`), plus the per-set ways under
     *  `predict-mru`. */
    void
    saveState(StateWriter &out) const
    {
        hashed_.saveState(out);
        if (policy_ == UnisonWayPolicy::PredictMru)
            out.podVector(mruWay_);
    }

    void
    loadState(StateReader &in)
    {
        hashed_.loadState(in);
        if (policy_ == UnisonWayPolicy::PredictMru)
            in.podVectorExact(mruWay_);
    }

  private:
    UnisonWayPolicy policy_;
    WayPredictor hashed_;
    std::vector<std::uint8_t> mruWay_; //!< sized only for `predict-mru`
    WayPredictorStats stats_;
};

/**
 * The Unison Cache body, and with `sram_tag_latency` the Footprint
 * Cache body (tagged DramCacheKind::Footprint, named "Footprint";
 * requires the `serial-tag` way policy). `final`, so the kind-tag
 * dispatch in System::run devirtualizes: zero virtual calls on the
 * access path.
 */
class UnisonCache final : public DramCache
{
  public:
    UnisonCache(const UnisonConfig &config, MemoryBackend *offchip,
                std::optional<Cycle> sram_tag_latency = std::nullopt);

    DramCacheResult access(const DramCacheRequest &req) override;

    std::string name() const override;
    std::uint64_t capacityBytes() const override
    {
        return config_.capacityBytes;
    }
    MemoryBackend *stackedDram() override { return stacked_.get(); }
    void resetStats() override;

    const UnisonConfig &config() const { return config_; }
    const UnisonGeometry &geometry() const { return geometry_; }
    /** The SRAM tag-array latency; empty when tags live in DRAM. */
    std::optional<Cycle> sramTagLatency() const { return sramTagLatency_; }
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
        if (!sramTagLatency_)
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
        if (!sramTagLatency_)
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

    /** When the set's tags resolve for a probe issued at `start`:
     *  after the SRAM lookup, or after the in-DRAM tag burst. */
    Cycle
    resolveTag(std::uint64_t set, Cycle start)
    {
        if (sramTagLatency_)
            return start + *sramTagLatency_;
        return stacked_
            ->rowAccess(geometry_.rowOfSet(set), geometry_.tagBurstBytes,
                        /*is_write=*/false, start)
            .completion;
    }

    /**
     * Time the data read a read probe issues in unison with its tag
     * read: the predicted way, or every way under `fetch-all`. Returns
     * 0 under `serial-tag`, whose data read waits for the tag.
     */
    Cycle issueDataProbe(const Location &loc, std::uint32_t pred_way,
                         Cycle start);

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

    UnisonConfig config_;
    std::optional<Cycle> sramTagLatency_; //!< set: Footprint Cache
    UnisonGeometry geometry_;

    /** CacheOrganization: page split + set metadata (hot/cold SoA). */
    PageOrganization org_;

    std::unique_ptr<MemoryBackend> stacked_;
    UnisonWayPredictor wayPred_;
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

// ------------------------------------------------- member bodies
// (header-resident: the System timing loop monomorphizes on the
// concrete type, so access() is a direct call the compiler may inline,
// with no virtual dispatch)

inline UnisonCache::UnisonCache(const UnisonConfig &config,
                                MemoryBackend *offchip,
                                std::optional<Cycle> sram_tag_latency)
    : DramCache(offchip, sram_tag_latency ? DramCacheKind::Footprint
                                          : DramCacheKind::Unison),
      config_(config),
      sramTagLatency_(sram_tag_latency),
      geometry_(UnisonGeometry::compute(config.capacityBytes,
                                        config.pageBlocks, config.assoc,
                                        /*phys_addr_bits=*/40,
                                        sram_tag_latency.has_value())),
      stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming)),
      wayPred_(config, geometry_.numSets),
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
    UNISON_ASSERT(!sramTagLatency_ ||
                      config_.wayPolicy == UnisonWayPolicy::SerialTag,
                  "SRAM tags resolve before the data read: serial-tag");
    if (config_.missPolicy == UnisonMissPolicy::MapI) {
        MissPredictorConfig mp;
        mp.numCores = config_.numCores;
        missPred_ = std::make_unique<MissPredictor>(mp);
    }
    org_.init(config_.pageBlocks, geometry_.numSets, config_.assoc);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

inline std::string
UnisonCache::name() const
{
    if (sramTagLatency_)
        return "Footprint";
    std::string suffix;
    if (config_.wayPolicy == UnisonWayPolicy::PredictMru)
        suffix = "+wp=mru";
    else if (config_.wayPolicy == UnisonWayPolicy::PredictStatic0)
        suffix = "+wp=static0";
    return "Unison-" + std::to_string(config_.pageBlocks * kBlockBytes) +
           "B-" + std::to_string(config_.assoc) + "way" + suffix;
}

inline void
UnisonCache::resetStats()
{
    DramCache::resetStats();
    ++statsGen_;
    wayPred_.resetStats();
    fetchPolicy_.resetStats();
    if (missPred_)
        missPred_->resetStats();
}

inline Cycle
UnisonCache::issueDataProbe(const Location &loc, std::uint32_t pred_way,
                            Cycle start)
{
    // Issued right behind the tag burst: back-to-back commands to the
    // same row; the channel model overlaps the row activation and
    // serializes only the bus bursts (Sec. III-A).
    if (config_.wayPolicy == UnisonWayPolicy::SerialTag)
        return 0;

    if (config_.wayPolicy == UnisonWayPolicy::FetchAll) {
        // Stream every way of the set (possibly from several rows).
        const std::uint64_t tag_row = geometry_.rowOfSet(loc.set);
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
        return done;
    }

    const std::uint64_t data_row = geometry_.dataRowOfWay(loc.set,
                                                          pred_way);
    return stacked_->rowAccess(data_row, kBlockBytes, false, start)
        .completion;
}

inline DramCacheResult
UnisonCache::serveBlockHit(
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
        if (config_.assoc > 1 && predictsWay(config_.wayPolicy))
            wayPred_.train(loc.page, loc.set,
                           static_cast<std::uint32_t>(way));
        return result;
    }

    switch (config_.wayPolicy) {
      case UnisonWayPolicy::Predict:
      case UnisonWayPolicy::PredictMru:
      case UnisonWayPolicy::PredictStatic0: {
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

inline DramCacheResult
UnisonCache::serveBlockMiss(
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

inline void
UnisonCache::evictPage(std::uint64_t set, int way,
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

inline DramCacheResult
UnisonCache::serveTriggerMiss(
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

    if (config_.assoc > 1 && predictsWay(config_.wayPolicy))
        wayPred_.train(loc.page, loc.set,
                       static_cast<std::uint32_t>(victim));

    result.doneAt = fetch.critical;
    return result;
}

inline DramCacheResult
UnisonCache::access(const DramCacheRequest &req)
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
        (config_.assoc > 1 && predictsWay(config_.wayPolicy))
            ? wayPred_.predict(loc.page, loc.set)
            : 0;

    // Probe: tag resolve (+ overlapped speculative data read for reads).
    const Cycle tag_done = resolveTag(loc.set, start);
    const Cycle data_done =
        req.isWrite ? 0 : issueDataProbe(loc, pred_way, start);

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

inline bool
UnisonCache::pagePresent(Addr addr) const
{
    const Location loc = locate(addr);
    return findWay(loc.set, loc.tag) >= 0;
}

inline bool
UnisonCache::blockPresent(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].fetched &
            blockBit(loc.offset)) != 0;
}

inline bool
UnisonCache::blockDirty(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].dirty &
            blockBit(loc.offset)) != 0;
}

inline bool
UnisonCache::blockTouched(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].touched &
            blockBit(loc.offset)) != 0;
}

} // namespace unison

#endif // UNISON_CORE_UNISON_CACHE_HH

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
 * What remains in unison_cache.{hh,cc} is what defines Unison Cache:
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

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/organization.hh"
#include "cache/page_set.hh"
#include "common/bitops.hh"
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
    /** The hashed table is built only under `predict`, the one
     *  policy that reads it; `footprint` (SRAM tags, serial-tag) and
     *  `unison` under fetch-all or serial-tag never consult a
     *  predictor and allocate none. */
    UnisonWayPredictor(const UnisonConfig &config, std::uint64_t num_sets)
        : policy_(config.wayPolicy)
    {
        if (policy_ == UnisonWayPolicy::Predict)
            hashed_.emplace(config.wayPredictorIndexBits != 0
                                ? config.wayPredictorIndexBits
                                : WayPredictor::indexBitsForCapacity(
                                      config.capacityBytes),
                            config.assoc);
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
            return hashed_->predict(page);
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
            hashed_->train(page, way);
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

    /** Whether the hashed table was built (see the constructor). */
    bool hasTable() const { return hashed_.has_value(); }

    /** Warm-state checkpoint: the hashed table under `predict`, the
     *  per-set ways under `predict-mru`, nothing otherwise. */
    void
    saveState(StateWriter &out) const
    {
        if (hashed_)
            hashed_->saveState(out);
        if (policy_ == UnisonWayPolicy::PredictMru)
            out.podVector(mruWay_);
    }

    void
    loadState(StateReader &in)
    {
        if (hashed_)
            hashed_->loadState(in);
        if (policy_ == UnisonWayPolicy::PredictMru)
            in.podVectorExact(mruWay_);
    }

  private:
    UnisonWayPolicy policy_;
    std::optional<WayPredictor> hashed_; //!< built only for `predict`
    std::vector<std::uint8_t> mruWay_; //!< sized only for `predict-mru`
    WayPredictorStats stats_;
};

/**
 * The Unison Cache body, and with `sram_tag_latency` the Footprint
 * Cache body (tagged DramCacheKind::Footprint, named "Footprint";
 * requires the `serial-tag` way policy and builds no way-predictor
 * table). Member bodies live in unison_cache.cc, like every other
 * design's: the timing loop calls access() through the vtable.
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
    /** Whether the hashed way-predictor table exists (`predict` only). */
    bool hasWayPredictorTable() const { return wayPred_.hasTable(); }
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

} // namespace unison

#endif // UNISON_CORE_UNISON_CACHE_HH

/**
 * @file
 * The FetchPolicy layer of the DRAM-cache policy framework: what a
 * design fetches from off-chip memory on a trigger miss.
 *
 * The paper's design space has three points. Two are expressed here,
 * by one policy:
 *
 *  - footprint-predicted (Unison Cache, Footprint Cache): an FHT keyed
 *    by the trigger (PC, offset) predicts the page's footprint, and a
 *    singleton table lets one-block pages bypass allocation entirely;
 *  - full-page: the same policy with prediction disabled -- every
 *    trigger miss fetches the whole page.
 *
 * The third, single-block (Alloy Cache), needs no policy: the block
 * body (baselines/alloy_cache.cc) fetches exactly the demanded block
 * through the fill engine and learns nothing.
 *
 * The policies own the predictor state (predictors/footprint_table.hh,
 * predictors/singleton_table.hh) and make decisions; issuing the
 * traffic they decide on -- and accounting for it -- is the fill
 * engine's job (core/fill_engine.hh).
 */

#ifndef UNISON_PREDICTORS_FETCH_POLICY_HH
#define UNISON_PREDICTORS_FETCH_POLICY_HH

#include <cstdint>

#include "common/state_io.hh"
#include "common/types.hh"
#include "predictors/footprint_table.hh"
#include "predictors/singleton_table.hh"

namespace unison {

/** FHT keys use the low 32 PC bits (the stored trigger PC width). */
inline Pc
fhtPc(Pc pc)
{
    return pc & 0xffffffffull;
}

/** What a fetch policy decided for one trigger miss. */
struct FetchDecision
{
    /** Blocks to fetch (the demanded block's bit is always set). */
    std::uint32_t mask = 0;
    /** Serve the block straight from memory, allocate nothing
     *  (Sec. III-A.4 singleton bypass). */
    bool bypassSingleton = false;
};

/**
 * Footprint-predicted fetch (Sec. III-A.1-4): FHT prediction keyed by
 * the trigger (PC, offset), singleton bypass with promotion on reuse,
 * and footprint training at eviction. With `footprintPrediction`
 * off it degrades to the full-page policy; `wholePageWhenUntrained`
 * selects what an FHT miss falls back to (whole page for the
 * page-organized designs; the block designs pass their own default).
 */
class FootprintFetchPolicy
{
  public:
    struct Config
    {
        FootprintTableConfig fht{};
        SingletonTableConfig singleton{};
        bool footprintPrediction = true;
        bool singletonBypass = true;
        /** Mask fetched when prediction is disabled entirely: the full
         *  page (page designs) or just the demand bit (block designs,
         *  which then degenerate to Alloy Cache). */
        bool wholePageWhenDisabled = true;
    };

    explicit FootprintFetchPolicy(const Config &config)
        : config_(config), fht_(config.fht), singletons_(config.singleton)
    {
    }

    /**
     * Decide what to fetch for the trigger miss (pc, offset) on
     * `page`. Handles singleton promotion (a previously bypassed page
     * seen again widens its FHT entry) and folds the demand bit in.
     * `full_mask` is the design's whole-page mask.
     */
    FetchDecision
    onTriggerMiss(std::uint64_t page, Pc pc, std::uint32_t offset,
                  std::uint32_t full_mask)
    {
        const std::uint32_t bit = 1u << offset;

        // Singleton promotion check (Sec. III-A.4): was this page
        // bypassed as a singleton earlier? Then it is not a singleton
        // after all -- widen its FHT entry.
        bool promoted = false;
        if (config_.singletonBypass) {
            Pc spc;
            std::uint32_t soff, sfirst;
            if (singletons_.checkAndRemove(page, spc, soff, sfirst)) {
                fht_.merge(spc, soff, (1u << sfirst) | bit);
                promoted = true;
            }
        }

        std::uint32_t predicted;
        if (!config_.footprintPrediction) {
            predicted = config_.wholePageWhenDisabled ? full_mask : 0;
        } else {
            predicted = full_mask;
            std::uint64_t fht_mask;
            if (fht_.predict(fhtPc(pc), offset, fht_mask))
                predicted =
                    static_cast<std::uint32_t>(fht_mask) & full_mask;
        }
        predicted |= bit;

        FetchDecision decision;
        decision.mask = predicted;
        decision.bypassSingleton = config_.singletonBypass &&
                                   !promoted && predicted == bit &&
                                   config_.footprintPrediction;
        return decision;
    }

    /** Remember a bypassed singleton page so a second access to it can
     *  be promoted. */
    void
    noteBypass(std::uint64_t page, Pc pc, std::uint32_t offset)
    {
        singletons_.insert(page, fhtPc(pc), offset, offset);
    }

    /** Train with a page's observed footprint at eviction. */
    void
    trainEviction(std::uint32_t pc_hash, std::uint32_t trigger,
                  std::uint32_t touched)
    {
        fht_.update(pc_hash, trigger, touched);
    }

    void
    resetStats()
    {
        fht_.resetStats();
        singletons_.resetStats();
    }

    const Config &config() const { return config_; }
    const FootprintHistoryTable &footprintTable() const { return fht_; }
    const SingletonTable &singletonTable() const { return singletons_; }

    /** Warm-state checkpoint: both owned predictor tables. */
    void
    saveState(StateWriter &out) const
    {
        fht_.saveState(out);
        singletons_.saveState(out);
    }

    void
    loadState(StateReader &in)
    {
        fht_.loadState(in);
        singletons_.loadState(in);
    }

  private:
    Config config_;
    FootprintHistoryTable fht_;
    SingletonTable singletons_;
};

} // namespace unison

#endif // UNISON_PREDICTORS_FETCH_POLICY_HH

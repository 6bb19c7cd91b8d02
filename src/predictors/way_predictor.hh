/**
 * @file
 * Address-based way predictor (Sec. III-A.6). A small array of way
 * fields indexed by an XOR hash of the *page* address; the DRAM
 * controller consults it off the critical path so that the data-block
 * read can target a single way, overlapped with the in-DRAM tag read.
 *
 * The paper uses a 2-bit array indexed by a 12-bit XOR hash (1 KB),
 * growing to a 16-bit hash (16 KB) for caches above 4 GB. Accuracy is
 * high (~95%) because predictions are page-grained: a page's first
 * access trains the entry and the abundant spatial locality makes the
 * following accesses to the same page predict correctly.
 */

#ifndef UNISON_PREDICTORS_WAY_PREDICTOR_HH
#define UNISON_PREDICTORS_WAY_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/state_io.hh"
#include "stats/stats.hh"

namespace unison {

/** Prediction accuracy, counted by the cache that consults a way
 *  predictor (UnisonWayPredictor in core/unison_cache.hh). */
struct WayPredictorStats
{
    Counter predictions;
    Counter correct;

    double
    accuracyPercent() const
    {
        return percent(correct.value(), predictions.value());
    }

    void
    reset()
    {
        predictions.reset();
        correct.reset();
    }
};

class WayPredictor
{
  public:
    /**
     * @param index_bits table index width (12 for <=4 GB, 16 above)
     * @param assoc number of ways being predicted
     */
    WayPredictor(std::uint32_t index_bits, std::uint32_t assoc);

    /** Predicted way for the page (does not count accuracy). */
    std::uint32_t predict(std::uint64_t page_id) const;

    /** Train with the way the page was actually found/placed in. */
    void train(std::uint64_t page_id, std::uint32_t way);

    /** Paper-recommended index width for a given cache capacity. */
    static std::uint32_t indexBitsForCapacity(std::uint64_t cache_bytes);

    /** Modeled SRAM size in bytes (Table II check). */
    std::uint64_t storageBytes() const;

    std::uint32_t indexBits() const { return indexBits_; }

    /** Warm-state checkpoint of the prediction table. */
    void saveState(StateWriter &out) const { out.podVector(table_); }
    void loadState(StateReader &in) { in.podVectorExact(table_); }

  private:
    std::uint32_t indexBits_;
    std::uint32_t assoc_;
    std::vector<std::uint8_t> table_;
};

} // namespace unison

#endif // UNISON_PREDICTORS_WAY_PREDICTOR_HH

/**
 * @file
 * Footprint History Table (FHT) -- the spatial-correlation predictor
 * Unison Cache inherits from Footprint Cache (Sec. III-A.1-3).
 *
 * A page's *footprint* is the set of blocks touched between its
 * allocation and eviction. Footprints correlate with the code that
 * first touches the page: the table is keyed by the (PC, offset) pair
 * of the trigger access and stores one bit vector per entry. At page
 * allocation the predicted footprint decides which blocks to fetch; at
 * eviction the observed footprint updates the entry.
 *
 * Table II budgets 144 KB of SRAM for this structure; the default
 * geometry (24K entries x ~6 B) matches that.
 */

#ifndef UNISON_PREDICTORS_FOOTPRINT_TABLE_HH
#define UNISON_PREDICTORS_FOOTPRINT_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace unison {

/** Geometry of the FHT. */
struct FootprintTableConfig
{
    /** 4096 sets x 6 ways = 24K entries x ~6 B = the 144 KB budget. */
    std::uint32_t numEntries = 24 * 1024;
    std::uint32_t assoc = 6;
    std::uint32_t tagBits = 16;
    /** Widest footprint bit vector stored (blocks per page). */
    std::uint32_t maxBlocksPerPage = 32;
};

/** "" when the FHT can be built from `config` (entries divisible by
 *  assoc, a power-of-two set count), else an actionable message; the
 *  shared check of every registry design with FHT knobs. */
std::string validateFhtShape(const FootprintTableConfig &config);

/** FHT statistics. */
struct FootprintTableStats
{
    Counter lookups;
    Counter hits;      //!< lookups that found a trained entry
    Counter updates;
    Counter inserts;   //!< updates that allocated a new entry

    void
    reset()
    {
        lookups.reset();
        hits.reset();
        updates.reset();
        inserts.reset();
    }
};

/** Set-associative (PC, offset) -> footprint-bit-vector table. */
class FootprintHistoryTable
{
  public:
    explicit FootprintHistoryTable(const FootprintTableConfig &config);

    /**
     * Look up the footprint trained for this (PC, offset) trigger.
     * @return true and the mask if a trained entry exists.
     */
    bool predict(Pc pc, std::uint32_t offset, std::uint64_t &mask_out);

    /** Record the observed footprint for the trigger (PC, offset). */
    void update(Pc pc, std::uint32_t offset, std::uint64_t actual_mask);

    /**
     * Merge extra blocks into an existing entry (used when a singleton
     * page turns out to be non-singleton, Sec. III-A.4).
     */
    void merge(Pc pc, std::uint32_t offset, std::uint64_t extra_mask);

    const FootprintTableConfig &config() const { return config_; }
    const FootprintTableStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Modeled SRAM footprint in bytes (Table II check). */
    std::uint64_t storageBytes() const;

    /** Warm-state checkpoint of the trained entries and the LRU clock
     *  (stats excluded by the state_io.hh contract). */
    void
    saveState(StateWriter &out) const
    {
        out.podVector(entries_);
        out.pod(useCounter_);
    }

    void
    loadState(StateReader &in)
    {
        in.podVectorExact(entries_);
        in.pod(useCounter_);
    }

  private:
    /**
     * Packed to 16 bytes (valid folded into the tag word, 32-bit LRU
     * stamp): lookups hash all over the 24K-entry table, so a 6-way
     * set spanning 1.5 host cache lines instead of 3 halves the miss
     * traffic of the hottest predictor.
     */
    struct Entry
    {
        static constexpr std::uint32_t kValid = 1u << 31;

        std::uint64_t mask = 0;
        std::uint32_t vtag = 0;    //!< kValid | tag (tagBits <= 31)
        std::uint32_t lastUse = 0;

        bool valid() const { return (vtag & kValid) != 0; }
    };
    static_assert(sizeof(Entry) == 16, "FHT entry no longer packed");

    /** Map (pc, offset) to (set, tag). */
    void index(Pc pc, std::uint32_t offset, std::uint64_t &set,
               std::uint32_t &tag) const;

    Entry *find(std::uint64_t set, std::uint32_t tag);

    FootprintTableConfig config_;
    std::uint32_t numSets_;
    std::vector<Entry> entries_;
    std::uint32_t useCounter_ = 0;
    FootprintTableStats stats_;
};

} // namespace unison

#endif // UNISON_PREDICTORS_FOOTPRINT_TABLE_HH

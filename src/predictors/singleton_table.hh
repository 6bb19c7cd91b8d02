/**
 * @file
 * Singleton table (Sec. III-A.4). Pages whose predicted footprint is a
 * single block are *not* allocated in the cache -- the block is
 * forwarded straight to the requestor. Because such pages never get
 * evicted, mispredictions could never be corrected; this small table
 * remembers recently bypassed singleton pages so a second access to
 * one can be detected and the FHT entry widened.
 *
 * Table II budgets 3 KB of SRAM for it.
 */

#ifndef UNISON_PREDICTORS_SINGLETON_TABLE_HH
#define UNISON_PREDICTORS_SINGLETON_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace unison {

struct SingletonTableConfig
{
    std::uint32_t numEntries = 256;
    std::uint32_t assoc = 4;
};

struct SingletonTableStats
{
    Counter inserts;
    Counter promotions; //!< second access found the page: non-singleton

    void
    reset()
    {
        inserts.reset();
        promotions.reset();
    }
};

/**
 * Tracks (page id -> trigger (PC, offset), first block) for pages that
 * were bypassed as singletons.
 */
class SingletonTable
{
  public:
    explicit SingletonTable(const SingletonTableConfig &config);

    /** Remember a bypassed page and the trigger that predicted it. */
    void insert(std::uint64_t page_id, Pc pc, std::uint32_t offset,
                std::uint32_t first_block);

    /**
     * On a new miss to `page_id`, check whether it was bypassed as a
     * singleton. If so the entry is consumed and the stored trigger
     * returned so the caller can widen the FHT entry.
     * @return true if the page was found (and removed).
     */
    bool checkAndRemove(std::uint64_t page_id, Pc &pc_out,
                        std::uint32_t &offset_out,
                        std::uint32_t &first_block_out);

    const SingletonTableStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Modeled SRAM size in bytes (Table II check). */
    std::uint64_t storageBytes() const;

    /** Warm-state checkpoint of the tracked pages and the LRU clock
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
    struct Entry
    {
        std::uint64_t pageId = 0;
        Pc pc = 0;
        std::uint32_t offset = 0;
        std::uint32_t firstBlock = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        /** Named padding, zeroed so warm snapshots (which write this
         *  struct as raw bytes) are deterministic. */
        std::uint8_t pad[7] = {};
    };
    static_assert(sizeof(Entry) == 40,
                  "warm-snapshot singleton records keep their layout");

    SingletonTableConfig config_;
    std::uint32_t numSets_;
    std::vector<Entry> entries_;
    std::uint64_t useCounter_ = 0;
    SingletonTableStats stats_;
};

} // namespace unison

#endif // UNISON_PREDICTORS_SINGLETON_TABLE_HH

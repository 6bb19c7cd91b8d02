/**
 * @file
 * The on-chip SRAM hierarchy of the baseline CMP (Table III): private
 * 64 KB L1 data caches per core and a shared 4 MB 16-way L2. The DRAM
 * cache under study sits *below* this hierarchy, so it sees exactly the
 * L2 miss and L2 writeback streams -- which is why, as the paper notes,
 * little temporal locality survives to the DRAM cache level.
 */

#ifndef UNISON_CACHE_HIERARCHY_HH
#define UNISON_CACHE_HIERARCHY_HH

#include <vector>

#include "cache/sram_cache.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace unison {

/** Geometry + latency knobs for the SRAM levels (Table III defaults). */
struct HierarchyConfig
{
    std::uint64_t l1Bytes = 64 * 1024;
    std::uint32_t l1Assoc = 8;
    Cycle l1Latency = 2;   //!< load-to-use

    std::uint64_t l2Bytes = 4 * 1024 * 1024;
    std::uint32_t l2Assoc = 16;
    Cycle l2Latency = 13;  //!< hit latency
};

/**
 * What one core reference did to the SRAM levels. Everything the DRAM
 * cache must service is reported here: at most one demand miss and up
 * to two dirty-block writebacks (L2 demand-fill victim and the victim
 * of an L1-writeback allocation).
 */
struct HierarchyOutcome
{
    /** Deepest level that had to be consulted. */
    enum class Level { L1, L2, Beyond };

    Level level = Level::L1;

    /** SRAM-only latency component (L1, or L1+L2 probe). */
    Cycle sramLatency = 0;

    /** Dirty blocks pushed out to the DRAM-cache level. */
    int numWritebacks = 0;
    Addr writebackAddr[2] = {0, 0};
};

/**
 * Per-core L1s in front of one shared L2. The caches are stored by
 * value (no per-access pointer chase). A reference is two steps: the
 * private one, l1Access(), touches only the issuing core's L1; the
 * shared one, afterL1Miss(), runs only for an L1 miss. The timing loop
 * (System::run) runs a core's L1 hits ahead of the other cores and
 * takes the shared step in global time order; access() is the two
 * back to back.
 *
 * The L1s' own counters therefore include references a core ran
 * ahead past the end of a run; System counts its L1 statistics per
 * measured reference instead.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(int num_cores, const HierarchyConfig &config);

    /** The private step: core `core`'s L1 alone (allocate on miss). */
    SramAccessResult
    l1Access(int core, Addr addr, bool is_write)
    {
        UNISON_ASSERT(core >= 0 && core < static_cast<int>(l1s_.size()),
                      "core ", core, " out of range");
        return l1s_[core].access(addr, is_write);
    }

    /**
     * The shared step of a reference whose l1Access() returned the
     * miss `l1res`: its dirty L1 victim goes into the L2, then the L2
     * is probed.
     */
    HierarchyOutcome
    afterL1Miss(Addr addr, bool is_write, const SramAccessResult &l1res)
    {
        HierarchyOutcome outcome;
        if (l1res.writeback)
            writebackToL2(l1res.writebackAddr, outcome);

        const SramAccessResult l2res = l2_.access(addr, is_write);
        if (l2res.writeback) {
            UNISON_ASSERT(outcome.numWritebacks < 2,
                          "more than two writebacks from one reference");
            outcome.writebackAddr[outcome.numWritebacks++] =
                l2res.writebackAddr;
        }

        outcome.level = l2res.hit ? HierarchyOutcome::Level::L2
                                  : HierarchyOutcome::Level::Beyond;
        outcome.sramLatency = config_.l1Latency + config_.l2Latency;
        return outcome;
    }

    /** Run one reference through L1 and (if needed) L2. */
    HierarchyOutcome
    access(int core, Addr addr, bool is_write)
    {
        const SramAccessResult l1res = l1Access(core, addr, is_write);
        if (!l1res.hit)
            return afterL1Miss(addr, is_write, l1res);
        HierarchyOutcome outcome;
        outcome.level = HierarchyOutcome::Level::L1;
        outcome.sramLatency = config_.l1Latency;
        return outcome;
    }

    const SetAssocCache &l1(int core) const { return l1s_[core]; }
    const SetAssocCache &l2() const { return l2_; }
    const HierarchyConfig &config() const { return config_; }

    /** Warm-state checkpoint of every SRAM level (see state_io.hh). */
    void
    saveState(StateWriter &out) const
    {
        for (const SetAssocCache &l1 : l1s_)
            l1.saveState(out);
        l2_.saveState(out);
    }

    void
    loadState(StateReader &in)
    {
        for (SetAssocCache &l1 : l1s_)
            l1.loadState(in);
        l2_.loadState(in);
    }

    void resetStats();

  private:
    /** Insert a dirty L1 victim into the L2 (write-allocate). */
    void
    writebackToL2(Addr addr, HierarchyOutcome &outcome)
    {
        const SramAccessResult res = l2_.access(addr, /*is_write=*/true);
        if (res.writeback) {
            UNISON_ASSERT(outcome.numWritebacks < 2,
                          "more than two writebacks from one reference");
            outcome.writebackAddr[outcome.numWritebacks++] =
                res.writebackAddr;
        }
    }

    static SramCacheConfig l1Config(const HierarchyConfig &config, int core);
    static SramCacheConfig l2Config(const HierarchyConfig &config);

    HierarchyConfig config_;
    std::vector<SetAssocCache> l1s_;
    SetAssocCache l2_;
};

} // namespace unison

#endif // UNISON_CACHE_HIERARCHY_HH

/**
 * @file
 * Per-core partitions of measurement-window statistics.
 *
 * Multiprogrammed mixes need per-core accounting (each core may run a
 * different program, so aggregate UIPC hides exactly the fairness
 * effects under study). A PerCoreStats holds one CoreWindowStats
 * slice per core; the System accumulates into the slices during the
 * measured window and resets them all at the warm-up boundary, the
 * same discipline Counter follows.
 */

#ifndef UNISON_STATS_PERCORE_HH
#define UNISON_STATS_PERCORE_HH

#include <cstdint>
#include <vector>

#include "stats/stats.hh"

namespace unison {

/**
 * One core's share of the measured window: user instructions retired,
 * memory references issued, those that missed the core's L1, read
 * references (the AMAT sample count) and their total latency in
 * cycles. One X-macro list feeds reset() and any per-field emission,
 * like the other *Stats structs.
 */
#define UNISON_CORE_WINDOW_STATS_FIELDS(X)                              \
    X(std::uint64_t, instructions)                                      \
    X(std::uint64_t, references)                                        \
    X(std::uint64_t, l1Misses)                                          \
    X(std::uint64_t, loads)                                             \
    X(double, loadLatencySum)

struct CoreWindowStats
{
    UNISON_STAT_STRUCT_BODY(UNISON_CORE_WINDOW_STATS_FIELDS)

    /** Average memory access time of this core's loads, in cycles. */
    double
    amatCycles() const
    {
        return loads ? loadLatencySum / static_cast<double>(loads)
                     : 0.0;
    }
};

/** Fixed-size array of per-core slices with whole-window helpers. */
class PerCoreStats
{
  public:
    explicit PerCoreStats(int num_cores = 0)
        : cores_(static_cast<std::size_t>(num_cores))
    {
    }

    CoreWindowStats &operator[](int core)
    {
        return cores_[static_cast<std::size_t>(core)];
    }
    const CoreWindowStats &operator[](int core) const
    {
        return cores_[static_cast<std::size_t>(core)];
    }

    int numCores() const { return static_cast<int>(cores_.size()); }

    /** Warm-up boundary: forget everything accumulated so far. */
    void
    reset()
    {
        for (CoreWindowStats &c : cores_)
            c.reset();
    }

    std::uint64_t
    totalInstructions() const
    {
        std::uint64_t sum = 0;
        for (const CoreWindowStats &c : cores_)
            sum += c.instructions;
        return sum;
    }

    std::uint64_t
    totalReferences() const
    {
        std::uint64_t sum = 0;
        for (const CoreWindowStats &c : cores_)
            sum += c.references;
        return sum;
    }

    std::uint64_t
    totalL1Misses() const
    {
        std::uint64_t sum = 0;
        for (const CoreWindowStats &c : cores_)
            sum += c.l1Misses;
        return sum;
    }

  private:
    std::vector<CoreWindowStats> cores_;
};

} // namespace unison

#endif // UNISON_STATS_PERCORE_HH

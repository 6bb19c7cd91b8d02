/**
 * @file
 * The full-system timing model: 16 cores playing back an access trace
 * through private L1s, the shared L2, the DRAM cache under study, and
 * the shared off-chip DDR3 channel.
 *
 * Core model: trace-driven with a base CPI for non-memory instructions
 * and a memory-level-parallelism factor that overlaps load stalls --
 * the standard trace-driven stand-in for the paper's 3-way OoO cores.
 * The performance metric is user instructions per cycle (UIPC), the
 * throughput proxy the paper adopts from SimFlex; speedups divide
 * UIPCs. Warm-up follows the paper: the first fraction of the trace
 * only warms state, then all statistics reset and measurement covers
 * the remainder.
 */

#ifndef UNISON_SIM_SYSTEM_HH
#define UNISON_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/dram_cache.hh"
#include "dram/backend.hh"
#include "dram/timing.hh"
#include "stats/percore.hh"
#include "trace/access.hh"

namespace unison {

/** Core/system timing knobs (Table III-derived defaults). */
struct SystemConfig
{
    int numCores = 16;
    HierarchyConfig hierarchy{};
    DramOrganization offchipOrg = offChipDramOrganization();
    DramTimingParams offchipTiming = offChipDramTiming();

    /** Cycles per non-memory instruction (server-workload CPI on a modest 3-way OoO core). */
    double cpiBase = 2.0;

    /**
     * Outstanding DRAM-level loads a core can overlap (MSHR / OoO
     * window limit). The core stalls only when it would exceed this,
     * which keeps injection self-throttled under saturation.
     */
    int maxOutstandingMisses = 4;

    /** Fraction of the trace used for warm-up (paper: two thirds). */
    double warmFraction = 2.0 / 3.0;

    /**
     * Explicit warm-up window in accesses; overrides warmFraction
     * when non-zero. Accesses [0, warmupAccesses) only warm state,
     * all statistics reset at the boundary, and measurement covers
     * the remainder.
     */
    std::uint64_t warmupAccesses = 0;

    /**
     * Per-core cap on issued references, warm-up included (0 =
     * unlimited). A core that exhausts its budget stops issuing; the
     * run ends when every core has (or the total access count is
     * reached, whichever comes first). Gives every program of a mix
     * the same reference count regardless of its relative speed --
     * the fixed-work discipline multiprogrammed comparisons need.
     */
    std::uint64_t perCoreAccessBudget = 0;

    /**
     * Timing model for *every* DRAM pool in the system: the off-chip
     * channel and each design's stacked pool (threaded to the designs
     * through DesignBuildContext). The fast analytic model is the
     * default and the one all goldens are pinned against; the detailed
     * FR-FCFS controller exists to cross-validate it (the `validation`
     * figure grid).
     */
    MemoryBackendKind memoryBackend = MemoryBackendKind::Fast;
};

/**
 * A warm-state snapshot taken at the warm-up boundary (see
 * common/state_io.hh for what "state" means). Captured by a run whose
 * spec pins the boundary with warmupAccesses; a later run over the
 * same (design, workload, system) prefix can resume from it and skip
 * re-simulating the warmup, byte-identical to having simulated it.
 */
struct WarmCheckpoint
{
    std::uint64_t warmAccesses = 0; //!< boundary the snapshot is at
    std::vector<std::uint8_t> bytes;

    bool valid() const { return !bytes.empty(); }
};

/** One core's slice of a simulation (multiprogrammed mixes). */
struct CoreSimResult
{
    std::string sourceName;        //!< workload/scenario on this core
    std::uint64_t instructions = 0;
    std::uint64_t references = 0;
    Cycle cycles = 0;              //!< this core's measured cycles
    double uipc = 0.0;             //!< instructions / own cycles
    double amatCycles = 0.0;       //!< mean load latency, cycles
};

/** Everything a bench needs from one simulation. */
struct SimResult
{
    std::string designName;

    std::uint64_t instructions = 0;
    Cycle cycles = 0;          //!< max per-core measured cycles
    double uipc = 0.0;         //!< instructions / (cycles * cores)

    std::uint64_t references = 0;  //!< measured CPU references
    double l1MissPercent = 0.0;
    double l2MissPercent = 0.0;

    DramCacheStats cache;      //!< snapshot of the design's counters
    DramPoolStats offchip;
    DramPoolStats stacked;

    /** Controller-queue counters; all-zero under the fast backend
     *  (which has no queues). */
    MemoryQueueStats offchipQueue;
    MemoryQueueStats stackedQueue;

    double avgDramCacheLatency = 0.0; //!< cycles, demand reads
    double avgMemLatency = 0.0;       //!< for misses, cycles

    /** Predictor accuracies (zero when not applicable). */
    double wpAccuracyPercent = 0.0;
    double mpAccuracyPercent = 0.0;
    double mpOverfetchPercent = 0.0;

    /** Per-core partition of the measured window (one entry per
     *  source core; sourceName filled in by runExperiment). */
    std::vector<CoreSimResult> perCore;

    double
    missRatioPercent() const
    {
        return cache.missRatioPercent();
    }
};

/** Builds the DRAM cache once the system's memory pool exists. */
using CacheFactory =
    std::function<std::unique_ptr<DramCache>(MemoryBackend *offchip)>;

/** The assembled machine: cores, SRAM hierarchy, the DRAM cache
 *  under study and the shared off-chip channel. */
class System
{
  public:
    System(const SystemConfig &config, const CacheFactory &factory);

    /**
     * Play `total_accesses` references from `source` through the
     * system; the first warmFraction of them only warm state. Per
     * access the loop makes two virtual calls, source.next() and
     * DramCache::access().
     *
     * Warm-checkpoint hooks: when `capture_to` is non-null and the run
     * crosses the warm boundary, the boundary state is serialized into
     * it (left invalid if the stream drains first). When `resume_from`
     * is non-null the run starts *at* the boundary from the snapshot
     * instead of simulating [0, warmAccesses); the caller must
     * construct System and source from the identical spec prefix
     * (state shapes are fatal-checked, identity is the caller's
     * contract).
     */
    SimResult run(AccessSource &source, std::uint64_t total_accesses,
                  const WarmCheckpoint *resume_from = nullptr,
                  WarmCheckpoint *capture_to = nullptr);

    /** Whether this design + source pair can checkpoint its warm
     *  state (the spec-shape conditions are the runner's to check). */
    bool
    checkpointSupported(const AccessSource &source) const
    {
        return cache_->checkpointable() && source.checkpointable();
    }

    DramCache &cache() { return *cache_; }
    MemoryBackend &offchip() { return *offchip_; }
    CacheHierarchy &hierarchy() { return *hierarchy_; }
    const SystemConfig &config() const { return config_; }

  private:
    void resetAllStats();

    /** Predictor-accuracy SimResult fields (design-specific, cold). */
    void fillPredictorStats(SimResult &result) const;

    SystemConfig config_;
    std::unique_ptr<MemoryBackend> offchip_;
    std::unique_ptr<DramCache> cache_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
};

} // namespace unison

#endif // UNISON_SIM_SYSTEM_HH

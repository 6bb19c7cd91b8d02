#include "sim/system.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <utility>

#include "common/logging.hh"
#include "common/state_io.hh"
#include "baselines/alloy_cache.hh"
#include "core/unison_cache.hh"

namespace unison {

namespace {

/** The off-chip pool obeys the system-wide backend selection. */
DramOrganization
offchipOrgWithBackend(const SystemConfig &config)
{
    DramOrganization org = config.offchipOrg;
    org.backend = config.memoryBackend;
    return org;
}

/**
 * Longest run of references a core executes per pick. A run ends
 * sooner at the core's next L1 miss; the cap bounds the per-core log
 * the window edges are cut from, and a run on an all-hit stream.
 */
constexpr std::uint32_t kRunCap = 64;

/** Each core's slot in the step log: kRunCap steps and one spare host
 *  cache line, so that the cores' first steps do not all map to the
 *  same few host-cache sets. */
constexpr std::uint32_t kRunSlot = kRunCap + 4;

/** One executed reference of a core's current run: what the window
 *  edges need to place it in global order and to count it. */
struct RunStep
{
    double clock = 0.0; //!< core clock before the reference: its key
    std::uint16_t instrsBefore = 0;
    bool isWrite = false;
    /** Named padding, zeroed so warm snapshots (which write this
     *  struct raw) are byte-deterministic. */
    std::uint8_t pad8 = 0;
    std::uint32_t pad32 = 0;
};
static_assert(sizeof(RunStep) == 16, "RunStep has implicit padding");

/** What a core does when the scheduler next picks it. */
enum class Next : std::uint8_t
{
    Run,     //!< fetch on: its last run stopped at kRunCap
    Miss,    //!< serve the pending reference, which missed its L1
    Drained, //!< nothing: its stream ended at this clock
    Done,    //!< nothing: its access budget is spent
};

/** One core's place in the event loop between two of its picks. */
struct Lane
{
    Addr addr = 0;            //!< the pending L1 miss ...
    Pc pc = 0;
    Addr victim = 0;          //!< ... the dirty block its L1 step evicted
    double missLatency = 0.0; //!< load latency of a served first step
    std::uint32_t steps = 0;  //!< executed references of this run
    std::uint16_t instrsBefore = 0;
    Next next = Next::Run;
    bool isWrite = false;
    bool victimDirty = false;
    bool opensWithMiss = false; //!< step 0 was a served L1 miss
    /** Named padding, zeroed (see RunStep). */
    std::uint16_t pad16 = 0;
    std::uint32_t pad32 = 0;
};
static_assert(sizeof(Lane) == 48, "Lane has implicit padding");

/** A latency mean accumulated sample by sample. */
struct LatencySum
{
    double sum = 0.0;
    std::uint64_t samples = 0;

    void
    add(double latency)
    {
        sum += latency;
        ++samples;
    }

    double mean() const { return samples ? sum / samples : 0.0; }
};

/**
 * The timing loop. Every reference has a key: its core's clock before
 * the reference (packed with the core id, see keyOf). Processing all
 * references in key order is the min-clock schedule, and it is the
 * order the shared levels -- L2, DRAM cache, backends -- must see.
 *
 * A reference that hits its core's L1 changes only that core's state
 * (source stream, L1, clock, per-core counters), so it need not wait
 * for its turn. When the scheduler picks a core, the core serves its
 * pending L1 miss (the shared work) and then runs its L1 hits
 * straight through, up to its next L1 miss or kRunCap references; the
 * miss is the core's next event and its key the next scan's input.
 * Shared state thus sees the same events in the same key order as a
 * loop that takes one reference per pick.
 *
 * The window edges -- the warm-up boundary W and the end N -- are
 * ranks in key order, and a core may have run past them. Between two
 * of its picks a core's references past the last served event are all
 * in its current run, whose steps are logged; only those can lie
 * beyond an edge. Once the executed count reaches the next edge, each
 * pick ranks its event against the logs (rankOf); when the rank
 * passes the edge the logs are cut there (cutAt): the warm-up edge
 * re-counts the cut-off steps into the fresh window, the end edge
 * winds clocks back to them and un-counts them. Every per-core
 * counter is a whole number (latencies are whole cycles), so adding
 * and removing steps is exact.
 */
class EventLoop
{
  public:
    EventLoop(System &system, AccessSource &source, std::uint64_t total,
              std::uint64_t warm)
        : config_(system.config()),
          source_(source),
          hierarchy_(system.hierarchy()),
          cache_(system.cache()),
          offchip_(system.offchip()),
          cores_(source.numCores()),
          total_(total),
          warm_(warm),
          window_(config_.maxOutstandingMisses),
          cpi_(config_.cpiBase),
          l1Latency_(static_cast<double>(config_.hierarchy.l1Latency)),
          // The id field is 8 bits up to 256 cores -- which keeps
          // every historical (<= 256-core) run's tie quantization, and
          // therefore its output, byte-identical -- and widens to the
          // next power of two beyond that (kMaxCores = 1024 uses 10 of
          // the 52 mantissa bits; the coarser tie quantization is
          // still ~2^-42 relative).
          idMask_(cores_ <= 256 ? 255ull
                                : std::bit_ceil(static_cast<std::uint64_t>(
                                      cores_)) - 1),
          clock_(static_cast<std::size_t>(config_.numCores), 0.0),
          warmBase_(clock_),
          inflight_(static_cast<std::size_t>(config_.numCores) * window_,
                    0.0),
          inflightHead_(static_cast<std::size_t>(config_.numCores), 0),
          // Unbudgeted cores count down from 2^64 - 1: never spent.
          budgetLeft_(static_cast<std::size_t>(cores_),
                      config_.perCoreAccessBudget != 0
                          ? config_.perCoreAccessBudget
                          : std::numeric_limits<std::uint64_t>::max()),
          activeCores_(cores_),
          // Padded to at least four entries with the maximum key, which
          // never wins the min against a real key (those carry a finite
          // or +inf clock pattern, never all-ones).
          keys_(static_cast<std::size_t>(std::max(cores_, 4)), ~0ull),
          lanes_(static_cast<std::size_t>(cores_)),
          steps_(static_cast<std::size_t>(cores_) * kRunSlot),
          perCore_(config_.numCores),
          measuring_(warm == 0),
          edge_(nextEdge())
    {
        for (int c = 0; c < cores_; ++c)
            keys_[c] = keyOf(0.0, c);
    }

    /** Play the run to its end; `capture_to` receives the snapshot
     *  at the warm-up boundary (see System::run). */
    void
    run(WarmCheckpoint *capture_to)
    {
        while (activeCores_ > 0) {
            const int core = pick();
            Lane &lane = lanes_[core];
            if (executed_ >= edge_ || lane.next == Next::Drained) {
                // An edge may lie at or before this event: rank it.
                const std::uint64_t rank = rankOf(core);
                if (!measuring_ && warm_ < total_ && rank >= warm_)
                    openWindow(core, rank, capture_to);
                if (rank >= total_) {
                    close(total_, core, rank);
                    return;
                }
                if (lane.next == Next::Drained) {
                    // A finite source (trace file) drained one core's
                    // stream before the requested total: stop here.
                    if (rank == 0)
                        fatal("access source produced no references");
                    close(rank, core, rank);
                    return;
                }
            }
            lane.steps = 0;
            lane.opensWithMiss = false;
            if (lane.next == Next::Miss)
                serveMiss(core);
            if (lane.next != Next::Done)
                runAhead(core);
        }
        // Every budget is spent: no event is left to rank against.
        if (!measuring_ && warm_ < total_ && executed_ > warm_)
            openWindow(-1, executed_, capture_to);
        close(std::min(executed_, total_), -1, executed_);
    }

    /** Everything a resumed run needs to continue from a snapshot. */
    void
    saveState(StateWriter &out) const
    {
        source_.saveState(out);
        hierarchy_.saveState(out);
        cache_.saveState(out);
        offchip_.saveState(out);
        out.podVector(clock_);
        out.podVector(inflight_);
        out.podVector(inflightHead_);
        out.podVector(budgetLeft_);
        out.pod(activeCores_);
        out.podVector(keys_);
        out.podVector(lanes_);
        out.podVector(steps_);
        out.pod(executed_);
    }

    void
    loadState(StateReader &in)
    {
        source_.loadState(in);
        hierarchy_.loadState(in);
        cache_.loadState(in);
        offchip_.loadState(in);
        in.podVectorExact(clock_);
        in.podVectorExact(inflight_);
        in.podVectorExact(inflightHead_);
        in.podVectorExact(budgetLeft_);
        in.pod(activeCores_);
        in.podVectorExact(keys_);
        in.podVectorExact(lanes_);
        in.podVectorExact(steps_);
        in.pod(executed_);
    }

    /** A loaded snapshot is outside input: before anything indexes
     *  by them, every key must name its own core and every run log
     *  must fit its slot. */
    bool
    consistent() const
    {
        for (std::size_t c = 0; c < keys_.size(); ++c)
            if (static_cast<int>(c) < cores_
                    ? (keys_[c] & idMask_) != c
                    : keys_[c] != ~0ull)
                return false;
        for (const Lane &lane : lanes_)
            if (lane.steps > kRunCap || lane.next > Next::Done)
                return false;
        return activeCores_ >= 0 && activeCores_ <= cores_;
    }

    const std::vector<double> &clocks() const { return clock_; }
    const std::vector<double> &warmBase() const { return warmBase_; }
    const PerCoreStats &perCore() const { return perCore_; }
    const LatencySum &dramCacheLatency() const { return dcLatency_; }
    const LatencySum &missLatency() const { return missLatency_; }

  private:
    /**
     * A clock as a scheduler key. Non-negative IEEE doubles order
     * identically to their bit patterns, so the clock becomes an
     * integer key with the core id packed into the low (mantissa)
     * bits: the min key yields both the laggard and, on (quantized)
     * ties, the lowest id.
     */
    std::uint64_t
    keyOf(double clock, int core) const
    {
        return (std::bit_cast<std::uint64_t>(clock) & ~idMask_) |
               static_cast<std::uint64_t>(core);
    }

    /** Step j of core `core`'s current run. */
    RunStep &
    step(int core, std::uint32_t j)
    {
        return steps_[static_cast<std::size_t>(core) * kRunSlot + j];
    }

    const RunStep &
    step(int core, std::uint32_t j) const
    {
        return steps_[static_cast<std::size_t>(core) * kRunSlot + j];
    }

    std::uint64_t
    stepKey(int core, std::uint32_t j) const
    {
        return keyOf(step(core, j).clock, core);
    }

    std::uint64_t
    nextEdge() const
    {
        return !measuring_ && warm_ < total_ ? warm_ : total_;
    }

    /**
     * The core with the smallest key: a branchless min-reduction
     * (four independent cmov chains) over the persistent key array,
     * where only the last picked core's key changed. (Two cleverer
     * schedulers were tried and measured slower: a log-depth
     * tournament tree serializes on store-to-load forwarding, and a
     * cached-runner-up scheme pessimizes the loop with its rescan
     * branch.)
     */
    int
    pick() const
    {
        std::uint64_t b0 = keys_[0];
        std::uint64_t b1 = keys_[1];
        std::uint64_t b2 = keys_[2];
        std::uint64_t b3 = keys_[3];
        for (int c = 4; c + 3 < cores_; c += 4) {
            const std::uint64_t k0 = keys_[c];
            const std::uint64_t k1 = keys_[c + 1];
            const std::uint64_t k2 = keys_[c + 2];
            const std::uint64_t k3 = keys_[c + 3];
            b0 = k0 < b0 ? k0 : b0;
            b1 = k1 < b1 ? k1 : b1;
            b2 = k2 < b2 ? k2 : b2;
            b3 = k3 < b3 ? k3 : b3;
        }
        for (int c = std::max(cores_ & ~3, 4); c < cores_; ++c) {
            const std::uint64_t k = keys_[c];
            b0 = k < b0 ? k : b0;
        }
        b0 = b1 < b0 ? b1 : b0;
        b2 = b3 < b2 ? b3 : b2;
        return static_cast<int>((b2 < b0 ? b2 : b0) & idMask_);
    }

    /** The core's next event is set: publish its key. */
    void
    park(int core, Next next)
    {
        lanes_[core].next = next;
        if (next == Next::Done) {
            keys_[core] = keyOf(std::numeric_limits<double>::infinity(),
                                core);
            --activeCores_;
        } else {
            keys_[core] = keyOf(clock_[core], core);
        }
    }

    /** The shared half of a reference: L2, DRAM cache, writebacks and
     *  the MSHR window, for the pending miss. Opens the run. */
    void
    serveMiss(int core)
    {
        Lane &miss = lanes_[core];
        double &now = clock_[core];
        step(core, 0) = RunStep{now, miss.instrsBefore, miss.isWrite};
        now += miss.instrsBefore * cpi_;

        SramAccessResult l1;
        l1.writeback = miss.victimDirty;
        l1.writebackAddr = miss.victim;
        const HierarchyOutcome outcome =
            hierarchy_.afterL1Miss(miss.addr, miss.isWrite, l1);
        double load_latency = outcome.sramLatency;

        if (outcome.level == HierarchyOutcome::Level::Beyond) {
            DramCacheRequest req;
            req.addr = miss.addr;
            req.pc = miss.pc;
            req.core = core;
            req.isWrite = miss.isWrite;
            req.cycle = static_cast<Cycle>(now) + outcome.sramLatency;

            const DramCacheResult res = cache_.access(req);
            const double dram_latency =
                static_cast<double>(res.doneAt - req.cycle);
            if (!miss.isWrite) {
                load_latency += dram_latency;
                dcLatency_.add(dram_latency);
                if (!res.hit)
                    missLatency_.add(dram_latency);
                // Overlap the miss with up to `window` others: stall
                // only when the MSHR window is exhausted.
                double *const ring =
                    &inflight_[static_cast<std::size_t>(core) * window_];
                int &head = inflightHead_[core];
                now = std::max(now + outcome.sramLatency, ring[head]);
                ring[head] = static_cast<double>(res.doneAt);
                head = head + 1 == window_ ? 0 : head + 1;
            }
        } else if (!miss.isWrite) {
            now += outcome.sramLatency;
        }

        // Dirty SRAM victims flow down to the DRAM-cache level too.
        for (int w = 0; w < outcome.numWritebacks; ++w) {
            DramCacheRequest wb;
            wb.addr = outcome.writebackAddr[w];
            wb.pc = miss.pc;
            wb.core = core;
            wb.isWrite = true;
            wb.cycle = static_cast<Cycle>(now) + outcome.sramLatency;
            cache_.access(wb);
        }

        if (miss.isWrite) {
            // Stores retire through the store buffer: charge only the
            // L1 issue slot.
            now += 1.0;
        }

        CoreWindowStats &cw = perCore_[core];
        cw.instructions += miss.instrsBefore + 1;
        ++cw.references;
        ++cw.l1Misses;
        if (!miss.isWrite) {
            ++cw.loads;
            cw.loadLatencySum += load_latency;
        }
        miss.missLatency = load_latency;
        miss.steps = 1;
        miss.opensWithMiss = true;
        ++executed_;
        if (--budgetLeft_[core] == 0)
            park(core, Next::Done);
    }

    /** The private half: run L1 hits until the next miss, the end of
     *  the stream or budget, or kRunCap steps. */
    void
    runAhead(int core)
    {
        Lane &lane = lanes_[core];
        RunStep *const run = &step(core, 0);
        MemoryAccess acc;
        const std::uint32_t first = lane.steps;
        std::uint64_t left = budgetLeft_[core];
        double now = clock_[core];
        // Counted in locals: the source call could alias any member.
        std::uint64_t instructions = 0;
        std::uint64_t loads = 0;
        std::uint32_t n = first;
        Next next = Next::Run;
        while (n < kRunCap) {
            if (!source_.next(core, acc)) {
                next = Next::Drained;
                break;
            }
            const SramAccessResult l1 =
                hierarchy_.l1Access(core, acc.addr, acc.isWrite);
            if (!l1.hit) {
                lane.addr = acc.addr;
                lane.pc = acc.pc;
                lane.instrsBefore = acc.instrsBefore;
                lane.isWrite = acc.isWrite;
                lane.victim = l1.writebackAddr;
                lane.victimDirty = l1.writeback;
                next = Next::Miss;
                break;
            }
            run[n++] = RunStep{now, acc.instrsBefore, acc.isWrite};
            now += acc.instrsBefore * cpi_;
            instructions += acc.instrsBefore + 1;
            if (!acc.isWrite) {
                now += l1Latency_;
                ++loads;
            } else {
                now += 1.0;
            }
            if (--left == 0) {
                next = Next::Done;
                break;
            }
        }
        CoreWindowStats &cw = perCore_[core];
        cw.instructions += instructions;
        cw.references += n - first;
        cw.loads += loads;
        // Whole cycles: one product adds exactly what one addition
        // per load would.
        cw.loadLatencySum += static_cast<double>(loads) * l1Latency_;
        executed_ += n - first;
        budgetLeft_[core] = left;
        lane.steps = n;
        clock_[core] = now;
        park(core, next);
    }

    /**
     * The rank of `core`'s event (`core` < 0: past every reference):
     * how many references come before it in key order. Everything
     * executed counts except the steps of other cores' runs keyed
     * after it; steps of one core are in key order.
     */
    std::uint64_t
    rankOf(int core) const
    {
        std::uint64_t rank = executed_;
        if (core < 0)
            return rank;
        const std::uint64_t key = keys_[core];
        for (int c = 0; c < cores_; ++c) {
            if (c == core)
                continue;
            for (std::uint32_t j = lanes_[c].steps;
                 j > 0 && stepKey(c, j - 1) > key; --j)
                --rank;
        }
        return rank;
    }

    /**
     * Cut every current run at the reference of rank `edge`, given the
     * event of `core` (`core` < 0: none) at rank `rank` >= edge:
     * cuts_[c] is the number of core c's steps before the edge. The
     * references of rank [edge, rank) are all in current runs: walk
     * back over them latest key first.
     */
    void
    cutAt(std::uint64_t edge, int core, std::uint64_t rank)
    {
        cuts_.resize(static_cast<std::size_t>(cores_));
        std::priority_queue<std::pair<std::uint64_t, int>> latest;
        for (int c = 0; c < cores_; ++c) {
            std::uint32_t &cut = cuts_[c];
            cut = lanes_[c].steps;
            if (core >= 0 && c != core)
                while (cut > 0 && stepKey(c, cut - 1) > keys_[core])
                    --cut;
            if (cut > 0)
                latest.emplace(stepKey(c, cut - 1), c);
        }
        for (; rank > edge; --rank) {
            UNISON_ASSERT(!latest.empty(), "window edge outside the runs");
            const int c = latest.top().second;
            latest.pop();
            if (--cuts_[c] > 0)
                latest.emplace(stepKey(c, cuts_[c] - 1), c);
        }
    }

    /** Count (or, with `add` false, un-count) core c's steps
     *  [from, steps) in its window statistics. */
    void
    countSteps(int c, std::uint32_t from, bool add)
    {
        const Lane &lane = lanes_[c];
        CoreWindowStats &cw = perCore_[c];
        for (std::uint32_t j = from; j < lane.steps; ++j) {
            const RunStep &done = step(c, j);
            const bool miss = j == 0 && lane.opensWithMiss;
            const std::uint64_t instructions = done.instrsBefore + 1ull;
            const double latency = miss ? lane.missLatency : l1Latency_;
            const std::uint64_t loads = done.isWrite ? 0 : 1;
            if (add) {
                cw.instructions += instructions;
                ++cw.references;
                cw.l1Misses += miss;
                cw.loads += loads;
                if (loads)
                    cw.loadLatencySum += latency;
            } else {
                cw.instructions -= instructions;
                --cw.references;
                cw.l1Misses -= miss;
                cw.loads -= loads;
                if (loads)
                    cw.loadLatencySum -= latency;
            }
        }
    }

    void
    resetWindow()
    {
        hierarchy_.resetStats();
        cache_.resetStats();
        offchip_.resetStats();
        perCore_.reset();
        dcLatency_ = LatencySum{};
        missLatency_ = LatencySum{};
        warmBase_ = clock_;
    }

    /**
     * The warm-up boundary falls at or before `core`'s event (rank
     * `rank`): every statistic restarts there. Shared counters reset
     * (no shared event has run past the boundary); each core's window
     * starts at its first step at or after it.
     */
    void
    openWindow(int core, std::uint64_t rank, WarmCheckpoint *capture_to)
    {
        if (capture_to != nullptr) {
            // Snapshot before the window opens: a resumed run reaches
            // this same pick and opens it the same way.
            StateWriter out;
            saveState(out);
            capture_to->warmAccesses = warm_;
            capture_to->bytes = std::move(out).take();
        }
        resetWindow();
        cutAt(warm_, core, rank);
        for (int c = 0; c < cores_; ++c) {
            if (cuts_[c] < lanes_[c].steps)
                warmBase_[c] = step(c, cuts_[c]).clock;
            countSteps(c, cuts_[c], true);
        }
        measuring_ = true;
        edge_ = nextEdge();
    }

    /** The run ends at rank `edge`: wind every core back to its first
     *  step at or after it. */
    void
    close(std::uint64_t edge, int core, std::uint64_t rank)
    {
        cutAt(edge, core, rank);
        for (int c = 0; c < cores_; ++c) {
            if (cuts_[c] == lanes_[c].steps)
                continue;
            clock_[c] = step(c, cuts_[c]).clock;
            if (measuring_)
                countSteps(c, cuts_[c], false);
        }
        if (!measuring_) {
            // The run ended inside the warm-up window: the measured
            // window is empty, not the whole run.
            resetWindow();
        }
    }

    const SystemConfig &config_;
    AccessSource &source_;
    CacheHierarchy &hierarchy_;
    DramCache &cache_;
    MemoryBackend &offchip_;

    const int cores_;           //!< source cores (<= config_.numCores)
    const std::uint64_t total_; //!< N: references in the run
    const std::uint64_t warm_;  //!< W: references that only warm
    const int window_;          //!< MSHR entries per core
    const double cpi_;
    const double l1Latency_;
    const std::uint64_t idMask_;

    std::vector<double> clock_;
    std::vector<double> warmBase_;
    /** Per-core ring of in-flight DRAM-level load completions: issuing
     *  beyond maxOutstandingMisses stalls until the oldest resolves.
     *  One flat allocation, core-major. */
    std::vector<double> inflight_;
    std::vector<int> inflightHead_;
    std::vector<std::uint64_t> budgetLeft_;
    int activeCores_;
    std::vector<std::uint64_t> keys_; //!< each core's next event
    std::vector<Lane> lanes_;
    std::vector<RunStep> steps_; //!< current runs, kRunSlot per core
    std::uint64_t executed_ = 0; //!< references executed, all cores

    PerCoreStats perCore_;
    LatencySum dcLatency_;   //!< demand reads reaching the DRAM cache
    LatencySum missLatency_; //!< ... that missed it
    bool measuring_;
    std::uint64_t edge_; //!< the next edge's rank
    std::vector<std::uint32_t> cuts_;
};

} // namespace

System::System(const SystemConfig &config, const CacheFactory &factory)
    : config_(config),
      offchip_(makeMemoryBackend(offchipOrgWithBackend(config),
                                 config.offchipTiming)),
      hierarchy_(std::make_unique<CacheHierarchy>(config.numCores,
                                                  config.hierarchy))
{
    UNISON_ASSERT(config_.numCores >= 1, "system needs cores");
    UNISON_ASSERT(config_.maxOutstandingMisses >= 1,
                  "need at least one outstanding miss");
    UNISON_ASSERT(config_.warmFraction >= 0.0 &&
                      config_.warmFraction <= 1.0,
                  "warmFraction outside [0, 1]");
    cache_ = factory(offchip_.get());
    UNISON_ASSERT(cache_ != nullptr, "cache factory returned null");
}

SimResult
System::run(AccessSource &source, std::uint64_t total_accesses,
            const WarmCheckpoint *resume_from, WarmCheckpoint *capture_to)
{
    if ((resume_from != nullptr || capture_to != nullptr) &&
        !checkpointSupported(source))
        fatal("design '", cache_->name(),
              "' or the access source does not support warm-state "
              "checkpoints");
    UNISON_ASSERT(total_accesses > 0, "empty simulation");
    UNISON_ASSERT(source.numCores() <= config_.numCores,
                  "trace has more cores than the system");
    UNISON_ASSERT(source.numCores() <= kMaxCores,
                  "scheduler supports at most ", kMaxCores, " cores");

    // Warm-up window: references [0, warm_count) only warm state;
    // every statistic resets at the boundary so measurement covers
    // exactly [warm_count, end). An explicit warmupAccesses overrides
    // the fractional default.
    const std::uint64_t warm_count =
        config_.warmupAccesses != 0
            ? config_.warmupAccesses
            : static_cast<std::uint64_t>(
                  static_cast<double>(total_accesses) *
                  config_.warmFraction);

    EventLoop loop(*this, source, total_accesses, warm_count);
    if (resume_from != nullptr) {
        // Warm-checkpoint resume: the snapshot is the loop's state at
        // the pick that opens the measured window, taken before the
        // window opens, so the resumed loop opens it exactly as the
        // cold run did and the two are byte-identical from there on.
        const WarmCheckpoint &ck = *resume_from;
        if (!ck.valid() || ck.warmAccesses != warm_count ||
            warm_count == 0 || total_accesses <= warm_count)
            throwCorrupt("checkpoint boundary ", ck.warmAccesses,
                         " does not match the run's warm-up window ",
                         warm_count, " of ", total_accesses,
                         " accesses");
        StateReader in(ck.bytes);
        loop.loadState(in);
        in.expectEnd();
        // A snapshot that does not deserialize cleanly must never be
        // half-trusted: surface it as a classified error and let the
        // experiment layer rebuild the System and run the warm-up
        // cold (runExperimentCk catches this).
        in.throwIfFailed();
        if (!loop.consistent())
            throwCorrupt("checkpoint scheduler state is inconsistent");
    }
    loop.run(capture_to);

    const std::vector<double> &core_time = loop.clocks();
    const std::vector<double> &warm_base = loop.warmBase();
    const PerCoreStats &per_core = loop.perCore();
    const int src_cores = source.numCores();

    SimResult result;
    result.designName = cache_->name();

    double max_elapsed = 0.0;
    for (int c = 0; c < config_.numCores; ++c)
        max_elapsed = std::max(max_elapsed, core_time[c] - warm_base[c]);
    result.cycles = static_cast<Cycle>(max_elapsed);
    result.instructions = per_core.totalInstructions();
    result.references = per_core.totalReferences();
    result.uipc = max_elapsed > 0.0
                      ? static_cast<double>(result.instructions) /
                            (max_elapsed * config_.numCores)
                      : 0.0;

    result.perCore.resize(static_cast<std::size_t>(src_cores));
    for (int c = 0; c < src_cores; ++c) {
        const CoreWindowStats &cw = per_core[c];
        CoreSimResult &out = result.perCore[static_cast<std::size_t>(c)];
        const double elapsed = core_time[c] - warm_base[c];
        out.instructions = cw.instructions;
        out.references = cw.references;
        out.cycles = static_cast<Cycle>(elapsed);
        out.uipc = elapsed > 0.0
                       ? static_cast<double>(cw.instructions) / elapsed
                       : 0.0;
        out.amatCycles = cw.amatCycles();
    }

    // SRAM hierarchy miss rates (L1 aggregated over cores: every
    // measured reference is one L1 access).
    result.l1MissPercent =
        percent(per_core.totalL1Misses(), per_core.totalReferences());
    result.l2MissPercent =
        percent(hierarchy_->l2().stats().misses.value(),
                hierarchy_->l2().stats().accesses.value());

    result.cache = cache_->stats();
    result.offchip = offchip_->stats();
    result.offchipQueue = offchip_->queueStats();
    if (cache_->stackedDram() != nullptr) {
        result.stacked = cache_->stackedDram()->stats();
        result.stackedQueue = cache_->stackedDram()->queueStats();
    }

    result.avgDramCacheLatency = loop.dramCacheLatency().mean();
    result.avgMemLatency = loop.missLatency().mean();

    fillPredictorStats(result);
    return result;
}

void
System::fillPredictorStats(SimResult &result) const
{
    // Design-specific accuracy fields, recovered through the kind tag.
    // Both classes are final and tag themselves, so no out-of-tree
    // (`Other`) subclass can be one of them. The block body tags only
    // `alloy` as Alloy: its grouping splices build no miss predictor
    // and tag themselves Other.
    const MissPredictor *mp = nullptr;
    switch (cache_->kind()) {
      case DramCacheKind::Unison: {
        const auto &uc = static_cast<const UnisonCache &>(*cache_);
        result.wpAccuracyPercent = uc.wayPredictorStats().accuracyPercent();
        mp = uc.missPredictor();
        break;
      }
      case DramCacheKind::Alloy:
        mp = static_cast<const AlloyCache &>(*cache_).missPredictor();
        break;
      default:
        break;
    }
    if (mp != nullptr) {
        result.mpAccuracyPercent = mp->stats().accuracyPercent();
        result.mpOverfetchPercent = mp->stats().overfetchPercent();
    }
}

} // namespace unison

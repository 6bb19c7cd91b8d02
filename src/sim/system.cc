#include "sim/system.hh"

#include <algorithm>
#include <bit>
#include <limits>

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

void
System::resetAllStats()
{
    hierarchy_->resetStats();
    cache_->resetStats();
    offchip_->resetStats();
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

    std::vector<double> core_time(config_.numCores, 0.0);
    // The scheduler's view of the clocks: mirrors core_time, except a
    // core that exhausted its access budget parks at +inf so the
    // min-reduction below never selects it again.
    std::vector<double> sched_time(config_.numCores, 0.0);

    // Per-core ring of in-flight DRAM-level load completions: issuing
    // beyond maxOutstandingMisses stalls until the oldest resolves.
    // One flat allocation (core-major) instead of a vector-of-vectors.
    const int window = config_.maxOutstandingMisses;
    std::vector<double> inflight(
        static_cast<std::size_t>(config_.numCores) * window, 0.0);
    std::vector<int> inflight_head(config_.numCores, 0);

    // Warm-up window: [0, warm_count) only warms state; every
    // statistic resets at the boundary so measurement covers exactly
    // [warm_count, end). An explicit warmupAccesses overrides the
    // fractional default.
    const std::uint64_t warm_count =
        config_.warmupAccesses != 0
            ? config_.warmupAccesses
            : static_cast<std::uint64_t>(
                  static_cast<double>(total_accesses) *
                  config_.warmFraction);
    bool measuring = warm_count == 0;

    PerCoreStats per_core(config_.numCores);
    std::vector<double> warm_base(config_.numCores, 0.0);

    // Demand DRAM-cache latency bookkeeping (reads reaching it).
    double dc_latency_sum = 0.0;
    std::uint64_t dc_latency_samples = 0;
    double miss_latency_sum = 0.0;
    std::uint64_t miss_latency_samples = 0;

    const int src_cores = source.numCores();

    // Per-core reference budgets (0 = unlimited): the run drains when
    // every core has issued its share, which pins each program of a
    // mix to the same amount of work regardless of relative speed.
    const bool budgeted = config_.perCoreAccessBudget != 0;
    std::vector<std::uint64_t> budget_left(
        config_.numCores,
        budgeted ? config_.perCoreAccessBudget
                 : std::numeric_limits<std::uint64_t>::max());
    int active_cores = src_cores;

    // Unbudgeted runs (the common case) schedule straight off
    // core_time and skip the budget bookkeeping entirely, keeping the
    // hot loop identical to the budget-free engine.
    const double *const clocks =
        budgeted ? sched_time.data() : core_time.data();

    const auto reset_measurement = [&]() {
        resetAllStats();
        warm_base = core_time;
        per_core.reset();
        dc_latency_sum = 0.0;
        dc_latency_samples = 0;
        miss_latency_sum = 0.0;
        miss_latency_samples = 0;
    };

    // Min-time scheduling: always advance the core whose clock is
    // furthest behind, so DRAM requests arrive in near-global time
    // order and queueing behaves realistically. Non-negative IEEE
    // doubles order identically to their bit patterns, so each clock
    // becomes an integer key with the core id packed into the low
    // (mantissa) bits: the min key yields both the laggard and, on
    // (quantized) ties, the lowest id. The id field is 8 bits up to
    // 256 cores -- which keeps every historical (<= 256-core) run's
    // tie quantization, and therefore its output, byte-identical --
    // and widens to the next power of two beyond that (kMaxCores =
    // 1024 uses 10 of the 52 mantissa bits; the coarser tie
    // quantization is still ~2^-42 relative). Keys live in a
    // persistent array -- only the advanced core's clock changes per
    // iteration, so one key is recomputed per access and the
    // selection is a branchless min-reduction (four independent cmov
    // chains) over ready-made keys. (Two cleverer schedulers were
    // tried and measured slower here: a log-depth tournament tree
    // serializes on store-to-load forwarding, and a cached-runner-up
    // scheme pessimizes the whole loop with its rescan branch.)
    const std::uint64_t id_mask =
        src_cores <= 256
            ? 255ull
            : std::bit_ceil(static_cast<std::uint64_t>(src_cores)) - 1;
    const auto key_of = [clocks, id_mask](int c) {
        return (std::bit_cast<std::uint64_t>(clocks[c]) & ~id_mask) |
               static_cast<std::uint64_t>(c);
    };
    // Pad to at least four entries with the maximum key, which can
    // never win the min against a real clock key (real keys carry a
    // finite or +inf clock pattern, never all-ones).
    std::vector<std::uint64_t> keys(
        static_cast<std::size_t>(std::max(src_cores, 4)), ~0ull);
    for (int c = 0; c < src_cores; ++c)
        keys[c] = key_of(c);

    // Warm-checkpoint resume: deserialize the exact state a cold run
    // has when i reaches warm_count (the snapshot below is taken at
    // that point, before the boundary reset), then enter the loop at
    // i = warm_count with measuring still false -- the boundary branch
    // fires the same reset_measurement() a cold run would, so the two
    // paths are byte-identical from the boundary on.
    std::uint64_t first_access = 0;
    if (resume_from != nullptr) {
        const WarmCheckpoint &ck = *resume_from;
        if (!ck.valid() || ck.warmAccesses != warm_count ||
            warm_count == 0 || total_accesses <= warm_count)
            throwCorrupt("checkpoint boundary ", ck.warmAccesses,
                         " does not match the run's warm-up window ",
                         warm_count, " of ", total_accesses,
                         " accesses");
        StateReader in(ck.bytes);
        source.loadState(in);
        hierarchy_->loadState(in);
        cache_->loadState(in);
        offchip_->loadState(in);
        in.podVectorExact(core_time);
        in.podVectorExact(sched_time);
        in.podVectorExact(inflight);
        in.podVectorExact(inflight_head);
        in.podVectorExact(budget_left);
        in.pod(active_cores);
        in.expectEnd();
        // A snapshot that does not deserialize cleanly must never be
        // half-trusted: surface it as a classified error and let the
        // experiment layer rebuild the System and run the warm-up
        // cold (runExperimentCk catches this).
        in.throwIfFailed();
        // podVectorExact filled the vectors in place, so the `clocks`
        // alias above is still valid; only the keys need refreshing.
        for (int c = 0; c < src_cores; ++c)
            keys[c] = key_of(c);
        first_access = warm_count;
    }

    DramCache &cache = *cache_;
    MemoryAccess acc;
    for (std::uint64_t i = first_access;
         i < total_accesses && active_cores > 0; ++i) {
        if (i == warm_count && !measuring) {
            // End of warm-up, before access warm_count is processed:
            // nothing from [0, warm_count) leaks into measurement.
            if (capture_to != nullptr) {
                // Snapshot the pre-reset state: what a resumed run
                // restores is exactly what the reset below acts on.
                StateWriter out;
                source.saveState(out);
                hierarchy_->saveState(out);
                cache_->saveState(out);
                offchip_->saveState(out);
                out.podVector(core_time);
                out.podVector(sched_time);
                out.podVector(inflight);
                out.podVector(inflight_head);
                out.podVector(budget_left);
                out.pod(active_cores);
                capture_to->warmAccesses = warm_count;
                capture_to->bytes = std::move(out).take();
            }
            reset_measurement();
            measuring = true;
        }

        std::uint64_t b0 = keys[0];
        std::uint64_t b1 = keys[1];
        std::uint64_t b2 = keys[2];
        std::uint64_t b3 = keys[3];
        for (int c = 4; c + 3 < src_cores; c += 4) {
            const std::uint64_t k0 = keys[c];
            const std::uint64_t k1 = keys[c + 1];
            const std::uint64_t k2 = keys[c + 2];
            const std::uint64_t k3 = keys[c + 3];
            b0 = k0 < b0 ? k0 : b0;
            b1 = k1 < b1 ? k1 : b1;
            b2 = k2 < b2 ? k2 : b2;
            b3 = k3 < b3 ? k3 : b3;
        }
        for (int c = std::max(src_cores & ~3, 4); c < src_cores; ++c) {
            const std::uint64_t k = keys[c];
            b0 = k < b0 ? k : b0;
        }
        b0 = b1 < b0 ? b1 : b0;
        b2 = b3 < b2 ? b3 : b2;
        const int core =
            static_cast<int>((b2 < b0 ? b2 : b0) & id_mask);

        double &now = core_time[core];
        if (!source.next(core, acc)) {
            // Finite sources (trace files) may drain one core's stream
            // slightly before the requested total: stop measuring.
            if (i == 0)
                fatal("access source produced no references");
            break;
        }
        now += acc.instrsBefore * config_.cpiBase;

        const HierarchyOutcome outcome =
            hierarchy_->access(core, acc.addr, acc.isWrite);

        double load_latency = outcome.sramLatency;

        if (outcome.level == HierarchyOutcome::Level::Beyond) {
            DramCacheRequest req;
            req.addr = acc.addr;
            req.pc = acc.pc;
            req.core = core;
            req.isWrite = acc.isWrite;
            req.cycle = static_cast<Cycle>(now) + outcome.sramLatency;

            const DramCacheResult res = cache.access(req);
            const double dram_latency =
                static_cast<double>(res.doneAt - req.cycle);
            if (!acc.isWrite) {
                load_latency += dram_latency;
                dc_latency_sum += dram_latency;
                ++dc_latency_samples;
                if (!res.hit) {
                    miss_latency_sum += dram_latency;
                    ++miss_latency_samples;
                }
                // Overlap the miss with up to `window` others: stall
                // only when the MSHR window is exhausted.
                double *const ring =
                    &inflight[static_cast<std::size_t>(core) * window];
                int &head = inflight_head[core];
                const double completion =
                    static_cast<double>(res.doneAt);
                now = std::max(now + outcome.sramLatency, ring[head]);
                ring[head] = completion;
                head = head + 1 == window ? 0 : head + 1;
            }
        } else if (!acc.isWrite) {
            now += outcome.sramLatency;
        }

        // Dirty SRAM victims flow down to the DRAM-cache level too.
        for (int w = 0; w < outcome.numWritebacks; ++w) {
            DramCacheRequest wb;
            wb.addr = outcome.writebackAddr[w];
            wb.pc = acc.pc;
            wb.core = core;
            wb.isWrite = true;
            wb.cycle = static_cast<Cycle>(now) + outcome.sramLatency;
            cache.access(wb);
        }

        if (acc.isWrite) {
            // Stores retire through the store buffer: charge only the
            // L1 issue slot.
            now += 1.0;
        }

        CoreWindowStats &cw = per_core[core];
        cw.instructions += acc.instrsBefore + 1;
        ++cw.references;
        if (!acc.isWrite) {
            ++cw.loads;
            cw.loadLatencySum += load_latency;
        }

        if (budgeted) {
            if (--budget_left[core] == 0) {
                sched_time[core] =
                    std::numeric_limits<double>::infinity();
                --active_cores;
            } else {
                sched_time[core] = now;
            }
        }

        // Only this core's clock moved: refresh its key alone.
        keys[core] = key_of(core);
    }

    if (!measuring) {
        // The stream (or the budgets) drained inside the warm-up
        // window: the measured window is empty, not the whole run.
        reset_measurement();
    }

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

    // SRAM hierarchy miss rates (L1 aggregated over cores).
    std::uint64_t l1_acc = 0, l1_miss = 0;
    for (int c = 0; c < config_.numCores; ++c) {
        l1_acc += hierarchy_->l1(c).stats().accesses.value();
        l1_miss += hierarchy_->l1(c).stats().misses.value();
    }
    result.l1MissPercent = percent(l1_miss, l1_acc);
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

    result.avgDramCacheLatency =
        dc_latency_samples ? dc_latency_sum / dc_latency_samples : 0.0;
    result.avgMemLatency =
        miss_latency_samples ? miss_latency_sum / miss_latency_samples
                             : 0.0;

    fillPredictorStats(result);
    return result;
}

void
System::fillPredictorStats(SimResult &result) const
{
    // Design-specific accuracy fields, recovered through the kind tag.
    // Both classes are final and tag themselves, so no out-of-tree
    // (`Other`) subclass can be one of them.
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

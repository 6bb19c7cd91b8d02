#include "sim/experiment.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "sim/spec_json.hh"
#include "trace/workload.hh"

namespace unison {

std::uint64_t
defaultAccessCount(std::uint64_t capacity_bytes, bool quick)
{
    // Empirical fill model: a trigger miss installs ~10 blocks and
    // roughly one CPU reference in twenty causes one, so steady state
    // needs a few references per cached block. Bounded so the largest
    // configurations stay tractable on a laptop.
    const std::uint64_t blocks = capacity_bytes / kBlockBytes;
    std::uint64_t n = blocks * 8;
    n = std::clamp<std::uint64_t>(n, 8'000'000, 150'000'000);
    if (quick)
        n /= 8;
    return n;
}

CacheFactory
makeCacheFactory(const ExperimentSpec &spec)
{
    const DesignInfo &info =
        DesignRegistry::instance().byKind(spec.designKind());
    DesignBuildContext ctx;
    ctx.capacityBytes = spec.capacityBytes;
    ctx.numCores = spec.system.numCores;
    ctx.backend = spec.system.memoryBackend;
    return [config = spec.design.variant(), ctx,
            build = info.build](MemoryBackend *offchip) {
        return build(config, ctx, offchip);
    };
}

std::string
specWorkloadName(const ExperimentSpec &spec)
{
    if (!spec.mix.empty())
        return mixName(spec.mix);
    if (spec.customWorkload)
        return spec.customWorkload->name;
    return workloadName(spec.workload);
}

std::string
ExperimentSpec::validationError() const
{
    const DesignInfo &info =
        DesignRegistry::instance().byKind(designKind());

    if (system.numCores < 1)
        return "experiment needs >= 1 core, got " +
               std::to_string(system.numCores);
    if (system.numCores > kMaxCores)
        return "experiment supports at most " +
               std::to_string(kMaxCores) +
               " cores (kMaxCores in trace/access.hh; the scheduler "
               "packs core ids into its clock keys), got " +
               std::to_string(system.numCores);

    if (designKind() != DesignKind::NoDramCache) {
        if (capacityBytes == 0)
            return "experiment needs a non-zero cache capacity "
                   "(design '" + info.id + "')";
        if (capacityBytes % kRowBytes != 0)
            return "cache capacity must be a multiple of the " +
                   std::to_string(kRowBytes) +
                   "-byte DRAM row, got " +
                   std::to_string(capacityBytes);
    }

    DesignBuildContext ctx;
    ctx.capacityBytes = capacityBytes;
    ctx.numCores = system.numCores;
    ctx.backend = system.memoryBackend;
    if (info.validate) {
        const std::string err = info.validate(design.variant(), ctx);
        if (!err.empty())
            return "design '" + info.id + "': " + err;
    }

    if (!mix.empty()) {
        int total = 0;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            const MixPart &part = mix[i];
            if (part.cores < 1)
                return "mix part #" + std::to_string(i) +
                       " needs >= 1 core, got " +
                       std::to_string(part.cores);
            const int sources = (part.preset ? 1 : 0) +
                                (part.custom ? 1 : 0) +
                                (part.scenario ? 1 : 0) +
                                (part.tracePath.empty() ? 0 : 1);
            if (sources != 1)
                return "mix part #" + std::to_string(i) +
                       " must set exactly one of preset/custom/"
                       "scenario/trace, has " +
                       std::to_string(sources);
            total += part.cores;
        }
        if (total != system.numCores)
            return "mix assigns " + std::to_string(total) +
                   " cores but the system has " +
                   std::to_string(system.numCores) +
                   " (counts must match)";
    }

    if (system.warmFraction < 0.0 || system.warmFraction >= 1.0)
        return "warmFraction must be in [0, 1), got " +
               std::to_string(system.warmFraction);
    const std::uint64_t total =
        accesses != 0 ? accesses
                      : defaultAccessCount(capacityBytes, quick);
    if (system.warmupAccesses >= total)
        return "warmupAccesses (" +
               std::to_string(system.warmupAccesses) +
               ") must leave a measured window inside the " +
               std::to_string(total) + " total accesses" +
               (accesses == 0 ? " (auto-scaled from capacity)" : "");
    if (system.cpiBase <= 0.0)
        return "cpiBase must be positive";
    if (system.maxOutstandingMisses < 1)
        return "maxOutstandingMisses must be >= 1, got " +
               std::to_string(system.maxOutstandingMisses);
    return "";
}

void
ExperimentSpec::validate() const
{
    const std::string err = validationError();
    if (!err.empty())
        fatal("invalid experiment spec: ", err);
}

SimResult
runExperiment(const ExperimentSpec &spec)
{
    return runExperimentCk(spec, nullptr, nullptr);
}

bool
checkpointEligible(const ExperimentSpec &spec)
{
    // An explicit boundary is what makes the warm prefix independent
    // of the total access count (validation guarantees it leaves a
    // measured window). Fractional warm-up boundaries move with the
    // spec's length, so such specs never share a prefix usefully.
    return spec.system.warmupAccesses != 0;
}

std::string
warmPrefixKey(const ExperimentSpec &spec)
{
    ExperimentSpec prefix = spec;
    prefix.accesses = 0;
    prefix.quick = false;
    return json::write(specToJson(prefix));
}

namespace {

/** One full attempt: build the System and the source from the spec
 *  and run, with whatever checkpoint hooks survive eligibility. Kept
 *  callable twice so a rejected snapshot can be retried cold against
 *  entirely fresh state -- nothing a failed load half-populated is
 *  ever reused. */
SimResult
attemptExperiment(const ExperimentSpec &spec,
                  const WarmCheckpoint *resume_from,
                  WarmCheckpoint *capture_to)
{
    System system(spec.system, makeCacheFactory(spec));

    const std::uint64_t n =
        spec.accesses != 0
            ? spec.accesses
            : defaultAccessCount(spec.capacityBytes, spec.quick);

    const auto run_through = [&](AccessSource &source) {
        const WarmCheckpoint *resume = resume_from;
        WarmCheckpoint *capture = capture_to;
        if (!checkpointEligible(spec) ||
            !system.checkpointSupported(source)) {
            resume = nullptr;
            capture = nullptr;
        }
        if (resume != nullptr && !resume->valid())
            resume = nullptr; // the capture never fired
        return system.run(source, n, resume, capture);
    };

    if (!spec.mix.empty()) {
        MixedWorkload workload(spec.mix, spec.system.numCores,
                               spec.seed);
        SimResult result = run_through(workload);
        for (std::size_t c = 0; c < result.perCore.size(); ++c)
            result.perCore[c].sourceName =
                workload.coreLabel(static_cast<int>(c));
        return result;
    }

    WorkloadParams params = spec.customWorkload
                                ? *spec.customWorkload
                                : workloadParams(spec.workload);
    params.numCores = spec.system.numCores;
    SyntheticWorkload workload(params, spec.seed);
    SimResult result = run_through(workload);
    for (CoreSimResult &core : result.perCore)
        core.sourceName = params.name;
    return result;
}

} // namespace

SimResult
runExperimentCk(const ExperimentSpec &spec,
                const WarmCheckpoint *resume_from,
                WarmCheckpoint *capture_to)
{
    spec.validate();

    if (resume_from != nullptr && resume_from->valid()) {
        // Resuming from a snapshot that fails its shape/length checks
        // mid-load (possible for snapshots that came off disk) must
        // degrade, not crash: the half-loaded System is discarded and
        // the warm-up runs cold, which the checkpoint-identity
        // contract guarantees is byte-identical.
        try {
            return attemptExperiment(spec, resume_from, capture_to);
        } catch (const SimError &e) {
            if (e.code() != SimErrc::Corrupt)
                throw;
            structuredWarn("checkpoint-rejected",
                           {{"reason", e.what()},
                            {"fallback", "cold-warmup"}});
            return attemptExperiment(spec, nullptr, capture_to);
        }
    }
    return attemptExperiment(spec, resume_from, capture_to);
}

} // namespace unison

/**
 * @file
 * Warm-state checkpoint identity: a run that resumes from a captured
 * warm-boundary snapshot must be byte-identical to the run that
 * simulated its warm-up -- across every checkpointable design, for
 * multiprogrammed mixes with per-core budgets, and through the
 * parallel runner's prefix-grouping path. Results are compared as
 * serialized JSON, so every counter and every double must match
 * bit-for-bit.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/spec_json.hh"
#include "trace/mix.hh"

namespace unison {
namespace {

std::string
resultKey(const SimResult &result)
{
    return json::write(resultToJson(result));
}

ExperimentSpec
baseSpec(DesignKind design)
{
    ExperimentSpec spec;
    spec.design = design;
    spec.capacityBytes = 32_MiB;
    spec.system.numCores = 4;
    spec.accesses = 120'000;
    spec.system.warmupAccesses = 60'000;
    spec.seed = 11;
    return spec;
}

/** Capture at the boundary, then fork a fresh run from the snapshot:
 *  both the capturing and the resuming run must match a plain one. */
void
expectCheckpointIdentity(const ExperimentSpec &spec)
{
    const SimResult cold = runExperiment(spec);

    WarmCheckpoint ck;
    const SimResult captured = runExperimentCk(spec, nullptr, &ck);
    EXPECT_EQ(resultKey(captured), resultKey(cold))
        << "capturing a checkpoint perturbed the run";
    ASSERT_TRUE(ck.valid()) << "capture did not fire";
    EXPECT_EQ(ck.warmAccesses, spec.system.warmupAccesses);

    const SimResult resumed = runExperimentCk(spec, &ck, nullptr);
    EXPECT_EQ(resultKey(resumed), resultKey(cold))
        << "resumed run diverged from the cold run";
}

TEST(CheckpointIdentity, EveryCheckpointableDesign)
{
    for (DesignKind d :
         {DesignKind::Unison, DesignKind::Alloy, DesignKind::Footprint,
          DesignKind::LohHill, DesignKind::NaiveBlockFp,
          DesignKind::NaiveTaggedPage, DesignKind::AlloyFp,
          DesignKind::Ideal, DesignKind::NoDramCache}) {
        SCOPED_TRACE(designId(d));
        expectCheckpointIdentity(baseSpec(d));
    }
    // The way-predictor ablations carry their own predictor state
    // (per-set MRU ways, or none).
    for (UnisonWayPolicy policy :
         {UnisonWayPolicy::PredictMru, UnisonWayPolicy::PredictStatic0}) {
        SCOPED_TRACE(static_cast<int>(policy));
        UnisonConfig unison;
        unison.wayPolicy = policy;
        ExperimentSpec spec = baseSpec(DesignKind::Unison);
        spec.design = unison;
        expectCheckpointIdentity(spec);
    }
}

TEST(CheckpointIdentity, DetailedBackendDesigns)
{
    // The detailed controller carries extra timing state (write
    // queues, bypass counters, the activate ring); the snapshot must
    // capture all of it for both pools. One block-based and one
    // page-based design keep this fast while covering both stacked
    // layouts.
    for (DesignKind d : {DesignKind::Unison, DesignKind::Alloy}) {
        SCOPED_TRACE(designId(d));
        ExperimentSpec spec = baseSpec(d);
        spec.system.memoryBackend = MemoryBackendKind::Detailed;
        expectCheckpointIdentity(spec);
    }
}

TEST(CheckpointIdentity, PrefixKeySeparatesBackends)
{
    // A warm prefix simulated under one backend must never be resumed
    // under the other: the backend stays in the prefix key.
    const ExperimentSpec fast = baseSpec(DesignKind::Unison);
    ExperimentSpec detailed = fast;
    detailed.system.memoryBackend = MemoryBackendKind::Detailed;
    EXPECT_NE(warmPrefixKey(fast), warmPrefixKey(detailed));
}

TEST(CheckpointIdentity, MixWithPerCoreBudgets)
{
    // The mixes methodology: explicit warm boundary plus per-core
    // reference budgets, which exercises the scheduler-state part of
    // the snapshot (sched_time, budget_left, active_cores).
    ExperimentSpec spec = baseSpec(DesignKind::Unison);
    spec.mix = {mixPreset(Workload::WebServing, 2),
                mixPreset(Workload::DataServing, 2)};
    spec.system.perCoreAccessBudget = spec.accesses / 4;
    expectCheckpointIdentity(spec);
}

TEST(CheckpointIdentity, ScenarioMix)
{
    ExperimentSpec spec = baseSpec(DesignKind::Alloy);
    spec.mix = {mixScenario(ScenarioKind::StreamScan, 2),
                mixScenario(ScenarioKind::PointerChase, 2)};
    expectCheckpointIdentity(spec);
}

TEST(CheckpointIdentity, DatacenterMixAt64Cores)
{
    // The scale arm: the warm snapshot must carry each of the 64
    // generators' request-burst state (likely mid-burst at the
    // boundary) plus the flat page-tracker tables, and resume
    // byte-identically.
    ExperimentSpec spec = baseSpec(DesignKind::Unison);
    spec.system.numCores = 64;
    spec.accesses = 128'000;
    spec.system.warmupAccesses = 64'000;
    MixPart kv = mixScenario(ScenarioKind::YcsbKv, 32);
    kv.scenario->numKeys = 1ull << 16;
    kv.scenario->footprintBytes = 1ull << 20;
    MixPart dl = mixScenario(ScenarioKind::DlrmEmbed, 32);
    dl.scenario->numKeys = 1ull << 12;
    dl.scenario->footprintBytes = 1ull << 20;
    spec.mix = {kv, dl};
    expectCheckpointIdentity(spec);
}

TEST(CheckpointIdentity, ResumedRunMatchesLongerWindowToo)
{
    // The point of prefix grouping: the same snapshot serves specs
    // that differ only in total length.
    ExperimentSpec spec = baseSpec(DesignKind::Unison);

    WarmCheckpoint ck;
    runExperimentCk(spec, nullptr, &ck);
    ASSERT_TRUE(ck.valid());

    ExperimentSpec longer = spec;
    longer.accesses = 180'000;
    const SimResult cold = runExperiment(longer);
    const SimResult resumed = runExperimentCk(longer, &ck, nullptr);
    EXPECT_EQ(resultKey(resumed), resultKey(cold));
}

TEST(CheckpointIdentity, RunnerGroupsSharedWarmPrefixes)
{
    // Five specs, three sharing one warm prefix (they differ only in
    // the measured window) and two unrelated; the runner must return
    // exactly what spec-by-spec execution returns, serial or parallel.
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t total : {90'000, 120'000, 150'000})
        specs.push_back([&] {
            ExperimentSpec s = baseSpec(DesignKind::Unison);
            s.accesses = total;
            return s;
        }());
    specs.push_back(baseSpec(DesignKind::Alloy));
    specs.push_back([&] {
        ExperimentSpec s = baseSpec(DesignKind::Unison);
        s.seed = 99; // different warm prefix: must not join the group
        return s;
    }());

    ASSERT_EQ(warmPrefixKey(specs[0]), warmPrefixKey(specs[1]));
    ASSERT_EQ(warmPrefixKey(specs[0]), warmPrefixKey(specs[2]));
    ASSERT_NE(warmPrefixKey(specs[0]), warmPrefixKey(specs[3]));
    ASSERT_NE(warmPrefixKey(specs[0]), warmPrefixKey(specs[4]));

    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const std::vector<SimResult> grouped =
            runExperiments(specs, threads);
        ASSERT_EQ(grouped.size(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultKey(grouped[i]),
                      resultKey(runExperiment(specs[i])))
                << "spec " << i;
    }
}

TEST(CheckpointIdentity, FractionalWarmupIsNotEligible)
{
    ExperimentSpec spec = baseSpec(DesignKind::Unison);
    spec.system.warmupAccesses = 0; // fractional warm-up
    EXPECT_FALSE(checkpointEligible(spec));

    // Hooks are silently dropped: a capture attempt leaves the
    // checkpoint invalid and the result untouched.
    WarmCheckpoint ck;
    const SimResult captured = runExperimentCk(spec, nullptr, &ck);
    EXPECT_FALSE(ck.valid());
    EXPECT_EQ(resultKey(captured), resultKey(runExperiment(spec)));
}

TEST(CheckpointIdentity, InvalidSnapshotFallsBackToColdRun)
{
    const ExperimentSpec spec = baseSpec(DesignKind::Unison);
    WarmCheckpoint never_captured;
    const SimResult r = runExperimentCk(spec, &never_captured, nullptr);
    EXPECT_EQ(resultKey(r), resultKey(runExperiment(spec)));
}

TEST(CheckpointIdentity, PrefixKeyIgnoresMeasuredWindowOnly)
{
    const ExperimentSpec a = baseSpec(DesignKind::Unison);
    ExperimentSpec b = a;
    b.accesses = 999'999;
    EXPECT_EQ(warmPrefixKey(a), warmPrefixKey(b));

    ExperimentSpec c = a;
    c.capacityBytes = 64_MiB;
    EXPECT_NE(warmPrefixKey(a), warmPrefixKey(c));
}

} // namespace
} // namespace unison

/**
 * @file
 * End-to-end invariant sweeps over the full System (cores + L1/L2 +
 * DRAM cache + off-chip DRAM), parameterized over every design the
 * experiment runner can build. These are the cross-module conservation
 * laws DESIGN.md commits to: determinism per seed, traffic
 * conservation between the cache's counters and the DRAM pools',
 * bounded ratios, and the orderings the paper's figures rely on
 * (ideal on top, associativity monotone).
 *
 * Runs are deliberately short (120K references at 128 MB): the point
 * is structural validity, not calibration -- the bench suite covers
 * calibration.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace unison {
namespace {

constexpr std::uint64_t kShortRun = 120'000;

ExperimentSpec
shortSpec(DesignKind design,
          Workload workload = Workload::WebServing,
          std::uint64_t capacity = 128_MiB)
{
    ExperimentSpec spec;
    spec.design = design;
    spec.workload = workload;
    spec.capacityBytes = capacity;
    spec.accesses = kShortRun;
    spec.seed = 42;
    return spec;
}

// ---------------------------------------------------------------------
// Per-design sweep
// ---------------------------------------------------------------------

class DesignSweep : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(DesignSweep, ProducesStructurallySaneResult)
{
    const SimResult r = runExperiment(shortSpec(GetParam()));

    EXPECT_FALSE(r.designName.empty());
    EXPECT_GT(r.references, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.uipc, 0.0);
    EXPECT_GE(r.missRatioPercent(), 0.0);
    EXPECT_LE(r.missRatioPercent(), 100.0);
    EXPECT_GE(r.l1MissPercent, 0.0);
    EXPECT_LE(r.l1MissPercent, 100.0);
    EXPECT_GE(r.l2MissPercent, 0.0);
    EXPECT_LE(r.l2MissPercent, 100.0);
}

TEST_P(DesignSweep, DeterministicForFixedSeed)
{
    const SimResult a = runExperiment(shortSpec(GetParam()));
    const SimResult b = runExperiment(shortSpec(GetParam()));

    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.uipc, b.uipc);
    EXPECT_EQ(a.cache.hits.value(), b.cache.hits.value());
    EXPECT_EQ(a.cache.misses.value(), b.cache.misses.value());
    EXPECT_EQ(a.offchip.reads, b.offchip.reads);
    EXPECT_EQ(a.offchip.writes, b.offchip.writes);
    EXPECT_EQ(a.stacked.activations, b.stacked.activations);
}

TEST_P(DesignSweep, CacheCountersConserve)
{
    const SimResult r = runExperiment(shortSpec(GetParam()));
    EXPECT_EQ(r.cache.hits.value() + r.cache.misses.value(),
              r.cache.accesses());
    EXPECT_LE(r.cache.fpPredictedTouched.value(),
              r.cache.fpTouched.value());
    EXPECT_LE(r.cache.fpFetchedUntouched.value(),
              r.cache.fpFetched.value());
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignSweep,
    ::testing::Values(DesignKind::Unison, DesignKind::Alloy,
                      DesignKind::Footprint, DesignKind::NaiveBlockFp,
                      DesignKind::NaiveTaggedPage, DesignKind::Ideal,
                      DesignKind::NoDramCache),
    [](const ::testing::TestParamInfo<DesignKind> &info) {
        std::string n = designName(info.param);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Traffic conservation between cache counters and the DRAM pools
// ---------------------------------------------------------------------

class TrafficConservation : public ::testing::TestWithParam<DesignKind>
{
};

TEST_P(TrafficConservation, OffchipPoolMatchesCacheCounters)
{
    const SimResult r = runExperiment(shortSpec(GetParam()));
    // Every off-chip read transaction the pool saw corresponds to one
    // fetched 64 B block the cache accounted for, and vice versa; same
    // for writes vs writebacks. This catches double-counting or lost
    // traffic anywhere between the cache model and the channel model.
    EXPECT_EQ(r.offchip.reads, r.cache.offchipFetchedBlocks());
    EXPECT_EQ(r.offchip.writes, r.cache.offchipWritebackBlocks.value());
}

INSTANTIATE_TEST_SUITE_P(
    PageBasedDesigns, TrafficConservation,
    ::testing::Values(DesignKind::Unison, DesignKind::Footprint,
                      DesignKind::NaiveTaggedPage),
    [](const ::testing::TestParamInfo<DesignKind> &info) {
        std::string n = designName(info.param);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Cross-design orderings (the shapes the paper's figures rely on)
// ---------------------------------------------------------------------

TEST(SystemOrdering, IdealCacheNeverMisses)
{
    const SimResult r = runExperiment(shortSpec(DesignKind::Ideal));
    EXPECT_DOUBLE_EQ(r.missRatioPercent(), 0.0);
    EXPECT_EQ(r.cache.offchipFetchedBlocks(), 0u);
}

TEST(SystemOrdering, IdealIsAnUpperBound)
{
    const SimResult ideal = runExperiment(shortSpec(DesignKind::Ideal));
    for (DesignKind d : {DesignKind::Unison, DesignKind::Alloy,
                         DesignKind::Footprint}) {
        const SimResult r = runExperiment(shortSpec(d));
        EXPECT_GE(ideal.uipc, r.uipc * 0.999)
            << "ideal should dominate " << designName(d);
    }
}

TEST(SystemOrdering, RealCachesBeatNoCache)
{
    // Needs a *warmed* cache: a small capacity and a long enough run
    // that the measured window sees steady-state hit rates (the 120K
    // short runs above are all compulsory misses by construction).
    ExperimentSpec spec = shortSpec(DesignKind::NoDramCache,
                                    Workload::WebServing, 16_MiB);
    spec.accesses = 2'000'000;
    const SimResult base = runExperiment(spec);
    spec.design = DesignKind::Unison;
    const SimResult uc = runExperiment(spec);
    spec.design = DesignKind::Footprint;
    const SimResult fc = runExperiment(spec);
    EXPECT_GT(uc.uipc, base.uipc);
    EXPECT_GT(fc.uipc, base.uipc);
}

TEST(SystemOrdering, UnisonAssociativityReducesMissRatio)
{
    // Fig. 5's headline at miniature scale: once the cache is warm and
    // conflict-pressured, 4-way associativity cuts the miss ratio well
    // below direct-mapped.
    ExperimentSpec dm = shortSpec(DesignKind::Unison,
                                  Workload::WebServing, 16_MiB);
    dm.accesses = 1'000'000;
    dm.design.as<UnisonConfig>().assoc = 1;
    ExperimentSpec w4 = dm;
    w4.design.as<UnisonConfig>().assoc = 4;
    const SimResult r_dm = runExperiment(dm);
    const SimResult r_w4 = runExperiment(w4);
    EXPECT_LT(r_w4.missRatioPercent(), r_dm.missRatioPercent());
}

TEST(SystemOrdering, DifferentSeedsGiveDifferentButValidRuns)
{
    ExperimentSpec a = shortSpec(DesignKind::Unison);
    ExperimentSpec b = shortSpec(DesignKind::Unison);
    b.seed = 1234;
    const SimResult ra = runExperiment(a);
    const SimResult rb = runExperiment(b);
    EXPECT_GT(rb.uipc, 0.0);
    // The streams differ, so the cycle counts should too.
    EXPECT_NE(ra.cycles, rb.cycles);
}

TEST(SystemOrdering, AutoLengthScalesWithCapacityAndQuickDividesIt)
{
    const std::uint64_t small = defaultAccessCount(128_MiB, false);
    const std::uint64_t large = defaultAccessCount(1_GiB, false);
    EXPECT_GE(large, small);
    EXPECT_EQ(defaultAccessCount(1_GiB, true),
              defaultAccessCount(1_GiB, false) / 8);
}

TEST(SystemOrdering, EveryDesignKindHasAName)
{
    for (DesignKind d : {DesignKind::Unison, DesignKind::Alloy,
                         DesignKind::Footprint, DesignKind::NaiveBlockFp,
                         DesignKind::NaiveTaggedPage, DesignKind::Ideal,
                         DesignKind::NoDramCache}) {
        EXPECT_FALSE(designName(d).empty());
    }
}

} // namespace
} // namespace unison

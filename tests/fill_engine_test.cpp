/**
 * @file
 * Framework-level tests driving the policy layers directly -- the
 * FillEngine/WritebackEngine traffic accounting, the shared
 * page-eviction sequence, the FootprintFetchPolicy decision table,
 * and the X-macro counter enumeration those engines account into.
 *
 * The load-bearing invariant: the engines own ALL off-chip traffic
 * accounting, exactly once, so the DramCacheStats identity
 *
 *     offchipFetchedBlocks() == demand + prefetch + wasted
 *                            == off-chip pool reads
 *     offchipWritebackBlocks == off-chip pool writes
 *
 * holds for any sequence of engine calls.
 */

#include <gtest/gtest.h>

#include "cache/page_set.hh"
#include "core/fill_engine.hh"
#include "dram/dram.hh"
#include "dram/timing.hh"
#include "predictors/fetch_policy.hh"
#include "stats/table.hh"

namespace unison {
namespace {

struct EngineRig
{
    DramModule offchip{offChipDramOrganization(), offChipDramTiming()};
    DramModule stacked{stackedDramOrganization(), stackedDramTiming()};
    DramCacheStats stats;
    FillEngine fill;
    WritebackEngine writeback;

    EngineRig()
    {
        fill.init(&offchip, &stats);
        writeback.init(&offchip, &stats);
    }

    /** The accounting identity the engines guarantee. */
    void
    expectTrafficIdentity() const
    {
        EXPECT_EQ(stats.offchipFetchedBlocks(),
                  stats.offchipDemandBlocks.value() +
                      stats.offchipPrefetchBlocks.value() +
                      stats.offchipWastedBlocks.value());
        EXPECT_EQ(stats.offchipFetchedBlocks(), offchip.stats().reads);
        EXPECT_EQ(stats.offchipWritebackBlocks.value(),
                  offchip.stats().writes);
    }
};

Addr
pageBlockAddr(std::uint64_t page, std::uint32_t offset,
              std::uint32_t page_blocks = 15)
{
    return blockAddress(page * page_blocks + offset);
}

TEST(FillEngine, DemandPrefetchWastedAreDistinctAndComplete)
{
    EngineRig rig;

    const Cycle d = rig.fill.demandBlock(blockAddress(100), 1000);
    EXPECT_GT(d, 1000u);
    EXPECT_EQ(rig.stats.offchipDemandBlocks.value(), 1u);

    const Cycle p = rig.fill.prefetchBlock(blockAddress(101), 1000);
    EXPECT_GT(p, 1000u);
    EXPECT_EQ(rig.stats.offchipPrefetchBlocks.value(), 1u);

    rig.fill.wastedBlock(blockAddress(102), 1000);
    EXPECT_EQ(rig.stats.offchipWastedBlocks.value(), 1u);

    EXPECT_EQ(rig.stats.offchipFetchedBlocks(), 3u);
    rig.expectTrafficIdentity();
}

TEST(FillEngine, FootprintFetchCountsDemandOnceRestAsPrefetch)
{
    EngineRig rig;
    const std::uint32_t mask = 0b1011'0110u; // 5 blocks, demand at 2
    const auto fetch = rig.fill.fetchFootprint(
        [](std::uint32_t off) { return pageBlockAddr(7, off); }, mask,
        /*demand_offset=*/2, /*rest_start=*/500, /*head_start=*/400);

    EXPECT_GT(fetch.critical, 400u);
    EXPECT_GE(fetch.lastDone, fetch.critical);
    EXPECT_EQ(rig.stats.offchipDemandBlocks.value(), 1u);
    EXPECT_EQ(rig.stats.offchipPrefetchBlocks.value(),
              static_cast<std::uint64_t>(popCount(mask)) - 1u);
    rig.expectTrafficIdentity();
}

TEST(WritebackEngine, SingleBlockAndDirtyMaskWritebacks)
{
    EngineRig rig;

    const Cycle done = rig.writeback.writeBlock(blockAddress(55), 800);
    EXPECT_GT(done, 800u);
    EXPECT_EQ(rig.stats.offchipWritebackBlocks.value(), 1u);

    // A dirty footprint leaves as one batched stacked read plus one
    // off-chip write per dirty block.
    const std::uint32_t dirty = 0b0101'0001u;
    const std::uint64_t stacked_reads_before = rig.stacked.stats().reads;
    const Cycle read_done = rig.writeback.writebackDirty(
        rig.stacked, /*data_row=*/3, dirty,
        [](std::uint32_t off) { return pageBlockAddr(9, off); }, 900);
    EXPECT_GT(read_done, 900u);
    EXPECT_EQ(rig.stacked.stats().reads, stacked_reads_before + 1);
    EXPECT_EQ(rig.stats.offchipWritebackBlocks.value(),
              1u + popCount(dirty));
    rig.expectTrafficIdentity();
}

TEST(FillEngine, MixedSequenceKeepsIdentity)
{
    EngineRig rig;
    Cycle now = 0;
    for (int i = 0; i < 50; ++i) {
        now += 600;
        switch (i % 4) {
          case 0:
            rig.fill.demandBlock(blockAddress(1000 + i), now);
            break;
          case 1:
            rig.fill.fetchFootprint(
                [&](std::uint32_t off) {
                    return pageBlockAddr(i, off);
                },
                0b111u << (i % 8), (i % 8) + 1, now, now);
            break;
          case 2:
            rig.fill.wastedBlock(blockAddress(2000 + i), now);
            break;
          case 3:
            rig.writeback.writeBlock(blockAddress(3000 + i), now);
            break;
        }
    }
    rig.expectTrafficIdentity();
}

// ------------------------------------------------- page eviction

TEST(EvictPageWay, TrainsWritesBackAndInvalidates)
{
    EngineRig rig;
    FootprintFetchPolicy::Config cfg;
    FootprintFetchPolicy policy(cfg);

    PageWaySoa ways;
    ways.resize(4);
    const std::uint32_t touched = 0b0110u;
    const std::uint32_t dirty = 0b0010u;
    ways.install(1, {/*tag=*/42, /*pcHash=*/0x1234, /*trigger=*/1,
                     /*predicted=*/0b1110u, /*fetched=*/0b1110u,
                     touched, /*lastUse=*/5, /*gen=*/0});
    ways.hot[1].touched = touched;
    ways.hot[1].dirty = dirty;

    evictPageWay(
        ways, 1, rig.writeback, rig.stacked, /*data_row=*/0,
        [](std::uint32_t off) { return pageBlockAddr(42, off); },
        /*when=*/1000, policy, rig.stats, /*stats_gen=*/0);

    EXPECT_FALSE(ways.valid(1));
    EXPECT_EQ(rig.stats.evictions.value(), 1u);
    EXPECT_EQ(rig.stats.offchipWritebackBlocks.value(),
              popCount(dirty));
    // Accuracy accounting: predicted & touched over touched, fetched
    // minus touched as overfetch.
    EXPECT_EQ(rig.stats.fpPredictedTouched.value(),
              popCount(0b1110u & touched));
    EXPECT_EQ(rig.stats.fpTouched.value(), popCount(touched));
    EXPECT_EQ(rig.stats.fpFetchedUntouched.value(),
              popCount(0b1110u & ~touched));
    EXPECT_EQ(rig.stats.fpFetched.value(), popCount(0b1110u));
    rig.expectTrafficIdentity();

    // The observed footprint trained the FHT under the trigger key.
    std::uint64_t predicted_mask = 0;
    EXPECT_TRUE(const_cast<FootprintHistoryTable &>(
                    policy.footprintTable())
                    .predict(0x1234, 1, predicted_mask));
    EXPECT_EQ(predicted_mask, touched);
}

TEST(EvictPageWay, StaleGenerationSkipsAccuracyCounters)
{
    EngineRig rig;
    FootprintFetchPolicy::Config cfg;
    FootprintFetchPolicy policy(cfg);

    PageWaySoa ways;
    ways.resize(1);
    ways.install(0, {7, 0x99, 0, 0b11u, 0b11u, 0b01u, 1, /*gen=*/0});

    // Evict in generation 1: the page was allocated before the last
    // resetStats, so its accuracy must not pollute the measured window.
    evictPageWay(
        ways, 0, rig.writeback, rig.stacked, 0,
        [](std::uint32_t off) { return pageBlockAddr(7, off); }, 500,
        policy, rig.stats, /*stats_gen=*/1);

    EXPECT_EQ(rig.stats.fpTouched.value(), 0u);
    EXPECT_EQ(rig.stats.fpFetched.value(), 0u);
    EXPECT_EQ(rig.stats.evictions.value(), 1u);
    EXPECT_FALSE(ways.valid(0));
}

// ------------------------------------------------- fetch policy

TEST(FootprintFetchPolicy, DisabledFallbacksFollowConfig)
{
    FootprintFetchPolicy::Config page_cfg;
    page_cfg.footprintPrediction = false;
    FootprintFetchPolicy page_policy(page_cfg);
    const FetchDecision whole =
        page_policy.onTriggerMiss(1, 0x10, 3, 0x7fffu);
    EXPECT_EQ(whole.mask, 0x7fffu | (1u << 3));
    EXPECT_FALSE(whole.bypassSingleton);

    FootprintFetchPolicy::Config block_cfg;
    block_cfg.footprintPrediction = false;
    block_cfg.wholePageWhenDisabled = false;
    FootprintFetchPolicy block_policy(block_cfg);
    const FetchDecision single =
        block_policy.onTriggerMiss(1, 0x10, 3, 0x7fffu);
    EXPECT_EQ(single.mask, 1u << 3);
}

TEST(FootprintFetchPolicy, TrainedPredictionAndSingletonLifecycle)
{
    FootprintFetchPolicy::Config cfg;
    FootprintFetchPolicy policy(cfg);

    // Untrained: whole page, no bypass.
    FetchDecision d = policy.onTriggerMiss(50, 0x42, 2, 0x7fffu);
    EXPECT_EQ(d.mask, 0x7fffu | (1u << 2));
    EXPECT_FALSE(d.bypassSingleton);

    // Train a single-block footprint; the next trigger with the same
    // (PC, offset) predicts a singleton and bypasses.
    policy.trainEviction(0x42, 2, 1u << 2);
    d = policy.onTriggerMiss(51, 0x42, 2, 0x7fffu);
    EXPECT_EQ(d.mask, 1u << 2);
    EXPECT_TRUE(d.bypassSingleton);
    policy.noteBypass(51, 0x42, 2);

    // The bypassed page is seen again: promoted (not a singleton after
    // all), so no bypass this time, and the FHT entry was widened.
    d = policy.onTriggerMiss(51, 0x42, 5, 0x7fffu);
    EXPECT_FALSE(d.bypassSingleton);
    EXPECT_NE(d.mask & (1u << 2), 0u);
    EXPECT_NE(d.mask & (1u << 5), 0u);
}

// ------------------------------------------- X-macro counter lists

TEST(StatsFieldLists, ForEachCounterCoversEveryField)
{
    // The X-macro list is the single source of the struct's fields:
    // if someone adds a Counter outside the list, the sizeof check
    // trips and points them at the list.
    DramCacheStats cache_stats;
    std::size_t n = 0;
    cache_stats.forEachCounter(
        [&](const char *, const Counter &) { ++n; });
    EXPECT_EQ(n * sizeof(Counter), sizeof(DramCacheStats));

    DramChannelStats channel_stats;
    n = 0;
    channel_stats.forEachCounter(
        [&](const char *, const Counter &) { ++n; });
    EXPECT_EQ(n * sizeof(Counter), sizeof(DramChannelStats));
}

TEST(StatsFieldLists, ResetTableAndVisitAgree)
{
    DramCacheStats stats;
    stats.hits += 3;
    stats.offchipDemandBlocks += 7;

    Table table({"counter", "value"});
    addCounterRows(table, stats);
    std::size_t fields = 0;
    stats.forEachCounter([&](const char *, const Counter &) {
        ++fields;
    });
    EXPECT_EQ(table.numRows(), fields);

    stats.reset();
    std::uint64_t sum = 0;
    stats.forEachCounter([&](const char *, const Counter &c) {
        sum += c.value();
    });
    EXPECT_EQ(sum, 0u);
}

} // namespace
} // namespace unison

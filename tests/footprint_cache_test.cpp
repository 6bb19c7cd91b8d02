/**
 * @file
 * Tests for the `footprint` design -- the Unison Cache body with SRAM
 * tags, built through its registry entry: 32-way LRU, the SRAM-tag
 * fast-miss path, and the shared footprint machinery. The Table IV
 * tag sizes and latencies are pinned in geometry_param_test.cpp.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "core/unison_cache.hh"
#include "dram/dram.hh"
#include "sim/design_registry.hh"

namespace unison {
namespace {

/** Build `footprint` the way an experiment does, through the registry
 *  entry that maps FootprintCacheConfig onto the Unison body. */
std::unique_ptr<UnisonCache>
buildFootprint(MemoryBackend &offchip, std::uint64_t capacity,
               Cycle tag_latency_override = 0)
{
    FootprintCacheConfig cfg;
    cfg.tagLatencyOverride = tag_latency_override;
    DesignBuildContext ctx;
    ctx.capacityBytes = capacity;
    std::unique_ptr<DramCache> built =
        DesignRegistry::instance()
            .byKind(DesignKind::Footprint)
            .build(cfg, ctx, &offchip);
    EXPECT_EQ(built->kind(), DramCacheKind::Footprint);
    EXPECT_EQ(built->name(), "Footprint");
    return std::unique_ptr<UnisonCache>(
        static_cast<UnisonCache *>(built.release()));
}

struct Rig
{
    DramModule offchip{offChipDramOrganization(), offChipDramTiming()};
    std::unique_ptr<UnisonCache> cache;
    Cycle clock = 0;

    explicit Rig(std::uint64_t capacity = 4_MiB)
        : cache(buildFootprint(offchip, capacity))
    {
    }

    Addr
    addrOf(std::uint64_t page, std::uint32_t offset) const
    {
        return blockAddress(page * 32 + offset);
    }

    DramCacheResult
    access(std::uint64_t page, std::uint32_t offset, bool is_write,
           Pc pc = 0x400000)
    {
        clock += 500;
        DramCacheRequest req;
        req.addr = addrOf(page, offset);
        req.pc = pc;
        req.core = 0;
        req.isWrite = is_write;
        req.cycle = clock;
        return cache->access(req);
    }

    void
    forceEvict(std::uint64_t page)
    {
        const std::uint64_t sets = cache->geometry().numSets;
        for (std::uint64_t lap = 1; lap <= 33; ++lap)
            access(page + lap * sets, 0, false, 0x900000 + lap * 4);
    }
};

TEST(FootprintCache, HitAfterAllocation)
{
    Rig rig;
    EXPECT_FALSE(rig.access(10, 1, false).hit);
    EXPECT_TRUE(rig.access(10, 1, false).hit);
    EXPECT_TRUE(rig.cache->pagePresent(rig.addrOf(10, 0)));
}

TEST(FootprintCache, TagLatencyOnEveryAccess)
{
    // A miss is detected after only the SRAM tag latency: the done
    // time of a miss must not include a stacked-DRAM tag read.
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    const std::unique_ptr<UnisonCache> cache =
        buildFootprint(offchip, 4_MiB, 11);
    EXPECT_EQ(cache->sramTagLatency().value_or(0), 11u);

    DramCacheRequest req;
    req.addr = 0;
    req.pc = 0x400000;
    req.cycle = 10000;
    const DramCacheResult res = cache->access(req);
    // Miss path: tag (11) + off-chip fetch; the unloaded off-chip
    // conflict read is ~141 cycles.
    const Cycle latency = res.doneAt - req.cycle;
    EXPECT_GE(latency, 11u + 95u);
    EXPECT_LE(latency, 11u + 200u);
}

TEST(FootprintCache, BuildsNoWayPredictorTable)
{
    // SRAM tags resolve before the serial data read, so the way
    // predictor is never consulted: none is allocated.
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    EXPECT_FALSE(buildFootprint(offchip, 4_MiB)->hasWayPredictorTable());
}

TEST(FootprintCache, UnisonBuildsAWayPredictorTableOnlyToPredict)
{
    // With DRAM tags the table exists only under `predict`: fetch-all
    // reads every way and serial-tag reads the tag first, so neither
    // consults a predictor, allocates a table or checkpoints one.
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    UnisonConfig config;
    config.capacityBytes = 4_MiB;
    EXPECT_TRUE(UnisonCache(config, &offchip).hasWayPredictorTable());
    for (const UnisonWayPolicy policy :
         {UnisonWayPolicy::FetchAll, UnisonWayPolicy::SerialTag}) {
        config.wayPolicy = policy;
        const UnisonCache cache(config, &offchip);
        EXPECT_FALSE(cache.hasWayPredictorTable());
        // Nothing of a predictor reaches the warm snapshot either.
        config.wayPolicy = UnisonWayPolicy::Predict;
        StateWriter with_table;
        UnisonCache(config, &offchip).saveState(with_table);
        StateWriter without_table;
        cache.saveState(without_table);
        EXPECT_LT(std::move(without_table).take().size(),
                  std::move(with_table).take().size());
    }
}

TEST(FootprintCache, FootprintLearningRoundTrip)
{
    Rig rig;
    const Pc pc = 0x400abc;
    rig.access(20, 3, false, pc);
    rig.access(20, 7, false, pc);
    rig.forceEvict(20);

    const std::uint64_t page2 = 20 + 64 * rig.cache->geometry().numSets;
    rig.access(page2, 3, false, pc);
    EXPECT_TRUE(rig.cache->blockPresent(rig.addrOf(page2, 7)));
    EXPECT_FALSE(rig.cache->blockPresent(rig.addrOf(page2, 12)));
}

TEST(FootprintCache, ThirtyTwoWayLru)
{
    Rig rig;
    const std::uint64_t sets = rig.cache->geometry().numSets;
    // Fill all 32 ways of set 2, then re-touch the first 31 pages.
    for (std::uint64_t w = 0; w < 32; ++w)
        rig.access(2 + w * sets, 0, false);
    for (std::uint64_t w = 0; w < 31; ++w)
        rig.access(2 + w * sets, 1, false);
    // One more allocation evicts the untouched way 31.
    rig.access(2 + 40 * sets, 0, false);
    EXPECT_FALSE(rig.cache->pagePresent(rig.addrOf(2 + 31 * sets, 0)));
    EXPECT_TRUE(rig.cache->pagePresent(rig.addrOf(2 + 30 * sets, 0)));
}

TEST(FootprintCache, DirtyWritebackOnEviction)
{
    Rig rig;
    rig.access(5, 2, false); // allocate (write misses do not allocate)
    rig.access(5, 2, true);
    rig.access(5, 9, true);
    const std::uint64_t writes_before = rig.offchip.stats().writes;
    rig.forceEvict(5);
    EXPECT_EQ(rig.offchip.stats().writes, writes_before + 2);
    EXPECT_EQ(rig.cache->stats().offchipWritebackBlocks.value(), 2u);
}

TEST(FootprintCache, UnderpredictionFetchesSingleBlock)
{
    Rig rig;
    const Pc pc = 0x400777;
    rig.access(30, 1, false, pc);
    rig.access(30, 2, false, pc);
    rig.forceEvict(30);

    const std::uint64_t page2 = 30 + 64 * rig.cache->geometry().numSets;
    rig.access(page2, 1, false, pc);
    const std::uint64_t reads_before = rig.offchip.stats().reads;
    const DramCacheResult res = rig.access(page2, 20, false, pc);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(rig.offchip.stats().reads, reads_before + 1);
    EXPECT_EQ(rig.cache->stats().blockMisses.value(), 1u);
}

TEST(FootprintCache, StatsIdentities)
{
    Rig rig;
    Rng rng(13);
    Cycle clock = 0;
    for (int i = 0; i < 20000; ++i) {
        clock += 400;
        DramCacheRequest req;
        req.addr = blockAddress(rng.below(1u << 17));
        req.pc = 0x400000 + rng.below(64) * 4;
        req.isWrite = rng.chance(0.3);
        req.cycle = clock;
        rig.cache->access(req);
    }
    const DramCacheStats &s = rig.cache->stats();
    EXPECT_EQ(s.hits.value() + s.misses.value(), s.accesses());
    EXPECT_EQ(s.pageMisses.value() + s.blockMisses.value(),
              s.misses.value());
    EXPECT_EQ(s.offchipFetchedBlocks(), rig.offchip.stats().reads);
}

} // namespace
} // namespace unison

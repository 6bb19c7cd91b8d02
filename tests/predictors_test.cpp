/**
 * @file
 * Tests for all four predictors: the footprint history table, the
 * singleton table, the way predictor, and the MAP-I miss predictor --
 * including the Table II storage budgets.
 */

#include <gtest/gtest.h>

#include "core/unison_cache.hh"
#include "predictors/footprint_table.hh"
#include "predictors/miss_predictor.hh"
#include "predictors/singleton_table.hh"
#include "predictors/way_predictor.hh"

namespace unison {
namespace {

TEST(FootprintTable, LearnsAndPredicts)
{
    FootprintHistoryTable fht(FootprintTableConfig{});
    std::uint64_t mask = 0;
    EXPECT_FALSE(fht.predict(0x400100, 3, mask)) << "cold table";

    fht.update(0x400100, 3, 0b101100);
    ASSERT_TRUE(fht.predict(0x400100, 3, mask));
    EXPECT_EQ(mask, 0b101100u);

    // A later residency retrains the same entry (replace semantics,
    // which is how under/over-prediction corrections propagate).
    fht.update(0x400100, 3, 0b000110);
    ASSERT_TRUE(fht.predict(0x400100, 3, mask));
    EXPECT_EQ(mask, 0b000110u);
}

TEST(FootprintTable, OffsetIsPartOfTheKey)
{
    FootprintHistoryTable fht(FootprintTableConfig{});
    fht.update(0x400100, 3, 0b111);
    std::uint64_t mask = 0;
    EXPECT_FALSE(fht.predict(0x400100, 4, mask))
        << "same PC, different offset: distinct entry (Sec. III-A.1)";
    fht.update(0x400100, 4, 0b1111);
    ASSERT_TRUE(fht.predict(0x400100, 4, mask));
    EXPECT_EQ(mask, 0b1111u);
    ASSERT_TRUE(fht.predict(0x400100, 3, mask));
    EXPECT_EQ(mask, 0b111u);
}

TEST(FootprintTable, MergeWidensEntry)
{
    FootprintHistoryTable fht(FootprintTableConfig{});
    fht.update(0x42, 1, 0b0010);
    fht.merge(0x42, 1, 0b1000);
    std::uint64_t mask = 0;
    ASSERT_TRUE(fht.predict(0x42, 1, mask));
    EXPECT_EQ(mask, 0b1010u);

    // Merge on a missing entry behaves like an insert.
    fht.merge(0x43, 2, 0b0110);
    ASSERT_TRUE(fht.predict(0x43, 2, mask));
    EXPECT_EQ(mask, 0b0110u);
}

TEST(FootprintTable, EvictsLruUnderPressure)
{
    FootprintTableConfig cfg;
    cfg.numEntries = 8;
    cfg.assoc = 2; // 4 sets
    FootprintHistoryTable fht(cfg);
    // Fill far beyond capacity; recent entries must survive.
    for (Pc pc = 0; pc < 1000; ++pc)
        fht.update(pc, 0, 0b1);
    std::uint64_t mask = 0;
    int survivors = 0;
    for (Pc pc = 990; pc < 1000; ++pc) {
        if (fht.predict(pc, 0, mask))
            ++survivors;
    }
    EXPECT_GE(survivors, 4) << "recently inserted keys should remain";
}

TEST(FootprintTable, StorageBudgetMatchesTableII)
{
    FootprintHistoryTable fht(FootprintTableConfig{});
    // Table II: 144 KB footprint history table.
    EXPECT_NEAR(static_cast<double>(fht.storageBytes()),
                144.0 * 1024.0, 16.0 * 1024.0);
}

TEST(SingletonTable, InsertCheckRemove)
{
    SingletonTable table(SingletonTableConfig{});
    table.insert(/*page=*/77, /*pc=*/0x400, /*offset=*/5,
                 /*first_block=*/5);

    Pc pc = 0;
    std::uint32_t off = 0, first = 0;
    ASSERT_TRUE(table.checkAndRemove(77, pc, off, first));
    EXPECT_EQ(pc, 0x400u);
    EXPECT_EQ(off, 5u);
    EXPECT_EQ(first, 5u);
    // Consumed: the second check must fail.
    EXPECT_FALSE(table.checkAndRemove(77, pc, off, first));
    EXPECT_EQ(table.stats().promotions.value(), 1u);
}

TEST(SingletonTable, MissOnUnknownPage)
{
    SingletonTable table(SingletonTableConfig{});
    Pc pc;
    std::uint32_t off, first;
    EXPECT_FALSE(table.checkAndRemove(123, pc, off, first));
}

TEST(SingletonTable, StorageBudgetMatchesTableII)
{
    SingletonTable table(SingletonTableConfig{});
    // Table II: 3 KB singleton table.
    EXPECT_EQ(table.storageBytes(), 3u * 1024u);
}

TEST(WayPredictor, TrainsAndPredicts)
{
    WayPredictor wp(12, 4);
    const std::uint64_t page = 0xabcdef;
    wp.train(page, 2);
    EXPECT_EQ(wp.predict(page), 2u);
    wp.train(page, 3);
    EXPECT_EQ(wp.predict(page), 3u);
}

TEST(WayPredictor, PaperSizing)
{
    // "a 2-bit array directly indexed by the 12-bit XOR hash of the
    // page address (16-bit XOR for caches above 4GB)" -> 1 KB / 16 KB.
    WayPredictor small(12, 4);
    EXPECT_EQ(small.storageBytes(), 1024u);
    WayPredictor large(16, 4);
    EXPECT_EQ(large.storageBytes(), 16u * 1024u);

    EXPECT_EQ(WayPredictor::indexBitsForCapacity(1_GiB), 12u);
    EXPECT_EQ(WayPredictor::indexBitsForCapacity(4_GiB), 12u);
    EXPECT_EQ(WayPredictor::indexBitsForCapacity(8_GiB), 16u);
}

TEST(WayPredictor, AccuracyTracking)
{
    UnisonWayPredictor wp(UnisonConfig{}, 16);
    wp.recordOutcome(true);
    wp.recordOutcome(true);
    wp.recordOutcome(false);
    EXPECT_NEAR(wp.stats().accuracyPercent(), 66.67, 0.1);
    wp.resetStats();
    EXPECT_EQ(wp.stats().predictions.value(), 0u);
}

TEST(WayPredictor, DegenerateSingleWay)
{
    WayPredictor wp(12, 1);
    EXPECT_EQ(wp.predict(42), 0u);
    wp.train(42, 0); // must not crash
}

TEST(MissPredictor, SaturatingCounters)
{
    MissPredictorConfig cfg;
    cfg.numCores = 1;
    MissPredictor mp(cfg);
    const Pc pc = 0x1234;

    // Initialized to predict hit.
    EXPECT_TRUE(mp.predictHit(0, pc));

    // A run of misses flips the prediction.
    for (int i = 0; i < 8; ++i)
        mp.train(0, pc, mp.predictHit(0, pc), /*actual_hit=*/false);
    EXPECT_FALSE(mp.predictHit(0, pc));

    // A run of hits flips it back.
    for (int i = 0; i < 8; ++i)
        mp.train(0, pc, mp.predictHit(0, pc), /*actual_hit=*/true);
    EXPECT_TRUE(mp.predictHit(0, pc));
}

TEST(MissPredictor, PerCoreIsolation)
{
    MissPredictorConfig cfg;
    cfg.numCores = 2;
    MissPredictor mp(cfg);
    const Pc pc = 0x1234;
    for (int i = 0; i < 8; ++i)
        mp.train(0, pc, true, false); // core 0 sees misses
    EXPECT_FALSE(mp.predictHit(0, pc));
    EXPECT_TRUE(mp.predictHit(1, pc)) << "core 1 untouched";
}

TEST(MissPredictor, TableVStatsDefinitions)
{
    MissPredictorConfig cfg;
    cfg.numCores = 1;
    MissPredictor mp(cfg);
    const Pc pc = 1;
    // 3 misses: 2 predicted correctly, 1 wrongly; 1 hit predicted miss.
    mp.train(0, pc, /*pred_hit=*/false, /*actual=*/false);
    mp.train(0, pc, /*pred_hit=*/false, /*actual=*/false);
    mp.train(0, pc, /*pred_hit=*/true, /*actual=*/false);
    mp.train(0, pc, /*pred_hit=*/false, /*actual=*/true);

    // MP accuracy = misses predicted as miss / all misses.
    EXPECT_NEAR(mp.stats().accuracyPercent(), 100.0 * 2 / 3, 0.1);
    // Overfetch = wrongly fetched blocks / fetched blocks.
    EXPECT_NEAR(mp.stats().overfetchPercent(), 100.0 * 1 / 4, 0.1);
}

TEST(MissPredictor, StorageBudgetMatchesTableII)
{
    MissPredictorConfig cfg;
    cfg.numCores = 16;
    MissPredictor mp(cfg);
    // Table II: 96 B per core, 1.5 KB total for 16 cores.
    EXPECT_EQ(mp.storageBytes(), 1536u);
}

} // namespace
} // namespace unison

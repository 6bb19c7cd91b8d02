/**
 * @file
 * Tests for the two Sec. III-B "naive combination" baselines: the
 * block-based cache with footprint prediction (Fig. 4a) and the
 * page-based cache with tagged blocks (Fig. 4b). Beyond basic
 * hit/miss/writeback behaviour, these verify the *pathologies* the
 * paper predicts for each design: row scans on misses and evictions,
 * premature footprint truncation under conflicts, extra tag writes on
 * insertion, and the tag-replication capacity loss.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/alloy_cache.hh"
#include "baselines/naive_tagged_page.hh"
#include "dram/dram.hh"

namespace unison {
namespace {

// ---------------------------------------------------------------------
// Block-based cache with footprint prediction (Fig. 4a). One body
// serves both metadata placements: the behaviour the splice itself
// defines is checked on both, the row-scan pathologies on the in-DRAM
// straw man only.
// ---------------------------------------------------------------------

/** Off-chip pool that records the issue cycle of every write. */
class WriteRecordingPool final : public MemoryBackend
{
  public:
    WriteRecordingPool()
        : MemoryBackend(offChipDramOrganization(), offChipDramTiming()),
          pool_(offChipDramOrganization(), offChipDramTiming())
    {
    }

    DramAccessTiming
    rowAccess(std::uint64_t row_idx, std::uint32_t bytes, bool is_write,
              Cycle earliest) override
    {
        if (is_write)
            writeStarts.push_back(earliest);
        return pool_.rowAccess(row_idx, bytes, is_write, earliest);
    }

    DramPoolStats stats() const override { return pool_.stats(); }
    void resetStats() override { pool_.resetStats(); }
    void saveState(StateWriter &out) const override { pool_.saveState(out); }
    void loadState(StateReader &in) override { pool_.loadState(in); }

    std::vector<Cycle> writeStarts;

  private:
    DramModule pool_;
};

struct BlockFpRig
{
    WriteRecordingPool offchip;
    std::unique_ptr<AlloyCache> cache;
    Cycle clock = 0;

    explicit BlockFpRig(BlockFpMetadata metadata = BlockFpMetadata::InDram,
                        std::uint64_t capacity = 1_MiB)
    {
        AlloyFpConfig cfg;
        cfg.capacityBytes = capacity;
        cache = std::make_unique<AlloyCache>(cfg, &offchip, metadata);
    }

    DramCacheResult
    access(std::uint64_t block, bool is_write = false, Pc pc = 0x4000)
    {
        clock += 500;
        DramCacheRequest req;
        req.addr = blockAddress(block);
        req.pc = pc;
        req.isWrite = is_write;
        req.cycle = clock;
        return cache->access(req);
    }

    std::uint64_t
    conflicting(std::uint64_t block, std::uint64_t lap) const
    {
        return block + lap * cache->geometry().numTads;
    }
};

/** The shared splice behaviour, run on both metadata placements. */
class BlockFp : public ::testing::TestWithParam<BlockFpMetadata>
{
  protected:
    BlockFpRig rig{GetParam()};
};

TEST_P(BlockFp, FirstAccessIsTriggerMiss)
{
    const auto r = rig.access(100);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(rig.cache->stats().pageMisses.value(), 1u);
    EXPECT_EQ(rig.cache->stats().blockMisses.value(), 0u);
    EXPECT_TRUE(rig.cache->pageTracked(blockAddress(100)));
}

TEST_P(BlockFp, ColdTriggerFetchesWholeLogicalPage)
{
    // No trained footprint: the default prediction is the full page,
    // so 16 blocks come in (1 demand + 15 prefetch).
    rig.access(100);
    EXPECT_EQ(rig.cache->stats().offchipDemandBlocks.value(), 1u);
    EXPECT_EQ(rig.cache->stats().offchipPrefetchBlocks.value(), 15u);
    // Every block of the logical page is now resident.
    const std::uint64_t base = (100 / 16) * 16;
    for (std::uint64_t b = base; b < base + 16; ++b)
        EXPECT_TRUE(rig.cache->blockPresent(blockAddress(b)));
}

TEST_P(BlockFp, MissToTrackedPageIsBlockMissNotTrigger)
{
    const Pc pc = 0x55;
    // Train a sparse footprint {4, 6} for this trigger (blocks 100 and
    // 102 of the 16-block page starting at 96).
    rig.access(100, false, pc);
    rig.access(102, false, pc);
    rig.access(rig.conflicting(96, 1), false, 0x9999); // evicts page A
    EXPECT_FALSE(rig.cache->pageTracked(blockAddress(100)));
    // Re-trigger: only the learned {100, 102} blocks come in.
    rig.access(100, false, pc);
    ASSERT_TRUE(rig.cache->pageTracked(blockAddress(100)));
    ASSERT_FALSE(rig.cache->blockPresent(blockAddress(101)));
    // A miss to the tracked page is classified as a block miss
    // (underprediction), not a new trigger.
    const auto pm = rig.cache->stats().pageMisses.value();
    rig.access(101, false, pc);
    EXPECT_EQ(rig.cache->stats().pageMisses.value(), pm);
    EXPECT_EQ(rig.cache->stats().blockMisses.value(), 1u);
    EXPECT_TRUE(rig.cache->blockPresent(blockAddress(101)));
}

TEST_P(BlockFp, FootprintLearnedAcrossGenerations)
{
    const Pc pc = 0x1234;
    // Generation 1: touch blocks 100 and 102 only.
    rig.access(100, false, pc);
    rig.access(102, false, pc);
    // Evict the whole page via conflicts so the FHT learns {0,4,6}...
    // touched offsets within the page (100 % 16 = 4, 102 % 16 = 6).
    for (std::uint64_t b = (100 / 16) * 16; b < (100 / 16) * 16 + 16; ++b)
        rig.access(rig.conflicting(b, 1), false, 0x9999);
    EXPECT_FALSE(rig.cache->pageTracked(blockAddress(100)));
    // Generation 2: same trigger (PC, offset) -> only the learned
    // footprint is fetched, not the whole page.
    const auto prefetch0 =
        rig.cache->stats().offchipPrefetchBlocks.value();
    rig.access(100, false, pc);
    const auto prefetched =
        rig.cache->stats().offchipPrefetchBlocks.value() - prefetch0;
    EXPECT_EQ(prefetched, 1u); // just block 102 beyond the demand
    EXPECT_TRUE(rig.cache->blockPresent(blockAddress(102)));
    EXPECT_FALSE(rig.cache->blockPresent(blockAddress(101)));
}

TEST_P(BlockFp, WriteMissDoesNotAllocate)
{
    const auto r = rig.access(200, true);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(rig.cache->blockPresent(blockAddress(200)));
    EXPECT_EQ(rig.cache->stats().offchipWritebackBlocks.value(), 1u);
}

TEST_P(BlockFp, WriteHitDirtiesAndWritesBackOnEviction)
{
    rig.access(100);
    rig.access(100, true);
    EXPECT_TRUE(rig.cache->blockDirty(blockAddress(100)));
    const auto wb0 = rig.cache->stats().offchipWritebackBlocks.value();
    rig.access(rig.conflicting(100, 1)); // evicts the dirty block
    EXPECT_GT(rig.cache->stats().offchipWritebackBlocks.value(), wb0);
}

TEST_P(BlockFp, DirtyDemandVictimNeedsNoSecondRead)
{
    rig.access(100);
    rig.access(100, true);
    ASSERT_TRUE(rig.cache->blockDirty(blockAddress(100)));
    // A read miss over the dirty frame: the probe streams the victim's
    // whole TAD, so no 64 B read follows it (in-DRAM metadata adds its
    // row scans, nothing else), and the writeback leaves as soon as
    // the demand fill completes.
    const DramPoolStats before = rig.cache->stackedDram()->stats();
    const auto scan_bytes0 = rig.cache->naiveStats().scanBytes.value();
    rig.offchip.writeStarts.clear();
    const auto r = rig.access(rig.conflicting(100, 1));
    ASSERT_FALSE(r.hit);
    const DramPoolStats after = rig.cache->stackedDram()->stats();
    EXPECT_EQ(after.bytesRead - before.bytesRead,
              rig.cache->geometry().tadBytes +
                  (rig.cache->naiveStats().scanBytes.value() -
                   scan_bytes0));
    ASSERT_EQ(rig.offchip.writeStarts.size(), 1u);
    EXPECT_EQ(rig.offchip.writeStarts[0], r.doneAt);
}

TEST_P(BlockFp, ResetStatsKeepsModelState)
{
    rig.access(100);
    rig.cache->resetStats();
    EXPECT_EQ(rig.cache->stats().reads.value(), 0u);
    EXPECT_TRUE(rig.cache->blockPresent(blockAddress(100)));
    const auto r = rig.access(100);
    EXPECT_TRUE(r.hit);
}

TEST_P(BlockFp, RowScansOnlyWithInDramMetadata)
{
    // A trigger miss, a hit, and a conflicting page whose fills evict
    // the first page block by block.
    rig.access(100);
    rig.access(100);
    rig.access(rig.conflicting(100, 1));
    const auto &ns = rig.cache->naiveStats();
    if (GetParam() == BlockFpMetadata::Sram) {
        EXPECT_EQ(ns.rowScans.value(), 0u);
        EXPECT_EQ(ns.scanBytes.value(), 0u);
        EXPECT_EQ(rig.cache->name(), "AlloyFP");
    } else {
        // Two miss scans, plus the covering-row scan when the first
        // page's last block leaves.
        EXPECT_EQ(ns.rowScans.value(), 3u);
        EXPECT_EQ(rig.cache->name(), "NaiveBlockFP");
    }
}

INSTANTIATE_TEST_SUITE_P(
    BothMetadataPlacements, BlockFp,
    ::testing::Values(BlockFpMetadata::Sram, BlockFpMetadata::InDram),
    [](const ::testing::TestParamInfo<BlockFpMetadata> &info) {
        return info.param == BlockFpMetadata::Sram ? std::string("Sram")
                                                   : std::string("InDram");
    });

TEST(NaiveBlockFp, EveryReadMissChargesARowScan)
{
    BlockFpRig rig;
    const auto scans0 = rig.cache->naiveStats().rowScans.value();
    rig.access(100); // trigger miss -> scan
    const auto scans1 = rig.cache->naiveStats().rowScans.value();
    EXPECT_GT(scans1, scans0);
    rig.access(100); // hit -> no new scan
    EXPECT_EQ(rig.cache->naiveStats().rowScans.value(), scans1);
}

TEST(NaiveBlockFp, ScanBytesMatchRowTagFootprint)
{
    BlockFpRig rig;
    rig.access(100);
    // One miss scan plus any eviction scans; each reads 112 x 8 B.
    const auto &ns = rig.cache->naiveStats();
    EXPECT_EQ(ns.scanBytes.value(), ns.rowScans.value() * 112 * 8);
}

TEST(NaiveBlockFp, ConflictingFillTruncatesVictimPage)
{
    BlockFpRig rig;
    rig.access(100); // page A: 16 resident blocks
    EXPECT_TRUE(rig.cache->pageTracked(blockAddress(100)));
    // Page B maps every block onto page A's slots (lap 1): filling it
    // evicts A's blocks one by one -- A is truncated prematurely.
    rig.access(rig.conflicting(100, 1));
    EXPECT_GT(rig.cache->naiveStats().conflictFills.value(), 0u);
    EXPECT_GT(rig.cache->naiveStats().prematureEvictions.value(), 0u);
    EXPECT_FALSE(rig.cache->pageTracked(blockAddress(100)));
}

TEST(NaiveBlockFp, SideTableHighWaterMarkTracksStructuralCost)
{
    BlockFpRig rig;
    for (std::uint64_t p = 0; p < 8; ++p)
        rig.access(p * 16);
    EXPECT_GE(rig.cache->naiveStats().pageInfoPeak, 8u);
    EXPECT_EQ(rig.cache->trackedPages(), 8u);
}

// ---------------------------------------------------------------------
// Page-based cache with tagged blocks (Fig. 4b)
// ---------------------------------------------------------------------

struct TaggedPageRig
{
    DramModule offchip{offChipDramOrganization(), offChipDramTiming()};
    std::unique_ptr<NaiveTaggedPageCache> cache;
    Cycle clock = 0;

    explicit TaggedPageRig(std::uint64_t capacity = 1_MiB)
    {
        NaiveTaggedPageConfig cfg;
        cfg.capacityBytes = capacity;
        cache = std::make_unique<NaiveTaggedPageCache>(cfg, &offchip);
    }

    DramCacheResult
    access(std::uint64_t page, std::uint32_t offset,
           bool is_write = false, Pc pc = 0x4000)
    {
        clock += 500;
        DramCacheRequest req;
        req.addr = blockAddress(page * 28 + offset);
        req.pc = pc;
        req.isWrite = is_write;
        req.cycle = clock;
        return cache->access(req);
    }

    /** Page that maps to the same direct-mapped frame as `page`. */
    std::uint64_t
    conflicting(std::uint64_t page, std::uint64_t lap) const
    {
        return page + lap * cache->geometry().numFrames;
    }
};

TEST(NaiveTaggedPageGeometry, TagReplicationWastesAnEighth)
{
    const auto g = NaiveTaggedPageGeometry::compute(1_GiB);
    EXPECT_EQ(g.pageBlocks, 28u);
    EXPECT_EQ(g.pagesPerRow, 4u);
    EXPECT_EQ(g.numRows, 1_GiB / kRowBytes);
    EXPECT_EQ(g.numFrames, g.numRows * 4);
    EXPECT_EQ(g.dataBlocks, g.numFrames * 28);
    // Sec. III-B: tag replication wastes around 1/8 of capacity. Here
    // 28 x 64 B payload of each 2 KB quarter-row = 12.5% lost.
    const double waste =
        static_cast<double>(g.inDramTagBytes) / g.capacityBytes;
    EXPECT_NEAR(waste, 0.125, 0.01);
    // Fewer payload blocks per row than every real design in Table II
    // (AC 112, FC 128, UC 120-124).
    EXPECT_EQ(g.pageBlocks * g.pagesPerRow, 112u);
}

TEST(NaiveTaggedPage, ColdTriggerFetchesFullPage)
{
    TaggedPageRig rig;
    const auto r = rig.access(5, 3);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(rig.cache->stats().pageMisses.value(), 1u);
    EXPECT_EQ(rig.cache->stats().offchipDemandBlocks.value(), 1u);
    EXPECT_EQ(rig.cache->stats().offchipPrefetchBlocks.value(), 27u);
    EXPECT_TRUE(rig.cache->pagePresent(blockAddress(5 * 28)));
}

TEST(NaiveTaggedPage, HitIsSingleTadRead)
{
    TaggedPageRig rig;
    rig.access(5, 3);
    const auto r = rig.access(5, 3);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(rig.cache->stats().hits.value(), 1u);
}

TEST(NaiveTaggedPage, UnderpredictionFetchesSingleBlock)
{
    TaggedPageRig rig;
    const Pc pc = 0xabcd;
    // Train a 2-block footprint, then evict and re-trigger.
    rig.access(5, 3, false, pc);
    rig.access(5, 7, false, pc);
    rig.access(rig.conflicting(5, 1), 0, false, 0x1111); // evict
    rig.access(5, 3, false, pc); // re-trigger with learned footprint
    ASSERT_TRUE(rig.cache->blockPresent(blockAddress(5 * 28 + 7)));
    ASSERT_FALSE(rig.cache->blockPresent(blockAddress(5 * 28 + 9)));
    const auto demand0 = rig.cache->stats().offchipDemandBlocks.value();
    const auto r = rig.access(5, 9); // not in the footprint
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(rig.cache->stats().blockMisses.value(), 1u);
    EXPECT_EQ(rig.cache->stats().offchipDemandBlocks.value(),
              demand0 + 1);
}

TEST(NaiveTaggedPage, InsertionPaysExtraTagWrites)
{
    TaggedPageRig rig;
    const Pc pc = 0xabcd;
    rig.access(5, 3, false, pc);
    rig.access(5, 7, false, pc);
    // Cold insert predicted all 28 blocks: no unfetched TADs yet.
    EXPECT_EQ(rig.cache->naiveStats().extraTagWrites.value(), 0u);
    rig.access(rig.conflicting(5, 1), 0, false, 0x1111);
    const auto before = rig.cache->naiveStats().extraTagWrites.value();
    rig.access(5, 3, false, pc); // learned 2-block footprint
    // 28 - 2 = 26 valid-bit resets for blocks that were not fetched.
    EXPECT_EQ(rig.cache->naiveStats().extraTagWrites.value(),
              before + 26);
}

TEST(NaiveTaggedPage, EvictionRequiresHeaderScan)
{
    TaggedPageRig rig;
    rig.access(5, 3);
    EXPECT_EQ(rig.cache->naiveStats().evictionScans.value(), 0u);
    rig.access(rig.conflicting(5, 1), 0);
    EXPECT_EQ(rig.cache->naiveStats().evictionScans.value(), 1u);
    EXPECT_EQ(rig.cache->naiveStats().scanBytes.value(), 28u * 8u);
}

TEST(NaiveTaggedPage, DirtyBlocksWrittenBackAtEviction)
{
    TaggedPageRig rig;
    rig.access(5, 3);
    rig.access(5, 3, true);
    rig.access(5, 4, true);
    EXPECT_TRUE(rig.cache->blockDirty(blockAddress(5 * 28 + 3)));
    const auto wb0 = rig.cache->stats().offchipWritebackBlocks.value();
    rig.access(rig.conflicting(5, 1), 0);
    EXPECT_EQ(rig.cache->stats().offchipWritebackBlocks.value(),
              wb0 + 2);
}

TEST(NaiveTaggedPage, WriteToResidentPageAllocatesBlockInPlace)
{
    TaggedPageRig rig;
    rig.access(5, 3);
    // Ensure offset 9 is absent (cold insert fetched everything, so
    // rebuild with a trained 1-block footprint first).
    TaggedPageRig rig2;
    const Pc pc = 0x77;
    rig2.access(5, 3, false, pc);
    rig2.access(rig2.conflicting(5, 1), 0, false, 0x1111);
    rig2.access(5, 3, false, pc);
    ASSERT_FALSE(rig2.cache->blockPresent(blockAddress(5 * 28 + 9)));
    const auto r = rig2.access(5, 9, true);
    EXPECT_FALSE(r.hit);
    // Full-block write: valid + dirty without an off-chip fetch.
    EXPECT_TRUE(rig2.cache->blockPresent(blockAddress(5 * 28 + 9)));
    EXPECT_TRUE(rig2.cache->blockDirty(blockAddress(5 * 28 + 9)));
}

TEST(NaiveTaggedPage, WriteMissToAbsentPageDoesNotAllocate)
{
    TaggedPageRig rig;
    const auto r = rig.access(9, 2, true);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(rig.cache->pagePresent(blockAddress(9 * 28)));
    EXPECT_EQ(rig.cache->stats().offchipWritebackBlocks.value(), 1u);
}

TEST(NaiveTaggedPage, FootprintAccountedAtEviction)
{
    TaggedPageRig rig;
    rig.cache->resetStats(); // enter a measurement generation
    rig.access(5, 3);
    rig.access(5, 7);
    rig.access(rig.conflicting(5, 1), 0); // evict page 5
    // Touched 2 of 28 fetched blocks: 26 overfetched.
    EXPECT_EQ(rig.cache->stats().fpTouched.value(), 2u);
    EXPECT_EQ(rig.cache->stats().fpFetched.value(), 28u);
    EXPECT_EQ(rig.cache->stats().fpFetchedUntouched.value(), 26u);
}

TEST(NaiveTaggedPage, DirectMappedConflictsThrashUnlikeAssociativeFc)
{
    // Two hot pages in the same frame ping-pong forever -- the paper's
    // argument for why page-based designs need associativity.
    TaggedPageRig rig;
    rig.access(5, 0);
    const std::uint64_t other = rig.conflicting(5, 1);
    for (int i = 0; i < 8; ++i) {
        rig.access(other, 0);
        rig.access(5, 0);
    }
    // Every access after the first pair misses.
    EXPECT_EQ(rig.cache->stats().hits.value(), 0u);
    EXPECT_EQ(rig.cache->stats().pageMisses.value(), 17u);
}

} // namespace
} // namespace unison

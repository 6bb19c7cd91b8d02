/**
 * @file
 * Parameterized sweeps over the in-DRAM layout geometry of all three
 * designs: every (capacity x page size x associativity) combination
 * must satisfy the structural invariants of Fig. 3 / Table II --
 * payload plus metadata fits the rows, set and row indices stay in
 * range, and the Table II / Table IV headline numbers come out of the
 * same arithmetic the designs themselves use.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "core/geometry.hh"

namespace unison {
namespace {

// ---------------------------------------------------------------------
// UnisonGeometry: capacity x pageBlocks x assoc sweep
// ---------------------------------------------------------------------

using UnisonGeomParam =
    std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;

class UnisonGeometrySweep
    : public ::testing::TestWithParam<UnisonGeomParam>
{
  protected:
    std::uint64_t capacity() const { return std::get<0>(GetParam()); }
    std::uint32_t pageBlocks() const { return std::get<1>(GetParam()); }
    std::uint32_t assoc() const { return std::get<2>(GetParam()); }

    UnisonGeometry
    geom() const
    {
        return UnisonGeometry::compute(capacity(), pageBlocks(), assoc());
    }
};

TEST_P(UnisonGeometrySweep, BasicFieldsDeriveFromParams)
{
    const UnisonGeometry g = geom();
    EXPECT_EQ(g.capacityBytes, capacity());
    EXPECT_EQ(g.pageBytes, pageBlocks() * kBlockBytes);
    EXPECT_EQ(g.tagBurstBytes, assoc() * 8u);
    EXPECT_EQ(g.numRows, capacity() / kRowBytes);
    EXPECT_GE(g.numSets, 1u);
}

TEST_P(UnisonGeometrySweep, SetsAndRowsPartitionConsistently)
{
    const UnisonGeometry g = geom();
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(assoc()) *
        (g.pageBytes + g.pageMetaBytes);
    if (g.setsPerRow >= 1) {
        // Whole sets fit in a row: the packing must not overflow it.
        EXPECT_EQ(g.rowsPerSet, 1u);
        EXPECT_LE(set_bytes * g.setsPerRow, kRowBytes);
        // ...and one more set would not have fit.
        EXPECT_GT(set_bytes * (g.setsPerRow + 1), kRowBytes);
        EXPECT_EQ(g.numSets, g.numRows * g.setsPerRow);
        EXPECT_EQ(g.blocksPerRow,
                  g.setsPerRow * assoc() * pageBlocks());
    } else {
        // A set spans multiple rows (the 32-way ablation shape).
        EXPECT_GE(g.rowsPerSet, 2u);
        EXPECT_EQ(g.rowsPerSet,
                  (set_bytes + kRowBytes - 1) / kRowBytes);
        EXPECT_EQ(g.numSets, g.numRows / g.rowsPerSet);
    }
}

TEST_P(UnisonGeometrySweep, PayloadNeverExceedsCapacity)
{
    const UnisonGeometry g = geom();
    EXPECT_EQ(g.dataBlocks,
              g.numSets * static_cast<std::uint64_t>(assoc()) *
                  pageBlocks());
    EXPECT_EQ(g.inDramTagBytes,
              capacity() - g.dataBlocks * kBlockBytes);
    EXPECT_LT(g.dataBlocks * kBlockBytes, capacity());
    // The tag overhead must stay a modest fraction: under 25% for any
    // sane configuration (the paper's design points are 3.1-6.2%).
    EXPECT_LT(static_cast<double>(g.inDramTagBytes),
              0.25 * static_cast<double>(capacity()));
}

TEST_P(UnisonGeometrySweep, RowIndicesStayInRange)
{
    const UnisonGeometry g = geom();
    const std::uint64_t probe_sets[] = {0, g.numSets / 2, g.numSets - 1};
    for (std::uint64_t set : probe_sets) {
        const std::uint64_t tag_row = g.rowOfSet(set);
        EXPECT_LT(tag_row, g.numRows);
        for (std::uint32_t way = 0; way < assoc(); ++way) {
            const std::uint64_t data_row = g.dataRowOfWay(set, way);
            EXPECT_LT(data_row, g.numRows);
            EXPECT_GE(data_row, tag_row);
            // Data never lives more than one set's span away from the
            // set's tag row.
            EXPECT_LE(data_row, tag_row + g.rowsPerSet - 1);
        }
    }
}

TEST_P(UnisonGeometrySweep, DistinctSetsUseDistinctRowRanges)
{
    const UnisonGeometry g = geom();
    if (g.numSets < 2)
        return;
    // Adjacent sets either share a row (setsPerRow > 1) or occupy
    // disjoint row ranges; a set never straddles another set's rows.
    const std::uint64_t r0 = g.rowOfSet(0);
    const std::uint64_t r1 = g.rowOfSet(1);
    if (g.setsPerRow > 1) {
        EXPECT_EQ(r1, r0 + (1 >= g.setsPerRow ? 1 : 0));
    } else {
        EXPECT_EQ(r1, r0 + g.rowsPerSet);
    }
}

TEST_P(UnisonGeometrySweep, CapacityDoublingDoublesSets)
{
    const UnisonGeometry g1 = geom();
    const UnisonGeometry g2 =
        UnisonGeometry::compute(capacity() * 2, pageBlocks(), assoc());
    EXPECT_EQ(g2.numSets, g1.numSets * 2);
    EXPECT_EQ(g2.dataBlocks, g1.dataBlocks * 2);
}

INSTANTIATE_TEST_SUITE_P(
    CapacityPageAssoc, UnisonGeometrySweep,
    ::testing::Combine(
        ::testing::Values(128_MiB, 256_MiB, 512_MiB, 1_GiB, 2_GiB,
                          4_GiB, 8_GiB),
        ::testing::Values(7u, 15u, 31u),
        ::testing::Values(1u, 2u, 4u, 8u, 32u)),
    [](const ::testing::TestParamInfo<UnisonGeomParam> &info) {
        return std::to_string(std::get<0>(info.param) / (1 << 20)) +
               "MiB_" + std::to_string(std::get<1>(info.param)) +
               "blk_" + std::to_string(std::get<2>(info.param)) + "way";
    });

// ---------------------------------------------------------------------
// Paper design points (Table II, Sec. IV-C)
// ---------------------------------------------------------------------

TEST(UnisonGeometryPaper, Paper960BFourWayRow)
{
    // Sec. IV-C.1: "Each DRAM row accommodates two sets ... Each page
    // contains 15 blocks (960B), and the whole DRAM row accommodates
    // 120 data blocks."
    const UnisonGeometry g = UnisonGeometry::compute(1_GiB, 15, 4);
    EXPECT_EQ(g.setsPerRow, 2u);
    EXPECT_EQ(g.blocksPerRow, 120u);
    EXPECT_EQ(g.pageBytes, 960u);
}

TEST(UnisonGeometryPaper, Paper1984BFourWayRow)
{
    // Table II: UC row holds 120-124 blocks; the 1984B point is 124.
    const UnisonGeometry g = UnisonGeometry::compute(1_GiB, 31, 4);
    EXPECT_EQ(g.setsPerRow, 1u);
    EXPECT_EQ(g.blocksPerRow, 124u);
    EXPECT_EQ(g.pageBytes, 1984u);
}

TEST(UnisonGeometryPaper, InDramTagShareAt8Gb)
{
    // Table II: in-DRAM tag size @ 8GB is 256-512MB, i.e. 3.1-6.2%.
    const UnisonGeometry g960 = UnisonGeometry::compute(8_GiB, 15, 4);
    const UnisonGeometry g1984 = UnisonGeometry::compute(8_GiB, 31, 4);
    const double f960 = static_cast<double>(g960.inDramTagBytes) / 8_GiB;
    const double f1984 =
        static_cast<double>(g1984.inDramTagBytes) / 8_GiB;
    EXPECT_NEAR(f960, 0.0625, 0.002);  // ~512MB
    EXPECT_NEAR(f1984, 0.031, 0.002);  // ~256MB
}

TEST(UnisonGeometryPaper, WideAddressesNeedThreeTagBursts)
{
    // Footnote 3: "For systems with more than 1TB of memory (more
    // than 40 physical address bits), three bursts would be needed to
    // transfer ~48B of tags."
    const UnisonGeometry narrow =
        UnisonGeometry::compute(1_GiB, 15, 4, 40);
    const UnisonGeometry wide =
        UnisonGeometry::compute(1_GiB, 15, 4, 44);
    EXPECT_EQ(narrow.tagBurstBytes, 32u); // two 16 B bursts
    EXPECT_EQ(wide.tagBurstBytes, 48u);   // three 16 B bursts
    // Wider tags shrink the per-row payload budget, never grow it.
    EXPECT_LE(wide.blocksPerRow, narrow.blocksPerRow);
    EXPECT_GE(wide.inDramTagBytes, narrow.inDramTagBytes);
}

TEST(UnisonGeometryPaper, ImplausibleAddressWidthIsFatal)
{
    EXPECT_DEATH(UnisonGeometry::compute(1_GiB, 15, 4, 8),
                 "address width");
    EXPECT_DEATH(UnisonGeometry::compute(1_GiB, 15, 4, 64),
                 "address width");
}

// ---------------------------------------------------------------------
// AlloyGeometry: capacity sweep
// ---------------------------------------------------------------------

class AlloyGeometrySweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AlloyGeometrySweep, TadPackingInvariants)
{
    const AlloyGeometry g = AlloyGeometry::compute(GetParam());
    EXPECT_EQ(g.tadsPerRow, 112u);
    EXPECT_EQ(g.tadBytes, 72u);
    // 112 x 72 B = 8064 B fits an 8 KB row (the paper's Sec. IV-C.3
    // number; the leftover 128 B is row slack, not another TAD slot).
    EXPECT_LE(g.tadsPerRow * g.tadBytes, kRowBytes);
    EXPECT_EQ(g.numTads, g.numRows * 112);
    EXPECT_EQ(g.inDramTagBytes,
              GetParam() - g.numTads * std::uint64_t{kBlockBytes});
    EXPECT_LT(g.rowOfTad(g.numTads - 1), g.numRows);
}

TEST_P(AlloyGeometrySweep, TagOverheadIsTableTwoShare)
{
    // Table II: AC's in-DRAM tags @ 8GB are 1GB = 12.5% of capacity;
    // the share is capacity-independent.
    const AlloyGeometry g = AlloyGeometry::compute(GetParam());
    const double share = static_cast<double>(g.inDramTagBytes) /
                         static_cast<double>(g.capacityBytes);
    EXPECT_NEAR(share, 0.125, 0.001);
}

INSTANTIATE_TEST_SUITE_P(Capacities, AlloyGeometrySweep,
                         ::testing::Values(128_MiB, 256_MiB, 512_MiB,
                                           1_GiB, 2_GiB, 4_GiB, 8_GiB));

TEST(AlloyGeometryPaper, OneGigabyteOfTagsAtEightGigabytes)
{
    const AlloyGeometry g = AlloyGeometry::compute(8_GiB);
    EXPECT_EQ(g.inDramTagBytes, 1_GiB);
}

// ---------------------------------------------------------------------
// FootprintGeometry: the Table IV progression
// ---------------------------------------------------------------------

struct TableFourPoint
{
    std::uint64_t capacity;
    double tagMb;     //!< Table IV "Tags (MB)"
    Cycle latency;    //!< Table IV "Latency (cycles)"
};

class FootprintTableFour
    : public ::testing::TestWithParam<TableFourPoint>
{
};

TEST_P(FootprintTableFour, TagSizeAndLatencyMatchTableFour)
{
    const TableFourPoint p = GetParam();
    const FootprintGeometry g = FootprintGeometry::compute(p.capacity);
    const double tag_mb =
        static_cast<double>(g.sramTagBytes) / (1 << 20);
    // The model uses a flat 12 B/page; Table IV's figures run ~4-7%
    // above that (auxiliary predictor bits), so allow 8%.
    EXPECT_NEAR(tag_mb, p.tagMb, p.tagMb * 0.08);
    EXPECT_EQ(g.tagLatency, p.latency);
    EXPECT_EQ(FootprintGeometry::tagLatencyForCapacity(p.capacity),
              p.latency);
}

INSTANTIATE_TEST_SUITE_P(
    TableFour, FootprintTableFour,
    ::testing::Values(TableFourPoint{128_MiB, 0.8, 6},
                      TableFourPoint{256_MiB, 1.58, 9},
                      TableFourPoint{512_MiB, 3.12, 11},
                      TableFourPoint{1_GiB, 6.2, 16},
                      TableFourPoint{2_GiB, 12.5, 25},
                      TableFourPoint{4_GiB, 25.0, 36},
                      TableFourPoint{8_GiB, 50.0, 48}),
    [](const ::testing::TestParamInfo<TableFourPoint> &info) {
        return std::to_string(info.param.capacity / (1 << 20)) + "MiB";
    });

TEST(FootprintGeometryPaper, LatencyExtrapolatesBeyondTable)
{
    // Beyond 8 GB the model adds 12 cycles per doubling.
    EXPECT_EQ(FootprintGeometry::tagLatencyForCapacity(16_GiB), 60u);
    EXPECT_EQ(FootprintGeometry::tagLatencyForCapacity(32_GiB), 72u);
}

// ---------------------------------------------------------------------
// UnisonGeometry with SRAM tags: the `footprint` design's rows
// ---------------------------------------------------------------------

/** The `footprint` layout: Table II's 2 KB pages and 32 ways on the
 *  Unison geometry with the tags kept in SRAM. */
UnisonGeometry
footprintLayout(std::uint64_t capacity)
{
    const FootprintGeometry fc = FootprintGeometry::compute(capacity);
    return UnisonGeometry::compute(capacity, fc.pageBlocks, fc.assoc, 40,
                                   /*sram_tags=*/true);
}

class SramTagLayout : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SramTagLayout, MatchesFootprintCacheRows)
{
    const std::uint64_t cap = GetParam();
    const UnisonGeometry g = footprintLayout(cap);
    EXPECT_EQ(g.pageMetaBytes, 0u);
    EXPECT_EQ(g.tagBurstBytes, 0u);
    EXPECT_EQ(g.inDramTagBytes, 0u);
    // 64 KiB sets span eight rows of four 2 KB pages, so way `w` of
    // set `s` is the (32 s + w)-th page of the array.
    EXPECT_EQ(g.numSets, cap / 65536);
    for (const std::uint64_t set : {std::uint64_t{0}, g.numSets / 2,
                                    g.numSets - 1}) {
        for (std::uint32_t way = 0; way < 32; ++way)
            EXPECT_EQ(g.dataRowOfWay(set, way), (32 * set + way) / 4)
                << "set " << set << " way " << way;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Capacities, SramTagLayout,
    ::testing::Values(128_MiB, 256_MiB, 512_MiB, 1_GiB, 2_GiB, 4_GiB,
                      8_GiB),
    [](const ::testing::TestParamInfo<std::uint64_t> &info) {
        return std::to_string(info.param / (1 << 20)) + "MiB";
    });

TEST(FootprintGeometryPaper, StructuralInvariants)
{
    const FootprintGeometry fc = FootprintGeometry::compute(1_GiB);
    const UnisonGeometry g = footprintLayout(1_GiB);
    EXPECT_EQ(g.pageBlocks, 32u);  // 2 KB pages
    EXPECT_EQ(g.assoc, 32u);
    EXPECT_EQ(fc.pagesPerRow, 4u); // Sec. IV-C.2: 4 pages, 128 blocks
    EXPECT_EQ(g.waysPerRow, fc.pagesPerRow);
    EXPECT_EQ(g.blocksPerRow, 128u);
    EXPECT_EQ(fc.numPages, 1_GiB / 2048);
    EXPECT_EQ(g.numSets * g.assoc, fc.numPages);
}

TEST(FootprintGeometry, ThirtyTwoWayTwoKbPages)
{
    const FootprintGeometry fc = FootprintGeometry::compute(512_MiB);
    const UnisonGeometry g = footprintLayout(512_MiB);
    EXPECT_EQ(g.pageBlocks, 32u);
    EXPECT_EQ(g.assoc, 32u);
    EXPECT_EQ(g.waysPerRow, 4u); // 8 KB row = four 2 KB pages
    EXPECT_EQ(fc.numPages, 512_MiB / 2048);
    EXPECT_EQ(g.numSets, fc.numPages / 32);
}

} // namespace
} // namespace unison

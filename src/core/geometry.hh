/**
 * @file
 * In-DRAM layout geometry for the three cache organizations. This is
 * where the Table II arithmetic lives (blocks per 8 KB row, in-DRAM tag
 * overhead, SRAM tag-array sizes), so the characteristics bench and the
 * designs themselves share one source of truth.
 */

#ifndef UNISON_CORE_GEOMETRY_HH
#define UNISON_CORE_GEOMETRY_HH

#include <cstdint>

#include "common/fastdiv.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace unison {

/**
 * Unison Cache DRAM-row geometry (Fig. 3).
 *
 * Each page carries 16 B of in-row metadata: an 8 B word holding the
 * page tag, valid bit and the valid/dirty bit vectors (read first, as
 * one tag burst per set), plus an 8 B (PC, offset) word read only at
 * eviction. A set is `assoc` pages plus their metadata; as many whole
 * sets as fit share one 8 KB row (two sets for 960 B pages), and a set
 * wider than a row (the 32-way ablation) spans consecutive rows.
 *
 * With the tags in SRAM (Footprint Cache: 2 KB pages, 32 ways) the
 * rows hold payload only: no metadata bytes, no tag burst, and a
 * 64 KB set spans eight rows of four pages each.
 */
struct UnisonGeometry
{
    std::uint64_t capacityBytes = 0;
    std::uint32_t pageBlocks = 15; //!< 15 (960 B) or 31 (1984 B)
    std::uint32_t assoc = 4;

    std::uint64_t numRows = 0;
    std::uint64_t numSets = 0;
    std::uint32_t setsPerRow = 0;  //!< 0 when a set spans rows
    std::uint32_t rowsPerSet = 1;
    std::uint32_t waysPerRow = 0;  //!< valid when rowsPerSet > 1

    std::uint32_t pageBytes = 0;
    std::uint32_t pageMetaBytes = 16; //!< 0 with SRAM tags
    std::uint32_t tagBurstBytes = 0; //!< per-set tag read (8 B x assoc)

    /**
     * Physical address width. Footnote 3 of the paper: up to 40 bits
     * (1 TB), 8 B of tag word per page suffice (two bursts per 4-way
     * set on the 128-bit bus); beyond that the tag words grow to 12 B
     * and the set's tag read takes three bursts (~48 B).
     */
    std::uint32_t physAddrBits = 40;

    std::uint64_t dataBlocks = 0;  //!< total 64 B blocks of payload
    std::uint32_t blocksPerRow = 0;
    std::uint64_t inDramTagBytes = 0; //!< capacity - payload

    /** Invariant-divisor helpers for the per-access row mapping. */
    FastDiv64 setsPerRowDiv;  //!< valid when setsPerRow >= 1
    FastDiv64 waysPerRowDiv;
    FastDiv64 numSetsDiv;

    /** Compute the geometry; fatal on impossible configurations.
     *  `sram_tags` keeps the tags out of the rows (Footprint Cache). */
    static UnisonGeometry compute(std::uint64_t capacity_bytes,
                                  std::uint32_t page_blocks,
                                  std::uint32_t assoc,
                                  std::uint32_t phys_addr_bits = 40,
                                  bool sram_tags = false);

    /** First row of the set (the row holding its in-DRAM tags). */
    std::uint64_t
    rowOfSet(std::uint64_t set) const
    {
        UNISON_ASSERT(set < numSets, "set ", set, " out of range");
        if (setsPerRow >= 1)
            return setsPerRowDiv.div(set);
        return set * rowsPerSet;
    }

    /** Row holding way `way`'s data blocks. */
    std::uint64_t
    dataRowOfWay(std::uint64_t set, std::uint32_t way) const
    {
        UNISON_ASSERT(way < assoc, "way ", way, " out of range");
        if (setsPerRow >= 1)
            return rowOfSet(set);
        return rowOfSet(set) + waysPerRowDiv.div(way);
    }
};

/**
 * Alloy Cache geometry: 72 B tag-and-data (TAD) units, 112 per 8 KB
 * row (Sec. IV-C.3), direct-mapped.
 */
struct AlloyGeometry
{
    std::uint64_t capacityBytes = 0;
    std::uint64_t numRows = 0;
    std::uint32_t tadsPerRow = 112;
    std::uint32_t tadBytes = 72;
    std::uint64_t numTads = 0;     //!< == number of sets (direct-mapped)
    std::uint64_t inDramTagBytes = 0;

    /** Invariant-divisor helpers for the per-access mapping. */
    FastDiv64 tadsPerRowDiv;
    FastDiv64 numTadsDiv;

    static AlloyGeometry compute(std::uint64_t capacity_bytes);

    /** Row and slot of a TAD index. */
    std::uint64_t
    rowOfTad(std::uint64_t tad) const
    {
        return tadsPerRowDiv.div(tad);
    }
};

/**
 * Footprint Cache's Table II / IV facts: 2 KB pages, 32-way sets, four
 * pages per DRAM row, and an SRAM tag array of 12 B per page (matching
 * Table IV's 0.8 MB @128 MB ... 50 MB @8 GB progression) whose lookup
 * latency grows with capacity. The in-DRAM layout is UnisonGeometry's
 * with `sram_tags`: the `footprint` design is the Unison Cache body
 * with its tags in SRAM.
 */
struct FootprintGeometry
{
    std::uint64_t capacityBytes = 0;
    std::uint32_t pageBlocks = 32; //!< 2 KB pages
    std::uint32_t assoc = 32;
    std::uint64_t numPages = 0;
    std::uint32_t pagesPerRow = 4;
    std::uint64_t sramTagBytes = 0;
    Cycle tagLatency = 0;          //!< Table IV

    static FootprintGeometry compute(std::uint64_t capacity_bytes);

    /** Table IV: SRAM tag-array lookup latency for a capacity. */
    static Cycle tagLatencyForCapacity(std::uint64_t capacity_bytes);
};

} // namespace unison

#endif // UNISON_CORE_GEOMETRY_HH

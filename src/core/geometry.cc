#include "core/geometry.hh"

#include "common/logging.hh"

namespace unison {

UnisonGeometry
UnisonGeometry::compute(std::uint64_t capacity_bytes,
                        std::uint32_t page_blocks, std::uint32_t assoc,
                        std::uint32_t phys_addr_bits, bool sram_tags)
{
    UNISON_ASSERT(page_blocks >= 1 && page_blocks <= 63,
                  "unsupported page size of ", page_blocks, " blocks");
    UNISON_ASSERT(assoc >= 1, "associativity must be >= 1");
    UNISON_ASSERT(capacity_bytes >= kRowBytes,
                  "capacity below one DRAM row");
    UNISON_ASSERT(phys_addr_bits >= 30 && phys_addr_bits <= 52,
                  "implausible physical address width of ",
                  phys_addr_bits, " bits");

    UnisonGeometry g;
    g.capacityBytes = capacity_bytes;
    g.pageBlocks = page_blocks;
    g.assoc = assoc;
    g.pageBytes = page_blocks * kBlockBytes;
    g.physAddrBits = phys_addr_bits;
    // Footnote 3: beyond 40 physical address bits (1 TB of memory)
    // the per-page tag word grows from 8 B to 12 B and the per-set
    // tag metadata read takes three bursts (~48 B for 4 ways).
    const std::uint32_t tag_word = phys_addr_bits <= 40 ? 8 : 12;
    g.pageMetaBytes = sram_tags ? 0 : tag_word + 8; // + (PC, offset)
    g.tagBurstBytes = sram_tags ? 0 : assoc * tag_word;
    g.numRows = capacity_bytes / kRowBytes;

    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(assoc) *
        (g.pageBytes + g.pageMetaBytes);

    if (set_bytes <= kRowBytes) {
        g.setsPerRow = static_cast<std::uint32_t>(kRowBytes / set_bytes);
        g.rowsPerSet = 1;
        g.numSets = g.numRows * g.setsPerRow;
        g.blocksPerRow = g.setsPerRow * assoc * page_blocks;
        g.waysPerRow = g.setsPerRow * assoc;
    } else {
        g.setsPerRow = 0;
        g.rowsPerSet = static_cast<std::uint32_t>(
            (set_bytes + kRowBytes - 1) / kRowBytes);
        g.numSets = g.numRows / g.rowsPerSet;
        UNISON_ASSERT(g.numSets >= 1,
                      "capacity too small for one ", assoc, "-way set");
        g.waysPerRow = (assoc + g.rowsPerSet - 1) / g.rowsPerSet;
        g.blocksPerRow = g.waysPerRow * page_blocks;
    }

    g.dataBlocks = g.numSets * assoc * page_blocks;
    g.inDramTagBytes =
        capacity_bytes - g.dataBlocks * static_cast<std::uint64_t>(
                                            kBlockBytes);
    if (g.setsPerRow >= 1)
        g.setsPerRowDiv.init(g.setsPerRow);
    if (g.waysPerRow >= 1)
        g.waysPerRowDiv.init(g.waysPerRow);
    g.numSetsDiv.init(g.numSets);
    return g;
}

AlloyGeometry
AlloyGeometry::compute(std::uint64_t capacity_bytes)
{
    UNISON_ASSERT(capacity_bytes >= kRowBytes,
                  "capacity below one DRAM row");
    AlloyGeometry g;
    g.capacityBytes = capacity_bytes;
    g.numRows = capacity_bytes / kRowBytes;
    g.numTads = g.numRows * g.tadsPerRow;
    g.inDramTagBytes =
        capacity_bytes -
        g.numTads * static_cast<std::uint64_t>(kBlockBytes);
    g.tadsPerRowDiv.init(g.tadsPerRow);
    g.numTadsDiv.init(g.numTads);
    return g;
}

FootprintGeometry
FootprintGeometry::compute(std::uint64_t capacity_bytes)
{
    FootprintGeometry g;
    g.capacityBytes = capacity_bytes;
    g.numPages = capacity_bytes / (g.pageBlocks * kBlockBytes);
    g.sramTagBytes = g.numPages * 12; // 12 B/page, matches Table IV
    g.tagLatency = tagLatencyForCapacity(capacity_bytes);
    return g;
}

Cycle
FootprintGeometry::tagLatencyForCapacity(std::uint64_t capacity_bytes)
{
    // Table IV of the paper: conservatively estimated SRAM tag-array
    // latencies. Sizes between the listed points take the next-larger
    // entry's latency.
    struct Point
    {
        std::uint64_t size;
        Cycle latency;
    };
    static constexpr Point kTable[] = {
        {128_MiB, 6},  {256_MiB, 9},  {512_MiB, 11}, {1_GiB, 16},
        {2_GiB, 25},   {4_GiB, 36},   {8_GiB, 48},
    };
    for (const Point &p : kTable) {
        if (capacity_bytes <= p.size)
            return p.latency;
    }
    // Beyond 8 GB: extrapolate by +12 cycles per doubling.
    Cycle latency = 48;
    std::uint64_t size = 8_GiB;
    while (size < capacity_bytes) {
        size *= 2;
        latency += 12;
    }
    return latency;
}

} // namespace unison

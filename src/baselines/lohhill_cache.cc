#include "baselines/lohhill_cache.hh"

#include "sim/design_registry.hh"

#include "common/logging.hh"

namespace unison {

LohHillGeometry
LohHillGeometry::compute(std::uint64_t capacity_bytes)
{
    UNISON_ASSERT(capacity_bytes >= kRowBytes,
                  "capacity below one DRAM row");
    LohHillGeometry g;
    g.capacityBytes = capacity_bytes;
    g.numRows = capacity_bytes / kRowBytes;
    // Fit W ways of (8 B tag + 64 B data) into one 8 KB row.
    g.waysPerSet = kRowBytes / (8 + kBlockBytes); // 113
    g.tagBytes = g.waysPerSet * 8;
    g.inDramTagBytes =
        capacity_bytes - g.numRows * static_cast<std::uint64_t>(
                                         g.waysPerSet) *
                             kBlockBytes;
    // MissMap: one presence bit per cached block plus ~25% tag/LRU
    // overhead for its own set-associative organization.
    const std::uint64_t blocks = g.numRows * g.waysPerSet;
    g.missMapBytes = blocks / 8 * 5 / 4;
    g.numRowsDiv.init(g.numRows);
    return g;
}

LohHillCache::LohHillCache(const LohHillConfig &config, MemoryBackend *offchip)
    : DramCache(offchip, DramCacheKind::LohHill),
      config_(config),
      geometry_(LohHillGeometry::compute(config.capacityBytes)),
      stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming))
{
    UNISON_ASSERT(offchip != nullptr,
                  "Loh-Hill cache needs a memory pool");
    org_.init(geometry_.numRows, geometry_.waysPerSet);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

void
LohHillCache::locate(Addr addr, std::uint64_t &set,
                     std::uint64_t &tag) const
{
    org_.locate(blockNumber(addr), set, tag);
}

DramCacheResult
LohHillCache::access(const DramCacheRequest &req)
{
    std::uint64_t set;
    std::uint64_t tag;
    locate(req.addr, set, tag);
    if (req.isWrite)
        ++stats_.writes;
    else
        ++stats_.reads;

    // Every access consults the MissMap first (Sec. II-A: it "further
    // increases the DRAM cache hit latency").
    const Cycle mm_done = req.cycle + config_.missMapLatency;
    const int way = org_.findWay(set, tag);

    DramCacheResult result;

    if (way < 0) {
        // MissMap says absent: go straight to memory, no DRAM probe
        // (the design's miss-latency advantage).
        ++stats_.misses;
        result.hit = false;
        if (req.isWrite) {
            // Write-no-allocate keeps the comparison uniform with the
            // other block-based baseline behaviourally relevant paths.
            result.doneAt = writeback_.writeBlock(req.addr, mm_done);
            return result;
        }
        const Cycle mem_done = fill_.demandBlock(req.addr, mm_done);

        // Allocate: tag write + data fill into the row; evict LRU.
        const int victim = org_.pickVictim(set);
        const std::size_t vidx = org_.base(set) + victim;
        const std::uint64_t vw = org_.tagWord(vidx);
        if ((vw & kValid) != 0) {
            ++stats_.evictions;
            if ((vw & kDirty) != 0) {
                const Cycle victim_read =
                    stacked_
                        ->rowAccess(set, kBlockBytes, false, mem_done)
                        .completion;
                writeback_.writeBlock(
                    blockAddress(org_.blockOf(set, victim)),
                    victim_read);
            }
        }
        org_.tagWord(vidx) = kValid | tag;
        org_.lastUse(vidx) = ++useCounter_;
        stacked_->rowAccess(set, kBlockBytes + 8, true, mem_done);
        result.doneAt = mem_done;
        return result;
    }

    // Present: tag region read first, then the data block -- two
    // *serialized* accesses to the same row (compound scheduling keeps
    // the second a row-buffer hit; Sec. II-A).
    ++stats_.hits;
    result.hit = true;
    const std::size_t hidx = org_.base(set) + way;
    org_.lastUse(hidx) = ++useCounter_;
    const Cycle tag_done =
        stacked_->rowAccess(set, geometry_.tagBytes, false, mm_done)
            .completion;
    if (req.isWrite) {
        org_.tagWord(hidx) |= kDirty;
        result.doneAt =
            stacked_->rowAccess(set, kBlockBytes, true, tag_done)
                .completion;
    } else {
        result.doneAt =
            stacked_->rowAccess(set, kBlockBytes, false, tag_done)
                .completion;
    }
    return result;
}

bool
LohHillCache::blockPresent(Addr addr) const
{
    std::uint64_t set;
    std::uint64_t tag;
    locate(addr, set, tag);
    return org_.findWay(set, tag) >= 0;
}

bool
LohHillCache::blockDirty(Addr addr) const
{
    std::uint64_t set;
    std::uint64_t tag;
    locate(addr, set, tag);
    const int way = org_.findWay(set, tag);
    return way >= 0 &&
           (org_.tagWord(org_.base(set) + way) & kDirty) != 0;
}


// --------------------------------------------------- registry entry

DesignInfo
lohHillDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::LohHill;
    info.id = "lohhill";
    info.name = "Loh-Hill Cache";
    info.shortName = "Loh-Hill";
    info.summary = "row-as-set block cache with an SRAM MissMap "
                   "(Loh & Hill, MICRO'11)";
    info.defaults = LohHillConfig{};
    info.knobs = {
        knobUInt<LohHillConfig>(
            "missMapLatency", "MissMap SRAM lookup latency in cycles",
            &LohHillConfig::missMapLatency, 1, 1000),
    };
    info.build = [](const DesignVariant &v,
                    const DesignBuildContext &ctx,
                    MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        LohHillConfig cfg = std::get<LohHillConfig>(v);
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.stackedOrg.backend = ctx.backend;
        return std::make_unique<LohHillCache>(cfg, offchip);
    };
    return info;
}

} // namespace unison

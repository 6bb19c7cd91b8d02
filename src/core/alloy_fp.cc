#include "core/alloy_fp.hh"

#include "sim/design_registry.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unison {

AlloyFpCache::AlloyFpCache(const AlloyFpConfig &config,
                           MemoryBackend *offchip,
                           BlockFpMetadata metadata)
    : DramCache(offchip),
      config_(config),
      inDram_(metadata == BlockFpMetadata::InDram),
      geometry_(AlloyGeometry::compute(config.capacityBytes)),
      pageDiv_(config.pageBlocks),
      stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming)),
      fetchPolicy_([&] {
          FootprintFetchPolicy::Config c;
          c.fht = config.fhtConfig;
          c.fht.maxBlocksPerPage = config.pageBlocks;
          c.footprintPrediction = config.footprintPredictionEnabled;
          c.singletonBypass = false;
          // Prediction off degenerates to a predictor-less Alloy
          // Cache: fetch only the demanded block.
          c.wholePageWhenDisabled = false;
          return c;
      }())
{
    UNISON_ASSERT(offchip != nullptr, name(), " cache needs a memory pool");
    UNISON_ASSERT(std::has_single_bit(config_.pageBlocks),
                  "logical page size must be a power of two");
    UNISON_ASSERT(config_.pageBlocks <= kMaxPageBlocks,
                  "footprint masks hold at most ", kMaxPageBlocks,
                  " blocks");
    org_.init(geometry_.numTads);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

void
AlloyFpCache::resetStats()
{
    DramCache::resetStats();
    naiveStats_.reset();
    fetchPolicy_.resetStats();
}

AlloyFpCache::Location
AlloyFpCache::locate(Addr addr) const
{
    Location loc;
    loc.block = blockNumber(addr);
    std::uint64_t off;
    pageDiv_.divMod(loc.block, loc.page, off);
    loc.offset = static_cast<std::uint32_t>(off);
    org_.locate(loc.block, loc.frame, loc.tag);
    return loc;
}

Cycle
AlloyFpCache::chargeRowScan(std::uint64_t row, Cycle start)
{
    // All the TAD tags in the row: 112 x 8 B. The row is typically
    // already open (the probe just touched it), so the cost is mostly
    // bus occupancy -- exactly the availability loss Sec. III-B.1
    // describes.
    const std::uint32_t bytes = geometry_.tadsPerRow * 8;
    ++naiveStats_.rowScans;
    naiveStats_.scanBytes += bytes;
    return stacked_->rowAccess(row, bytes, false, start).completion;
}

void
AlloyFpCache::installBlock(const Location &loc, Cycle when)
{
    if (org_.valid(loc.frame) && !org_.present(loc.frame, loc.tag)) {
        ++stats_.evictions;
        const std::uint64_t victim_block = org_.blockOf(loc.frame);
        if (org_.dirty(loc.frame)) {
            const Cycle read_done =
                stacked_
                    ->rowAccess(geometry_.rowOfTad(loc.frame),
                                kBlockBytes, false, when)
                    .completion;
            writeback_.writeBlock(blockAddress(victim_block),
                                  read_done);
        }
        const std::uint64_t victim_page =
            victim_block / config_.pageBlocks;
        if (inDram_) {
            ++naiveStats_.conflictFills;
            const PageGroupTracker::PageInfo *victim_info =
                pages_.find(victim_page);
            // The victim page still had other live blocks: its
            // footprint is being truncated mid-residency (Fig. 4a's
            // overlap conflict).
            if (victim_info != nullptr &&
                popCount(victim_info->residentMask) > 1)
                ++naiveStats_.prematureEvictions;
        }
        PageGroupTracker::PageInfo gone;
        if (pages_.removeBlock(
                victim_page,
                static_cast<std::uint32_t>(victim_block %
                                           config_.pageBlocks),
                gone)) {
            // The page's last block left. In SRAM the tracker knows
            // its footprint outright; in-DRAM the hardware would have
            // to reconstruct it by scanning the rows that held the
            // page's blocks. Its TAD slots are consecutive, so one
            // scan of the covering row is charged.
            if (inDram_)
                chargeRowScan(
                    geometry_.rowOfTad((victim_page * config_.pageBlocks) %
                                       geometry_.numTads),
                    when);
            if (gone.touchedMask != 0)
                fetchPolicy_.trainEviction(gone.pcHash,
                                           gone.triggerOffset,
                                           gone.touchedMask);
            accountFootprint(stats_, gone.fetchedMask,
                             gone.touchedMask, gone.fetchedMask);
        }
    }
    org_.install(loc.frame, loc.tag, false);
    stacked_->rowAccess(geometry_.rowOfTad(loc.frame),
                        geometry_.tadBytes, true, when);
}

DramCacheResult
AlloyFpCache::access(const DramCacheRequest &req)
{
    const Location loc = locate(req.addr);
    const std::uint64_t row = geometry_.rowOfTad(loc.frame);
    const bool hit = org_.present(loc.frame, loc.tag);
    const std::uint32_t bit = 1u << loc.offset;

    DramCacheResult result;
    result.hit = hit;

    if (req.isWrite) {
        ++stats_.writes;
        const Cycle tag_done =
            stacked_->rowAccess(row, 8, false, req.cycle).completion;
        if (hit) {
            ++stats_.hits;
            org_.markDirty(loc.frame);
            if (PageGroupTracker::PageInfo *info =
                    pages_.find(loc.page)) {
                info->touchedMask |= bit;
                info->fetchedMask |= bit;
            }
            result.doneAt =
                stacked_->rowAccess(row, kBlockBytes, true, tag_done)
                    .completion;
            return result;
        }
        // Write-no-allocate (the page-based designs' rationale:
        // footprints must not be trained from writeback PCs).
        ++stats_.misses;
        result.doneAt = writeback_.writeBlock(req.addr, req.cycle);
        return result;
    }

    ++stats_.reads;

    // Alloy-style probe: the block's TAD streamed in one access.
    const Cycle tad_done =
        stacked_->rowAccess(row, geometry_.tadBytes, false, req.cycle)
            .completion;

    if (hit) {
        ++stats_.hits;
        if (PageGroupTracker::PageInfo *info = pages_.find(loc.page))
            info->touchedMask |= bit;
        result.doneAt = tad_done;
        return result;
    }

    ++stats_.misses;

    // Telling a trigger miss from an underprediction: the SRAM tracker
    // answers outright; with presence information spread over the row
    // (Sec. III-B.1) every TAD tag in the row must be scanned first.
    const Cycle classified =
        inDram_ ? chargeRowScan(row, tad_done) : tad_done;

    if (pages_.tracked(loc.page)) {
        // Blocks of this page are resident: an underprediction. Fetch
        // just the demanded block.
        ++stats_.blockMisses;
        const Cycle mem_done = fill_.demandBlock(req.addr, classified);
        installBlock(loc, mem_done);
        // installBlock may have displaced this very page's tracking if
        // the victim was a sibling; re-find before updating.
        if (PageGroupTracker::PageInfo *info = pages_.find(loc.page)) {
            info->fetchedMask |= bit;
            info->touchedMask |= bit;
            info->residentMask |= bit;
        }
        result.doneAt = mem_done;
        return result;
    }

    // Trigger miss: predict the footprint and stream the group in,
    // demanded block first.
    ++stats_.pageMisses;
    const FetchDecision decision = fetchPolicy_.onTriggerMiss(
        loc.page, req.pc, loc.offset, fullBlockMask(config_.pageBlocks));

    const Cycle critical = fill_.demandBlock(req.addr, classified);

    PageGroupTracker::PageInfo info;
    info.pcHash = static_cast<std::uint32_t>(fhtPc(req.pc));
    info.triggerOffset = static_cast<std::uint8_t>(loc.offset);
    info.fetchedMask = bit;
    info.touchedMask = bit;
    info.residentMask = bit;
    pages_.insert(loc.page, info);
    if (inDram_)
        naiveStats_.pageInfoPeak = std::max<std::uint64_t>(
            naiveStats_.pageInfoPeak, pages_.size());

    installBlock(loc, critical);
    if (PageGroupTracker::PageInfo *self = pages_.find(loc.page))
        self->residentMask |= bit;

    std::uint32_t rest = decision.mask & ~bit;
    const std::uint64_t page_first_block =
        loc.page * config_.pageBlocks;
    while (rest != 0) {
        const std::uint32_t off =
            static_cast<std::uint32_t>(std::countr_zero(rest));
        rest &= rest - 1;
        const Location fl =
            locate(blockAddress(page_first_block + off));
        const Cycle done =
            fill_.prefetchBlock(blockAddress(fl.block), classified);
        installBlock(fl, done);
        PageGroupTracker::PageInfo *self = pages_.find(loc.page);
        if (self == nullptr)
            break; // a sibling fill conflicted this page away entirely
        self->fetchedMask |= 1u << off;
        self->residentMask |= 1u << off;
    }

    result.doneAt = critical;
    return result;
}

bool
AlloyFpCache::blockPresent(Addr addr) const
{
    const Location loc = locate(addr);
    return org_.present(loc.frame, loc.tag);
}

bool
AlloyFpCache::blockDirty(Addr addr) const
{
    const Location loc = locate(addr);
    return org_.present(loc.frame, loc.tag) && org_.dirty(loc.frame);
}

bool
AlloyFpCache::pageTracked(Addr addr) const
{
    return pages_.tracked(locate(addr).page);
}


// -------------------------------------------------- registry entries

namespace {

/** The registry entry both variants share: knobs (minus `fhtEntries`
 *  for the in-DRAM splice), validation and factory; `info` arrives
 *  with its names and the per-variant knob help already filled. */
template <typename Cfg>
DesignInfo
blockFpDesignInfo(DesignInfo info, BlockFpMetadata metadata,
                  const char *prediction_help, const char *page_help)
{
    info.defaults = Cfg{};
    info.knobs = {
        knobBool<Cfg>("footprintPrediction", prediction_help,
                      &Cfg::footprintPredictionEnabled),
        knobUInt<Cfg, std::uint32_t>("pageBlocks", page_help,
                                     &Cfg::pageBlocks, 1,
                                     kMaxPageBlocks),
    };
    if (metadata == BlockFpMetadata::Sram)
        info.knobs.push_back(knobUIntFn<Cfg, std::uint32_t>(
            "fhtEntries", "footprint history table entries",
            [](Cfg &c) -> std::uint32_t & {
                return c.fhtConfig.numEntries;
            },
            1, 1u << 24));
    info.validate = [](const DesignVariant &v,
                       const DesignBuildContext &) -> std::string {
        const Cfg &c = std::get<Cfg>(v);
        if (!isPowerOfTwo(c.pageBlocks))
            return "pageBlocks must be a power of two, got " +
                   std::to_string(c.pageBlocks);
        return validateFhtShape(c.fhtConfig);
    };
    info.build = [metadata](const DesignVariant &v,
                            const DesignBuildContext &ctx,
                            MemoryBackend *offchip)
        -> std::unique_ptr<DramCache> {
        AlloyFpConfig cfg = std::get<Cfg>(v);
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.stackedOrg.backend = ctx.backend;
        return std::make_unique<AlloyFpCache>(cfg, offchip, metadata);
    };
    return info;
}

} // namespace

DesignInfo
alloyFpDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::AlloyFp;
    info.id = "alloyfp";
    info.name = "Alloy-FP";
    info.shortName = "AlloyFP";
    info.summary = "composed hybrid: direct-mapped block cache with "
                   "footprint-grouped prefetch (SRAM page tracking)";
    return blockFpDesignInfo<AlloyFpConfig>(
        std::move(info), BlockFpMetadata::Sram,
        "fetch predicted footprints (false: single blocks)",
        "blocks per prefetch group (power of two)");
}

DesignInfo
naiveBlockFpDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::NaiveBlockFp;
    info.id = "naiveblockfp";
    info.name = "Naive block+FP";
    info.shortName = "Block+FP";
    info.summary = "rejected Sec. III-B.1 splice: block-based array "
                   "with footprint prediction (row scans on misses)";
    return blockFpDesignInfo<NaiveBlockFpConfig>(
        std::move(info), BlockFpMetadata::InDram,
        "fetch predicted footprints (false: degenerates to Alloy)",
        "blocks per logical page (power of two)");
}

} // namespace unison

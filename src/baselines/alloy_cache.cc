#include "baselines/alloy_cache.hh"

#include "sim/design_registry.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unison {

AlloyCache::Grouping::Grouping(const AlloyFpConfig &config,
                               BlockFpMetadata metadata)
    : pageBlocks(config.pageBlocks),
      inDram(metadata == BlockFpMetadata::InDram),
      pageDiv(config.pageBlocks),
      fetchPolicy([&] {
          FootprintFetchPolicy::Config c;
          c.fht = config.fhtConfig;
          c.fht.maxBlocksPerPage = config.pageBlocks;
          c.footprintPrediction = config.footprintPredictionEnabled;
          c.singletonBypass = false;
          // Prediction off fetches only the demanded block.
          c.wholePageWhenDisabled = false;
          return c;
      }())
{
    UNISON_ASSERT(std::has_single_bit(pageBlocks),
                  "logical page size must be a power of two");
    UNISON_ASSERT(pageBlocks <= kMaxPageBlocks,
                  "footprint masks hold at most ", kMaxPageBlocks,
                  " blocks");
}

AlloyCache::AlloyCache(std::uint64_t capacity_bytes,
                       const DramOrganization &stacked_org,
                       const DramTimingParams &stacked_timing,
                       MemoryBackend *offchip, DramCacheKind kind)
    : DramCache(offchip, kind),
      capacityBytes_(capacity_bytes),
      geometry_(AlloyGeometry::compute(capacity_bytes)),
      stacked_(makeMemoryBackend(stacked_org, stacked_timing))
{
    UNISON_ASSERT(offchip != nullptr, "block cache needs a memory pool");
    org_.init(geometry_.numTads);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

AlloyCache::AlloyCache(const AlloyConfig &config, MemoryBackend *offchip)
    : AlloyCache(config.capacityBytes, config.stackedOrg,
                 config.stackedTiming, offchip, DramCacheKind::Alloy)
{
    if (config.missPredictorEnabled) {
        MissPredictorConfig mp;
        mp.numCores = config.numCores;
        missPred_ = std::make_unique<MissPredictor>(mp);
    }
}

AlloyCache::AlloyCache(const AlloyFpConfig &config,
                       MemoryBackend *offchip, BlockFpMetadata metadata)
    : AlloyCache(config.capacityBytes, config.stackedOrg,
                 config.stackedTiming, offchip, DramCacheKind::Other)
{
    groups_ = std::make_unique<Grouping>(config, metadata);
}

std::string
AlloyCache::name() const
{
    if (!groups_)
        return "Alloy";
    return groups_->inDram ? "NaiveBlockFP" : "AlloyFP";
}

void
AlloyCache::resetStats()
{
    DramCache::resetStats();
    if (groups_) {
        groups_->naiveStats.reset();
        groups_->fetchPolicy.resetStats();
    }
    if (missPred_)
        missPred_->resetStats();
}

void
AlloyCache::saveState(StateWriter &out) const
{
    org_.saveState(out);
    stacked_->saveState(out);
    if (groups_) {
        groups_->fetchPolicy.saveState(out);
        groups_->pages.saveState(out);
        if (groups_->inDram)
            out.pod(groups_->naiveStats.pageInfoPeak);
    }
    if (missPred_)
        missPred_->saveState(out);
}

void
AlloyCache::loadState(StateReader &in)
{
    org_.loadState(in);
    stacked_->loadState(in);
    if (groups_) {
        groups_->fetchPolicy.loadState(in);
        groups_->pages.loadState(in);
        if (groups_->inDram)
            in.pod(groups_->naiveStats.pageInfoPeak);
    }
    if (missPred_)
        missPred_->loadState(in);
}

AlloyCache::Location
AlloyCache::locate(Addr addr) const
{
    Location loc;
    loc.block = blockNumber(addr);
    org_.locate(loc.block, loc.frame, loc.tag);
    if (groups_) {
        std::uint64_t off;
        groups_->pageDiv.divMod(loc.block, loc.page, off);
        loc.offset = static_cast<std::uint32_t>(off);
    }
    return loc;
}

Cycle
AlloyCache::chargeRowScan(std::uint64_t row, Cycle start)
{
    // All the TAD tags in the row: 112 x 8 B. The row is typically
    // already open (the probe just touched it), so the cost is mostly
    // bus occupancy -- exactly the availability loss Sec. III-B.1
    // describes.
    const std::uint32_t bytes = geometry_.tadsPerRow * 8;
    ++groups_->naiveStats.rowScans;
    groups_->naiveStats.scanBytes += bytes;
    return stacked_->rowAccess(row, bytes, false, start).completion;
}

Cycle
AlloyCache::installBlock(const Location &loc, Cycle when,
                         bool victim_streamed, bool dirty)
{
    const std::uint64_t row = geometry_.rowOfTad(loc.frame);
    if (org_.valid(loc.frame) && !org_.present(loc.frame, loc.tag)) {
        ++stats_.evictions;
        const std::uint64_t victim_block = org_.blockOf(loc.frame);
        if (org_.dirty(loc.frame)) {
            const Cycle data_ready =
                victim_streamed
                    ? when
                    : stacked_->rowAccess(row, kBlockBytes, false, when)
                          .completion;
            writeback_.writeBlock(blockAddress(victim_block),
                                  data_ready);
        }
        if (groups_)
            evictFromGroup(victim_block, when);
    }
    org_.install(loc.frame, loc.tag, dirty);
    return stacked_->rowAccess(row, geometry_.tadBytes, true, when)
        .completion;
}

void
AlloyCache::evictFromGroup(std::uint64_t victim_block, Cycle when)
{
    Grouping &g = *groups_;
    const std::uint64_t victim_page = victim_block / g.pageBlocks;
    if (g.inDram) {
        ++g.naiveStats.conflictFills;
        const PageGroupTracker::PageInfo *victim_info =
            g.pages.find(victim_page);
        // The victim page still had other live blocks: its footprint
        // is being truncated mid-residency (Fig. 4a's overlap
        // conflict).
        if (victim_info != nullptr &&
            popCount(victim_info->residentMask) > 1)
            ++g.naiveStats.prematureEvictions;
    }
    PageGroupTracker::PageInfo gone;
    if (!g.pages.removeBlock(
            victim_page,
            static_cast<std::uint32_t>(victim_block % g.pageBlocks),
            gone))
        return;
    // The page's last block left. In SRAM the tracker knows its
    // footprint outright; in-DRAM the hardware would have to
    // reconstruct it by scanning the rows that held the page's blocks.
    // Its TAD slots are consecutive, so one scan of the covering row
    // is charged.
    if (g.inDram)
        chargeRowScan(geometry_.rowOfTad((victim_page * g.pageBlocks) %
                                         geometry_.numTads),
                      when);
    if (gone.touchedMask != 0)
        g.fetchPolicy.trainEviction(gone.pcHash, gone.triggerOffset,
                                    gone.touchedMask);
    accountFootprint(stats_, gone.fetchedMask, gone.touchedMask,
                     gone.fetchedMask);
}

DramCacheResult
AlloyCache::access(const DramCacheRequest &req)
{
    const Location loc = locate(req.addr);
    const std::uint64_t row = geometry_.rowOfTad(loc.frame);
    const bool hit = org_.present(loc.frame, loc.tag);

    DramCacheResult result;
    result.hit = hit;

    if (req.isWrite) {
        ++stats_.writes;
        // Tag check (8 B read), then the block write to the open row.
        const Cycle tag_done =
            stacked_->rowAccess(row, 8, false, req.cycle).completion;
        if (hit) {
            ++stats_.hits;
            org_.markDirty(loc.frame);
            if (groups_) {
                if (PageGroupTracker::PageInfo *info =
                        groups_->pages.find(loc.page)) {
                    info->touchedMask |= 1u << loc.offset;
                    info->fetchedMask |= 1u << loc.offset;
                }
            }
            result.doneAt =
                stacked_->rowAccess(row, kBlockBytes, true, tag_done)
                    .completion;
            return result;
        }
        ++stats_.misses;
        if (groups_) {
            // Write around: footprints must not be trained from
            // writeback PCs.
            result.doneAt = writeback_.writeBlock(req.addr, req.cycle);
            return result;
        }
        // Write-allocate without an off-chip fetch (full-block write).
        result.doneAt = installBlock(loc, tag_done, false, true);
        return result;
    }

    ++stats_.reads;

    bool predicted_hit = true;
    Cycle start = req.cycle;
    if (missPred_) {
        predicted_hit = missPred_->predictHit(req.core, req.pc);
        start += missPred_->config().latency;
        missPred_->train(req.core, req.pc, predicted_hit, hit);
    }

    // The probe: one TAD streamed out in a single access.
    const Cycle tad_done =
        stacked_->rowAccess(row, geometry_.tadBytes, false, start)
            .completion;
    if (hit) {
        ++stats_.hits;
        // A predicted miss already fetched the block from memory.
        if (!predicted_hit)
            fill_.wastedBlock(req.addr, start);
        if (groups_) {
            if (PageGroupTracker::PageInfo *info =
                    groups_->pages.find(loc.page))
                info->touchedMask |= 1u << loc.offset;
        }
        result.doneAt = tad_done;
        return result;
    }

    ++stats_.misses;
    if (groups_) {
        result.doneAt = groupedReadMiss(req, loc, tad_done);
        return result;
    }
    // A predicted hit serializes the memory access behind the in-DRAM
    // tag probe (the AC miss penalty); a predicted miss fetched at
    // once, and the probe only verifies.
    result.doneAt =
        fill_.demandBlock(req.addr, predicted_hit ? tad_done : start);
    installBlock(loc, result.doneAt, true, false);
    return result;
}

Cycle
AlloyCache::groupedReadMiss(const DramCacheRequest &req,
                            const Location &loc, Cycle tad_done)
{
    Grouping &g = *groups_;
    const std::uint32_t bit = 1u << loc.offset;

    // Telling a trigger miss from an underprediction: the SRAM tracker
    // answers outright; with presence information spread over the row
    // (Sec. III-B.1) every TAD tag in the row must be scanned first.
    const Cycle classified =
        g.inDram ? chargeRowScan(geometry_.rowOfTad(loc.frame), tad_done)
                 : tad_done;

    if (g.pages.tracked(loc.page)) {
        // Blocks of this page are resident: an underprediction. Fetch
        // just the demanded block.
        ++stats_.blockMisses;
        const Cycle mem_done = fill_.demandBlock(req.addr, classified);
        installBlock(loc, mem_done, true, false);
        // installBlock may have displaced this very page's tracking if
        // the victim was a sibling; re-find before updating.
        if (PageGroupTracker::PageInfo *info = g.pages.find(loc.page)) {
            info->fetchedMask |= bit;
            info->touchedMask |= bit;
            info->residentMask |= bit;
        }
        return mem_done;
    }

    // Trigger miss: predict the footprint and stream the group in,
    // demanded block first.
    ++stats_.pageMisses;
    const FetchDecision decision = g.fetchPolicy.onTriggerMiss(
        loc.page, req.pc, loc.offset, fullBlockMask(g.pageBlocks));

    const Cycle critical = fill_.demandBlock(req.addr, classified);

    PageGroupTracker::PageInfo info;
    info.pcHash = static_cast<std::uint32_t>(fhtPc(req.pc));
    info.triggerOffset = static_cast<std::uint8_t>(loc.offset);
    info.fetchedMask = bit;
    info.touchedMask = bit;
    info.residentMask = bit;
    g.pages.insert(loc.page, info);
    if (g.inDram)
        g.naiveStats.pageInfoPeak = std::max<std::uint64_t>(
            g.naiveStats.pageInfoPeak, g.pages.size());

    installBlock(loc, critical, true, false);
    if (PageGroupTracker::PageInfo *self = g.pages.find(loc.page))
        self->residentMask |= bit;

    std::uint32_t rest = decision.mask & ~bit;
    const std::uint64_t page_first_block = loc.page * g.pageBlocks;
    while (rest != 0) {
        const std::uint32_t off =
            static_cast<std::uint32_t>(std::countr_zero(rest));
        rest &= rest - 1;
        const Location fl = locate(blockAddress(page_first_block + off));
        const Cycle done =
            fill_.prefetchBlock(blockAddress(fl.block), classified);
        installBlock(fl, done, false, false);
        PageGroupTracker::PageInfo *self = g.pages.find(loc.page);
        if (self == nullptr)
            break; // a sibling fill conflicted this page away entirely
        self->fetchedMask |= 1u << off;
        self->residentMask |= 1u << off;
    }
    return critical;
}

bool
AlloyCache::blockPresent(Addr addr) const
{
    const Location loc = locate(addr);
    return org_.present(loc.frame, loc.tag);
}

bool
AlloyCache::blockDirty(Addr addr) const
{
    const Location loc = locate(addr);
    return org_.present(loc.frame, loc.tag) && org_.dirty(loc.frame);
}

const NaiveBlockFpStats &
AlloyCache::naiveStats() const
{
    UNISON_ASSERT(groups_ != nullptr, name(), " groups no pages");
    return groups_->naiveStats;
}

bool
AlloyCache::pageTracked(Addr addr) const
{
    UNISON_ASSERT(groups_ != nullptr, name(), " groups no pages");
    return groups_->pages.tracked(locate(addr).page);
}

std::size_t
AlloyCache::trackedPages() const
{
    UNISON_ASSERT(groups_ != nullptr, name(), " groups no pages");
    return groups_->pages.size();
}


// -------------------------------------------------- registry entries

DesignInfo
alloyDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::Alloy;
    info.id = "alloy";
    info.name = "Alloy Cache";
    info.shortName = "Alloy";
    info.summary = "direct-mapped block cache, 72B tag-and-data units, "
                   "MAP-I miss predictor (Qureshi & Loh)";
    info.defaults = AlloyConfig{};
    info.knobs = {
        knobBool<AlloyConfig>(
            "missPredictor",
            "MAP-I miss predictor (false: always probe first)",
            &AlloyConfig::missPredictorEnabled),
    };
    info.build = [](const DesignVariant &v,
                    const DesignBuildContext &ctx,
                    MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        AlloyConfig cfg = std::get<AlloyConfig>(v);
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.stackedOrg.backend = ctx.backend;
        cfg.numCores = ctx.numCores;
        return std::make_unique<AlloyCache>(cfg, offchip);
    };
    return info;
}

namespace {

/** The registry entry both splices share: knobs (minus `fhtEntries`
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
        return std::make_unique<AlloyCache>(cfg, offchip, metadata);
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

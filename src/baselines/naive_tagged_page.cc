#include "baselines/naive_tagged_page.hh"

#include "sim/design_registry.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace unison {

NaiveTaggedPageGeometry
NaiveTaggedPageGeometry::compute(std::uint64_t capacity_bytes)
{
    NaiveTaggedPageGeometry g;
    g.capacityBytes = capacity_bytes;
    UNISON_ASSERT(capacity_bytes % kRowBytes == 0,
                  "capacity must be whole DRAM rows");
    g.numRows = capacity_bytes / kRowBytes;
    g.numFrames = g.numRows * g.pagesPerRow;
    g.dataBlocks = g.numFrames * g.pageBlocks;
    g.inDramTagBytes =
        capacity_bytes - g.dataBlocks * kBlockBytes;
    g.pageBlocksDiv.init(g.pageBlocks);
    g.numFramesDiv.init(g.numFrames);
    g.pagesPerRowDiv.init(g.pagesPerRow);
    return g;
}

NaiveTaggedPageCache::NaiveTaggedPageCache(
    const NaiveTaggedPageConfig &config, MemoryBackend *offchip)
    : DramCache(offchip),
      config_(config),
      geometry_(NaiveTaggedPageGeometry::compute(config.capacityBytes)),
      stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming)),
      fetchPolicy_([&] {
          FootprintFetchPolicy::Config c;
          c.fht = config.fhtConfig;
          c.fht.maxBlocksPerPage = 28;
          c.footprintPrediction = config.footprintPredictionEnabled;
          c.singletonBypass = false;
          return c;
      }())
{
    UNISON_ASSERT(offchip != nullptr,
                  "NaiveTaggedPage cache needs a memory pool");
    org_.init(geometry_.pageBlocks, geometry_.numFrames, 1);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

void
NaiveTaggedPageCache::resetStats()
{
    DramCache::resetStats();
    ++statsGen_;
    naiveStats_.reset();
    fetchPolicy_.resetStats();
}

void
NaiveTaggedPageCache::evictFrame(std::uint64_t frame, Cycle when)
{
    const std::size_t idx = frame;
    UNISON_ASSERT(frames().valid(idx), "evicting an empty frame");

    // Sec. III-B.2: no footprint summary exists, so the page's TAD
    // headers (28 x 8 B) are all read back to find the valid and dirty
    // blocks before the frame can be reused.
    const std::uint32_t scan_bytes = geometry_.pageBlocks * 8;
    ++naiveStats_.evictionScans;
    naiveStats_.scanBytes += scan_bytes;
    const Cycle scan_done =
        stacked_
            ->rowAccess(geometry_.rowOfFrame(frame), scan_bytes, false,
                        when)
            .completion;

    // The (PC, offset) word sits at a fixed position, so training the
    // FHT needs no extra access beyond the header scan above.
    const std::uint64_t page = org_.pageOf(frame, 0);
    evictPageWay(
        frames(), idx, writeback_, *stacked_, geometry_.rowOfFrame(frame),
        [&](std::uint32_t off) { return blockAddrOf(page, off); },
        scan_done, fetchPolicy_, stats_, statsGen_);
}

DramCacheResult
NaiveTaggedPageCache::access(const DramCacheRequest &req)
{
    const Location loc = locate(req.addr);
    const std::size_t idx = loc.set;
    const std::uint64_t row = geometry_.rowOfFrame(loc.set);
    const std::uint32_t bit = 1u << loc.offset;
    const bool page_hit =
        frames().tagv[idx] == (PageWaySoa::kValid | loc.tag);
    const bool block_hit =
        page_hit && (frames().hot[idx].fetched & bit) != 0;

    DramCacheResult result;
    result.hit = block_hit;

    if (req.isWrite) {
        ++stats_.writes;
        if (block_hit) {
            ++stats_.hits;
            frames().hot[idx].touched |= bit;
            frames().hot[idx].dirty |= bit;
            result.doneAt =
                stacked_
                    ->rowAccess(row, geometry_.tadBytes, true, req.cycle)
                    .completion;
            return result;
        }
        ++stats_.misses;
        if (page_hit) {
            // Full-block write into the resident page: becomes valid
            // and dirty without an off-chip fetch.
            ++stats_.blockMisses;
            frames().hot[idx].fetched |= bit;
            frames().hot[idx].touched |= bit;
            frames().hot[idx].dirty |= bit;
            result.doneAt =
                stacked_
                    ->rowAccess(row, geometry_.tadBytes, true, req.cycle)
                    .completion;
            return result;
        }
        // Write-no-allocate: non-resident pages are not allocated from
        // writebacks (same policy as the other page-based designs).
        ++stats_.pageMisses;
        result.doneAt = writeback_.writeBlock(req.addr, req.cycle);
        return result;
    }

    ++stats_.reads;

    // The probe streams the block's own TAD in a single access -- the
    // one genuine benefit this organization keeps from Alloy Cache.
    const Cycle tad_done =
        stacked_->rowAccess(row, geometry_.tadBytes, false, req.cycle)
            .completion;

    if (block_hit) {
        ++stats_.hits;
        frames().hot[idx].touched |= bit;
        result.doneAt = tad_done;
        return result;
    }

    ++stats_.misses;

    if (page_hit) {
        // Underprediction: the TAD read already proves the block is
        // absent; fetch only it.
        ++stats_.blockMisses;
        const Cycle mem_done = fill_.demandBlock(req.addr, tad_done);
        frames().hot[idx].fetched |= bit;
        frames().hot[idx].touched |= bit;
        stacked_->rowAccess(row, geometry_.tadBytes, true, mem_done);
        result.doneAt = mem_done;
        return result;
    }

    // Trigger miss: evict the resident page, then fetch the predicted
    // footprint.
    ++stats_.pageMisses;
    Cycle insert_start = tad_done;
    if (frames().valid(idx)) {
        evictFrame(loc.set, tad_done);
        insert_start = tad_done;
    }

    const FetchDecision decision = fetchPolicy_.onTriggerMiss(
        loc.page, req.pc, loc.offset, fullMask());
    const std::uint32_t predicted = decision.mask;

    const FillEngine::FootprintFetch fetch = fill_.fetchFootprint(
        [&](std::uint32_t off) { return blockAddrOf(loc.page, off); },
        predicted, loc.offset, insert_start, insert_start);

    // Insertion writes the fetched TADs *and* must rewrite the tag
    // word / reset the valid bit of every non-fetched TAD in the page
    // (Sec. III-B.2's extra DRAM writes).
    const std::uint32_t fetched = popCount(predicted);
    const std::uint32_t unfetched = geometry_.pageBlocks - fetched;
    naiveStats_.extraTagWrites += unfetched;
    stacked_->rowAccess(row,
                        fetched * geometry_.tadBytes + unfetched * 8 + 8,
                        true, fetch.lastDone);

    frames().install(idx,
                     {loc.tag,
                      static_cast<std::uint32_t>(fhtPc(req.pc)),
                      static_cast<std::uint8_t>(loc.offset),
                      predicted, predicted, bit, /*lastUse=*/0,
                      statsGen_});

    result.doneAt = fetch.critical;
    return result;
}

bool
NaiveTaggedPageCache::pagePresent(Addr addr) const
{
    const Location loc = locate(addr);
    return frames().tagv[loc.set] == (PageWaySoa::kValid | loc.tag);
}

bool
NaiveTaggedPageCache::blockPresent(Addr addr) const
{
    const Location loc = locate(addr);
    return frames().tagv[loc.set] == (PageWaySoa::kValid | loc.tag) &&
           (frames().hot[loc.set].fetched & (1u << loc.offset)) != 0;
}

bool
NaiveTaggedPageCache::blockDirty(Addr addr) const
{
    const Location loc = locate(addr);
    return frames().tagv[loc.set] == (PageWaySoa::kValid | loc.tag) &&
           (frames().hot[loc.set].dirty & (1u << loc.offset)) != 0;
}


// --------------------------------------------------- registry entry

DesignInfo
naiveTaggedPageDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::NaiveTaggedPage;
    info.id = "naivetaggedpage";
    info.name = "Naive tagged-page";
    info.shortName = "Tagged-page";
    info.summary = "rejected Sec. III-B.2 splice: page-based array "
                   "with per-block replicated tags";
    info.defaults = NaiveTaggedPageConfig{};
    info.knobs = {
        knobBool<NaiveTaggedPageConfig>(
            "footprintPrediction",
            "fetch predicted footprints (false: whole pages)",
            &NaiveTaggedPageConfig::footprintPredictionEnabled),
    };
    info.build = [](const DesignVariant &v,
                    const DesignBuildContext &ctx,
                    MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        NaiveTaggedPageConfig cfg = std::get<NaiveTaggedPageConfig>(v);
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.stackedOrg.backend = ctx.backend;
        return std::make_unique<NaiveTaggedPageCache>(cfg, offchip);
    };
    return info;
}

} // namespace unison

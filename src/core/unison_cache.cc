/**
 * @file
 * The Unison Cache body, and the registry entries of its two designs:
 * `unison` (tags in the stacked DRAM rows) and `footprint` (Footprint
 * Cache: the same body with SRAM tags, 2 KB pages and 32-way sets).
 */

#include "core/unison_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/design_registry.hh"

namespace unison {

// ------------------------------------------------------ cache body

UnisonCache::UnisonCache(const UnisonConfig &config,
                         MemoryBackend *offchip,
                         std::optional<Cycle> sram_tag_latency)
    : DramCache(offchip, sram_tag_latency ? DramCacheKind::Footprint
                                          : DramCacheKind::Unison),
      config_(config),
      sramTagLatency_(sram_tag_latency),
      geometry_(UnisonGeometry::compute(config.capacityBytes,
                                        config.pageBlocks, config.assoc,
                                        /*phys_addr_bits=*/40,
                                        sram_tag_latency.has_value())),
      stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming)),
      wayPred_(config, geometry_.numSets),
      fetchPolicy_([&] {
          FootprintFetchPolicy::Config c;
          c.fht = config.fhtConfig;
          c.fht.maxBlocksPerPage = config.pageBlocks;
          c.singleton = config.singletonConfig;
          c.footprintPrediction = config.footprintPredictionEnabled;
          c.singletonBypass = config.singletonEnabled;
          return c;
      }())
{
    UNISON_ASSERT(offchip != nullptr, "Unison Cache needs a memory pool");
    UNISON_ASSERT(config_.pageBlocks <= kMaxPageBlocks,
                  "page masks are 32 bits wide; pageBlocks = ",
                  config_.pageBlocks);
    UNISON_ASSERT(!sramTagLatency_ ||
                      config_.wayPolicy == UnisonWayPolicy::SerialTag,
                  "SRAM tags resolve before the data read: serial-tag");
    if (config_.missPolicy == UnisonMissPolicy::MapI) {
        MissPredictorConfig mp;
        mp.numCores = config_.numCores;
        missPred_ = std::make_unique<MissPredictor>(mp);
    }
    org_.init(config_.pageBlocks, geometry_.numSets, config_.assoc);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

std::string
UnisonCache::name() const
{
    if (sramTagLatency_)
        return "Footprint";
    std::string suffix;
    if (config_.wayPolicy == UnisonWayPolicy::PredictMru)
        suffix = "+wp=mru";
    else if (config_.wayPolicy == UnisonWayPolicy::PredictStatic0)
        suffix = "+wp=static0";
    return "Unison-" + std::to_string(config_.pageBlocks * kBlockBytes) +
           "B-" + std::to_string(config_.assoc) + "way" + suffix;
}

void
UnisonCache::resetStats()
{
    DramCache::resetStats();
    ++statsGen_;
    wayPred_.resetStats();
    fetchPolicy_.resetStats();
    if (missPred_)
        missPred_->resetStats();
}

Cycle
UnisonCache::issueDataProbe(const Location &loc, std::uint32_t pred_way,
                            Cycle start)
{
    // Issued right behind the tag burst: back-to-back commands to the
    // same row; the channel model overlaps the row activation and
    // serializes only the bus bursts (Sec. III-A).
    if (config_.wayPolicy == UnisonWayPolicy::SerialTag)
        return 0;

    if (config_.wayPolicy == UnisonWayPolicy::FetchAll) {
        // Stream every way of the set (possibly from several rows).
        const std::uint64_t tag_row = geometry_.rowOfSet(loc.set);
        Cycle done = 0;
        if (geometry_.rowsPerSet == 1) {
            done = stacked_
                       ->rowAccess(tag_row,
                                   config_.assoc * kBlockBytes,
                                   false, start)
                       .completion;
        } else {
            for (std::uint32_t r = 0; r < geometry_.rowsPerSet; ++r) {
                done = std::max(
                    done,
                    stacked_
                        ->rowAccess(tag_row + r,
                                    geometry_.waysPerRow * kBlockBytes,
                                    false, start)
                        .completion);
            }
        }
        return done;
    }

    const std::uint64_t data_row = geometry_.dataRowOfWay(loc.set,
                                                          pred_way);
    return stacked_->rowAccess(data_row, kBlockBytes, false, start)
        .completion;
}

DramCacheResult
UnisonCache::serveBlockHit(
    const DramCacheRequest &req, const Location &loc, int way,
    std::uint32_t pred_way, Cycle tag_done, Cycle data_done)
{
    const std::size_t idx = setBase(loc.set) + way;
    const std::uint32_t bit = blockBit(loc.offset);

    ++stats_.hits;
    ways().hot[idx].touched |= bit;
    if (req.isWrite)
        ways().hot[idx].dirty |= bit;
    ways().hot[idx].lastUse = ++useCounter_;

    DramCacheResult result;
    result.hit = true;

    if (req.isWrite) {
        // Tag check resolved the way; then the block write goes to the
        // (open) row. Writes are posted: done when accepted.
        result.doneAt = stacked_
                            ->rowAccess(geometry_.dataRowOfWay(loc.set,
                                                               way),
                                        kBlockBytes, true, tag_done)
                            .completion;
        if (config_.assoc > 1 && predictsWay(config_.wayPolicy))
            wayPred_.train(loc.page, loc.set,
                           static_cast<std::uint32_t>(way));
        return result;
    }

    switch (config_.wayPolicy) {
      case UnisonWayPolicy::Predict:
      case UnisonWayPolicy::PredictMru:
      case UnisonWayPolicy::PredictStatic0: {
        const bool correct =
            static_cast<std::uint32_t>(way) == pred_way ||
            config_.assoc == 1;
        if (config_.assoc > 1) {
            wayPred_.recordOutcome(correct);
            wayPred_.train(loc.page, loc.set,
                           static_cast<std::uint32_t>(way));
        }
        if (correct) {
            result.doneAt = data_done;
        } else {
            // Way mispredict: re-read the correct way. The row is now
            // open, so this is a cheap row-buffer hit (Sec. III-A.6).
            result.doneAt =
                stacked_
                    ->rowAccess(geometry_.dataRowOfWay(loc.set, way),
                                kBlockBytes, false,
                                std::max(tag_done, data_done))
                    .completion;
        }
        break;
      }
      case UnisonWayPolicy::FetchAll:
        result.doneAt = std::max(tag_done, data_done);
        break;
      case UnisonWayPolicy::SerialTag:
        result.doneAt =
            stacked_
                ->rowAccess(geometry_.dataRowOfWay(loc.set, way),
                            kBlockBytes, false, tag_done)
                .completion;
        break;
    }
    return result;
}

DramCacheResult
UnisonCache::serveBlockMiss(
    const DramCacheRequest &req, const Location &loc, int way,
    Cycle tag_done)
{
    const std::size_t idx = setBase(loc.set) + way;
    const std::uint32_t bit = blockBit(loc.offset);

    ++stats_.misses;
    ++stats_.blockMisses;
    ways().hot[idx].lastUse = ++useCounter_;

    DramCacheResult result;
    result.hit = false;

    const std::uint64_t data_row = geometry_.dataRowOfWay(loc.set, way);
    if (req.isWrite) {
        // Full-block write allocation: no off-chip fetch needed.
        ways().hot[idx].fetched |= bit;
        ways().hot[idx].touched |= bit;
        ways().hot[idx].dirty |= bit;
        result.doneAt = stacked_
                            ->rowAccess(data_row, kBlockBytes, true,
                                        tag_done)
                            .completion;
        return result;
    }

    // Underprediction (Sec. III-A.3): fetch just the missing block.
    // The miss is detected after the in-DRAM tag resolves.
    const Cycle mem_done = fill_.demandBlock(req.addr, tag_done);
    ways().hot[idx].fetched |= bit;
    ways().hot[idx].touched |= bit; // eviction propagates the correction

    // Background fill of the block into the stacked row.
    stacked_->rowAccess(data_row, kBlockBytes, true, mem_done);
    result.doneAt = mem_done;
    return result;
}

void
UnisonCache::evictPage(std::uint64_t set, int way, Cycle when)
{
    const std::size_t idx = setBase(set) + way;
    const std::uint64_t page =
        org_.pageOf(set, static_cast<std::uint32_t>(way));

    // The stored (PC, offset) pair is read from the row only now, at
    // eviction, and used to train the FHT with the observed footprint;
    // dirty blocks leave as one batched read plus per-block writes
    // (footprint-granular transfers, the Sec. V-D energy advantage).
    evictPageWay(
        ways(), idx, writeback_, *stacked_,
        geometry_.dataRowOfWay(set, static_cast<std::uint32_t>(way)),
        [&](std::uint32_t off) { return blockAddrOf(page, off); }, when,
        fetchPolicy_, stats_, statsGen_);
}

DramCacheResult
UnisonCache::serveTriggerMiss(
    const DramCacheRequest &req, const Location &loc, Cycle tag_done,
    Cycle offchip_head_start, bool offchip_started)
{
    ++stats_.misses;
    ++stats_.pageMisses;

    if (req.isWrite) {
        // Write-no-allocate: an L2 writeback whose page is not
        // resident goes straight to memory. Allocating here would
        // evict a useful page and (worse) fetch a footprint predicted
        // from a trigger PC that has nothing to do with this data.
        DramCacheResult result;
        result.hit = false;
        result.doneAt = writeback_.writeBlock(
            blockAddrOf(loc.page, loc.offset), tag_done);
        return result;
    }

    // Footprint prediction for the trigger (PC, offset), including the
    // singleton promotion check (Sec. III-A.4).
    const FetchDecision decision = fetchPolicy_.onTriggerMiss(
        loc.page, req.pc, loc.offset, fullPageMask());

    DramCacheResult result;
    result.hit = false;

    // Singleton bypass: serve the block straight from memory without
    // allocating a page.
    if (decision.bypassSingleton) {
        ++stats_.singletonBypasses;
        result.doneAt = fill_.demandBlock(
            blockAddrOf(loc.page, loc.offset),
            offchip_started ? offchip_head_start : tag_done);
        fetchPolicy_.noteBypass(loc.page, req.pc, loc.offset);
        return result;
    }

    // Allocate: evict the victim way first.
    const int victim = org_.pickVictim(loc.set);
    const std::size_t idx = setBase(loc.set) + victim;
    if (ways().valid(idx))
        evictPage(loc.set, victim, tag_done);

    // Fetch the predicted footprint, demanded block first; remaining
    // blocks stream behind the critical one sharing the memory row.
    const std::uint32_t fetch_mask = decision.mask;
    const FillEngine::FootprintFetch fetch = fill_.fetchFootprint(
        [&](std::uint32_t off) { return blockAddrOf(loc.page, off); },
        fetch_mask, loc.offset, tag_done,
        offchip_started ? offchip_head_start : tag_done);

    // Fill the page (data + metadata) into the stacked row.
    stacked_->rowAccess(geometry_.dataRowOfWay(loc.set, victim),
                        popCount(fetch_mask) * kBlockBytes +
                            geometry_.pageMetaBytes,
                        true, fetch.lastDone);

    // Install the page metadata (Fig. 2: tag, bit vectors, PC+offset).
    ways().install(idx,
                   {loc.tag,
                    static_cast<std::uint32_t>(fhtPc(req.pc)),
                    static_cast<std::uint8_t>(loc.offset),
                    decision.mask, fetch_mask, blockBit(loc.offset),
                    ++useCounter_, statsGen_});

    if (config_.assoc > 1 && predictsWay(config_.wayPolicy))
        wayPred_.train(loc.page, loc.set,
                       static_cast<std::uint32_t>(victim));

    result.doneAt = fetch.critical;
    return result;
}

DramCacheResult
UnisonCache::access(const DramCacheRequest &req)
{
    const Location loc = locate(req.addr);
    if (req.isWrite)
        ++stats_.writes;
    else
        ++stats_.reads;

    // Miss-policy speculation (reads only; writes always probe).
    bool predicted_hit = true;
    Cycle start = req.cycle;
    if (missPred_ && !req.isWrite) {
        predicted_hit = missPred_->predictHit(req.core, req.pc);
        start += missPred_->config().latency;
    }

    const std::uint32_t pred_way =
        (config_.assoc > 1 && predictsWay(config_.wayPolicy))
            ? wayPred_.predict(loc.page, loc.set)
            : 0;

    // Probe: tag resolve (+ overlapped speculative data read for reads).
    const Cycle tag_done = resolveTag(loc.set, start);
    const Cycle data_done =
        req.isWrite ? 0 : issueDataProbe(loc, pred_way, start);

    const int way = findWay(loc.set, loc.tag);
    const bool block_hit =
        way >= 0 &&
        (ways().hot[setBase(loc.set) + way].fetched &
         blockBit(loc.offset)) != 0;

    // MAP-I ablation: train, and account for speculative memory reads.
    bool offchip_started = false;
    Cycle offchip_head_start = tag_done;
    if (missPred_ && !req.isWrite) {
        missPred_->train(req.core, req.pc, predicted_hit, block_hit);
        if (!predicted_hit) {
            if (block_hit) {
                // Useless fetch: the block was in the cache.
                fill_.wastedBlock(req.addr, start);
            } else {
                offchip_started = true;
                offchip_head_start = start;
            }
        }
    }

    if (way >= 0) {
        if (block_hit)
            return serveBlockHit(req, loc, way, pred_way, tag_done,
                                 data_done);
        return serveBlockMiss(req, loc, way, tag_done);
    }
    return serveTriggerMiss(req, loc, tag_done, offchip_head_start,
                            offchip_started);
}

bool
UnisonCache::pagePresent(Addr addr) const
{
    const Location loc = locate(addr);
    return findWay(loc.set, loc.tag) >= 0;
}

bool
UnisonCache::blockPresent(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].fetched &
            blockBit(loc.offset)) != 0;
}

bool
UnisonCache::blockDirty(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].dirty &
            blockBit(loc.offset)) != 0;
}

bool
UnisonCache::blockTouched(Addr addr) const
{
    const Location loc = locate(addr);
    const int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    return (ways().hot[setBase(loc.set) + way].touched &
            blockBit(loc.offset)) != 0;
}

// ------------------------------------------------- registry entries

DesignInfo
unisonDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::Unison;
    info.id = "unison";
    info.name = "Unison Cache";
    info.shortName = "Unison";
    info.summary = "page-based, 4-way, in-DRAM tags read in unison "
                   "with the data (the paper's design)";
    info.defaults = UnisonConfig{};
    info.knobs = {
        knobUInt<UnisonConfig>(
            "pageBlocks", "blocks per page (15 = 960B, 31 = 1984B)",
            &UnisonConfig::pageBlocks, 1, kMaxPageBlocks),
        knobUInt<UnisonConfig>("assoc", "set associativity",
                               &UnisonConfig::assoc, 1, 32),
        knobEnum<UnisonConfig>(
            "wayPolicy",
            "way location (predict = the paper's hashed predictor)",
            &UnisonConfig::wayPolicy,
            {{"predict", UnisonWayPolicy::Predict},
             {"predict-mru", UnisonWayPolicy::PredictMru},
             {"predict-static0", UnisonWayPolicy::PredictStatic0},
             {"fetch-all", UnisonWayPolicy::FetchAll},
             {"serial-tag", UnisonWayPolicy::SerialTag}}),
        knobEnum<UnisonConfig>(
            "missPolicy", "hit speculation: always-hit / map-i",
            &UnisonConfig::missPolicy,
            {{"always-hit", UnisonMissPolicy::AlwaysHit},
             {"map-i", UnisonMissPolicy::MapI}}),
        knobBool<UnisonConfig>(
            "footprintPrediction",
            "fetch predicted footprints (false: whole pages)",
            &UnisonConfig::footprintPredictionEnabled),
        knobBool<UnisonConfig>(
            "singletonPrediction",
            "bypass pages predicted to be singletons",
            &UnisonConfig::singletonEnabled),
        knobUIntFn<UnisonConfig, std::uint32_t>(
            "fhtEntries", "footprint history table entries",
            [](UnisonConfig &c) -> std::uint32_t & {
                return c.fhtConfig.numEntries;
            },
            1, 1u << 24),
        knobUIntFn<UnisonConfig, std::uint32_t>(
            "fhtAssoc", "footprint history table associativity",
            [](UnisonConfig &c) -> std::uint32_t & {
                return c.fhtConfig.assoc;
            },
            1, 64),
        knobUInt<UnisonConfig>(
            "wayPredictorIndexBits",
            "way predictor index width (0 = paper sizing)",
            &UnisonConfig::wayPredictorIndexBits, 0, 24),
    };
    info.validate = [](const DesignVariant &v,
                       const DesignBuildContext &) -> std::string {
        const UnisonConfig &c = std::get<UnisonConfig>(v);
        if (std::string fht = validateFhtShape(c.fhtConfig); !fht.empty())
            return fht;
        if (c.wayPredictorIndexBits != 0 && c.wayPredictorIndexBits < 4)
            return "wayPredictorIndexBits must be 0 (auto) or >= 4";
        return "";
    };
    info.build = [](const DesignVariant &v,
                    const DesignBuildContext &ctx,
                    MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        UnisonConfig cfg = std::get<UnisonConfig>(v);
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.stackedOrg.backend = ctx.backend;
        cfg.numCores = ctx.numCores;
        return std::make_unique<UnisonCache>(cfg, offchip);
    };
    return info;
}

DesignInfo
footprintDesignInfo()
{
    DesignInfo info;
    info.kind = DesignKind::Footprint;
    info.id = "footprint";
    info.name = "Footprint Cache";
    info.shortName = "Footprint";
    info.summary = "page-based, 32-way, SRAM tag array that grows with "
                   "capacity (Jevdjic et al., ISCA'13)";
    info.defaults = FootprintCacheConfig{};
    info.knobs = {
        knobBool<FootprintCacheConfig>(
            "footprintPrediction",
            "fetch predicted footprints (false: whole pages)",
            &FootprintCacheConfig::footprintPredictionEnabled),
        knobBool<FootprintCacheConfig>(
            "singletonPrediction",
            "bypass pages predicted to be singletons",
            &FootprintCacheConfig::singletonEnabled),
        knobUInt<FootprintCacheConfig>(
            "tagLatency",
            "SRAM tag latency override in cycles (0 = Table IV)",
            &FootprintCacheConfig::tagLatencyOverride, 0, 1000),
    };
    info.build = [](const DesignVariant &v,
                    const DesignBuildContext &ctx,
                    MemoryBackend *offchip) -> std::unique_ptr<DramCache> {
        const FootprintCacheConfig &fc = std::get<FootprintCacheConfig>(v);
        const FootprintGeometry g =
            FootprintGeometry::compute(ctx.capacityBytes);
        UnisonConfig cfg;
        cfg.capacityBytes = ctx.capacityBytes;
        cfg.pageBlocks = g.pageBlocks;
        cfg.assoc = g.assoc;
        cfg.wayPolicy = UnisonWayPolicy::SerialTag;
        cfg.footprintPredictionEnabled = fc.footprintPredictionEnabled;
        cfg.singletonEnabled = fc.singletonEnabled;
        cfg.stackedOrg.backend = ctx.backend;
        return std::make_unique<UnisonCache>(
            cfg, offchip,
            fc.tagLatencyOverride != 0 ? fc.tagLatencyOverride
                                       : g.tagLatency);
    };
    return info;
}

} // namespace unison

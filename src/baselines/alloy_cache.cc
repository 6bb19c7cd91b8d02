#include "baselines/alloy_cache.hh"

#include "sim/design_registry.hh"

#include "common/logging.hh"

namespace unison {

AlloyCache::AlloyCache(const AlloyConfig &config, MemoryBackend *offchip)
    : DramCache(offchip, DramCacheKind::Alloy),
      config_(config),
      geometry_(AlloyGeometry::compute(config.capacityBytes)),
      stacked_(makeMemoryBackend(config.stackedOrg, config.stackedTiming))
{
    UNISON_ASSERT(offchip != nullptr, "Alloy Cache needs a memory pool");
    if (config_.missPredictorEnabled) {
        MissPredictorConfig mp;
        mp.numCores = config_.numCores;
        missPred_ = std::make_unique<MissPredictor>(mp);
    }
    org_.init(geometry_.numTads);
    fill_.init(offchip, &stats_);
    writeback_.init(offchip, &stats_);
}

void
AlloyCache::resetStats()
{
    DramCache::resetStats();
    if (missPred_)
        missPred_->resetStats();
}

DramCacheResult
AlloyCache::access(const DramCacheRequest &req)
{
    std::uint64_t tad_idx;
    std::uint64_t tag;
    org_.locate(blockNumber(req.addr), tad_idx, tag);
    const std::uint64_t row = geometry_.rowOfTad(tad_idx);
    const bool hit = org_.present(tad_idx, tag);

    DramCacheResult result;
    result.hit = hit;

    if (req.isWrite) {
        ++stats_.writes;
        // Tag check (8 B read), then the block write to the open row.
        const Cycle tag_done =
            stacked_->rowAccess(row, 8, false, req.cycle).completion;
        if (hit) {
            ++stats_.hits;
            org_.markDirty(tad_idx);
            result.doneAt =
                stacked_->rowAccess(row, kBlockBytes, true, tag_done)
                    .completion;
            return result;
        }
        // Write-allocate without an off-chip fetch (full-block write).
        ++stats_.misses;
        if (org_.valid(tad_idx)) {
            ++stats_.evictions;
            if (org_.dirty(tad_idx)) {
                const Cycle victim_read =
                    stacked_->rowAccess(row, kBlockBytes, false, tag_done)
                        .completion;
                writeback_.writeBlock(
                    blockAddress(org_.blockOf(tad_idx)), victim_read);
            }
        }
        org_.install(tad_idx, tag, true);
        result.doneAt =
            stacked_->rowAccess(row, geometry_.tadBytes, true, tag_done)
                .completion;
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

    if (predicted_hit) {
        // Probe first: one TAD streamed out in a single access.
        const Cycle tad_done =
            stacked_->rowAccess(row, geometry_.tadBytes, false, start)
                .completion;
        if (hit) {
            ++stats_.hits;
            result.doneAt = tad_done;
            return result;
        }
        // Predicted hit, actual miss: memory access is serialized
        // behind the in-DRAM tag probe (the AC miss penalty).
        ++stats_.misses;
        result.doneAt = fill_.demandBlock(req.addr, tad_done);
    } else {
        // Predicted miss: fetch from memory immediately; the probe
        // only verifies (issued in parallel).
        const Cycle tad_done =
            stacked_->rowAccess(row, geometry_.tadBytes, false, start)
                .completion;
        if (hit) {
            // Useless memory fetch for a block we already have.
            ++stats_.hits;
            fill_.wastedBlock(req.addr, start);
            result.doneAt = tad_done;
            return result;
        }
        ++stats_.misses;
        const Cycle mem_done = fill_.demandBlock(req.addr, start);
        result.doneAt = std::max(mem_done, Cycle(0));
    }

    // Allocate the fetched block (evicting the direct-mapped victim).
    if (org_.valid(tad_idx)) {
        ++stats_.evictions;
        if (org_.dirty(tad_idx)) {
            // The victim's data arrived with the probe; write it back.
            writeback_.writeBlock(blockAddress(org_.blockOf(tad_idx)),
                                  result.doneAt);
        }
    }
    org_.install(tad_idx, tag, false);
    stacked_->rowAccess(row, geometry_.tadBytes, true, result.doneAt);
    return result;
}

bool
AlloyCache::blockPresent(Addr addr) const
{
    std::uint64_t tad_idx;
    std::uint64_t tag;
    org_.locate(blockNumber(addr), tad_idx, tag);
    return org_.present(tad_idx, tag);
}

bool
AlloyCache::blockDirty(Addr addr) const
{
    std::uint64_t tad_idx;
    std::uint64_t tag;
    org_.locate(blockNumber(addr), tad_idx, tag);
    return org_.present(tad_idx, tag) && org_.dirty(tad_idx);
}


// --------------------------------------------------- registry entry

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

} // namespace unison

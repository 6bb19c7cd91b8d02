/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's hot components:
 * predictor lookups, SRAM cache accesses, DRAM
 * channel timing, full Unison Cache accesses, and workload generation.
 * These guard the simulation throughput that the figure-level benches
 * depend on.
 */

#include <benchmark/benchmark.h>

#include "baselines/alloy_cache.hh"
#include "cache/sram_cache.hh"
#include "core/conflict_model.hh"
#include "common/rng.hh"
#include "core/unison_cache.hh"
#include "dram/dram.hh"
#include "predictors/footprint_table.hh"
#include "predictors/way_predictor.hh"
#include "trace/presets.hh"
#include "trace/workload.hh"

namespace {

using namespace unison;

void
BM_FootprintTableLookup(benchmark::State &state)
{
    FootprintHistoryTable fht(FootprintTableConfig{});
    for (Pc pc = 0; pc < 4096; ++pc)
        fht.update(0x400000 + pc * 4, pc % 15, 0x3f);
    Rng rng(2);
    std::uint64_t mask;
    for (auto _ : state) {
        fht.predict(0x400000 + (rng.next() % 4096) * 4,
                    rng.next() % 15, mask);
        benchmark::DoNotOptimize(mask);
    }
}
BENCHMARK(BM_FootprintTableLookup);

void
BM_WayPredictor(benchmark::State &state)
{
    WayPredictor wp(12, 4);
    Rng rng(3);
    for (auto _ : state) {
        const std::uint64_t page = rng.next() >> 30;
        benchmark::DoNotOptimize(wp.predict(page));
        wp.train(page, static_cast<std::uint32_t>(page & 3));
    }
}
BENCHMARK(BM_WayPredictor);

void
BM_SramCacheAccess(benchmark::State &state)
{
    SramCacheConfig cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.assoc = 8;
    SetAssocCache cache(cfg);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(blockAddress(rng.next() % 8192), false).hit);
    }
}
BENCHMARK(BM_SramCacheAccess);

void
BM_DramChannelAccess(benchmark::State &state)
{
    DramModule dram(stackedDramOrganization(), stackedDramTiming());
    Rng rng(5);
    Cycle clock = 0;
    for (auto _ : state) {
        clock += 50;
        benchmark::DoNotOptimize(
            dram.rowAccess(rng.next() % 131072, 64, false, clock)
                .completion);
    }
}
BENCHMARK(BM_DramChannelAccess);

void
BM_UnisonCacheAccess(benchmark::State &state)
{
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    UnisonConfig cfg;
    cfg.capacityBytes = 64_MiB;
    UnisonCache cache(cfg, &offchip);
    Rng rng(6);
    Cycle clock = 0;
    for (auto _ : state) {
        clock += 200;
        DramCacheRequest req;
        req.addr = blockAddress(rng.next() % (256_MiB / kBlockBytes));
        req.pc = 0x400000 + (rng.next() % 512) * 4;
        req.isWrite = (rng.next() & 7) == 0;
        req.cycle = clock;
        benchmark::DoNotOptimize(cache.access(req).doneAt);
    }
}
BENCHMARK(BM_UnisonCacheAccess);

void
BM_AlloyCacheAccess(benchmark::State &state)
{
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    AlloyConfig cfg;
    cfg.capacityBytes = 64_MiB;
    AlloyCache cache(cfg, &offchip);
    Rng rng(7);
    Cycle clock = 0;
    for (auto _ : state) {
        clock += 200;
        DramCacheRequest req;
        req.addr = blockAddress(rng.next() % (256_MiB / kBlockBytes));
        req.pc = 0x400000 + (rng.next() % 512) * 4;
        req.cycle = clock;
        benchmark::DoNotOptimize(cache.access(req).doneAt);
    }
}
BENCHMARK(BM_AlloyCacheAccess);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    WorkloadParams params = workloadParams(Workload::WebServing);
    SyntheticWorkload workload(params, 42);
    MemoryAccess acc;
    int core = 0;
    for (auto _ : state) {
        workload.next(core, acc);
        core = (core + 1) % params.numCores;
        benchmark::DoNotOptimize(acc.addr);
    }
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_NaiveBlockFpAccess(benchmark::State &state)
{
    // The rejected Fig. 4a design carries a side table and row scans;
    // its model cost per access bounds how expensive the alternatives
    // bench can get.
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    NaiveBlockFpConfig cfg;
    cfg.capacityBytes = 64_MiB;
    AlloyCache cache(cfg, &offchip, BlockFpMetadata::InDram);
    Rng rng(11);
    Cycle clock = 0;
    for (auto _ : state) {
        clock += 200;
        DramCacheRequest req;
        req.addr = blockAddress(rng.next() % (256_MiB / kBlockBytes));
        req.pc = 0x400000 + (rng.next() % 512) * 4;
        req.cycle = clock;
        benchmark::DoNotOptimize(cache.access(req).doneAt);
    }
}
BENCHMARK(BM_NaiveBlockFpAccess);

void
BM_ConflictModelEvaluation(benchmark::State &state)
{
    // The Poisson conflict proxy is evaluated inside planning loops
    // (capacity_planner, analytical bench); keep it cheap.
    Rng rng(13);
    for (auto _ : state) {
        const double lambda = 0.25 + (rng.next() % 16) * 0.25;
        const std::uint32_t assoc = 1u << (rng.next() % 6);
        benchmark::DoNotOptimize(
            expectedConflictFractionLambda(lambda, assoc));
    }
}
BENCHMARK(BM_ConflictModelEvaluation);

} // namespace

BENCHMARK_MAIN();

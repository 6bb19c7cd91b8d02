/**
 * @file
 * The paper's central latency claim, measured directly: Unison Cache
 * overlaps the per-page tag burst with the way-predicted data read, so
 * its unloaded hit latency matches Alloy Cache's single TAD stream
 * (Sec. III-A, first insight) -- while Footprint Cache pays its SRAM
 * tag latency in front of the data access (Table II's
 * "Hit Latency" row). These tests build each design on an idle system
 * and compare second-access (warm, unloaded) hit latencies.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dram/dram.hh"
#include "sim/experiment.hh"

namespace unison {
namespace {

constexpr std::uint64_t kCapacity = 64_MiB;
constexpr Cycle kGap = 100'000; //!< idle time between probes

/** Unloaded warm-hit latency of a design for one block address. */
Cycle
warmHitLatency(DesignKind kind, int warm_accesses = 3)
{
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    ExperimentSpec spec;
    spec.design = kind;
    spec.capacityBytes = kCapacity;
    auto cache = makeCacheFactory(spec)(&offchip);

    DramCacheRequest req;
    req.addr = blockAddress(12'345);
    req.pc = 0x4000;
    req.cycle = kGap;

    // First access allocates; repeats train the way predictor and
    // settle any metadata. Generous idle gaps keep banks quiesced.
    DramCacheResult last{};
    for (int i = 0; i < warm_accesses; ++i) {
        req.cycle += kGap;
        last = cache->access(req);
    }
    EXPECT_TRUE(last.hit) << designName(kind) << " failed to warm";
    return last.doneAt - req.cycle;
}

TEST(HitLatency, UnisonMatchesAlloyWithinTagBurst)
{
    // Sec. III-A: "the reads are not serialized and therefore the
    // latency ends up being the same as for reading a TAD", modulo
    // the two-cycle tag burst (Sec. III-A.6). Allow a few cycles for
    // burst-size differences (72 B TAD vs 32 B tags + 64 B block).
    const Cycle alloy = warmHitLatency(DesignKind::Alloy);
    const Cycle unison = warmHitLatency(DesignKind::Unison);
    EXPECT_LE(unison, alloy + 6);
    EXPECT_GE(unison + 6, alloy);
}

TEST(HitLatency, FootprintPaysSramTagInFront)
{
    // FC's hit = SRAM tag latency (6 cycles at 64 MB per Table IV's
    // 128 MB floor) + one stacked data access; UC's overlapped probe
    // is no slower than that plus a couple of cycles either way.
    const Cycle unison = warmHitLatency(DesignKind::Unison);
    const Cycle fc = warmHitLatency(DesignKind::Footprint);
    // At small capacities the SRAM tag is cheap, so FC and UC are
    // close; FC must still not beat UC by more than its data-read
    // savings (UC reads 32 B of tags in parallel, FC reads none).
    EXPECT_LE(unison, fc + 8);
    // At 8 GB the Table IV latency (48 cycles) dwarfs the difference;
    // check the *model* ordering without building an 8 GB array:
    EXPECT_GT(FootprintGeometry::tagLatencyForCapacity(8_GiB),
              Cycle(40));
}

TEST(HitLatency, SerializedUnisonAblationIsSlower)
{
    // The SerialTag ablation removes the overlap -- the paper's
    // argument for why colocated TADs are not the point, overlap is.
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    auto run = [&](UnisonWayPolicy policy) {
        UnisonConfig cfg;
        cfg.capacityBytes = kCapacity;
        cfg.wayPolicy = policy;
        UnisonCache cache(cfg, &offchip);
        DramCacheRequest req;
        req.addr = blockAddress(777);
        req.pc = 0x4000;
        req.cycle = kGap;
        DramCacheResult last{};
        for (int i = 0; i < 3; ++i) {
            req.cycle += kGap;
            last = cache.access(req);
        }
        EXPECT_TRUE(last.hit);
        return last.doneAt - req.cycle;
    };
    const Cycle overlapped = run(UnisonWayPolicy::Predict);
    const Cycle serialized = run(UnisonWayPolicy::SerialTag);
    EXPECT_GT(serialized, overlapped);
}

TEST(HitLatency, FetchAllWaysNoSlowerUnloadedButMovesFourX)
{
    // Unloaded, fetching all ways costs bus time, not latency-to-
    // critical-word on our model; the paper's 12-cycle/4x-traffic
    // claim is a *loaded* effect (ablation bench). Here we check the
    // traffic side: 4 ways = 4x the data read per hit.
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    auto traffic = [&](UnisonWayPolicy policy) {
        UnisonConfig cfg;
        cfg.capacityBytes = kCapacity;
        cfg.wayPolicy = policy;
        UnisonCache cache(cfg, &offchip);
        DramCacheRequest req;
        req.addr = blockAddress(888);
        req.pc = 0x4000;
        req.cycle = kGap;
        for (int i = 0; i < 5; ++i) {
            req.cycle += kGap;
            cache.access(req);
        }
        return cache.stackedDram()->stats().bytesRead;
    };
    const std::uint64_t predicted =
        traffic(UnisonWayPolicy::Predict);
    const std::uint64_t fetch_all =
        traffic(UnisonWayPolicy::FetchAll);
    // 4 hits x (4-1) extra blocks = 768 B more data read.
    EXPECT_GE(fetch_all - predicted, 4u * 3u * kBlockBytes / 2u);
}

TEST(HitLatency, WayMispredictionIsCheapRowBufferHit)
{
    // Sec. III-A.6: "the correct way in case of mispredictions is
    // likely to be found in the row buffer, thus the uncommon case is
    // not severely penalized." Force a misprediction by touching two
    // pages that alias in the way predictor... simpler: compare the
    // first hit after allocation (way predictor may be wrong) with a
    // trained hit; the gap must be bounded by one row-buffer hit.
    DramModule offchip(offChipDramOrganization(), offChipDramTiming());
    UnisonConfig cfg;
    cfg.capacityBytes = kCapacity;
    UnisonCache cache(cfg, &offchip);
    DramModule probe(stackedDramOrganization(), stackedDramTiming());
    const Cycle row_hit = probe.unloadedRowHitLatency(kBlockBytes);

    DramCacheRequest req;
    req.addr = blockAddress(4'242);
    req.pc = 0x4000;
    req.cycle = kGap;
    cache.access(req);            // allocate
    req.cycle += kGap;
    const auto first = cache.access(req);  // possibly mispredicted
    req.cycle += kGap;
    const auto second = cache.access(req); // trained
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(second.hit);
    const Cycle first_lat = first.doneAt - (req.cycle - kGap);
    const Cycle second_lat = second.doneAt - req.cycle;
    EXPECT_LE(first_lat, second_lat + row_hit + 2);
}

} // namespace
} // namespace unison

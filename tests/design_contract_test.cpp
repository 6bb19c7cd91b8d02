/**
 * @file
 * The behavioural contract every DramCache implementation must honour,
 * run identically against all eight designs through the same factory
 * the experiment runner uses. These are the properties the System
 * timing model and the bench harnesses silently rely on: causality,
 * counter conservation, determinism, allocate-on-read, and sane
 * reporting.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram.hh"
#include "sim/experiment.hh"

namespace unison {
namespace {

constexpr std::uint64_t kCapacity = 1_MiB;

struct ContractRig
{
    DramModule offchip{offChipDramOrganization(), offChipDramTiming()};
    std::unique_ptr<DramCache> cache;
    Cycle clock = 0;

    explicit ContractRig(DesignKind kind)
    {
        ExperimentSpec spec;
        spec.design = kind;
        spec.capacityBytes = kCapacity;
        cache = makeCacheFactory(spec)(&offchip);
    }

    DramCacheResult
    access(Addr addr, bool is_write = false, Pc pc = 0x4000)
    {
        clock += 600;
        DramCacheRequest req;
        req.addr = addr;
        req.pc = pc;
        req.isWrite = is_write;
        req.cycle = clock;
        return cache->access(req);
    }
};

class DesignContract : public ::testing::TestWithParam<DesignKind>
{
  protected:
    DesignKind kind() const { return GetParam(); }
    bool isIdeal() const { return kind() == DesignKind::Ideal; }
    bool isNoCache() const { return kind() == DesignKind::NoDramCache; }
};

TEST_P(DesignContract, ReportsIdentity)
{
    ContractRig rig(kind());
    EXPECT_FALSE(rig.cache->name().empty());
    if (isNoCache())
        EXPECT_EQ(rig.cache->capacityBytes(), 0u);
    else
        EXPECT_EQ(rig.cache->capacityBytes(), kCapacity);
    if (isNoCache())
        EXPECT_EQ(rig.cache->stackedDram(), nullptr);
    else
        EXPECT_NE(rig.cache->stackedDram(), nullptr);
}

TEST_P(DesignContract, FirstReadClassification)
{
    ContractRig rig(kind());
    const auto r = rig.access(blockAddress(1000));
    if (isIdeal()) {
        EXPECT_TRUE(r.hit);
    } else {
        EXPECT_FALSE(r.hit);
        EXPECT_EQ(rig.cache->stats().misses.value(), 1u);
    }
}

TEST_P(DesignContract, SecondReadHitsOnceAllocated)
{
    ContractRig rig(kind());
    rig.access(blockAddress(1000));
    const auto r = rig.access(blockAddress(1000));
    if (isNoCache())
        EXPECT_FALSE(r.hit);
    else
        EXPECT_TRUE(r.hit);
}

TEST_P(DesignContract, CompletionRespectsCausality)
{
    ContractRig rig(kind());
    Rng rng(3);
    for (int i = 0; i < 400; ++i) {
        const Addr addr = blockAddress(rng.range(0, 4095));
        const Cycle issue = rig.clock + 600;
        const auto r = rig.access(addr, rng.chance(0.3));
        EXPECT_GT(r.doneAt, issue);
    }
}

TEST_P(DesignContract, CounterConservation)
{
    ContractRig rig(kind());
    Rng rng(9);
    std::uint64_t reads = 0, writes = 0;
    for (int i = 0; i < 1200; ++i) {
        const bool w = rng.chance(0.25);
        rig.access(blockAddress(rng.range(0, 2047)), w);
        w ? ++writes : ++reads;
    }
    const DramCacheStats &s = rig.cache->stats();
    EXPECT_EQ(s.reads.value(), reads);
    EXPECT_EQ(s.writes.value(), writes);
    EXPECT_EQ(s.hits.value() + s.misses.value(), s.accesses());
}

TEST_P(DesignContract, DeterministicAcrossInstances)
{
    ContractRig a(kind()), b(kind());
    Rng rng_a(21), rng_b(21);
    for (int i = 0; i < 800; ++i) {
        const Addr addr_a = blockAddress(rng_a.range(0, 2047));
        const Addr addr_b = blockAddress(rng_b.range(0, 2047));
        ASSERT_EQ(addr_a, addr_b);
        const bool w = rng_a.chance(0.2);
        rng_b.chance(0.2);
        const auto ra = a.access(addr_a, w);
        const auto rb = b.access(addr_b, w);
        ASSERT_EQ(ra.hit, rb.hit);
        ASSERT_EQ(ra.doneAt, rb.doneAt);
    }
    EXPECT_EQ(a.cache->stats().hits.value(),
              b.cache->stats().hits.value());
}

TEST_P(DesignContract, ResetStatsZeroesCounters)
{
    ContractRig rig(kind());
    Rng rng(33);
    for (int i = 0; i < 300; ++i)
        rig.access(blockAddress(rng.range(0, 1023)), rng.chance(0.2));
    rig.cache->resetStats();
    const DramCacheStats &s = rig.cache->stats();
    EXPECT_EQ(s.accesses(), 0u);
    EXPECT_EQ(s.hits.value(), 0u);
    EXPECT_EQ(s.misses.value(), 0u);
    EXPECT_EQ(s.offchipDemandBlocks.value(), 0u);
    if (rig.cache->stackedDram() != nullptr) {
        EXPECT_EQ(rig.cache->stackedDram()->stats().accesses(), 0u);
    }
}

TEST_P(DesignContract, OffchipSilenceForIdeal)
{
    // Only the ideal cache promises zero off-chip traffic; everything
    // else must touch memory on a cold miss.
    ContractRig rig(kind());
    rig.access(blockAddress(77));
    const std::uint64_t offchip_reads = rig.offchip.stats().reads;
    if (isIdeal())
        EXPECT_EQ(offchip_reads, 0u);
    else
        EXPECT_GE(offchip_reads, 1u);
}

TEST_P(DesignContract, LatencySaneUnderLightLoad)
{
    // A cold read's completion is bounded by a couple of off-chip
    // conflict latencies -- no design may lose a request in a queue.
    ContractRig rig(kind());
    const Cycle bound =
        4 * rig.offchip.unloadedRowConflictLatency(kRowBytes);
    for (int i = 0; i < 32; ++i) {
        const Cycle issue = rig.clock + 600;
        const auto r = rig.access(blockAddress(10'000 + i * 97));
        EXPECT_LT(r.doneAt - issue, bound)
            << "access " << i << " took implausibly long";
    }
}

/**
 * Golden end-to-end pins: one small experiment per design through the
 * real System/runExperiment path, with every integer SimResult field
 * compared against values captured before the SoA/devirtualization
 * refactor. Any engine change that alters simulated behaviour -- tag
 * scan order, victim choice, DRAM timing, refresh accounting, the
 * scheduler -- trips these exact equalities. (Wall-clock-only
 * optimizations keep them green; that is the point.)
 */
struct GoldenRow
{
    DesignKind kind;
    std::uint64_t cycles, instructions, references;
    std::uint64_t hits, misses, pageMisses, blockMisses, evictions;
    std::uint64_t offchipDemand, offchipWriteback;
    std::uint64_t offchipReads, offchipWrites, offchipRefreshes;
    std::uint64_t stackedAccesses, stackedRefreshes;
};

void
expectGolden(const SimResult &r, const GoldenRow &g)
{
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.instructions, g.instructions);
    EXPECT_EQ(r.references, g.references);
    EXPECT_EQ(r.cache.hits.value(), g.hits);
    EXPECT_EQ(r.cache.misses.value(), g.misses);
    EXPECT_EQ(r.cache.pageMisses.value(), g.pageMisses);
    EXPECT_EQ(r.cache.blockMisses.value(), g.blockMisses);
    EXPECT_EQ(r.cache.evictions.value(), g.evictions);
    EXPECT_EQ(r.cache.offchipDemandBlocks.value(), g.offchipDemand);
    EXPECT_EQ(r.cache.offchipWritebackBlocks.value(),
              g.offchipWriteback);
    EXPECT_EQ(r.offchip.reads, g.offchipReads);
    EXPECT_EQ(r.offchip.writes, g.offchipWrites);
    EXPECT_EQ(r.offchip.refreshes, g.offchipRefreshes);
    EXPECT_EQ(r.stacked.reads + r.stacked.writes, g.stackedAccesses);
    EXPECT_EQ(r.stacked.refreshes, g.stackedRefreshes);
}

TEST(DesignGolden, BitIdenticalSimResults)
{
    // Captured from the pre-refactor engine: 300k WebServing accesses,
    // 64 MiB caches, seed 7 (measured window = the last 100k).
    const GoldenRow golden[] = {
        {DesignKind::Unison, 263061ull, 1296315ull, 100000ull, 3346ull,
         1155ull, 1155ull, 0ull, 0ull, 872ull, 283ull, 13080ull, 283ull,
         0ull, 9591ull, 0ull},
        {DesignKind::Alloy, 164157ull, 1296704ull, 100000ull, 0ull,
         4680ull, 0ull, 0ull, 95ull, 3483ull, 27ull, 3483ull, 27ull,
         0ull, 9364ull, 0ull},
        {DesignKind::Footprint, 339164ull, 1294320ull, 100000ull,
         3739ull, 903ull, 903ull, 0ull, 0ull, 672ull, 231ull, 21504ull,
         231ull, 0ull, 4411ull, 0ull},
        {DesignKind::LohHill, 163555ull, 1296050ull, 100000ull, 0ull,
         4773ull, 0ull, 0ull, 0ull, 3558ull, 1215ull, 3558ull, 1215ull,
         0ull, 3558ull, 0ull},
        {DesignKind::NaiveBlockFp, 268547ull, 1298368ull, 100000ull,
         3517ull, 1113ull, 850ull, 11ull, 561ull, 861ull, 281ull,
         13495ull, 281ull, 0ull, 19986ull, 0ull},
        {DesignKind::NaiveTaggedPage, 360971ull, 1297028ull, 100000ull,
         3716ull, 988ull, 939ull, 49ull, 44ull, 742ull, 281ull,
         19346ull, 281ull, 0ull, 5274ull, 0ull},
        {DesignKind::Ideal, 163669ull, 1297175ull, 100000ull, 4707ull,
         0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 0ull, 4707ull,
         0ull},
        {DesignKind::NoDramCache, 163567ull, 1295730ull, 100000ull,
         0ull, 4643ull, 0ull, 0ull, 0ull, 3511ull, 1132ull, 3511ull,
         1132ull, 0ull, 0ull, 0ull},
        // The block-footprint composition (core/alloy_fp.hh).
        {DesignKind::AlloyFp, 248216ull, 1297417ull, 100000ull,
         3463ull, 1102ull, 823ull, 11ull, 736ull, 834ull, 319ull,
         13109ull, 319ull, 0ull, 18602ull, 0ull},
    };

    for (const GoldenRow &g : golden) {
        ExperimentSpec spec;
        spec.design = g.kind;
        spec.capacityBytes = 64_MiB;
        spec.accesses = 300'000;
        spec.seed = 7;
        const SimResult r = runExperiment(spec);
        SCOPED_TRACE(designName(g.kind));
        expectGolden(r, g);
    }
}

TEST(DesignGolden, UnisonPredictMruChangesTiming)
{
    // Swapping the way predictor via the wayPolicy knob is a real
    // ablation arm. MRU tracks bursty same-page reuse almost as well
    // as the paper's hash (99.8% here vs 100%), and the accuracy gap
    // shows up as extra stacked re-reads and cycles.
    ExperimentSpec spec;
    UnisonConfig wp;
    wp.wayPolicy = UnisonWayPolicy::PredictMru;
    spec.design = wp;
    spec.capacityBytes = 64_MiB;
    spec.accesses = 300'000;
    spec.seed = 7;
    const SimResult r = runExperiment(spec);
    EXPECT_EQ(r.cycles, 281555u);
    EXPECT_LT(r.wpAccuracyPercent, 100.0);
    EXPECT_GT(r.wpAccuracyPercent, 90.0);
}

TEST(DesignGolden, BitIdenticalMixedWorkload)
{
    // Same pin through the MixedWorkload loop specialization.
    const GoldenRow g = {DesignKind::Unison, 815782ull, 1268372ull,
                         100000ull, 5427ull, 3324ull, 3324ull, 0ull,
                         5ull, 2970ull, 354ull, 40644ull, 354ull, 0ull,
                         19847ull, 0ull};
    ExperimentSpec spec;
    spec.design = g.kind;
    spec.capacityBytes = 64_MiB;
    spec.accesses = 300'000;
    spec.seed = 7;
    spec.mix = parseMixSpec("webserving:8,chase:4,scan:4");
    const SimResult r = runExperiment(spec);
    expectGolden(r, g);
}

TEST(DesignGolden, BitIdenticalAlloyWithEscapedTags)
{
    // One 8 KB row (112 TAD frames) under a two-core gups mix, whose
    // private regions start at 2^46 bytes: every tag is at least
    // 2^40 / 112 > 2^33, so every install takes DirectOrganization's
    // escape path. Random updates over 1 GB per core never hit in 112
    // frames, so the row pins the escaped tags' miss compare and the
    // victim addresses of 49618 write-backs (blockOf), which set the
    // off-chip bank timing. Captured from the 64-bit tag-word engine.
    const GoldenRow g = {DesignKind::Alloy, 9497127ull, 400600ull,
                         100000ull, 0ull, 99511ull, 0ull, 0ull,
                         99511ull, 49894ull, 49618ull, 49894ull,
                         49618ull, 0ull, 221840ull, 0ull};
    ExperimentSpec spec;
    spec.design = g.kind;
    spec.capacityBytes = kRowBytes;
    spec.accesses = 300'000;
    spec.seed = 7;
    spec.system.numCores = 2;
    spec.mix = parseMixSpec("gups:2");
    const SimResult r = runExperiment(spec);
    expectGolden(r, g);
}

// ------------------------------------------ knob ranges are buildable

/** The values of `knob` worth probing: a uint knob's minimum and
 *  maximum (read back from its printed "[lo, hi]" range), every enum
 *  value, both bools. */
std::vector<json::Value>
knobExtremes(const DesignKnob &knob)
{
    std::vector<json::Value> values;
    if (knob.type == "bool") {
        values = {json::Value(false), json::Value(true)};
    } else if (knob.type == "uint") {
        std::istringstream range(knob.range);
        char open = 0, comma = 0;
        std::uint64_t lo = 0, hi = 0;
        range >> open >> lo >> comma >> hi;
        values.push_back(json::Value(lo));
        // Table-size maxima allocate hundreds of MB (a 2^24-entry FHT,
        // a 2^24-entry way predictor): too big for a unit test, and no
        // fixed-width mask bounds them.
        if (knob.key != "fhtEntries" && knob.key != "wayPredictorIndexBits")
            values.push_back(json::Value(hi));
    } else {
        std::istringstream names(knob.range);
        std::string name;
        while (std::getline(names >> std::ws, name, ','))
            values.push_back(json::Value(name));
    }
    return values;
}

/** A knob value the registry accepts must build: either the setter or
 *  validationError() refuses it, or the cache builds at 64 MiB and
 *  serves a read. Returns the refusal message ("" when it built). */
std::string
refusedOrBuilds(const DesignInfo &info, const std::string &key,
                const json::Value &value)
{
    ExperimentSpec spec;
    spec.design = info.kind;
    spec.capacityBytes = 64_MiB;
    for (const DesignKnob &knob : info.knobs) {
        if (knob.key != key)
            continue;
        try {
            knob.set(spec.design.variant(), value);
        } catch (const json::Error &e) {
            return e.what();
        }
    }
    if (std::string error = spec.validationError(); !error.empty())
        return error;
    DramModule offchip{offChipDramOrganization(), offChipDramTiming()};
    std::unique_ptr<DramCache> cache = makeCacheFactory(spec)(&offchip);
    DramCacheRequest req;
    req.addr = blockAddress(1000);
    req.cycle = 100;
    EXPECT_GE(cache->access(req).doneAt, req.cycle);
    return "";
}

TEST(DesignKnobs, EveryAcceptedExtremeBuilds)
{
    int built = 0, refused = 0;
    for (const DesignInfo &info : DesignRegistry::instance().all()) {
        for (const DesignKnob &knob : info.knobs) {
            for (const json::Value &value : knobExtremes(knob)) {
                SCOPED_TRACE(info.id + "." + knob.key + " = " +
                             json::writeCompact(value));
                ++(refusedOrBuilds(info, knob.key, value).empty()
                       ? built
                       : refused);
            }
        }
    }
    // The range parse found values on both sides of the line (e.g.
    // fhtAssoc 1 leaves a non-power-of-two FHT set count). Exact
    // counts, so a knob or enum value that stops being probed shows.
    EXPECT_EQ(built, 36);
    EXPECT_EQ(refused, 4);
}

TEST(DesignKnobs, RefusedValuesNameTheProblem)
{
    const DesignRegistry &registry = DesignRegistry::instance();
    // An FHT of 3 entries cannot be split into power-of-two sets of
    // the default associativity.
    EXPECT_NE(refusedOrBuilds(registry.byId("alloyfp"), "fhtEntries",
                              json::Value(3u))
                  .find("must be a multiple of fhtAssoc"),
              std::string::npos);
    // Page masks are 32 bits wide in every footprint-tracking design.
    for (const char *id : {"unison", "alloyfp", "naiveblockfp"})
        EXPECT_NE(refusedOrBuilds(registry.byId(id), "pageBlocks",
                                  json::Value(40u))
                      .find("[1, 32]"),
                  std::string::npos)
            << id;
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignContract,
    ::testing::Values(DesignKind::Unison, DesignKind::Alloy,
                      DesignKind::Footprint, DesignKind::LohHill,
                      DesignKind::NaiveBlockFp,
                      DesignKind::NaiveTaggedPage, DesignKind::Ideal,
                      DesignKind::NoDramCache, DesignKind::AlloyFp),
    [](const ::testing::TestParamInfo<DesignKind> &info) {
        std::string n = designName(info.param);
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

} // namespace
} // namespace unison

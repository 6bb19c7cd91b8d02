/**
 * @file
 * Contracts of the content-addressed result store (store/result_store):
 *
 *  - insert/lookup round-trips a result byte-exactly, keyed by spec
 *    content (an equal-but-distinct spec value hits; any changed knob
 *    misses);
 *  - wired into runExperiments as its RunStore, a warm store
 *    serves a repeated sweep with ZERO simulation and byte-identical
 *    results, across designs and both memory backends;
 *  - a store written by a different code version never serves this
 *    build (fresh simulation, not a wrong-numbers hit);
 *  - a corrupted object (injected via the FaultInjector read seam and
 *    via direct byte damage) is rejected with a structured warning
 *    and degrades to a miss -- never a half-trusted result;
 *  - gc() respects the byte budget, evicts oldest-first over results
 *    and warm snapshots alike, and never evicts pinned (in-flight)
 *    results, which is what makes a concurrent `store gc` safe under
 *    an active sweep; it reclaims the temp files of dead publishers
 *    and keeps those of live ones;
 *  - a payload over the record-frame bound is refused up front, so
 *    the store never publishes an object its own reader rejects.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utime.h>

#include "common/crc_frame.hh"
#include "common/fault_injection.hh"
#include "common/file_io.hh"
#include "common/version.hh"
#include "sim/runner.hh"
#include "sim/spec_json.hh"
#include "store/result_store.hh"

namespace unison {
namespace {

std::string
tempDir(const std::string &name)
{
    ::mkdir("store_test_tmp", 0777);
    const std::string dir = "store_test_tmp/" + name;
    // Fresh store per test: drop any objects a previous run left.
    [[maybe_unused]] const int rc =
        ::system(("rm -rf " + dir).c_str());
    return dir;
}

std::string
resultKey(const SimResult &result)
{
    return json::write(resultToJson(result));
}

ExperimentSpec
tinySpec(DesignKind design, std::uint64_t seed = 7,
         MemoryBackendKind backend = MemoryBackendKind::Fast)
{
    ExperimentSpec spec;
    spec.design = design;
    spec.capacityBytes = 32_MiB;
    spec.system.numCores = 4;
    spec.system.memoryBackend = backend;
    spec.accesses = 30'000;
    spec.seed = seed;
    return spec;
}

// ------------------------------------------------------- round trip

TEST(ResultStore, InsertLookupRoundTripsByteExactly)
{
    ResultStore store(tempDir("roundtrip"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    const SimResult fresh = runExperiment(spec);

    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out)); // cold store
    EXPECT_EQ(store.misses(), 1u);

    store.insert(spec, fresh);
    EXPECT_EQ(store.inserts(), 1u);
    ASSERT_TRUE(store.lookup(spec, out));
    EXPECT_EQ(resultKey(out), resultKey(fresh));
    EXPECT_EQ(store.hits(), 1u);

    // Content addressing: an equal spec VALUE hits (identity is the
    // serialized content, not the object)...
    SimResult again;
    ExperimentSpec copy = spec;
    ASSERT_TRUE(store.lookup(copy, again));
    EXPECT_EQ(resultKey(again), resultKey(fresh));

    // ...and any knob change misses.
    copy.seed += 1;
    EXPECT_FALSE(store.lookup(copy, again));
}

// --------------------------------- runner seam: cache-hit sweeps

TEST(ResultStore, WarmStoreServesSweepWithZeroSimulation)
{
    // >= 3 designs x both memory backends, as one grid.
    std::vector<ExperimentSpec> specs;
    for (const DesignKind design :
         {DesignKind::Unison, DesignKind::Alloy, DesignKind::Footprint})
        for (const MemoryBackendKind backend :
             {MemoryBackendKind::Fast, MemoryBackendKind::Detailed})
            specs.push_back(tinySpec(design, /*seed=*/11, backend));

    ResultStore store(tempDir("sweep"));

    // Cold run: everything simulates, everything publishes.
    std::vector<SimResult> first;
    {
        StoreCacheHook hook(store, specs);
        first = runExperiments(specs, /*threads=*/2, nullptr, &hook);
        EXPECT_EQ(hook.hits(), 0u);
    }
    EXPECT_EQ(store.inserts(), specs.size());

    // Warm run: zero simulation (every point replays in the pre-pass,
    // so the hook's hit counter covers the whole grid), results
    // byte-identical.
    std::vector<SimResult> second;
    {
        StoreCacheHook hook(store, specs);
        std::size_t done_calls = 0;
        second = runExperiments(
            specs, /*threads=*/2,
            [&](std::size_t, const SimResult &) { ++done_calls; },
            &hook);
        EXPECT_EQ(hook.hits(), specs.size());
        EXPECT_EQ(done_calls, specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_TRUE(hook.wasHit(i));
    }
    EXPECT_EQ(store.inserts(), specs.size()); // no re-publish

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(resultKey(first[i]), resultKey(second[i])) << i;
}

// ------------------------------------------------- version isolation

TEST(ResultStore, StaleCodeVersionNeverServes)
{
    const std::string dir = tempDir("stale");
    const ExperimentSpec spec = tinySpec(DesignKind::Unison);
    const SimResult fresh = runExperiment(spec);

    {
        ResultStore old_build(dir, "unison-sim/0-ancient");
        old_build.insert(spec, fresh);
    }

    ResultStore store(dir); // current kSimCodeVersion
    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out));

    // Same store dir, same build again: hits.
    ResultStore old_again(dir, "unison-sim/0-ancient");
    EXPECT_TRUE(old_again.lookup(spec, out));
    EXPECT_EQ(resultKey(out), resultKey(fresh));
}

// ------------------------------------------------ corruption rejection

TEST(ResultStore, CorruptedObjectIsRejectedNotTrusted)
{
    ResultStore store(tempDir("corrupt"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    store.insert(spec, runExperiment(spec));

    // Injected read-side corruption (the lying-disk seam): the frame
    // CRC catches it, lookup degrades to a miss.
    FaultPlan plan;
    plan.point = FaultPlan::Point::Read;
    plan.mode = FaultPlan::Mode::Corrupt;
    plan.pathSubstr = ".res";
    plan.offset = 20; // inside the payload
    FaultInjector::instance().arm(plan);
    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out));
    FaultInjector::instance().disarm();

    // Undamaged on disk: the same object still serves.
    EXPECT_TRUE(store.lookup(spec, out));

    // Persistent damage: flip one payload byte on disk.
    const std::string path = store.objectPath(specFingerprint(spec));
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(path, bytes).ok());
    bytes[bytes.size() / 2] ^= 0x40;
    ASSERT_TRUE(writeFileBytes(path, bytes).ok());
    EXPECT_FALSE(store.lookup(spec, out));

    // A truncated (torn-looking) object is equally a miss.
    bytes[bytes.size() / 2] ^= 0x40; // restore
    bytes.resize(bytes.size() - 3);
    ASSERT_TRUE(writeFileBytes(path, bytes).ok());
    EXPECT_FALSE(store.lookup(spec, out));
}

TEST(ResultStore, MisplacedObjectIsRejectedByEmbeddedSpec)
{
    ResultStore store(tempDir("misplaced"));
    const ExperimentSpec a = tinySpec(DesignKind::Alloy, 1);
    const ExperimentSpec b = tinySpec(DesignKind::Alloy, 2);
    store.insert(a, runExperiment(a));

    // Simulate a hash collision / a mis-renamed file: b's address now
    // holds a's object. The recomputed fingerprint must refuse it.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(
        readFileBytes(store.objectPath(specFingerprint(a)), bytes)
            .ok());
    ASSERT_TRUE(
        writeFileBytes(store.objectPath(specFingerprint(b)), bytes)
            .ok());
    SimResult out;
    EXPECT_FALSE(store.lookup(b, out));
    EXPECT_TRUE(store.lookup(a, out)); // the original is untouched
}

// ------------------------------------------------------------- gc

TEST(ResultStore, GcRespectsBudgetAndPins)
{
    ResultStore store(tempDir("gc"));
    std::vector<ExperimentSpec> specs;
    for (std::uint64_t seed = 0; seed < 4; ++seed)
        specs.push_back(tinySpec(DesignKind::Alloy, 200 + seed));
    std::vector<std::string> fps;
    std::vector<std::uint64_t> sizes;
    for (const ExperimentSpec &spec : specs) {
        store.insert(spec, runExperiment(spec));
        fps.push_back(specFingerprint(spec));
        sizes.push_back(fileSizeOrZero(store.objectPath(fps.back())));
    }

    // Age the objects deterministically: fps[0] oldest ... fps[3]
    // newest (mtime is the eviction order, and inserts above can all
    // land within one clock tick).
    for (std::size_t i = 0; i < fps.size(); ++i) {
        struct utimbuf times;
        times.actime = static_cast<time_t>(1000000 + i);
        times.modtime = static_cast<time_t>(1000000 + i);
        ASSERT_EQ(
            ::utime(store.objectPath(fps[i]).c_str(), &times), 0);
    }

    std::uint64_t total = 0;
    for (const std::uint64_t s : sizes)
        total += s;

    // Budget for roughly two objects: the two oldest go.
    const std::uint64_t budget = sizes[2] + sizes[3];
    const StoreGcSummary sum = store.gc(budget);
    EXPECT_EQ(sum.scanned, 4u);
    EXPECT_EQ(sum.bytesBefore, total);
    EXPECT_LE(sum.bytesAfter, budget);
    EXPECT_FALSE(fileExists(store.objectPath(fps[0])));
    EXPECT_FALSE(fileExists(store.objectPath(fps[1])));
    EXPECT_TRUE(fileExists(store.objectPath(fps[2])));
    EXPECT_TRUE(fileExists(store.objectPath(fps[3])));

    // A generous budget is a no-op.
    const StoreGcSummary idle = store.gc(total);
    EXPECT_EQ(idle.evicted, 0u);

    // Pinned objects survive even a zero budget -- the in-flight
    // guarantee. Unpinned ones do not.
    store.pin(fps[2]);
    const StoreGcSummary pinned = store.gc(0);
    EXPECT_TRUE(fileExists(store.objectPath(fps[2])));
    EXPECT_FALSE(fileExists(store.objectPath(fps[3])));
    EXPECT_EQ(pinned.pinnedKept, 1u);
    EXPECT_EQ(pinned.evicted, 1u);

    // Unpinned again, the last object is evictable.
    store.unpin(fps[2]);
    store.gc(0);
    EXPECT_FALSE(fileExists(store.objectPath(fps[2])));
}

TEST(ResultStore, GcEvictsWarmSnapshotsButNeverPinsThem)
{
    ResultStore store(tempDir("gcwarm"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    store.insert(spec, runExperiment(spec));
    const std::string fp = specFingerprint(spec);
    WarmCheckpoint ck;
    ck.warmAccesses = 1;
    ck.bytes.assign(64, 0x5a);
    store.saveWarm("some-warm-prefix", ck);
    const std::string warm = store.warmObjectPath("some-warm-prefix");
    ASSERT_TRUE(fileExists(warm));

    // Both kinds count against the budget; only the result is pinned.
    store.pin(fp);
    const StoreGcSummary sum = store.gc(0);
    EXPECT_EQ(sum.scanned, 2u);
    EXPECT_EQ(sum.evicted, 1u);
    EXPECT_EQ(sum.pinnedKept, 1u);
    EXPECT_FALSE(fileExists(warm));
    EXPECT_TRUE(fileExists(store.objectPath(fp)));
    store.unpin(fp);
}

TEST(ResultStore, GcReclaimsOrphanedTempFiles)
{
    ResultStore store(tempDir("orphans"));
    const std::string objects = store.dir() + "/objects/";

    // A publisher killed mid-write leaves its temp file behind.
    const pid_t child = ::fork();
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(child, &status, 0); // reaped: the pid names no process
    const std::string dead =
        objects + ".tmp." + std::to_string(child) + ".0";
    const std::string live =
        objects + ".tmp." + std::to_string(::getpid()) + ".7";
    const std::string foreign = objects + ".tmp.not-a-pid";
    const std::vector<std::uint8_t> half_object(100, 0x5a);
    for (const std::string &path : {dead, live, foreign})
        ASSERT_TRUE(writeFileBytes(path, half_object).ok());

    // Even a generous budget reclaims the dead publisher's file; a
    // live publisher's (and any name this store does not write) stay.
    const StoreGcSummary sum = store.gc(UINT64_MAX);
    EXPECT_EQ(sum.scanned, 0u);
    EXPECT_EQ(sum.temps, 3u);
    EXPECT_EQ(sum.orphansRemoved, 1u);
    EXPECT_EQ(sum.bytesBefore, 300u);
    EXPECT_EQ(sum.bytesAfter, 200u);
    EXPECT_FALSE(fileExists(dead));
    EXPECT_TRUE(fileExists(live));
    EXPECT_TRUE(fileExists(foreign));
}

TEST(ResultStore, HookPinsItsSpecsForItsLifetime)
{
    ResultStore store(tempDir("hookpin"));
    std::vector<ExperimentSpec> specs{tinySpec(DesignKind::Unison)};
    store.insert(specs[0], runExperiment(specs[0]));
    const std::string path =
        store.objectPath(specFingerprint(specs[0]));

    {
        StoreCacheHook hook(store, specs);
        store.gc(0); // in-flight: must survive a zero budget
        EXPECT_TRUE(fileExists(path));
    }
    store.gc(0); // hook gone, pin released
    EXPECT_FALSE(fileExists(path));
}

// ---------------------------------------------- insert degradation

TEST(ResultStore, FailedInsertDegradesToAWarning)
{
    ResultStore store(tempDir("failsave"));
    const ExperimentSpec spec = tinySpec(DesignKind::Alloy);
    const SimResult fresh = runExperiment(spec);

    FaultPlan plan;
    plan.point = FaultPlan::Point::Write;
    plan.mode = FaultPlan::Mode::Fail;
    plan.pathSubstr = ".tmp.";
    plan.offset = 10;
    FaultInjector::instance().arm(plan);
    store.insert(spec, fresh); // must not throw or exit
    FaultInjector::instance().disarm();

    EXPECT_EQ(store.inserts(), 0u);
    SimResult out;
    EXPECT_FALSE(store.lookup(spec, out)); // nothing half-published

    store.insert(spec, fresh); // and the path recovers
    EXPECT_TRUE(store.lookup(spec, out));
}

TEST(ResultStore, PayloadOverTheFrameBoundIsRefused)
{
    ResultStore store(tempDir("bound"));
    const std::string key = "frame-bound-warm-prefix";
    const std::string path = store.warmObjectPath(key);

    // Learn the payload's fixed overhead from a small snapshot...
    WarmCheckpoint small;
    small.warmAccesses = 1;
    small.bytes.assign(16, 0x5a);
    store.saveWarm(key, small);
    ASSERT_TRUE(fileExists(path));
    const std::uint64_t overhead = fileSizeOrZero(path) -
                                   kRecordFrameHeaderBytes -
                                   small.bytes.size();
    ASSERT_EQ(::unlink(path.c_str()), 0);

    // ...then save one whose payload is exactly one byte over.
    WarmCheckpoint big;
    big.warmAccesses = 1;
    big.bytes.assign(kMaxRecordFrameBytes + 1 - overhead, 0x5a);
    testing::internal::CaptureStderr();
    store.saveWarm(key, big);
    const std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_NE(warning.find("[store-save-failed]"), std::string::npos);
    EXPECT_NE(warning.find(std::to_string(kMaxRecordFrameBytes + 1) +
                           " bytes exceeds"),
              std::string::npos)
        << warning;
    EXPECT_EQ(store.warmSaves(), 1u); // the small one only

    // Nothing written: no object, no temp file. The lookup is a clean
    // miss, not a rejected object.
    EXPECT_FALSE(fileExists(path));
    EXPECT_EQ(store.gc(UINT64_MAX).temps, 0u);
    testing::internal::CaptureStderr();
    WarmCheckpoint out;
    EXPECT_FALSE(store.lookupWarm(key, out));
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
}

} // namespace
} // namespace unison

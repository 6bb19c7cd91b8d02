/**
 * @file
 * Crash-safety contracts of the one durable store
 * (store/result_store):
 *
 *  - a result object truncated at EVERY byte offset, or with one
 *    byte flipped in every frame field class, is a classified miss
 *    ("store-rejected" with the damage named) -- never a crash, never
 *    a trusted byte;
 *  - a store-replayed run (some points published, a torn temp file
 *    and a torn object left behind by the "crash") is byte-identical
 *    (serialized-JSON-equal) to the uninterrupted run, across designs
 *    and both memory backends;
 *  - warm-snapshot objects reject every damage class (magic, length,
 *    CRC, truncation, trailing bytes, embedded-key and code-version
 *    mismatch) with a miss + structured warning; a CRC-valid but
 *    shape-corrupt snapshot still degrades to a cold warm-up inside
 *    the runner with identical results; a stored snapshot lets a
 *    rerun skip its warm-up with no leader run; and a snapshot from
 *    another code version is never loaded;
 *  - the deterministic FaultInjector seam (fail / truncate / corrupt)
 *    and the sticky-failing StateReader behave as specified.
 *
 * The `kill` fault mode (_exit at an exact byte) necessarily runs in a
 * separate process: cmake/unison_sim_resume_test.cmake kills
 * unison_sim mid-publish and byte-compares the rerun's output; CI
 * additionally SIGKILLs a live run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/crc_frame.hh"
#include "common/fault_injection.hh"
#include "common/file_io.hh"
#include "common/state_io.hh"
#include "common/version.hh"
#include "sim/runner.hh"
#include "sim/spec_json.hh"
#include "store/result_store.hh"

namespace unison {
namespace {

constexpr const char *kHash = "deadbeefdeadbeef";

/** A fresh, empty directory per test. */
std::string
tempDir(const std::string &name)
{
    ::mkdir("durability_test_tmp", 0777);
    const std::string dir = "durability_test_tmp/" + name;
    [[maybe_unused]] const int rc =
        ::system(("rm -rf " + dir).c_str());
    ::mkdir(dir.c_str(), 0777);
    return dir;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(readFileBytes(path, bytes).ok()) << path;
    return bytes;
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    ASSERT_TRUE(writeFileBytes(path, bytes).ok()) << path;
}

std::string
resultKey(const SimResult &result)
{
    return json::write(resultToJson(result));
}

std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

/** A pid that named a process a moment ago and names none now. */
pid_t
deadPid()
{
    const pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return pid;
}

ExperimentSpec
tinySpec(DesignKind design, std::uint64_t seed = 7)
{
    ExperimentSpec spec;
    spec.design = design;
    spec.capacityBytes = 32_MiB;
    spec.system.numCores = 4;
    spec.accesses = 30'000;
    spec.seed = seed;
    return spec;
}

/** A few cheap, distinguishable completed points. */
std::vector<ResultPoint>
samplePoints(std::size_t n)
{
    static std::vector<ResultPoint> cache;
    while (cache.size() < n) {
        const std::size_t i = cache.size();
        ResultPoint point;
        point.index = i;
        point.label = "point-" + std::to_string(i);
        point.spec = tinySpec(i % 2 == 0 ? DesignKind::Alloy
                                         : DesignKind::Unison,
                              /*seed=*/100 + i);
        point.result = runExperiment(point.spec);
        cache.push_back(std::move(point));
    }
    return {cache.begin(), cache.begin() + n};
}

/** `n` consecutive record frames with distinguishable payloads. */
std::vector<std::uint8_t>
frames(std::size_t n)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string payload =
            "record-" + std::to_string(i) + "-" + std::string(100, 'x');
        appendRecordFrame(out, 0x54534554u, payload.data(),
                          payload.size());
    }
    return out;
}

/** What walking a buffer of record frames found. */
struct Walk
{
    std::size_t intact = 0;
    bool torn = false;
    std::uint64_t validBytes = 0;
};

Walk
walk(const std::vector<std::uint8_t> &bytes)
{
    FrameWalker walker(bytes.data(), bytes.size(), 0x54534554u);
    const std::uint8_t *payload = nullptr;
    std::size_t len = 0;
    Walk out;
    while (walker.next(payload, len))
        ++out.intact;
    out.torn = walker.torn();
    out.validBytes = walker.validBytes();
    return out;
}

// ------------------------------------------------- result objects

TEST(StoreObject, SurvivesTruncationAtEveryByte)
{
    ResultStore store(tempDir("truncate"));
    const ResultPoint point = samplePoints(1)[0];
    store.insert(point.spec, point.result);
    const std::string path =
        store.objectPath(specFingerprint(point.spec));
    const std::vector<std::uint8_t> full = slurp(path);
    ASSERT_GT(full.size(), kRecordFrameHeaderBytes);

    testing::internal::CaptureStderr();
    std::size_t hits = 0;
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        spit(path, {full.begin(), full.begin() + cut});
        SimResult out;
        if (!store.lookup(point.spec, out))
            continue;
        ++hits;
        EXPECT_EQ(cut, full.size()) << "a torn object served a hit";
        EXPECT_EQ(resultKey(out), resultKey(point.result));
    }
    const std::string warnings = testing::internal::GetCapturedStderr();
    // Only the whole object hits; every shorter cut is a classified
    // rejection.
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(countOf(warnings, "[store-rejected]"), full.size());
}

TEST(StoreObject, ClassifiesOneByteCorruptionInEveryFieldClass)
{
    ResultStore store(tempDir("corrupt"));
    const ResultPoint point = samplePoints(1)[0];
    store.insert(point.spec, point.result);
    const std::string path =
        store.objectPath(specFingerprint(point.spec));
    const std::vector<std::uint8_t> full = slurp(path);

    struct Case
    {
        const char *field;
        std::vector<std::uint8_t> bytes;
        const char *reason; //!< expected classification ("" = any)
    };
    const auto flipped = [&](std::size_t offset) {
        std::vector<std::uint8_t> damaged = full;
        damaged[offset] ^= 0xff;
        return damaged;
    };
    std::vector<std::uint8_t> trailing = full;
    trailing.push_back(0x55);
    // A CRC-valid frame (same magic) whose payload is not an object.
    std::vector<std::uint8_t> foreign;
    std::uint32_t magic = 0;
    std::memcpy(&magic, full.data(), sizeof(magic));
    const std::string junk = "not a store record";
    appendRecordFrame(foreign, magic, junk.data(), junk.size());

    const std::vector<Case> cases = {
        {"magic", flipped(0), "bad record magic"},
        {"length (low byte)", flipped(4), ""},
        {"length (high byte)", flipped(7), "implausible record length"},
        {"crc", flipped(8), "record CRC mismatch"},
        {"payload head", flipped(12), "record CRC mismatch"},
        {"payload body", flipped(full.size() / 2), "record CRC mismatch"},
        {"last byte", flipped(full.size() - 1), "record CRC mismatch"},
        {"trailing bytes", trailing, "trailing bytes"},
        {"payload schema", foreign, "object does not parse"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field);
        spit(path, c.bytes);
        testing::internal::CaptureStderr();
        SimResult out;
        EXPECT_FALSE(store.lookup(point.spec, out));
        const std::string warning =
            testing::internal::GetCapturedStderr();
        EXPECT_EQ(countOf(warning, "[store-rejected]"), 1u) << warning;
        EXPECT_NE(warning.find(c.reason), std::string::npos) << warning;
    }

    // The pristine object still serves (the store is not sticky-broken).
    spit(path, full);
    SimResult out;
    EXPECT_TRUE(store.lookup(point.spec, out));
}

// --------------------------------------------- store replay identity

TEST(StoreReplay, ByteIdenticalAcrossDesignsAndBackends)
{
    for (const MemoryBackendKind backend :
         {MemoryBackendKind::Fast, MemoryBackendKind::Detailed}) {
        const std::string name =
            backend == MemoryBackendKind::Fast ? "fast" : "detailed";
        SCOPED_TRACE(name);
        std::vector<ExperimentSpec> specs;
        std::size_t k = 0;
        for (const DesignKind design :
             {DesignKind::Unison, DesignKind::Alloy,
              DesignKind::Footprint, DesignKind::NoDramCache}) {
            ExperimentSpec spec = tinySpec(design, 20 + k++);
            spec.system.memoryBackend = backend;
            specs.push_back(spec);
        }

        const std::vector<SimResult> uninterrupted =
            runExperiments(specs, 2);

        // "Crash" state: points 0 and 1 reached the store; point 2's
        // publisher died mid-write, leaving half a frame in its temp
        // file; a lying disk tore point 3's published object in half.
        ResultStore store(tempDir("replay_" + name));
        store.insert(specs[0], uninterrupted[0]);
        store.insert(specs[1], uninterrupted[1]);
        store.insert(specs[2], uninterrupted[2]);
        store.insert(specs[3], uninterrupted[3]);
        const std::string path2 =
            store.objectPath(specFingerprint(specs[2]));
        const std::vector<std::uint8_t> frame2 = slurp(path2);
        ASSERT_EQ(::unlink(path2.c_str()), 0);
        spit(store.dir() + "/objects/.tmp." +
                 std::to_string(deadPid()) + ".0",
             {frame2.begin(), frame2.begin() + frame2.size() / 2});
        const std::string path3 =
            store.objectPath(specFingerprint(specs[3]));
        std::vector<std::uint8_t> frame3 = slurp(path3);
        frame3.resize(frame3.size() / 2);
        spit(path3, frame3);

        // Rerun against the store: two points replayed, two
        // re-simulated; the result set must match the uninterrupted
        // run byte-for-byte.
        std::vector<SimResult> resumed;
        {
            StoreCacheHook hook(store, specs);
            resumed = runExperiments(specs, 2, nullptr, &hook);
            EXPECT_EQ(hook.hits(), 2u);
        }
        ASSERT_EQ(resumed.size(), uninterrupted.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultKey(resumed[i]),
                      resultKey(uninterrupted[i]))
                << "point " << i;

        // The dead publisher's temp file is reclaimable garbage.
        EXPECT_EQ(store.gc(UINT64_MAX).orphansRemoved, 1u);

        // And a rerun after a complete run replays everything.
        StoreCacheHook complete(store, specs);
        const std::vector<SimResult> replayed =
            runExperiments(specs, 1, nullptr, &complete);
        EXPECT_EQ(complete.hits(), specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultKey(replayed[i]),
                      resultKey(uninterrupted[i]));
    }
}

// --------------------------------------------------- fault injection

TEST(FaultInjection, ParsesAndRejectsPlans)
{
    const FaultPlan plan =
        parseFaultPlan("write-kill@results.journal:4096");
    EXPECT_EQ(plan.point, FaultPlan::Point::Write);
    EXPECT_EQ(plan.mode, FaultPlan::Mode::Kill);
    EXPECT_EQ(plan.pathSubstr, "results.journal");
    EXPECT_EQ(plan.offset, 4096u);

    for (const char *bad :
         {"", "write-kill", "write-kill@x", "write-kill@x:",
          "write-kill@x:12junk", "sideways-kill@x:1", "write-melt@x:1",
          "read-kill@x:1", "read-truncate@x:1"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(
            {
                try {
                    parseFaultPlan(bad);
                } catch (const SimError &e) {
                    EXPECT_EQ(e.code(), SimErrc::Usage);
                    throw;
                }
            },
            SimError);
    }
}

TEST(FaultInjection, FailModeIsStickyAndPersistsPrefix)
{
    const std::string path = tempDir("fail") + "/fail.frames";
    const std::uint64_t boundary = frames(1).size();

    FaultPlan plan;
    plan.point = FaultPlan::Point::Write;
    plan.mode = FaultPlan::Mode::Fail;
    plan.pathSubstr = "fail.frames";
    plan.offset = boundary + 5; // dies 5 bytes into record 2
    FaultInjector::instance().arm(plan);

    const SimStatus second = writeFileBytes(path, frames(2));
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(second.code, SimErrc::Io);

    // The prefix that reached "disk" stays valid-prefix-recoverable.
    const Walk w = walk(slurp(path));
    EXPECT_EQ(w.intact, 1u);
    EXPECT_TRUE(w.torn);
    EXPECT_EQ(w.validBytes, boundary);

    // Sticky: later writes to matching paths keep failing.
    const SimStatus third = writeFileBytes(path + ".again", frames(1));
    EXPECT_FALSE(third.ok());
    FaultInjector::instance().disarm();
}

TEST(FaultInjection, TruncateModeIsALyingDisk)
{
    const std::string path = tempDir("lying") + "/lying.frames";
    const std::uint64_t boundary = frames(1).size();

    FaultPlan plan;
    plan.point = FaultPlan::Point::Write;
    plan.mode = FaultPlan::Mode::Truncate;
    plan.pathSubstr = "lying.frames";
    plan.offset = boundary + 7;
    FaultInjector::instance().arm(plan);
    // The write *claims* success -- that is the point.
    EXPECT_TRUE(writeFileBytes(path, frames(2)).ok());
    FaultInjector::instance().disarm();

    EXPECT_EQ(fileSizeOrZero(path), boundary + 7);
    const Walk w = walk(slurp(path));
    EXPECT_TRUE(w.torn); // ...and the CRC frame catches it later
    EXPECT_EQ(w.intact, 1u);
    EXPECT_EQ(w.validBytes, boundary);
}

TEST(FaultInjection, ReadCorruptionIsCaughtByTheFrame)
{
    const std::string path =
        tempDir("readcorrupt") + "/readcorrupt.frames";
    spit(path, frames(1));

    FaultPlan plan;
    plan.point = FaultPlan::Point::Read;
    plan.mode = FaultPlan::Mode::Corrupt;
    plan.pathSubstr = "readcorrupt.frames";
    plan.offset = 20; // inside the payload
    FaultInjector::instance().arm(plan);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFileBytes(path, bytes).ok());
    FaultInjector::instance().disarm();
    const Walk w = walk(bytes);
    EXPECT_TRUE(w.torn);
    EXPECT_EQ(w.intact, 0u);
}

TEST(FileIo, SyncDirectoryClassifiesAMissingDirectory)
{
    EXPECT_TRUE(syncDirectory(tempDir("sync")).ok());
    const SimStatus missing = syncDirectory(tempDir("sync") + "/gone");
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.code, SimErrc::Io);
}

// ------------------------------------------- warm-snapshot objects

/** A spec with an explicit warm boundary, and its captured snapshot. */
std::pair<ExperimentSpec, WarmCheckpoint>
capturedWarmup(DesignKind design)
{
    ExperimentSpec spec = tinySpec(design);
    spec.accesses = 120'000;
    spec.system.warmupAccesses = 60'000;
    WarmCheckpoint captured;
    runExperimentCk(spec, nullptr, &captured);
    return {spec, captured};
}

TEST(WarmObject, RoundTripAndResumeIdentity)
{
    const auto [spec, captured] = capturedWarmup(DesignKind::Unison);
    ASSERT_TRUE(captured.valid());
    const SimResult cold = runExperiment(spec);

    ResultStore store(tempDir("warm_roundtrip"));
    const std::string key = warmPrefixKey(spec);
    store.saveWarm(key, captured);
    ASSERT_TRUE(fileExists(store.warmObjectPath(key)));
    EXPECT_EQ(store.warmSaves(), 1u);

    WarmCheckpoint loaded;
    ASSERT_TRUE(store.lookupWarm(key, loaded));
    EXPECT_EQ(store.warmHits(), 1u);
    EXPECT_EQ(loaded.warmAccesses, captured.warmAccesses);
    EXPECT_EQ(loaded.bytes, captured.bytes);

    const SimResult resumed = runExperimentCk(spec, &loaded, nullptr);
    EXPECT_EQ(resultKey(resumed), resultKey(cold));
}

TEST(WarmObject, RejectsEveryDamageClass)
{
    const auto [spec, captured] = capturedWarmup(DesignKind::Alloy);
    ASSERT_TRUE(captured.valid());

    const std::string dir = tempDir("warm_damage");
    ResultStore store(dir);
    const std::string key = warmPrefixKey(spec);
    store.saveWarm(key, captured);
    const std::string path = store.warmObjectPath(key);
    const std::vector<std::uint8_t> good = slurp(path);
    ASSERT_GT(good.size(), 21u);

    const auto expectMiss = [&](const std::string &lookup_key,
                                const char *reason) {
        testing::internal::CaptureStderr();
        WarmCheckpoint out;
        EXPECT_FALSE(store.lookupWarm(lookup_key, out));
        EXPECT_FALSE(out.valid());
        const std::string warning =
            testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find("[store-rejected]"), std::string::npos);
        EXPECT_NE(warning.find("cold-warmup"), std::string::npos);
        EXPECT_NE(warning.find(reason), std::string::npos) << warning;
    };

    // One flipped byte per frame/payload field class.
    const std::vector<std::pair<const char *, std::size_t>> flips = {
        {"magic", 0},
        {"payload length", 4},
        {"payload crc", 8},
        {"payload head", 12},
        {"payload middle", 12 + (good.size() - 12) / 2},
        {"payload tail", good.size() - 1},
    };
    for (const auto &[what, offset] : flips) {
        SCOPED_TRACE(what);
        std::vector<std::uint8_t> damaged = good;
        damaged[offset] ^= 0x01;
        spit(path, damaged);
        expectMiss(key, "");
    }

    // Truncation at a few representative lengths (empty, mid-header,
    // bare header, mid-payload, one byte short).
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{3}, std::size_t{12},
          good.size() / 2, good.size() - 1}) {
        SCOPED_TRACE("truncated to " + std::to_string(cut));
        spit(path, {good.begin(), good.begin() + cut});
        expectMiss(key, "");
    }

    // Trailing garbage after a valid frame.
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0x55);
    spit(path, padded);
    expectMiss(key, "trailing bytes");

    // Embedded-key mismatch: a byte-identical object parked under a
    // different key's name must not resume that key.
    ExperimentSpec other = spec;
    other.seed = 999;
    const std::string other_key = warmPrefixKey(other);
    spit(store.warmObjectPath(other_key), good);
    expectMiss(other_key, "warm-prefix key mismatch");

    // Embedded-version mismatch: another build's snapshot renamed onto
    // this build's name is refused by its payload.
    {
        ResultStore old_build(dir, "unison-sim/0-ancient");
        old_build.saveWarm(key, captured);
        spit(path, slurp(old_build.warmObjectPath(key)));
    }
    expectMiss(key, "code version mismatch");

    // The pristine object still loads (the store is not sticky-broken).
    spit(path, good);
    WarmCheckpoint out;
    EXPECT_TRUE(store.lookupWarm(key, out));
}

TEST(WarmObject, OtherCodeVersionIsNeverLoaded)
{
    ExperimentSpec base = tinySpec(DesignKind::Unison);
    base.accesses = 90'000;
    base.system.warmupAccesses = 45'000;
    const std::vector<ExperimentSpec> specs{base};
    const std::vector<SimResult> plain = runExperiments(specs, 1);

    // Another build captured this very prefix into the same store.
    const std::string dir = tempDir("warm_version");
    const std::string key = warmPrefixKey(base);
    WarmCheckpoint captured;
    runExperimentCk(base, nullptr, &captured);
    ASSERT_TRUE(captured.valid());
    std::string old_path;
    {
        ResultStore old_build(dir, "unison-sim/0-ancient");
        old_build.saveWarm(key, captured);
        old_path = old_build.warmObjectPath(key);
        ASSERT_TRUE(fileExists(old_path));
    }

    ResultStore store(dir);
    EXPECT_NE(store.warmObjectPath(key), old_path);
    WarmCheckpoint out;
    EXPECT_FALSE(store.lookupWarm(key, out));

    // Through the runner: this build warms up cold, saves its own
    // snapshot, and the numbers match a store-less run.
    StoreCacheHook hook(store, specs);
    const std::vector<SimResult> with_store =
        runExperiments(specs, 1, nullptr, &hook);
    EXPECT_EQ(store.warmHits(), 0u);
    EXPECT_EQ(store.warmSaves(), 1u);
    EXPECT_EQ(resultKey(with_store[0]), resultKey(plain[0]));
    EXPECT_TRUE(fileExists(old_path)); // untouched, just never loaded
}

TEST(WarmObject, ShapeCorruptSnapshotFallsBackColdInRunner)
{
    // A frame whose CRC is valid but whose *state payload* is garbage
    // passes the store's checks and must be caught one layer down, by
    // the sticky StateReader inside System -- and the runner must then
    // deliver the same numbers as a store-less run.
    ExperimentSpec base = tinySpec(DesignKind::Unison);
    base.accesses = 90'000;
    base.system.warmupAccesses = 45'000;
    std::vector<ExperimentSpec> specs{base, base};
    specs[1].accesses = 120'000; // same warm prefix, longer window

    const std::vector<SimResult> plain = runExperiments(specs, 1);

    ResultStore store(tempDir("warm_shape"));
    const std::string key = warmPrefixKey(specs[0]);
    WarmCheckpoint bogus;
    bogus.warmAccesses = specs[0].system.warmupAccesses;
    bogus.bytes.assign(512, 0xab); // not a System serialization
    store.saveWarm(key, bogus);
    ASSERT_TRUE(fileExists(store.warmObjectPath(key)));

    StoreCacheHook hook(store, specs);
    const std::vector<SimResult> with_store =
        runExperiments(specs, 1, nullptr, &hook);
    ASSERT_EQ(with_store.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(resultKey(with_store[i]), resultKey(plain[i]))
            << "point " << i;
}

TEST(WarmObject, RunnerPersistsAndReusesSnapshots)
{
    // Two warm prefixes, two points each, on two worker threads: the
    // two leaders capture and publish concurrently.
    std::vector<ExperimentSpec> specs;
    for (const std::uint64_t seed : {7, 8}) {
        ExperimentSpec spec = tinySpec(DesignKind::Alloy, seed);
        spec.accesses = 90'000;
        spec.system.warmupAccesses = 45'000;
        specs.push_back(spec);
        spec.accesses = 120'000;
        specs.push_back(spec);
    }

    const std::vector<SimResult> plain = runExperiments(specs, 1);

    ResultStore store(tempDir("warm_reuse"));

    // First run: store misses, the leaders capture and publish.
    {
        StoreCacheHook hook(store, specs);
        const std::vector<SimResult> first =
            runExperiments(specs, 2, nullptr, &hook);
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultKey(first[i]), resultKey(plain[i]));
    }
    EXPECT_EQ(store.warmHits(), 0u);
    EXPECT_EQ(store.warmSaves(), 2u);
    for (const ExperimentSpec &spec : specs)
        EXPECT_TRUE(fileExists(store.warmObjectPath(warmPrefixKey(spec))));

    // Drop the results so the rerun must simulate: its warm-ups then
    // come from the store -- no leader runs, so nothing is captured or
    // saved again -- with identical numbers.
    for (const ExperimentSpec &spec : specs)
        ASSERT_EQ(
            ::unlink(store.objectPath(specFingerprint(spec)).c_str()), 0);
    {
        StoreCacheHook hook(store, specs);
        const std::vector<SimResult> second =
            runExperiments(specs, 2, nullptr, &hook);
        EXPECT_EQ(hook.hits(), 0u);
        for (std::size_t i = 0; i < specs.size(); ++i)
            EXPECT_EQ(resultKey(second[i]), resultKey(plain[i]));
    }
    EXPECT_EQ(store.warmHits(), 2u);
    EXPECT_EQ(store.warmSaves(), 2u);
}

// ------------------------------------------------------- state reader

TEST(StateReader, UnderrunZeroFillsAndReportsCorrupt)
{
    StateWriter w;
    w.pod(std::uint32_t{7});
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::uint32_t first = 0;
    in.pod(first);
    EXPECT_EQ(first, 7u);
    EXPECT_TRUE(in.ok());

    std::uint64_t missing = 99;
    in.pod(missing);
    EXPECT_EQ(missing, 0u) << "failed read must not leave stale data";
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.status().code, SimErrc::Corrupt);
    EXPECT_THROW(in.throwIfFailed(), SimError);

    // Sticky: later reads zero-fill too, even if bytes remain.
    std::uint8_t after = 42;
    in.pod(after);
    EXPECT_EQ(after, 0u);
}

TEST(StateReader, ImplausibleVectorCountCannotAllocate)
{
    StateWriter w;
    w.pod(std::uint64_t{1} << 60); // claims 2^60 elements follow
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::vector<std::uint64_t> v{1, 2, 3};
    in.podVectorResize(v); // must bounds-check BEFORE resizing
    EXPECT_FALSE(in.ok());
    EXPECT_TRUE(v.empty());
}

TEST(StateReader, ShapeMismatchZeroFillsInPlace)
{
    StateWriter w;
    const std::vector<std::uint32_t> saved{1, 2};
    w.podVector(saved);
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::vector<std::uint32_t> v{9, 9, 9}; // component expects three
    const std::uint32_t *data = v.data();
    in.podVectorExact(v);
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.data(), data) << "in-place fill must not reallocate";
    for (const std::uint32_t x : v)
        EXPECT_EQ(x, 0u);
}

TEST(StateReader, TrailingBytesAreCorrupt)
{
    StateWriter w;
    w.pod(std::uint16_t{1});
    w.pod(std::uint16_t{2});
    const std::vector<std::uint8_t> bytes = std::move(w).take();

    StateReader in(bytes);
    std::uint16_t only = 0;
    in.pod(only);
    in.expectEnd();
    EXPECT_FALSE(in.ok());
}

// ---------------------------------------------------- results schema

TEST(ResultsSchema, CarriesTheCodeVersionStamp)
{
    std::vector<ResultPoint> points = samplePoints(1);
    const json::Value doc =
        resultsToJson("smoke", "", kHash, std::move(points));
    std::string name, shard, hash, version;
    resultsFromJson(doc, &name, &shard, &hash, &version);
    EXPECT_EQ(version, kSimCodeVersion);
    EXPECT_EQ(hash, kHash);
}

} // namespace
} // namespace unison

/**
 * @file
 * Tests for the MemoryBackend seam (dram/backend.hh): backend
 * registry/factory behaviour, fast-vs-detailed zero-contention
 * equivalence, and the detailed controller's FR-FCFS invariants
 * (posted writes, drain watermarks, the starvation cap).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/state_io.hh"
#include "dram/backend.hh"
#include "dram/detailed.hh"
#include "dram/dram.hh"
#include "dram/timing.hh"

namespace unison {
namespace {

DramTimingCpu
stackedCpu()
{
    return DramTimingCpu::fromParams(stackedDramTiming());
}

// ------------------------------------------------- registry / factory

TEST(BackendRegistry, IdsRoundTrip)
{
    const std::vector<std::string> &ids = memoryBackendIds();
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], "fast");
    EXPECT_EQ(ids[1], "detailed");

    for (MemoryBackendKind kind :
         {MemoryBackendKind::Fast, MemoryBackendKind::Detailed}) {
        MemoryBackendKind parsed;
        ASSERT_TRUE(memoryBackendFromId(memoryBackendId(kind), parsed));
        EXPECT_EQ(parsed, kind);
        EXPECT_FALSE(memoryBackendSummary(kind).empty());
    }

    MemoryBackendKind parsed;
    EXPECT_FALSE(memoryBackendFromId("analytic", parsed));
    EXPECT_FALSE(memoryBackendFromId("", parsed));
}

TEST(BackendRegistry, FactorySelectsByOrganization)
{
    DramOrganization org = stackedDramOrganization();

    org.backend = MemoryBackendKind::Fast;
    auto fast = makeMemoryBackend(org, stackedDramTiming());
    EXPECT_NE(dynamic_cast<DramModule *>(fast.get()), nullptr);
    EXPECT_FALSE(fast->queueStats().any());

    org.backend = MemoryBackendKind::Detailed;
    auto detailed = makeMemoryBackend(org, stackedDramTiming());
    EXPECT_NE(dynamic_cast<DetailedBackend *>(detailed.get()), nullptr);

    // Both map a row index identically (shared interleaving in the
    // base class) and report the same unloaded latencies.
    EXPECT_EQ(fast->rowOfAddr(123456789), detailed->rowOfAddr(123456789));
    EXPECT_EQ(fast->unloadedRowHitLatency(64),
              detailed->unloadedRowHitLatency(64));
    EXPECT_EQ(fast->unloadedRowConflictLatency(64),
              detailed->unloadedRowConflictLatency(64));
}

// ---------------------------------- fast == detailed (reads, no load)

/**
 * With a strict single open row (openRowWindow=1) and no writes in
 * flight, the detailed controller must time every read cycle-for-cycle
 * like the analytic channel: the bank/bus/refresh arithmetic is shared
 * by construction, and the write queue is empty so FR-FCFS never
 * reorders anything.
 */
TEST(BackendEquivalence, ReadSinglesMatchCycleForCycle)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel fast(t, 8, /*open_row_window=*/1);
    DetailedChannel detailed(t, 8);

    // Row empty, row hit, row conflict -- the three service paths.
    const struct
    {
        std::uint64_t row;
        Cycle earliest;
    } singles[] = {{7, 1000}, {7, 5000}, {9, 50000}};

    for (const auto &s : singles) {
        const DramAccessTiming a = fast.access(0, s.row, 64, false,
                                               s.earliest);
        const DramAccessTiming b = detailed.access(0, s.row, 64, false,
                                                   s.earliest);
        EXPECT_EQ(a.completion, b.completion) << "row " << s.row;
        EXPECT_EQ(a.rowHit, b.rowHit) << "row " << s.row;
    }
}

TEST(BackendEquivalence, RandomReadStreamMatches)
{
    const DramTimingCpu t = stackedCpu();
    DramChannel fast(t, 8, /*open_row_window=*/1);
    DetailedChannel detailed(t, 8);

    Rng rng(321);
    Cycle at = 0;
    for (int i = 0; i < 5000; ++i) {
        const int bank = static_cast<int>(rng.below(8));
        const std::uint64_t row = rng.below(64);
        at += rng.below(40);
        const DramAccessTiming a = fast.access(bank, row, 64, false, at);
        const DramAccessTiming b =
            detailed.access(bank, row, 64, false, at);
        ASSERT_EQ(a.completion, b.completion) << "access " << i;
        ASSERT_EQ(a.rowHit, b.rowHit) << "access " << i;
    }
    EXPECT_EQ(fast.stats().rowHits.value(),
              detailed.stats().rowHits.value());
    EXPECT_EQ(fast.stats().activations.value(),
              detailed.stats().activations.value());
}

TEST(BackendEquivalence, PoolReadStreamMatches)
{
    DramOrganization org = stackedDramOrganization();
    org.openRowWindow = 1;
    DramModule fast(org, stackedDramTiming());
    DetailedBackend detailed(org, stackedDramTiming());

    Rng rng(11);
    Cycle at = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t row = rng.below(4096);
        at += rng.below(25);
        const DramAccessTiming a = fast.rowAccess(row, 64, false, at);
        const DramAccessTiming b = detailed.rowAccess(row, 64, false, at);
        ASSERT_EQ(a.completion, b.completion) << "access " << i;
        ASSERT_EQ(a.rowHit, b.rowHit) << "access " << i;
    }
    EXPECT_EQ(fast.stats().reads, detailed.stats().reads);
    EXPECT_EQ(fast.stats().rowHits, detailed.stats().rowHits);
    EXPECT_EQ(fast.stats().rowConflicts, detailed.stats().rowConflicts);
}

// --------------------------------------- FR-FCFS controller invariants

TEST(DetailedChannel, PostedWriteCompletesAtAcceptance)
{
    DetailedChannel ch(stackedCpu(), 8);
    const DramAccessTiming w = ch.access(0, 5, 64, true, 1234);
    EXPECT_EQ(w.completion, 1234u);
    EXPECT_FALSE(w.rowHit);
    EXPECT_EQ(ch.writeQueueSize(), 1);
    // Traffic counters count at drain time, not at acceptance.
    EXPECT_EQ(ch.stats().writes.value(), 0u);
}

TEST(DetailedChannel, WatermarksBoundTheWriteQueue)
{
    DetailedChannel ch(stackedCpu(), 8);

    Cycle at = 0;
    std::uint64_t enqueues = 0;
    for (int i = 0; i < 100; ++i) {
        at += 50;
        ch.access(i % 8, static_cast<std::uint64_t>(100 + i), 64, true,
                  at);
        ++enqueues;
        // Crossing the high watermark drains down to the low one
        // before the call returns, so the queue never sits at or
        // above the high mark between accesses.
        EXPECT_LT(ch.writeQueueSize(),
                  DetailedChannel::kWriteHighWatermark);
    }

    const MemoryQueueStats &q = ch.queueStats();
    // 24 writes trigger the first episode (24 -> 16), then every 8th
    // write triggers another: 10 episodes over 100 writes.
    EXPECT_EQ(q.writeDrains, 10u);
    EXPECT_EQ(q.drainedWrites,
              10u * (DetailedChannel::kWriteHighWatermark -
                     DetailedChannel::kWriteLowWatermark));
    EXPECT_EQ(ch.writeQueueSize(),
              static_cast<int>(enqueues - q.drainedWrites));
    EXPECT_EQ(ch.stats().writes.value(), q.drainedWrites);

    // Every enqueue sampled the occupancy histogram exactly once.
    std::uint64_t samples = 0;
    for (std::uint64_t bucket : q.occupancy)
        samples += bucket;
    EXPECT_EQ(samples, enqueues);
}

TEST(DetailedChannel, FrFcfsDrainPrefersOpenRow)
{
    DetailedChannel ch(stackedCpu(), 8);

    // Open row 5 in bank 0, then queue 23 writes to bank 1 and one to
    // the open (bank 0, row 5). The 24th enqueue crosses the high
    // watermark; the first drain must skip ahead to the row-hit write
    // even though it is the youngest entry.
    ch.access(0, 5, 64, false, 0);
    Cycle at = 1000;
    for (int i = 0; i < 23; ++i) {
        at += 50;
        ch.access(1, static_cast<std::uint64_t>(100 + i), 64, true, at);
    }
    EXPECT_EQ(ch.queueStats().frfcfsReorders, 0u);
    ch.access(0, 5, 64, true, at + 50);

    const MemoryQueueStats &q = ch.queueStats();
    EXPECT_EQ(q.writeDrains, 1u);
    EXPECT_EQ(q.drainedWrites, 8u);
    // Exactly one drain found a row hit deeper in the queue; the other
    // seven retire the oldest entry (bank 1's rows were all closed).
    EXPECT_EQ(q.frfcfsReorders, 1u);
    EXPECT_EQ(ch.writeQueueSize(), DetailedChannel::kWriteLowWatermark);
}

TEST(DetailedChannel, StarvationCapBoundsWriteBypasses)
{
    DetailedChannel ch(stackedCpu(), 8);

    ch.access(0, 1, 64, true, 0); // the write that would starve
    Cycle at = 100;
    for (int i = 0; i < 40; ++i) {
        at += 200;
        ch.access(1, 2, 64, false, at);
        // No queued write is ever left at or beyond the cap once a
        // read has been serviced.
        EXPECT_LT(ch.maxQueuedBypasses(),
                  static_cast<std::uint32_t>(
                      DetailedChannel::kStarvationCap));
    }
    // The 16th bypassing read forced the drain.
    EXPECT_EQ(ch.queueStats().starvationDrains, 1u);
    EXPECT_EQ(ch.writeQueueSize(), 0);
    EXPECT_EQ(ch.stats().writes.value(), 1u);
}

TEST(DetailedChannel, RandomStreamKeepsQueuedWritesUnderStarvationCap)
{
    // A random read/write stream that works every removal path: read
    // bypasses, starvation drains of the oldest write, watermark
    // drains, and FR-FCFS row-hit picks from deep in the queue. The
    // controller checks only the oldest queued write against the cap,
    // so a younger write carrying more bypasses would cross the cap
    // undrained and fail the bound below.
    DetailedChannel ch(stackedCpu(), 8);
    Rng rng(2024);
    Cycle at = 0;
    for (int i = 0; i < 20000; ++i) {
        at += rng.below(80);
        // Alternate write-heavy and read-heavy phases so the queue
        // both crosses its high watermark and sits under read traffic
        // long enough to starve.
        const bool write_phase = (i / 200) % 2 == 0;
        const bool is_write = rng.below(write_phase ? 4 : 16) < 3;
        ch.access(static_cast<int>(rng.below(8)), rng.below(4), 64,
                  is_write, at);
        if (!is_write) {
            ASSERT_LT(ch.maxQueuedBypasses(),
                      static_cast<std::uint32_t>(
                          DetailedChannel::kStarvationCap))
                << "read " << i;
        }
    }
    const MemoryQueueStats &q = ch.queueStats();
    EXPECT_GT(q.starvationDrains, 0u);
    EXPECT_GT(q.writeDrains, 0u);
    EXPECT_GT(q.frfcfsReorders, 0u);
}

TEST(DetailedChannel, StateRoundTripResumesIdentically)
{
    const DramTimingCpu t = stackedCpu();
    DetailedChannel a(t, 8);

    // History: reads and queued writes (the queue must survive the
    // checkpoint -- it is timing state, not statistics).
    Rng rng(99);
    Cycle at = 0;
    for (int i = 0; i < 300; ++i) {
        at += rng.below(60);
        const bool is_write = rng.below(3) == 0;
        a.access(static_cast<int>(rng.below(8)), rng.below(32), 64,
                 is_write, at);
    }
    ASSERT_GT(a.writeQueueSize(), 0);

    StateWriter out;
    a.saveState(out);
    const std::vector<std::uint8_t> bytes = std::move(out).take();

    DetailedChannel b(t, 8);
    StateReader in(bytes);
    b.loadState(in);
    EXPECT_EQ(b.writeQueueSize(), a.writeQueueSize());

    // Identical futures from the restored state.
    for (int i = 0; i < 300; ++i) {
        at += rng.below(60);
        const bool is_write = rng.below(3) == 0;
        const int bank = static_cast<int>(rng.below(8));
        const std::uint64_t row = rng.below(32);
        const DramAccessTiming ra = a.access(bank, row, 64, is_write, at);
        const DramAccessTiming rb = b.access(bank, row, 64, is_write, at);
        ASSERT_EQ(ra.completion, rb.completion) << "access " << i;
        ASSERT_EQ(ra.rowHit, rb.rowHit) << "access " << i;
    }
}

} // namespace
} // namespace unison

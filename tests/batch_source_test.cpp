/**
 * @file
 * Tests for the batched AccessSource path: nextBatch must produce
 * exactly the record stream that repeated next() calls produce, for
 * both the synthetic workload and the trace-file reader (whose chunked
 * buffers replaced the per-record fread path).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "trace/tracefile.hh"
#include "trace/workload.hh"

namespace unison {
namespace {

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.datasetBytes = 64_MiB;
    p.numCores = 4;
    p.numFunctions = 64;
    return p;
}

void
expectSameAccess(const MemoryAccess &a, const MemoryAccess &b)
{
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.instrsBefore, b.instrsBefore);
    EXPECT_EQ(a.isWrite, b.isWrite);
}

TEST(BatchSource, WorkloadBatchMatchesRepeatedNext)
{
    SyntheticWorkload by_next(smallParams(), 77);
    SyntheticWorkload by_batch(smallParams(), 77);

    // Single-core pulls: the shared generator RNG advances identically
    // when the same core is served, so the streams must match 1:1.
    const std::size_t kTotal = 4096;
    std::vector<MemoryAccess> batch(kTotal);
    ASSERT_EQ(by_batch.nextBatch(0, batch.data(), kTotal), kTotal);
    MemoryAccess one;
    for (std::size_t i = 0; i < kTotal; ++i) {
        ASSERT_TRUE(by_next.next(0, one));
        expectSameAccess(one, batch[i]);
    }
}

TEST(BatchSource, WorkloadMixedBatchSizesStayDeterministic)
{
    SyntheticWorkload a(smallParams(), 5);
    SyntheticWorkload b(smallParams(), 5);

    // Pulling the same core in chunks of different sizes covers the
    // same generator path; chunk boundaries must not matter.
    std::vector<MemoryAccess> wide(1000), narrow(1000);
    ASSERT_EQ(a.nextBatch(1, wide.data(), 1000), 1000u);
    std::size_t got = 0;
    while (got < 1000)
        got += b.nextBatch(1, narrow.data() + got,
                           std::min<std::size_t>(17, 1000 - got));
    for (std::size_t i = 0; i < 1000; ++i)
        expectSameAccess(wide[i], narrow[i]);
}

TEST(BatchSource, DefaultNextBatchForwardsToNext)
{
    // A source that only implements next() still works batched via
    // the AccessSource default implementation.
    struct Counting final : AccessSource
    {
        std::uint64_t n = 0;
        bool
        next(int core, MemoryAccess &out) override
        {
            if (n >= 10)
                return false;
            out.addr = (n++) * kBlockBytes;
            out.core = static_cast<std::uint8_t>(core);
            return true;
        }
        int numCores() const override { return 1; }
    };

    Counting source;
    MemoryAccess buf[16];
    EXPECT_EQ(source.nextBatch(0, buf, 16), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(buf[i].addr, i * kBlockBytes);
    EXPECT_EQ(source.nextBatch(0, buf, 16), 0u);
}

TEST(BatchSource, TraceReaderBatchMatchesRepeatedNext)
{
    const std::string path = testing::TempDir() + "batch.trace";
    const int cores = 3;
    const std::uint64_t n = 3 * (kTraceReadChunk + 111);
    {
        TraceWriter writer(path, cores);
        SyntheticWorkload w(smallParams(), 9);
        MemoryAccess acc;
        for (std::uint64_t i = 0; i < n; ++i) {
            const int core = static_cast<int>(i % cores);
            w.next(core, acc);
            acc.core = static_cast<std::uint8_t>(core);
            writer.write(acc);
        }
    }

    TraceReader by_next(path);
    TraceReader by_batch(path);
    for (int core = 0; core < cores; ++core) {
        const std::size_t per_core = n / cores;
        std::vector<MemoryAccess> batch(per_core);
        ASSERT_EQ(by_batch.nextBatch(core, batch.data(), per_core),
                  per_core);
        MemoryAccess one;
        for (std::size_t i = 0; i < per_core; ++i) {
            ASSERT_TRUE(by_next.next(core, one));
            expectSameAccess(one, batch[i]);
            EXPECT_EQ(batch[i].core, core);
        }
    }
    MemoryAccess acc;
    EXPECT_FALSE(by_next.next(0, acc));
    EXPECT_EQ(by_batch.nextBatch(0, &acc, 1), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace unison

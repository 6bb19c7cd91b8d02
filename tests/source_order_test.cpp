/**
 * @file
 * The per-core stream contract of AccessSource::next (trace/access.hh):
 * the sequence a core receives must not depend on how calls for the
 * other cores interleave with its own. The timing loop relies on it
 * when a core runs its L1 hits ahead of the other cores. Every
 * built-in source is fed two call orders -- round-robin and a seeded
 * shuffle -- and every core must receive the identical sequence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/mix.hh"
#include "trace/scenarios.hh"
#include "trace/tracefile.hh"
#include "trace/workload.hh"

namespace unison {
namespace {

using Streams = std::vector<std::vector<MemoryAccess>>;

/** Pull `per_core` references for every core; `shuffled` picks the
 *  next core at random among those still short of `per_core`. A core
 *  whose stream drains stops early. */
Streams
pull(AccessSource &source, std::size_t per_core, bool shuffled)
{
    const int cores = source.numCores();
    Streams streams(static_cast<std::size_t>(cores));
    std::vector<int> open;
    for (int c = 0; c < cores; ++c)
        open.push_back(c);
    Rng rng(2024);
    std::size_t turn = 0;
    while (!open.empty()) {
        const std::size_t slot =
            shuffled ? rng.below(open.size()) : turn++ % open.size();
        const int core = open[slot];
        std::vector<MemoryAccess> &stream =
            streams[static_cast<std::size_t>(core)];
        MemoryAccess acc;
        if (stream.size() < per_core && source.next(core, acc)) {
            stream.push_back(acc);
            if (stream.size() < per_core)
                continue;
        }
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(slot));
    }
    return streams;
}

void
expectSameStreams(const Streams &a, const Streams &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
        SCOPED_TRACE("core " + std::to_string(c));
        ASSERT_EQ(a[c].size(), b[c].size());
        ASSERT_FALSE(a[c].empty());
        for (std::size_t i = 0; i < a[c].size(); ++i) {
            ASSERT_EQ(a[c][i].addr, b[c][i].addr) << "reference " << i;
            ASSERT_EQ(a[c][i].pc, b[c][i].pc) << "reference " << i;
            ASSERT_EQ(a[c][i].instrsBefore, b[c][i].instrsBefore);
            ASSERT_EQ(a[c][i].isWrite, b[c][i].isWrite);
            ASSERT_EQ(a[c][i].core, c);
        }
    }
}

/** Two fresh sources from `make`, one pulled round-robin and one
 *  shuffled, must agree core by core. */
template <typename Make>
void
expectOrderIndependent(Make make, std::size_t per_core)
{
    auto round_robin = make();
    auto shuffled = make();
    expectSameStreams(pull(*round_robin, per_core, false),
                      pull(*shuffled, per_core, true));
}

TEST(SourceOrder, SyntheticWorkloadSixteenCores)
{
    WorkloadParams params = workloadParams(Workload::WebServing);
    params.numCores = 16;
    expectOrderIndependent(
        [&] { return std::make_unique<SyntheticWorkload>(params, 42); },
        4000);
}

TEST(SourceOrder, SyntheticWorkloadCoreZeroKeepsTheOneCoreStream)
{
    // Core 0 draws from the construction generator, so a one-core
    // workload (each MixedWorkload part) sees the same stream as core
    // 0 of a wider one.
    WorkloadParams one = workloadParams(Workload::DataServing);
    one.numCores = 1;
    WorkloadParams wide = one;
    wide.numCores = 8;
    SyntheticWorkload a(one, 9);
    SyntheticWorkload b(wide, 9);
    MemoryAccess x, y, other;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(a.next(0, x));
        ASSERT_TRUE(b.next(0, y));
        b.next(1 + i % 7, other);
        ASSERT_EQ(x.addr, y.addr) << "reference " << i;
        ASSERT_EQ(x.instrsBefore, y.instrsBefore);
    }
}

TEST(SourceOrder, MixedWorkload)
{
    const std::vector<MixPart> parts =
        parseMixSpec("webserving:3,tpch:2,chase,prodcons:2,gups");
    expectOrderIndependent(
        [&] { return std::make_unique<MixedWorkload>(parts, 9, 7); },
        3000);
}

TEST(SourceOrder, ScenarioSources)
{
    for (ScenarioKind kind :
         {ScenarioKind::PointerChase, ScenarioKind::StreamScan,
          ScenarioKind::RandomUpdate, ScenarioKind::ProducerConsumer,
          ScenarioKind::YcsbKv, ScenarioKind::DlrmEmbed,
          ScenarioKind::FileServe}) {
        SCOPED_TRACE(static_cast<int>(kind));
        ScenarioParams params = scenarioParams(kind);
        params.footprintBytes = 1ull << 22;
        params.numKeys = 1ull << 16;
        expectOrderIndependent(
            [&] {
                return std::make_unique<ScenarioSource>(
                    params, 5, 0, 1ull << 40, 1ull << 41);
            },
            3000);
    }
}

TEST(SourceOrder, TraceReader)
{
    // A finite source: every core's stream drains at the same
    // position whatever the order the reader is asked in.
    const std::string path = testing::TempDir() + "source_order.trace";
    const int cores = 4;
    WorkloadParams params = workloadParams(Workload::WebServing);
    params.numCores = cores;
    {
        TraceWriter writer(path, cores);
        SyntheticWorkload w(params, 3);
        Rng pick(8);
        MemoryAccess acc;
        for (std::uint64_t i = 0; i < 3 * kTraceReadChunk; ++i) {
            const int core = static_cast<int>(pick.below(cores));
            w.next(core, acc);
            writer.write(acc);
        }
    }
    expectOrderIndependent(
        [&] { return std::make_unique<TraceReader>(path); },
        3 * kTraceReadChunk);
    std::remove(path.c_str());
}

} // namespace
} // namespace unison

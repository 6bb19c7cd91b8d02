/**
 * @file
 * Tests for common/prefault.hh: assignPrefaulted is assign() into a
 * prefaulted buffer -- same size, same contents, same checkpoint
 * bytes -- and on a kernel that supports it, prefault really does make
 * a large buffer resident before anything writes it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "cache/organization.hh"
#include "cache/page_set.hh"
#include "cache/sram_cache.hh"
#include "common/prefault.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace unison {
namespace {

template <typename T>
void
expectSameAsAssign(std::size_t n, const T &value)
{
    std::vector<T> plain;
    plain.assign(n, value);
    std::vector<T> filled(3, value); // a stale buffer to be released
    assignPrefaulted(filled, n, value);
    ASSERT_EQ(filled.size(), plain.size());
    if (n > 0) {
        ASSERT_EQ(0, std::memcmp(filled.data(), plain.data(),
                                 n * sizeof(T)));
    }
}

TEST(AssignPrefaulted, MatchesAssignBelowAndAboveTheMinimumSize)
{
    for (std::size_t bytes :
         {std::size_t{0}, std::size_t{4096}, kPrefaultMinBytes - 8,
          kPrefaultMinBytes, kPrefaultMinBytes + 3 * kPrefaultSliceBytes +
                                 4096 + 8}) {
        SCOPED_TRACE(bytes);
        expectSameAsAssign<std::uint64_t>(bytes / sizeof(std::uint64_t),
                                          0x0123456789abcdefull);
        PageWayHot hot;
        hot.fetched = 7;
        hot.touched = 3;
        hot.dirty = 1;
        hot.lastUse = 99;
        expectSameAsAssign<PageWayHot>(bytes / sizeof(PageWayHot), hot);
    }
}

/** This process's resident set in bytes, or -1 if unreadable. */
long long
residentBytes()
{
    std::ifstream in("/proc/self/statm");
    long long size = 0;
    long long resident = -1;
    if (!(in >> size >> resident))
        return -1;
    return resident * sysconf(_SC_PAGESIZE);
}

TEST(AssignPrefaulted, PrefaultMakesALargeBufferResidentBeforeTheFill)
{
#ifndef MADV_POPULATE_WRITE
    GTEST_SKIP() << "no MADV_POPULATE_WRITE on this platform";
#else
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "one CPU: prefault leaves the fill to fault";
    const std::size_t bytes = std::size_t{64} << 20;
    // A probe page tells a kernel without MADV_POPULATE_WRITE apart.
    std::vector<std::uint8_t> probe;
    probe.reserve(bytes);
    const long page = sysconf(_SC_PAGESIZE);
    const auto first = (reinterpret_cast<std::uintptr_t>(probe.data()) +
                        page - 1) & ~static_cast<std::uintptr_t>(page - 1);
    if (madvise(reinterpret_cast<void *>(first), page,
                MADV_POPULATE_WRITE) != 0)
        GTEST_SKIP() << "kernel rejects MADV_POPULATE_WRITE";
    const long long before = residentBytes();
    if (before < 0)
        GTEST_SKIP() << "no /proc/self/statm";

    std::vector<std::uint64_t> words;
    words.reserve(bytes / sizeof(std::uint64_t));
    prefault(words.data(), bytes);
    const long long after = residentBytes();
    // Nothing has written the buffer yet, so only prefault can have
    // made it resident.
    EXPECT_GE(after - before, static_cast<long long>(bytes) - (1 << 20))
        << "resident " << before << " -> " << after << " bytes";
#endif
}

std::vector<std::uint8_t>
snapshot(const SetAssocCache &cache)
{
    StateWriter out;
    cache.saveState(out);
    return std::move(out).take();
}

std::vector<std::uint8_t>
snapshot(const PageOrganization &org)
{
    StateWriter out;
    org.saveState(out);
    return std::move(out).take();
}

TEST(AssignPrefaulted, SetAssocCacheCheckpointRoundTripsByteIdentically)
{
    // Every SRAM and page-organization array is filled through
    // assignPrefaulted, whatever its size; the threaded path itself is
    // covered above.
    SramCacheConfig config;
    config.name = "l2";
    config.sizeBytes = 32ull << 20;
    config.assoc = 16;
    SetAssocCache a(config);
    Rng rng(7);
    for (int i = 0; i < 200000; ++i)
        a.access(blockAddress(rng.below(1u << 22)), rng.below(4) == 0);
    const std::vector<std::uint8_t> bytes = snapshot(a);

    SetAssocCache b(config);
    StateReader in(bytes);
    b.loadState(in);
    EXPECT_EQ(snapshot(b), bytes);
}

TEST(AssignPrefaulted, PageOrganizationCheckpointRoundTripsByteIdentically)
{
    PageOrganization a;
    a.init(15, 1u << 16, 4);
    Rng rng(11);
    for (int i = 0; i < 100000; ++i) {
        const PageLocation loc = a.locate(blockAddress(rng.below(1u << 26)));
        if (a.findWay(loc.set, loc.tag) >= 0)
            continue;
        PageInstall install;
        install.tag = loc.tag;
        install.pcHash = static_cast<std::uint32_t>(rng.below(1u << 30));
        install.trigger = static_cast<std::uint8_t>(loc.offset);
        install.fetched = 1u << loc.offset;
        install.touched = 1u << loc.offset;
        install.lastUse = static_cast<std::uint32_t>(i);
        a.ways().install(a.setBase(loc.set) +
                             static_cast<std::size_t>(a.pickVictim(loc.set)),
                         install);
    }
    const std::vector<std::uint8_t> bytes = snapshot(a);

    PageOrganization b;
    b.init(15, 1u << 16, 4);
    StateReader in(bytes);
    b.loadState(in);
    EXPECT_EQ(snapshot(b), bytes);
}

} // namespace
} // namespace unison

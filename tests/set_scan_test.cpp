/**
 * @file
 * Unit tests for the packed SoA tag-scan helpers (set_scan.hh) and the
 * shared page-way SoA container (page_set.hh) that every cache model's
 * hot lookup now runs through: hit/miss/MRU-hint behaviour at assoc 1
 * and 4, and indexing with a non-power-of-two set count (the Unison
 * geometry routinely produces one).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/page_set.hh"
#include "cache/set_scan.hh"

namespace unison {
namespace {

constexpr std::uint64_t kValid = 1ull << 63;
constexpr std::uint64_t kDirty = 1ull << 62;

TEST(SetScan, Assoc1HitAndMiss)
{
    const std::uint64_t tags[1] = {kValid | 42};
    EXPECT_EQ(scanWays(tags, 1, ~0ull, kValid | 42), 0);
    EXPECT_EQ(scanWays(tags, 1, ~0ull, kValid | 43), -1);

    const std::uint64_t invalid[1] = {0};
    EXPECT_EQ(scanWays(invalid, 1, ~0ull, kValid | 0), -1);
}

TEST(SetScan, Assoc4FindsEveryWay)
{
    std::uint64_t tags[4] = {kValid | 10, kValid | 11, kValid | 12,
                             kValid | 13};
    for (std::uint32_t w = 0; w < 4; ++w)
        EXPECT_EQ(scanWays(tags, 4, ~0ull, kValid | (10 + w)),
                  static_cast<int>(w));
    EXPECT_EQ(scanWays(tags, 4, ~0ull, kValid | 14), -1);
    // An invalid way must not match even on a zero tag.
    tags[2] = 0;
    EXPECT_EQ(scanWays(tags, 4, ~0ull, kValid | 0), -1);
    EXPECT_EQ(scanWays(tags, 4, ~0ull, kValid | 12), -1);
}

TEST(SetScan, MaskIgnoresDirtyBit)
{
    // The SRAM caches fold a dirty bit into the packed word; the scan
    // must hit regardless of its state.
    const std::uint64_t tags[4] = {kValid | 5, kValid | kDirty | 6, 0, 0};
    EXPECT_EQ(scanWays(tags, 4, ~kDirty, kValid | 5), 0);
    EXPECT_EQ(scanWays(tags, 4, ~kDirty, kValid | 6), 1);
    EXPECT_EQ(scanWays(tags, 4, ~kDirty, kValid | 7), -1);
}

TEST(SetScan, MruHintHitAndFallback)
{
    const std::uint64_t tags[4] = {kValid | 20, kValid | 21, kValid | 22,
                                   kValid | 23};
    // Hint correct: the hinted way is returned.
    EXPECT_EQ(scanWaysMru(tags, 4, ~0ull, kValid | 22, 2), 2);
    // Hint wrong: falls back to the full scan and still finds the way.
    EXPECT_EQ(scanWaysMru(tags, 4, ~0ull, kValid | 20, 3), 0);
    // Miss with any hint stays a miss.
    EXPECT_EQ(scanWaysMru(tags, 4, ~0ull, kValid | 99, 1), -1);
    // Assoc 1: the only way doubles as the hint.
    EXPECT_EQ(scanWaysMru(tags, 1, ~0ull, kValid | 20, 0), 0);
    EXPECT_EQ(scanWaysMru(tags, 1, ~0ull, kValid | 21, 0), -1);
}

TEST(SetScan, VictimPrefersInvalidThenLru)
{
    std::uint64_t tags[4] = {kValid | 1, kValid | 2, kValid | 3,
                             kValid | 4};
    std::uint32_t last_use[4] = {40, 10, 30, 20};
    // The victim half of the fused scan, probing a tag no way holds.
    const auto victim = [&](std::uint32_t assoc) {
        int hit = 0;
        std::uint32_t way = 99;
        scanSet(tags, last_use, assoc, ~0ull, kValid | 9, kValid, hit,
                way);
        EXPECT_EQ(hit, -1);
        return way;
    };
    // All valid: LRU way (smallest stamp) wins.
    EXPECT_EQ(victim(4), 1u);
    // First-wins on stamp ties.
    last_use[3] = 10;
    EXPECT_EQ(victim(4), 1u);
    // An invalid way beats any stamp.
    tags[2] = 0;
    EXPECT_EQ(victim(4), 2u);
    // Assoc 1 degenerates to way 0.
    EXPECT_EQ(victim(1), 0u);
}

TEST(SetScan, PageWaySoaNonPowerOfTwoSets)
{
    // Unison geometries give non-power-of-two set counts; the SoA
    // container indexes sets as set * assoc with no power-of-two
    // assumption. 3 sets x 4 ways.
    constexpr std::uint32_t kAssoc = 4;
    constexpr std::uint64_t kSets = 3;
    PageWaySoa soa;
    soa.resize(kSets * kAssoc);

    // Install a distinct tag in one way of every set.
    for (std::uint64_t set = 0; set < kSets; ++set) {
        const std::size_t idx = set * kAssoc + (set % kAssoc);
        soa.tagv[idx] = PageWaySoa::kValid | (100 + set);
        soa.hot[idx].lastUse = static_cast<std::uint32_t>(set + 1);
    }

    for (std::uint64_t set = 0; set < kSets; ++set) {
        const std::size_t base = set * kAssoc;
        EXPECT_EQ(soa.findWay(base, kAssoc, 100 + set),
                  static_cast<int>(set % kAssoc));
        // Tags of *other* sets must not be visible in this set.
        const std::uint64_t other = 100 + ((set + 1) % kSets);
        EXPECT_EQ(soa.findWay(base, kAssoc, other), -1);
        // Victim preference: some way of this set is still invalid.
        const std::uint32_t victim = soa.pickVictim(base, kAssoc);
        EXPECT_LT(victim, kAssoc);
        EXPECT_FALSE(soa.valid(base + victim));
    }

    // Fill set 1 completely and check the LRU victim.
    const std::size_t base = 1 * kAssoc;
    for (std::uint32_t w = 0; w < kAssoc; ++w) {
        soa.tagv[base + w] = PageWaySoa::kValid | (200 + w);
        soa.hot[base + w].lastUse = 50 - w; // way 3 is oldest
    }
    EXPECT_EQ(soa.pickVictim(base, kAssoc), 3u);
    soa.invalidate(base + 2);
    EXPECT_EQ(soa.pickVictim(base, kAssoc), 2u);
    EXPECT_EQ(soa.findWay(base, kAssoc, 202), -1);
    EXPECT_EQ(soa.findWay(base, kAssoc, 203), 3);
}

} // namespace
} // namespace unison

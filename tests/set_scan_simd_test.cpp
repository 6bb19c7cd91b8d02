/**
 * @file
 * Property tests pinning the vectorized set scans
 * (cache/set_scan_simd.hh) to the scalar reference implementations in
 * set_scan.hh: for every associativity the designs use (1-32, plus a
 * wide 113-way set) and randomized tag words, masks, keys and
 * stamps, the *Fast entry points must return exactly what the scalar
 * loops return -- including on inputs live sets never produce
 * (duplicate matching tags, duplicate stamps, all-invalid sets) so the
 * equivalence is total, not merely "equivalent on reachable states".
 *
 * In a UNISON_FORCE_SCALAR_SCAN build (or on a host without the vector
 * units) the *Fast functions *are* the scalar loops and these tests
 * degenerate to tautologies; the CI matrix runs both builds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/set_scan.hh"
#include "cache/set_scan_simd.hh"
#include "common/rng.hh"

namespace unison {
namespace {

/** The associativities under test: every design width plus odd sizes
 *  that exercise the vector kernels' scalar tails. */
const std::uint32_t kAssocs[] = {1,  2,  3,  4,  5,  7,  8, 12,
                                 16, 17, 31, 32, 113};

struct RandomSet
{
    std::vector<std::uint64_t> tags;
    std::vector<std::uint32_t> stamps;
};

/**
 * Build a set whose words collide often: tags drawn from a tiny
 * alphabet (duplicates likely), valid/dirty bits flipped independently,
 * stamps drawn from {0,1,2} half the time (duplicate stamps) and the
 * full 32-bit range otherwise.
 */
RandomSet
randomSet(Rng &rng, std::uint32_t assoc)
{
    RandomSet set;
    set.tags.resize(assoc);
    set.stamps.resize(assoc);
    for (std::uint32_t w = 0; w < assoc; ++w) {
        std::uint64_t word = rng.below(8); // small tag alphabet
        if (rng.below(8) != 0)             // mostly-valid sets
            word |= kWayValidBit;
        if (rng.below(2) != 0)
            word |= kWayDirtyBit;
        set.tags[w] = word;
        set.stamps[w] = rng.below(2) != 0
                            ? static_cast<std::uint32_t>(rng.below(3))
                            : static_cast<std::uint32_t>(rng.next());
    }
    return set;
}

TEST(SetScanSimd, ScanWaysMatchesScalar)
{
    Rng rng(0x5e7a11);
    for (std::uint32_t assoc : kAssocs) {
        for (int iter = 0; iter < 2000; ++iter) {
            const RandomSet set = randomSet(rng, assoc);
            // Alternate between a key guaranteed present (hit case)
            // and a random key (mostly miss).
            std::uint64_t key;
            const std::uint64_t mask =
                rng.below(2) != 0 ? ~0ull : ~kWayDirtyBit;
            if (rng.below(2) != 0)
                key = set.tags[rng.below(assoc)] & mask;
            else
                key = (kWayValidBit | rng.below(8)) & mask;
            EXPECT_EQ(
                scanWaysFast(set.tags.data(), assoc, mask, key),
                scanWays(set.tags.data(), assoc, mask, key))
                << "assoc " << assoc << " iter " << iter;
        }
    }
}

TEST(SetScanSimd, ScanWaysMruMatchesScalar)
{
    Rng rng(0xa11ce);
    for (std::uint32_t assoc : kAssocs) {
        for (int iter = 0; iter < 1000; ++iter) {
            const RandomSet set = randomSet(rng, assoc);
            const std::uint32_t mru =
                static_cast<std::uint32_t>(rng.below(assoc));
            // Half the time aim the key at a non-hinted way so the
            // hint misses and the full scan runs.
            std::uint64_t key;
            if (rng.below(2) != 0)
                key = set.tags[rng.below(assoc)];
            else
                key = kWayValidBit | rng.below(8);
            EXPECT_EQ(scanWaysMruFast(set.tags.data(), assoc, ~0ull,
                                      key, mru),
                      scanWaysMru(set.tags.data(), assoc, ~0ull, key,
                                  mru))
                << "assoc " << assoc << " iter " << iter;
        }
    }
}

TEST(SetScanSimd, ScanSetMatchesScalar)
{
    Rng rng(0xf00d);
    for (std::uint32_t assoc : kAssocs) {
        for (int iter = 0; iter < 2000; ++iter) {
            const RandomSet set = randomSet(rng, assoc);
            const std::uint64_t mask =
                rng.below(2) != 0 ? ~0ull : ~kWayDirtyBit;
            std::uint64_t key;
            if (rng.below(2) != 0)
                key = set.tags[rng.below(assoc)] & mask;
            else
                key = (kWayValidBit | rng.below(8)) & mask;

            int hit_ref = -2, hit_fast = -3;
            std::uint32_t victim_ref = 0, victim_fast = 0;
            scanSet(set.tags.data(), set.stamps.data(), assoc, mask,
                    key, kWayValidBit, hit_ref, victim_ref);
            scanSetFast(set.tags.data(), set.stamps.data(), assoc,
                        mask, key, kWayValidBit, hit_fast, victim_fast);
            EXPECT_EQ(hit_fast, hit_ref)
                << "assoc " << assoc << " iter " << iter;
            EXPECT_EQ(victim_fast, victim_ref)
                << "assoc " << assoc << " iter " << iter;
        }
    }
}

TEST(SetScanSimd, AllInvalidPicksWayZero)
{
    for (std::uint32_t assoc : kAssocs) {
        const std::vector<std::uint64_t> tags(assoc, 0);
        const std::vector<std::uint32_t> stamps(assoc, 7);
        int hit = 0;
        std::uint32_t victim = 99;
        scanSetFast(tags.data(), stamps.data(), assoc, ~0ull,
                    kWayValidBit | 1, kWayValidBit, hit, victim);
        EXPECT_EQ(hit, -1);
        EXPECT_EQ(victim, 0u);
    }
}

/** Fixed-vector check of the victim order the key encoding defines:
 *  lowest invalid way first, else min stamp, lowest way on ties. */
TEST(SetScanSimd, VictimOrderFixedVectors)
{
    std::uint64_t tags[8];
    std::uint32_t stamps[8] = {9, 4, 4, 6, 2, 2, 8, 3};
    for (std::uint32_t w = 0; w < 8; ++w)
        tags[w] = kWayValidBit | w;
    const auto victim = [&] {
        int hit = 0;
        std::uint32_t way = 99;
        scanSetFast(tags, stamps, 8, ~0ull, kWayValidBit | 8,
                    kWayValidBit, hit, way);
        EXPECT_EQ(hit, -1);
        return way;
    };
    // All valid: stamp 2 is minimal, ways 4 and 5 tie -> way 4.
    EXPECT_EQ(victim(), 4u);
    // Invalidate ways 6 and 3: lowest invalid way wins -> way 3.
    tags[6] = 0;
    tags[3] = 0;
    EXPECT_EQ(victim(), 3u);
}

} // namespace
} // namespace unison

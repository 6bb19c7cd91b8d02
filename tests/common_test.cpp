/**
 * @file
 * Unit tests for the common substrate: bit operations, the
 * reciprocal divider the cache address mappings depend on,
 * deterministic RNG, the Zipf sampler, and the argument/size parsers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/argparse.hh"
#include "common/bitops.hh"
#include "common/fastdiv.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace unison {
namespace {

TEST(BitOps, PowerOfTwoPredicates)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(960));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(4097), 12u);
    EXPECT_EQ(exactLog2(1ull << 33), 33u);
}

TEST(BitOps, ExtractAndPopcount)
{
    EXPECT_EQ(extractBits(0xdeadbeefull, 8, 8), 0xbeull);
    EXPECT_EQ(popCount(0xffull), 8u);
    EXPECT_EQ(popCount(0), 0u);
}

TEST(BitOps, XorFoldStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.next();
        EXPECT_LT(xorFold(v, 12), 1ull << 12);
        EXPECT_LT(xorFold(v, 16), 1ull << 16);
    }
    // Folding must depend on high bits, not just truncate.
    EXPECT_NE(xorFold(0x1000000000ull, 12), 0u);
}

TEST(BlockGeometry, AddressHelpers)
{
    EXPECT_EQ(blockNumber(0), 0u);
    EXPECT_EQ(blockNumber(63), 0u);
    EXPECT_EQ(blockNumber(64), 1u);
    EXPECT_EQ(blockAddress(5), 320u);
    EXPECT_EQ(kBlocksPerRow, 128u);
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
}

TEST(FastDiv, MatchesHardwareDivisionExactly)
{
    // Divisors the address mappings actually use, plus adversarial
    // ones (Mersenne-like, near powers of two, huge).
    const std::uint64_t divisors[] = {
        1, 2, 3, 4, 5, 7, 8, 15, 28, 31, 32, 112, 113, 960, 1984,
        4096, 8191, 8192, 8193, 65535, 1'000'003, 87'381'000,
        (1ull << 32) - 1, (1ull << 32) + 1, (1ull << 52) - 5,
        ~0ull, ~0ull - 1};
    Rng rng(77);
    for (std::uint64_t d : divisors) {
        const FastDiv64 fd(d);
        EXPECT_EQ(fd.divisor(), d);
        // Edges: 0, 1, d-1, d, d+1, multiples, and the u64 extremes.
        const std::uint64_t edges[] = {
            0, 1, d - 1, d, d + 1, 2 * d, 2 * d + 1, 17 * d,
            ~0ull, ~0ull - 1, ~0ull / 2, 1ull << 63};
        for (std::uint64_t n : edges) {
            ASSERT_EQ(fd.div(n), n / d) << "n=" << n << " d=" << d;
            ASSERT_EQ(fd.mod(n), n % d) << "n=" << n << " d=" << d;
        }
        for (int i = 0; i < 2000; ++i) {
            std::uint64_t n = rng.next();
            // Mix in small and mid-range numerators too.
            if (i % 3 == 1)
                n >>= 32;
            if (i % 3 == 2)
                n >>= 48;
            std::uint64_t q, r;
            fd.divMod(n, q, r);
            ASSERT_EQ(q, n / d) << "n=" << n << " d=" << d;
            ASSERT_EQ(r, n % d) << "n=" << n << " d=" << d;
        }
    }
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        const std::uint64_t v = rng.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, GeometricMeanApproximatelyCorrect)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(6.0));
    const double mean = sum / n;
    EXPECT_NEAR(mean, 6.0, 0.25);
}

TEST(Zipf, UniformWhenAlphaZero)
{
    Rng rng(5);
    ZipfSampler zipf(10, 0.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        counts[zipf.sample(rng)]++;
    for (const auto &[rank, count] : counts) {
        EXPECT_LT(rank, 10u);
        EXPECT_NEAR(count, 5000, 700);
    }
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(5);
    ZipfSampler zipf(1u << 20, 0.9);
    std::uint64_t low = 0, total = 200000;
    for (std::uint64_t i = 0; i < total; ++i) {
        if (zipf.sample(rng) < 1024)
            ++low;
    }
    // With alpha=0.9 a large share of mass sits in the first 1K ranks
    // of a 1M-rank domain; uniform would give ~0.1%.
    EXPECT_GT(static_cast<double>(low) / total, 0.20);
}

TEST(Zipf, RatioMatchesTheory)
{
    Rng rng(17);
    const double alpha = 1.0;
    ZipfSampler zipf(1000, alpha);
    int rank0 = 0, rank9 = 0;
    for (int i = 0; i < 400000; ++i) {
        const std::uint64_t r = zipf.sample(rng);
        if (r == 0)
            ++rank0;
        else if (r == 9)
            ++rank9;
    }
    // P(rank 0) / P(rank 9) should be ~ (10/1)^alpha = 10.
    const double ratio = static_cast<double>(rank0) / rank9;
    EXPECT_NEAR(ratio, 10.0, 2.0);
}

TEST(ArgParse, ParsesOptionsAndFlags)
{
    ArgParser parser("test");
    parser.addOption("capacity", "512M", "cap");
    parser.addOption("count", "5", "n");
    parser.addFlag("quick", "q");
    const char *argv[] = {"prog", "--capacity=1G", "--count", "12",
                          "--quick"};
    parser.parse(5, argv);
    EXPECT_EQ(parser.getString("capacity"), "1G");
    EXPECT_EQ(parser.getInt("count"), 12);
    EXPECT_TRUE(parser.getFlag("quick"));
    EXPECT_TRUE(parser.wasProvided("capacity"));
}

TEST(ArgParse, DefaultsApply)
{
    ArgParser parser("test");
    parser.addOption("count", "5", "n");
    parser.addFlag("quick", "q");
    const char *argv[] = {"prog"};
    parser.parse(1, argv);
    EXPECT_EQ(parser.getInt("count"), 5);
    EXPECT_FALSE(parser.getFlag("quick"));
    EXPECT_FALSE(parser.wasProvided("count"));
}

TEST(SizeParsing, RoundTrips)
{
    EXPECT_EQ(parseSize("128M"), 128_MiB);
    EXPECT_EQ(parseSize("1G"), 1_GiB);
    EXPECT_EQ(parseSize("8GB"), 8_GiB);
    EXPECT_EQ(parseSize("4096"), 4096u);
    EXPECT_EQ(parseSize("2k"), 2048u);
    EXPECT_EQ(formatSize(128_MiB), "128MB");
    EXPECT_EQ(formatSize(8_GiB), "8GB");
    EXPECT_EQ(formatSize(960), "960B");
}

} // namespace
} // namespace unison

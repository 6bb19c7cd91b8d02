/**
 * @file
 * Tests for the DRAM-cache organizations (cache/organization.hh):
 * tags carry the full address quotient, so two blocks (or pages) that
 * map to the same frame or set differ in tag however far apart they
 * are -- including exactly 2^32 frames/sets apart, where a 32-bit tag
 * would wrap to the same value.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "cache/organization.hh"
#include "cache/set_scan.hh"
#include "common/types.hh"

namespace unison {
namespace {

constexpr std::uint64_t k2To32 = 1ull << 32;

TEST(DirectOrganization, TagsDoNotAliasAcross2To32Frames)
{
    DirectOrganization org;
    org.init(896);
    const std::uint64_t a = 5;
    const std::uint64_t b = 5 + 896 * k2To32;

    std::uint64_t frame_a, frame_b, tag_a, tag_b;
    org.locate(a, frame_a, tag_a);
    org.locate(b, frame_b, tag_b);
    ASSERT_EQ(frame_a, 5u);
    ASSERT_EQ(frame_b, frame_a);
    EXPECT_EQ(tag_a, 0u);
    EXPECT_EQ(tag_b, k2To32);

    org.word(frame_a) = kWayValidBit | tag_a;
    EXPECT_TRUE(org.present(frame_a, tag_a));
    EXPECT_FALSE(org.present(frame_b, tag_b));
    EXPECT_EQ(org.blockOf(frame_a), a);

    org.word(frame_b) = kWayValidBit | tag_b;
    EXPECT_FALSE(org.present(frame_a, tag_a));
    EXPECT_EQ(org.blockOf(frame_b), b);
}

TEST(RowSetOrganization, TagsDoNotAliasAcross2To32Sets)
{
    RowSetOrganization org;
    org.init(7, 4);
    const std::uint64_t a = 5;
    const std::uint64_t b = 5 + 7 * k2To32;

    std::uint64_t set_a, set_b, tag_a, tag_b;
    org.locate(a, set_a, tag_a);
    org.locate(b, set_b, tag_b);
    ASSERT_EQ(set_b, set_a);
    EXPECT_NE(tag_b, tag_a);

    const int way = org.pickVictim(set_a);
    org.tagWord(org.base(set_a) + static_cast<std::size_t>(way)) =
        kWayValidBit | tag_a;
    EXPECT_EQ(org.findWay(set_a, tag_a), way);
    EXPECT_EQ(org.findWay(set_b, tag_b), -1);
    EXPECT_EQ(org.blockOf(set_a, static_cast<std::uint32_t>(way)), a);
}

TEST(PageOrganization, TagsDoNotAliasAcross2To32Sets)
{
    PageOrganization org;
    org.init(15, 896, 4);
    const std::uint64_t page_a = 5;
    const std::uint64_t page_b = 5 + 896 * k2To32;

    const PageLocation a = org.locate(blockAddress(page_a * 15 + 3));
    const PageLocation b = org.locate(blockAddress(page_b * 15 + 3));
    ASSERT_EQ(a.page, page_a);
    ASSERT_EQ(b.page, page_b);
    ASSERT_EQ(b.set, a.set);
    EXPECT_EQ(a.tag, 0u);
    EXPECT_EQ(b.tag, k2To32);

    const int way = org.pickVictim(a.set);
    PageInstall install;
    install.tag = a.tag;
    org.ways().install(org.setBase(a.set) + static_cast<std::size_t>(way),
                       install);
    EXPECT_EQ(org.findWay(a.set, a.tag), way);
    EXPECT_EQ(org.findWay(b.set, b.tag), -1);
    EXPECT_EQ(org.pageOf(a.set, static_cast<std::uint32_t>(way)), page_a);
}

} // namespace
} // namespace unison

/**
 * @file
 * Tests for the DRAM-cache organizations (cache/organization.hh):
 * tags carry the full address quotient, so two blocks (or pages) that
 * map to the same frame or set differ in tag however far apart they
 * are -- including exactly 2^32 frames/sets apart, where a 32-bit tag
 * would wrap to the same value. DirectOrganization packs each frame
 * into 4 bytes with a 30-bit tag field; tags from 2^30 - 1 up escape
 * to a side map and must stay exact, and its checkpoint image stays
 * the 64-bit word per frame.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/organization.hh"
#include "cache/set_scan.hh"
#include "common/state_io.hh"
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

    org.install(frame_a, tag_a, false);
    EXPECT_TRUE(org.present(frame_a, tag_a));
    EXPECT_FALSE(org.present(frame_b, tag_b));
    EXPECT_EQ(org.blockOf(frame_a), a);

    org.install(frame_b, tag_b, false);
    EXPECT_FALSE(org.present(frame_a, tag_a));
    EXPECT_EQ(org.blockOf(frame_b), b);
}

constexpr std::uint64_t k2To30 = 1ull << 30;

/** Tags either side of the 30-bit field's escape value. */
constexpr std::uint64_t kEdgeTags[] = {k2To30 - 2, k2To30 - 1, k2To30,
                                       k2To32};

TEST(DirectOrganization, FourBytesPerFrame)
{
    DirectOrganization org;
    org.init(1000);
    EXPECT_EQ(org.tagArrayBytes(), 4000u);
}

TEST(DirectOrganization, TagsRoundTripEitherSideOfTheEscape)
{
    DirectOrganization org;
    org.init(7);
    for (const std::uint64_t tag : kEdgeTags) {
        SCOPED_TRACE(tag);
        for (const bool dirty : {false, true}) {
            org.install(3, tag, dirty);
            EXPECT_TRUE(org.valid(3));
            EXPECT_TRUE(org.present(3, tag));
            EXPECT_FALSE(org.present(3, tag + 1));
            EXPECT_FALSE(org.present(3, tag - 1));
            EXPECT_EQ(org.dirty(3), dirty);
            EXPECT_EQ(org.blockOf(3), tag * 7 + 3);
        }
        org.install(3, tag, false);
        org.markDirty(3);
        EXPECT_TRUE(org.dirty(3));
        EXPECT_TRUE(org.present(3, tag));
        EXPECT_EQ(org.escapedTags(), tag >= k2To30 - 1 ? 1u : 0u);
    }
    EXPECT_FALSE(org.valid(2));
    EXPECT_FALSE(org.present(2, 0));
}

TEST(DirectOrganization, SmallTagOverAnEscapedFrameEmptiesTheSideMap)
{
    DirectOrganization org;
    org.init(7);
    org.install(1, k2To32, true);
    org.install(2, k2To30, false);
    EXPECT_EQ(org.escapedTags(), 2u);
    org.install(1, 5, false);
    EXPECT_EQ(org.escapedTags(), 1u);
    EXPECT_TRUE(org.present(1, 5));
    EXPECT_FALSE(org.dirty(1));
    org.install(2, k2To30 - 2, false);
    EXPECT_EQ(org.escapedTags(), 0u);
    EXPECT_TRUE(org.present(2, k2To30 - 2));
}

/** A 6-frame organization: frame 0 invalid, frames 1-4 the edge
 *  tags (frames 2 and 4 dirty), frame 5 a small clean tag. */
DirectOrganization
edgeTagOrganization()
{
    DirectOrganization org;
    org.init(6);
    for (std::size_t i = 0; i < 4; ++i)
        org.install(i + 1, kEdgeTags[i], i % 2 == 1);
    org.install(5, 9, false);
    return org;
}

TEST(DirectOrganization, CheckpointIsTheSixtyFourBitWordImage)
{
    const DirectOrganization org = edgeTagOrganization();
    StateWriter out;
    org.saveState(out);
    const std::vector<std::uint8_t> bytes = std::move(out).take();

    // podVector's layout by hand: a little-endian count, then one
    // little-endian word per frame, valid bit 63, dirty bit 62.
    std::vector<std::uint64_t> words = {0};
    for (std::size_t i = 0; i < 4; ++i)
        words.push_back(kWayValidBit | (i % 2 == 1 ? kWayDirtyBit : 0) |
                        kEdgeTags[i]);
    words.push_back(kWayValidBit | 9);
    std::vector<std::uint8_t> want;
    const auto put = [&](std::uint64_t v) {
        for (int b = 0; b < 8; ++b)
            want.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    };
    put(words.size());
    for (const std::uint64_t w : words)
        put(w);
    EXPECT_EQ(bytes, want);
}

TEST(DirectOrganization, LoadRestoresEscapedTags)
{
    const DirectOrganization saved = edgeTagOrganization();
    StateWriter out;
    saved.saveState(out);
    const std::vector<std::uint8_t> bytes = std::move(out).take();

    DirectOrganization org;
    org.init(6);
    org.install(5, k2To32 + 5, true); // stale escape the load must drop
    StateReader in(bytes);
    org.loadState(in);
    in.expectEnd();
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(org.escapedTags(), 3u);
    EXPECT_FALSE(org.valid(0));
    for (std::size_t i = 0; i < 4; ++i) {
        SCOPED_TRACE(kEdgeTags[i]);
        EXPECT_TRUE(org.present(i + 1, kEdgeTags[i]));
        EXPECT_EQ(org.dirty(i + 1), i % 2 == 1);
        EXPECT_EQ(org.blockOf(i + 1), kEdgeTags[i] * 6 + i + 1);
    }
    EXPECT_TRUE(org.present(5, 9));

    StateWriter again;
    org.saveState(again);
    EXPECT_EQ(std::move(again).take(), bytes);
}

TEST(DirectOrganization, MisshapenCheckpointLeavesEveryFrameEmpty)
{
    const DirectOrganization saved = edgeTagOrganization();
    StateWriter out;
    saved.saveState(out);
    const std::vector<std::uint8_t> bytes = std::move(out).take();

    DirectOrganization org;
    org.init(7);
    org.install(4, k2To32, true);
    StateReader in(bytes);
    org.loadState(in);
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(org.escapedTags(), 0u);
    for (std::uint64_t frame = 0; frame < 7; ++frame)
        EXPECT_FALSE(org.valid(frame)) << "frame " << frame;
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

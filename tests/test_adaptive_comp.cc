/** @file Unit tests for AdaptiveComp's unit table and size policy. */

#include <gtest/gtest.h>

#include <vector>

#include "core/adaptive_comp.hh"

using namespace ariadne;

namespace
{

AriadneConfig
config(const std::string &text = "EHL-1K-2K-16K")
{
    return AriadneConfig::parse(text);
}

std::vector<std::unique_ptr<PageMeta>>
makePages(std::size_t n)
{
    std::vector<std::unique_ptr<PageMeta>> pages;
    for (std::size_t i = 0; i < n; ++i) {
        pages.push_back(std::make_unique<PageMeta>());
        pages.back()->key = PageKey{1, i};
    }
    return pages;
}

} // namespace

TEST(AdaptiveComp, ChunkSizePolicyFollowsTableFive)
{
    AdaptiveComp units(config("EHL-512-4K-32K"));
    EXPECT_EQ(units.chunkFor(Hotness::Hot), 512u);
    EXPECT_EQ(units.chunkFor(Hotness::Warm), 4096u);
    EXPECT_EQ(units.chunkFor(Hotness::Cold), 32768u);
}

TEST(AdaptiveComp, CreateAssignsPageBackrefs)
{
    AdaptiveComp units(config());
    auto pages = makePages(4);
    std::vector<PageMeta *> batch;
    for (auto &p : pages)
        batch.push_back(p.get());
    UnitId id = units.create(batch, 16384, 5000, Hotness::Cold, 77);
    ASSERT_TRUE(units.live(id));
    const CompUnit &u = units.unit(id);
    EXPECT_EQ(u.pages.size(), 4u);
    EXPECT_EQ(u.csize, 5000u);
    EXPECT_EQ(u.chunkBytes, 16384u);
    EXPECT_EQ(u.levelAtCompression, Hotness::Cold);
    EXPECT_EQ(u.object, 77u);
    EXPECT_EQ(u.uncompressedBytes(), 4 * pageSize);
    for (const auto &p : pages)
        EXPECT_EQ(p->objectId, id);
}

TEST(AdaptiveComp, DestroyAndIdReuse)
{
    AdaptiveComp units(config());
    auto pages = makePages(1);
    UnitId a = units.create({pages[0].get()}, 1024, 900, Hotness::Hot,
                            invalidObject);
    units.destroy(a);
    EXPECT_FALSE(units.live(a));
    EXPECT_EQ(units.liveCount(), 0u);
    UnitId b = units.create({pages[0].get()}, 1024, 900, Hotness::Hot,
                            invalidObject);
    EXPECT_EQ(a, b); // freed id recycled
    EXPECT_TRUE(units.live(b));
}

TEST(AdaptiveComp, LiveCountTracksUnits)
{
    AdaptiveComp units(config());
    auto pages = makePages(3);
    UnitId a = units.create({pages[0].get()}, 1024, 100, Hotness::Hot,
                            invalidObject);
    UnitId b = units.create({pages[1].get()}, 2048, 100, Hotness::Warm,
                            invalidObject);
    units.create({pages[2].get()}, 16384, 100, Hotness::Cold,
                 invalidObject);
    EXPECT_EQ(units.liveCount(), 3u);
    units.destroy(a);
    units.destroy(b);
    EXPECT_EQ(units.liveCount(), 1u);
}

TEST(AdaptiveCompDeath, EmptyUnitPanics)
{
    AdaptiveComp units(config());
    EXPECT_DEATH(units.create({}, 1024, 1, Hotness::Hot,
                              invalidObject),
                 "no pages");
}

TEST(AdaptiveCompDeath, DeadAccessPanics)
{
    AdaptiveComp units(config());
    EXPECT_DEATH(units.unit(5), "dead");
}

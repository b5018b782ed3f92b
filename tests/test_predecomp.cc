/** @file Unit tests for the PreDecomp staging buffer. */

#include <gtest/gtest.h>

#include <vector>

#include "core/predecomp.hh"
#include "mem/page_arena.hh"

using namespace ariadne;

namespace
{

std::vector<PageMeta *>
makeZpoolPages(PageArena &arena, std::size_t n)
{
    std::vector<PageMeta *> pages;
    pages.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        PageMeta *p = arena.alloc();
        p->key = PageKey{1, i};
        p->location = PageLocation::Zpool;
        pages.push_back(p);
    }
    return pages;
}

} // namespace

TEST(PreDecomp, StageMarksPageStaged)
{
    PageArena arena;
    PreDecomp buf(4);
    auto pages = makeZpoolPages(arena, 1);
    EXPECT_TRUE(buf.stage(*pages[0]));
    EXPECT_EQ(pages[0]->location, PageLocation::Staged);
    EXPECT_TRUE(buf.contains(*pages[0]));
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.staged(), 1u);
}

TEST(PreDecomp, ZeroCapacityStagesNothing)
{
    PageArena arena;
    PreDecomp buf(0);
    auto pages = makeZpoolPages(arena, 1);
    EXPECT_FALSE(buf.stage(*pages[0]));
    EXPECT_EQ(pages[0]->location, PageLocation::Zpool);
}

TEST(PreDecomp, DoubleStageRejected)
{
    PageArena arena;
    PreDecomp buf(4);
    auto pages = makeZpoolPages(arena, 1);
    EXPECT_TRUE(buf.stage(*pages[0]));
    EXPECT_FALSE(buf.stage(*pages[0]));
    EXPECT_EQ(buf.staged(), 1u);
}

TEST(PreDecomp, ConsumeCountsHit)
{
    PageArena arena;
    PreDecomp buf(4);
    auto pages = makeZpoolPages(arena, 1);
    buf.stage(*pages[0]);
    EXPECT_TRUE(buf.consume(*pages[0]));
    EXPECT_FALSE(buf.contains(*pages[0]));
    EXPECT_EQ(buf.hits(), 1u);
    EXPECT_FALSE(buf.consume(*pages[0])); // second consume misses
    EXPECT_DOUBLE_EQ(buf.hitRate(), 1.0);
}

TEST(PreDecomp, FifoEvictionRevertsOldest)
{
    PageArena arena;
    PreDecomp buf(2);
    auto pages = makeZpoolPages(arena, 3);
    buf.stage(*pages[0]);
    buf.stage(*pages[1]);
    buf.stage(*pages[2]); // evicts pages[0]
    EXPECT_EQ(pages[0]->location, PageLocation::Zpool);
    EXPECT_EQ(pages[1]->location, PageLocation::Staged);
    EXPECT_EQ(pages[2]->location, PageLocation::Staged);
    EXPECT_EQ(buf.wasted(), 1u);
    EXPECT_EQ(buf.size(), 2u);
}

TEST(PreDecomp, InvalidateDropsWithoutHitOrWaste)
{
    PageArena arena;
    PreDecomp buf(4);
    auto pages = makeZpoolPages(arena, 2);
    buf.stage(*pages[0]);
    buf.stage(*pages[1]);
    buf.invalidate(*pages[0]);
    EXPECT_FALSE(buf.contains(*pages[0]));
    EXPECT_EQ(buf.hits(), 0u);
    EXPECT_EQ(buf.wasted(), 0u);
    EXPECT_EQ(buf.size(), 1u);
}

TEST(PreDecomp, StaleDequeEntriesSkippedOnEviction)
{
    PageArena arena;
    PreDecomp buf(2);
    auto pages = makeZpoolPages(arena, 3);
    buf.stage(*pages[0]);
    buf.stage(*pages[1]);
    buf.consume(*pages[0]); // leaves a stale deque entry
    // Staging a third page must evict pages[1], not the stale entry.
    buf.stage(*pages[2]);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_TRUE(buf.contains(*pages[2]));
}

TEST(PreDecomp, HitRateOverStaged)
{
    PageArena arena;
    PreDecomp buf(8);
    auto pages = makeZpoolPages(arena, 4);
    for (auto *p : pages)
        buf.stage(*p);
    buf.consume(*pages[0]);
    buf.consume(*pages[1]);
    EXPECT_DOUBLE_EQ(buf.hitRate(), 0.5);
}

TEST(PreDecompDeath, StagingResidentPagePanics)
{
    PageArena arena;
    PreDecomp buf(4);
    PageMeta *p = arena.alloc(); // alloc() defaults to Resident
    EXPECT_DEATH(buf.stage(*p), "zpool-resident");
}

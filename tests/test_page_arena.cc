/** @file Unit tests for the PageMeta slab arena and PfnBitmap. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/page_arena.hh"

using namespace ariadne;

TEST(PageArena, AllocGivesFreshRecords)
{
    PageArena arena;
    PageMeta *a = arena.alloc();
    PageMeta *b = arena.alloc();
    ASSERT_NE(a, b);
    EXPECT_EQ(arena.liveCount(), 2u);
    EXPECT_EQ(a->location, PageLocation::Resident);
    EXPECT_EQ(a->lruOwner, nullptr);
}

TEST(PageArena, ResetRecyclesSlabsAndReinitializesRecords)
{
    PageArena arena;
    const std::size_t count = PageArena::slabPages + 5;
    std::vector<PageMeta *> first;
    for (std::size_t i = 0; i < count; ++i) {
        PageMeta *page = arena.alloc();
        page->key = PageKey{9, static_cast<Pfn>(i)};
        page->location = PageLocation::Flash;
        first.push_back(page);
    }
    const std::size_t slabs_before = arena.slabCount();
    arena.reset();
    EXPECT_EQ(arena.liveCount(), 0u);
    // Slabs are retained for reuse...
    EXPECT_EQ(arena.slabCount(), slabs_before);
    // ...and re-allocation hands back the same records, fully reset
    // to fresh defaults despite the dirt left by the first life.
    for (std::size_t i = 0; i < count; ++i) {
        PageMeta *page = arena.alloc();
        EXPECT_EQ(page, first[i]);
        EXPECT_EQ(page->key.pfn, PageKey{}.pfn);
        EXPECT_EQ(page->location, PageLocation::Resident);
    }
    EXPECT_EQ(arena.slabCount(), slabs_before);
    EXPECT_EQ(arena.liveCount(), count);
}

TEST(PageArena, PointersStayValidAcrossSlabGrowth)
{
    // Allocate well past one slab and make sure early records survive
    // every growth step.
    PageArena arena;
    std::vector<PageMeta *> pages;
    const std::size_t count = PageArena::slabPages * 3 + 17;
    for (std::size_t i = 0; i < count; ++i) {
        PageMeta *page = arena.alloc();
        page->key = PageKey{1, static_cast<Pfn>(i)};
        pages.push_back(page);
    }
    EXPECT_GE(arena.slabCount(), 4u);
    EXPECT_EQ(arena.liveCount(), count);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(pages[i]->key.pfn, static_cast<Pfn>(i));
}

TEST(PfnBitmap, SetTestAndSortedExtraction)
{
    PfnBitmap bits;
    EXPECT_TRUE(bits.empty());
    EXPECT_TRUE(bits.set(130));
    EXPECT_TRUE(bits.set(2));
    EXPECT_TRUE(bits.set(63));
    EXPECT_FALSE(bits.set(130)); // already set
    EXPECT_TRUE(bits.test(63));
    EXPECT_FALSE(bits.test(64));
    EXPECT_FALSE(bits.empty());
    EXPECT_EQ(bits.toSortedVector(),
              (std::vector<Pfn>{2, 63, 130}));
    bits.clear();
    EXPECT_TRUE(bits.empty());
    EXPECT_FALSE(bits.test(130));
}

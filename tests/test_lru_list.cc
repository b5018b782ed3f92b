/** @file Unit tests for the intrusive LRU list. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/lru_list.hh"

using namespace ariadne;

namespace
{

std::vector<PageMeta>
makePages(std::size_t n)
{
    std::vector<PageMeta> pages(n);
    for (std::size_t i = 0; i < n; ++i)
        pages[i].key = PageKey{1, i};
    return pages;
}

} // namespace

TEST(LruList, StartsEmpty)
{
    LruList list;
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.size(), 0u);
    EXPECT_EQ(list.popBack(), nullptr);
    EXPECT_EQ(list.popFront(), nullptr);
}

TEST(LruList, PushFrontOrdering)
{
    LruList list;
    auto pages = makePages(3);
    for (auto &p : pages)
        list.pushFront(p);
    EXPECT_EQ(list.front(), &pages[2]); // most recent
    EXPECT_EQ(list.back(), &pages[0]);  // least recent
    EXPECT_EQ(list.size(), 3u);
}

TEST(LruList, PushBackOrdering)
{
    LruList list;
    auto pages = makePages(3);
    for (auto &p : pages)
        list.pushBack(p);
    EXPECT_EQ(list.front(), &pages[0]);
    EXPECT_EQ(list.back(), &pages[2]);
}

TEST(LruList, PopBackIsFifoOfPushFront)
{
    // pushFront then popBack preserves insertion order — the property
    // that makes compression order equal touch order.
    LruList list;
    auto pages = makePages(5);
    for (auto &p : pages)
        list.pushFront(p);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(list.popBack(), &pages[i]);
    EXPECT_TRUE(list.empty());
}

TEST(LruList, TouchMovesToFront)
{
    LruList list;
    auto pages = makePages(3);
    for (auto &p : pages)
        list.pushFront(p);
    list.touch(pages[0]); // oldest becomes newest
    EXPECT_EQ(list.front(), &pages[0]);
    EXPECT_EQ(list.back(), &pages[1]);
}

TEST(LruList, TouchFrontIsNoop)
{
    LruList list;
    auto pages = makePages(2);
    list.pushFront(pages[0]);
    list.pushFront(pages[1]);
    list.touch(pages[1]);
    EXPECT_EQ(list.front(), &pages[1]);
}

TEST(LruList, RemoveMiddle)
{
    LruList list;
    auto pages = makePages(3);
    for (auto &p : pages)
        list.pushFront(p);
    list.remove(pages[1]);
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.front(), &pages[2]);
    EXPECT_EQ(list.back(), &pages[0]);
    EXPECT_EQ(pages[1].lruOwner, nullptr);
}

TEST(LruList, ContainsTracksMembership)
{
    LruList a, b;
    auto pages = makePages(1);
    EXPECT_FALSE(a.contains(pages[0]));
    a.pushFront(pages[0]);
    EXPECT_TRUE(a.contains(pages[0]));
    EXPECT_FALSE(b.contains(pages[0]));
    a.remove(pages[0]);
    EXPECT_FALSE(a.contains(pages[0]));
}

TEST(LruList, OpCounterCountsMutations)
{
    std::uint64_t ops = 0;
    LruList list(&ops);
    auto pages = makePages(2);
    list.pushFront(pages[0]); // 1
    list.pushFront(pages[1]); // 2
    list.touch(pages[0]);     // remove+push = 2 more, total 4... or
    // touch of non-front counts remove+pushFront (2 ops).
    EXPECT_GE(ops, 4u);
    list.popBack(); // remove
    EXPECT_GE(ops, 5u);
}

TEST(LruList, SingleElementEdgeCases)
{
    LruList list;
    auto pages = makePages(1);
    list.pushFront(pages[0]);
    EXPECT_EQ(list.front(), list.back());
    EXPECT_EQ(list.popFront(), &pages[0]);
    EXPECT_TRUE(list.empty());
    list.pushBack(pages[0]);
    EXPECT_EQ(list.popBack(), &pages[0]);
    EXPECT_TRUE(list.empty());
}

TEST(LruListDeath, CrossListRemovePanics)
{
    LruList a, b;
    auto pages = makePages(1);
    a.pushFront(pages[0]);
    EXPECT_DEATH(b.remove(pages[0]), "not on this list");
}

TEST(LruListDeath, DoubleInsertPanics)
{
    LruList a;
    auto pages = makePages(1);
    a.pushFront(pages[0]);
    EXPECT_DEATH(a.pushFront(pages[0]), "already on a list");
}

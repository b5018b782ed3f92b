/** @file Unit tests for HotnessOrg (three-list data organization). */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/hotness_org.hh"
#include "mem/page_arena.hh"
#include "sim/rng.hh"

using namespace ariadne;

class HotnessOrgTest : public ::testing::Test
{
  protected:
    HotnessOrgTest() : org(&ops, profiles)
    {
        profiles.seed(1, 4);
    }

    PageMeta &
    page(AppId uid, Pfn pfn)
    {
        PageMeta *p = arena.alloc(); // alloc() defaults to Resident
        p->key = PageKey{uid, pfn};
        pages.push_back(p);
        return *p;
    }

    std::uint64_t ops = 0;
    ProfileStore profiles{4};
    PageArena arena;
    HotnessOrg org;
    std::vector<PageMeta *> pages;
};

TEST_F(HotnessOrgTest, LaunchSeedsHotListToProfileSize)
{
    // First 4 admissions (the profile size) go hot, the rest cold.
    for (Pfn i = 0; i < 10; ++i)
        org.admit(page(1, i), 100 + i);
    EXPECT_EQ(org.listSize(1, Hotness::Hot), 4u);
    EXPECT_EQ(org.listSize(1, Hotness::Cold), 6u);
    EXPECT_EQ(org.listSize(1, Hotness::Warm), 0u);
}

TEST_F(HotnessOrgTest, ColdTouchPromotesToWarm)
{
    for (Pfn i = 0; i < 8; ++i)
        org.admit(page(1, i), i);
    PageMeta &cold_page = *pages[6]; // beyond the hot seed
    ASSERT_EQ(org.levelOf(cold_page), Hotness::Cold);
    org.touchResident(cold_page, 100);
    EXPECT_EQ(org.levelOf(cold_page), Hotness::Warm);
    EXPECT_EQ(org.listSize(1, Hotness::Warm), 1u);
    EXPECT_EQ(org.listSize(1, Hotness::Cold), 3u);
}

TEST_F(HotnessOrgTest, RelaunchDemotesOldHotAndRebuilds)
{
    for (Pfn i = 0; i < 8; ++i)
        org.admit(page(1, i), i);
    org.beginRelaunch(1, 1000);
    // Old hot list drained into warm.
    EXPECT_EQ(org.listSize(1, Hotness::Hot), 0u);
    EXPECT_EQ(org.listSize(1, Hotness::Warm), 4u);
    EXPECT_TRUE(org.inRelaunch(1));
    // Touches during the relaunch window promote to hot.
    org.touchResident(*pages[0], 1001);
    org.touchResident(*pages[5], 1002); // was cold
    EXPECT_EQ(org.listSize(1, Hotness::Hot), 2u);
    org.endRelaunch(1);
    EXPECT_FALSE(org.inRelaunch(1));
    // The observed relaunch size feeds the profile store.
    EXPECT_EQ(profiles.hotInitPages(1), (4 + 2 + 1) / 2);
}

TEST_F(HotnessOrgTest, PredictedHotSetTracksRelaunchTouches)
{
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(1, i), i);
    org.beginRelaunch(1, 10);
    org.touchResident(*pages[2], 11);
    org.touchResident(*pages[3], 12);
    org.touchResident(*pages[2], 13); // duplicate, counted once
    org.endRelaunch(1);
    auto predicted = org.predictedHotSet(1);
    ASSERT_EQ(predicted.size(), 2u);
    EXPECT_EQ(predicted[0].pfn, 2u);
    EXPECT_EQ(predicted[1].pfn, 3u);
}

TEST_F(HotnessOrgTest, EvictionOrderColdWarmHot)
{
    profiles.seed(1, 2);
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(1, i), i);
    org.touchResident(*pages[3], 50); // cold -> warm
    // Lists now: hot {0,1}, warm {3}, cold {2,4,5}.
    EXPECT_EQ(org.popVictim(Hotness::Cold)->key.pfn, 2u);
    EXPECT_EQ(org.popVictim(Hotness::Cold)->key.pfn, 4u);
    EXPECT_EQ(org.popVictim(Hotness::Cold)->key.pfn, 5u);
    EXPECT_EQ(org.popVictim(Hotness::Cold), nullptr);
    EXPECT_EQ(org.popVictim(Hotness::Warm)->key.pfn, 3u);
    EXPECT_EQ(org.popVictim(Hotness::Hot)->key.pfn, 0u);
}

TEST_F(HotnessOrgTest, CrossAppLruOrder)
{
    profiles.seed(2, 4);
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(1, i), 10 + i);
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(2, i), 100 + i);
    // App 1 is older: its cold pages are victimized first.
    PageMeta *victim = org.popVictim(Hotness::Cold);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->key.uid, 1u);
    // Touching app 1 makes app 2 the oldest.
    org.touchResident(*pages[1], 1000);
    victim = org.popVictim(Hotness::Cold);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->key.uid, 2u);
}

TEST_F(HotnessOrgTest, PlaceAfterSwapInDependsOnWindow)
{
    for (Pfn i = 0; i < 5; ++i)
        org.admit(page(1, i), i);
    PageMeta &p = page(1, 100);
    org.placeAfterSwapIn(p, 200); // outside a relaunch -> warm
    EXPECT_EQ(org.levelOf(p), Hotness::Warm);

    PageMeta &q = page(1, 101);
    org.beginRelaunch(1, 300);
    org.placeAfterSwapIn(q, 301); // inside a relaunch -> hot
    EXPECT_EQ(org.levelOf(q), Hotness::Hot);
    org.endRelaunch(1);
}

TEST_F(HotnessOrgTest, ColdSiblingsStayCold)
{
    org.admit(page(1, 0), 0);
    PageMeta &sibling = page(1, 50);
    org.placeColdSibling(sibling, 10);
    EXPECT_EQ(org.levelOf(sibling), Hotness::Cold);
}

TEST_F(HotnessOrgTest, PopVictimFromSpecificApp)
{
    profiles.seed(2, 1);
    for (Pfn i = 0; i < 4; ++i)
        org.admit(page(1, i), i);
    for (Pfn i = 0; i < 4; ++i)
        org.admit(page(2, i), 100 + i);
    PageMeta *victim = org.popVictim(2, Hotness::Cold);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->key.uid, 2u);
    EXPECT_EQ(org.popVictim(3, Hotness::Cold), nullptr);
}

TEST_F(HotnessOrgTest, ListOperationsAreCounted)
{
    std::uint64_t before = ops;
    for (Pfn i = 0; i < 8; ++i)
        org.admit(page(1, i), i);
    EXPECT_GE(ops - before, 8u);
}

namespace
{

/**
 * Reference model of HotnessOrg with a single warm list per app: the
 * old hot list drains page by page onto warm's LRU end when a
 * relaunch begins, and every list op costs one op (a touch of the
 * list's MRU page costs one, any other touch two). HotnessOrg's warm
 * chain must match it in every victim, size and op count.
 */
class ReferenceOrg
{
  public:
    explicit ReferenceOrg(std::map<AppId, std::size_t> hot_init)
        : hotInit(std::move(hot_init))
    {}

    void
    admit(PageMeta &page, Tick now)
    {
        App &app = appFor(page.key.uid);
        app.lastAccess = now;
        if (!app.initialized && app.hotAdmitted < app.hotInitTarget) {
            push(app, page, Hotness::Hot);
            if (++app.hotAdmitted >= app.hotInitTarget)
                app.initialized = true;
        } else {
            push(app, page,
                 app.relaunch ? Hotness::Hot : Hotness::Cold);
        }
    }

    void
    touchResident(PageMeta &page, Tick now)
    {
        App &app = appFor(page.key.uid);
        app.lastAccess = now;
        Hotness level = levels.at(&page);
        if (app.relaunch && level != Hotness::Hot) {
            remove(app, page);
            push(app, page, Hotness::Hot);
        } else if (level == Hotness::Cold) {
            remove(app, page);
            push(app, page, Hotness::Warm);
        } else if (list(app, level).front() == &page) {
            ++ops;
        } else {
            remove(app, page);
            push(app, page, level);
        }
    }

    void
    placeAfterSwapIn(PageMeta &page, Tick now)
    {
        App &app = appFor(page.key.uid);
        app.lastAccess = now;
        push(app, page, app.relaunch ? Hotness::Hot : Hotness::Warm);
    }

    void
    placeColdSibling(PageMeta &page)
    {
        push(appFor(page.key.uid), page, Hotness::Cold);
    }

    void
    beginRelaunch(AppId uid, Tick now)
    {
        App &app = appFor(uid);
        app.lastAccess = now;
        app.relaunch = true;
        app.initialized = true;
        auto &hot = list(app, Hotness::Hot);
        while (!hot.empty()) {
            PageMeta *page = hot.front();
            hot.pop_front();
            list(app, Hotness::Warm).push_back(page);
            levels[page] = Hotness::Warm;
            ops += 2;
        }
    }

    void endRelaunch(AppId uid) { appFor(uid).relaunch = false; }

    PageMeta *
    popVictim(Hotness level)
    {
        App *app = oldest(level);
        return app ? popBack(*app, level) : nullptr;
    }

    PageMeta *
    peekVictim(Hotness level)
    {
        App *app = oldest(level);
        return app ? list(*app, level).back() : nullptr;
    }

    PageMeta *
    popVictim(AppId uid, Hotness level)
    {
        auto it = apps.find(uid);
        return it == apps.end() ? nullptr : popBack(it->second, level);
    }

    /** MRU page of @p uid's @p level list, or nullptr. */
    PageMeta *
    front(AppId uid, Hotness level)
    {
        auto it = apps.find(uid);
        if (it == apps.end() || list(it->second, level).empty())
            return nullptr;
        return list(it->second, level).front();
    }

    std::size_t
    listSize(AppId uid, Hotness level) const
    {
        auto it = apps.find(uid);
        return it == apps.end()
                   ? 0
                   : it->second.lists[static_cast<int>(level)].size();
    }

    std::size_t
    population(Hotness level) const
    {
        std::size_t total = 0;
        for (const auto &[uid, app] : apps)
            total += app.lists[static_cast<int>(level)].size();
        return total;
    }

    Hotness levelOf(const PageMeta &page) const { return levels.at(&page); }

    std::uint64_t ops = 0;

  private:
    struct App
    {
        std::array<std::list<PageMeta *>, 3> lists;
        Tick lastAccess = 0;
        bool relaunch = false;
        bool initialized = false;
        std::size_t hotAdmitted = 0;
        std::size_t hotInitTarget = 0;
    };

    App &
    appFor(AppId uid)
    {
        auto [it, fresh] = apps.try_emplace(uid);
        if (fresh)
            it->second.hotInitTarget = hotInit.at(uid);
        return it->second;
    }

    static std::list<PageMeta *> &
    list(App &app, Hotness level)
    {
        return app.lists[static_cast<int>(level)];
    }

    void
    push(App &app, PageMeta &page, Hotness level)
    {
        list(app, level).push_front(&page);
        levels[&page] = level;
        ++ops;
    }

    void
    remove(App &app, PageMeta &page)
    {
        list(app, levels.at(&page)).remove(&page);
        levels.erase(&page);
        ++ops;
    }

    PageMeta *
    popBack(App &app, Hotness level)
    {
        if (list(app, level).empty())
            return nullptr;
        PageMeta *page = list(app, level).back();
        remove(app, *page);
        return page;
    }

    App *
    oldest(Hotness level)
    {
        App *found = nullptr;
        for (auto &[uid, app] : apps) {
            if (list(app, level).empty())
                continue;
            if (!found || app.lastAccess < found->lastAccess)
                found = &app;
        }
        return found;
    }

    std::map<AppId, std::size_t> hotInit;
    std::map<AppId, App> apps;
    std::unordered_map<const PageMeta *, Hotness> levels;
};

constexpr Hotness allLevels[] = {Hotness::Hot, Hotness::Warm,
                                 Hotness::Cold};

/** Drive HotnessOrg and the reference through one random sequence,
 * comparing them after every step. */
void
compareWithReference(std::uint64_t seed)
{
    const std::vector<AppId> uids = {1, 2, 3};
    const std::map<AppId, std::size_t> hot_init = {{1, 3}, {2, 6}, {3, 1}};
    ProfileStore profiles;
    for (const auto &[uid, pages] : hot_init)
        profiles.seed(uid, pages);
    std::uint64_t ops = 0;
    HotnessOrg org(&ops, profiles);
    ReferenceOrg ref(hot_init);

    // Each page is fresh (never admitted), listed, or out (popped).
    PageArena arena;
    std::vector<PageMeta *> fresh, listed, out;
    for (AppId uid : uids) {
        for (Pfn pfn = 0; pfn < 40; ++pfn) {
            PageMeta *p = arena.alloc();
            p->key = PageKey{uid, pfn};
            fresh.push_back(p);
        }
    }
    auto take = [](std::vector<PageMeta *> &from, std::size_t i) {
        PageMeta *p = from[i];
        from[i] = from.back();
        from.pop_back();
        return p;
    };
    auto popped = [&](PageMeta *victim) {
        if (victim)
            out.push_back(
                take(listed, static_cast<std::size_t>(
                                 std::find(listed.begin(), listed.end(),
                                           victim) -
                                 listed.begin())));
    };

    Rng rng(seed);
    Tick now = 0;
    for (int step = 0; step < 3000; ++step) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " step " << step);
        now += rng.below(3); // equal times exercise the uid tie-break
        AppId uid = uids[rng.below(uids.size())];
        Hotness level = allLevels[rng.below(3)];
        switch (rng.below(11)) {
          case 0:
          case 1:
            if (!fresh.empty()) {
                PageMeta *p = take(fresh, rng.below(fresh.size()));
                org.admit(*p, now);
                ref.admit(*p, now);
                listed.push_back(p);
            }
            break;
          case 2:
          case 3:
            if (!listed.empty()) {
                PageMeta *p = listed[rng.below(listed.size())];
                org.touchResident(*p, now);
                ref.touchResident(*p, now);
            }
            break;
          case 4:
            // A list's MRU page: warm's may sit on a retired list.
            if (PageMeta *p = ref.front(uid, level)) {
                org.touchResident(*p, now);
                ref.touchResident(*p, now);
            }
            break;
          case 5:
            if (!out.empty()) {
                PageMeta *p = take(out, rng.below(out.size()));
                if (rng.below(2)) {
                    org.placeAfterSwapIn(*p, now);
                    ref.placeAfterSwapIn(*p, now);
                } else {
                    org.placeColdSibling(*p, now);
                    ref.placeColdSibling(*p);
                }
                listed.push_back(p);
            }
            break;
          case 6:
            org.beginRelaunch(uid, now);
            ref.beginRelaunch(uid, now);
            break;
          case 7:
            org.endRelaunch(uid);
            ref.endRelaunch(uid);
            break;
          case 8: {
            PageMeta *victim = org.popVictim(level);
            ASSERT_EQ(victim, ref.popVictim(level));
            popped(victim);
            break;
          }
          case 9:
            ASSERT_EQ(org.peekVictim(level), ref.peekVictim(level));
            break;
          default: {
            PageMeta *victim = org.popVictim(uid, level);
            ASSERT_EQ(victim, ref.popVictim(uid, level));
            popped(victim);
            break;
          }
        }

        ASSERT_EQ(ops, ref.ops);
        for (Hotness l : allLevels) {
            ASSERT_EQ(org.population(l), ref.population(l));
            for (AppId u : uids)
                ASSERT_EQ(org.listSize(u, l), ref.listSize(u, l));
        }
        for (const PageMeta *p : listed)
            ASSERT_EQ(org.levelOf(*p), ref.levelOf(*p));
    }
}

} // namespace

TEST(HotnessOrgReference, WarmChainMatchesSingleWarmList)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        ASSERT_NO_FATAL_FAILURE(compareWithReference(seed));
}

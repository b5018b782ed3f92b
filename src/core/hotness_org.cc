#include "core/hotness_org.hh"

#include <algorithm>

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

// The relaunch hot->warm demotion is the hotness decay; it walks the
// demoted pages only to mark their journeys.
telemetry::Counter c_decayPages("hotness.decay_pages");
telemetry::SpanProbe d_decay("hotness.decay");

telemetry::JourneyStep
journeyLevel(Hotness level) noexcept
{
    switch (level) {
      case Hotness::Hot: return telemetry::JourneyStep::Hot;
      case Hotness::Warm: return telemetry::JourneyStep::Warm;
      default: return telemetry::JourneyStep::Cold;
    }
}

} // namespace

HotnessOrg::AppLists &
HotnessOrg::listsFor(AppId uid)
{
    if (lastLists && lastLists->uid == uid)
        return *lastLists;
    auto it = std::lower_bound(
        apps.begin(), apps.end(), uid,
        [](const std::unique_ptr<AppLists> &a, AppId u) {
            return a->uid < u;
        });
    if (it != apps.end() && (*it)->uid == uid)
        return *(lastLists = it->get());
    auto app =
        std::make_unique<AppLists>(uid, spareHotList(), ops);
    app->hotInitTarget = profileStore.hotInitPages(uid);
    return *(lastLists =
                 apps.insert(it, std::move(app))->get());
}

const HotnessOrg::AppLists *
HotnessOrg::findLists(AppId uid) const
{
    auto it = std::lower_bound(
        apps.begin(), apps.end(), uid,
        [](const std::unique_ptr<AppLists> &a, AppId u) {
            return a->uid < u;
        });
    return it != apps.end() && (*it)->uid == uid ? it->get()
                                                 : nullptr;
}

HotnessOrg::AppLists *
HotnessOrg::findLists(AppId uid)
{
    return const_cast<AppLists *>(
        static_cast<const HotnessOrg *>(this)->findLists(uid));
}

HotnessOrg::Tier &
HotnessOrg::tierOf(const PageMeta &page)
{
    LruList *owner = LruList::ownerOf(page);
    panicIf(!owner, "HotnessOrg: page is on no list");
    // Every list a HotnessOrg links pages on is one of its Tiers.
    return static_cast<Tier &>(*owner);
}

HotnessOrg::Tier &
HotnessOrg::victimList(AppLists &app, Hotness level)
{
    switch (level) {
      case Hotness::Hot: return *app.hot;
      case Hotness::Warm: return *app.warmTail;
      default: return app.cold;
    }
}

std::size_t
HotnessOrg::sizeAt(const AppLists &app, Hotness level)
{
    switch (level) {
      case Hotness::Hot: return app.hot->size();
      case Hotness::Warm: {
        std::size_t pages = 0;
        for (const Tier *t = &app.warm; t; t = t->older)
            pages += t->size();
        return pages;
      }
      default: return app.cold.size();
    }
}

void
HotnessOrg::take(AppLists &app, Tier &list, PageMeta &page)
{
    list.remove(page);
    if (!list.empty() || list.level != Hotness::Warm || &list == &app.warm)
        return;
    // A drained retirement leaves the chain, so the chain's ends stay
    // warm's MRU and LRU pages, and becomes a spare hot list.
    list.newer->older = list.older;
    if (list.older)
        list.older->newer = list.newer;
    else
        app.warmTail = list.newer;
    list.newer = list.older = nullptr;
    spares.push_back(&list);
}

HotnessOrg::Tier *
HotnessOrg::spareHotList()
{
    if (spares.empty())
        return &tiers.emplace_back(ops, Hotness::Hot);
    Tier *t = spares.back();
    spares.pop_back();
    t->level = Hotness::Hot;
    return t;
}

void
HotnessOrg::noteRelaunchTouch(AppLists &app, const PageMeta &page)
{
    if (!app.relaunchActive)
        return;
    if (app.relaunchSeen.set(page.key.pfn))
        app.relaunchTouched.push_back(page.key);
}

void
HotnessOrg::admit(PageMeta &page, Tick now)
{
    AppLists &app = listsFor(page.key.uid);
    app.lastAccess = now;

    // Hotness initialization: the first hotInitTarget pages admitted
    // for this app (its launch data) seed the hot list; everything
    // afterwards starts cold (§4.2).
    if (!app.initialized && app.hotAdmitted < app.hotInitTarget) {
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Hot, now);
        app.hot->pushFront(page);
        ++app.hotAdmitted;
        if (app.hotAdmitted >= app.hotInitTarget)
            app.initialized = true;
        // Launch-window data counts as relaunch prediction seed.
        if (app.relaunchSeen.set(page.key.pfn))
            app.relaunchTouched.push_back(page.key);
    } else if (app.relaunchActive) {
        // Fresh allocations during a relaunch are relaunch data.
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Hot, now);
        app.hot->pushFront(page);
        noteRelaunchTouch(app, page);
    } else {
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Cold, now);
        app.cold.pushFront(page);
    }
}

void
HotnessOrg::touchResident(PageMeta &page, Tick now)
{
    AppLists &app = listsFor(page.key.uid);
    app.lastAccess = now;
    noteRelaunchTouch(app, page);

    Tier &list = tierOf(page);
    if (app.relaunchActive && list.level != Hotness::Hot) {
        // Data used during relaunch belongs on the hot list.
        take(app, list, page);
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Hot, now);
        app.hot->pushFront(page);
        return;
    }

    switch (list.level) {
      case Hotness::Hot:
        list.touch(page);
        break;
      case Hotness::Warm:
        // Warm's MRU page is the front of the chain's first non-empty
        // list, so the front of that list is warm's front.
        if (&list == &app.warm ||
            (app.warm.empty() && &list == app.warm.older)) {
            list.touch(page);
        } else {
            take(app, list, page);
            app.warm.pushFront(page);
        }
        break;
      case Hotness::Cold:
        // Cold data accessed during execution moves to warm, like the
        // kernel's inactive -> active promotion (§4.2).
        list.remove(page);
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Warm, now);
        app.warm.pushFront(page);
        break;
    }
}

void
HotnessOrg::placeAfterSwapIn(PageMeta &page, Tick now)
{
    AppLists &app = listsFor(page.key.uid);
    app.lastAccess = now;
    noteRelaunchTouch(app, page);

    Tier &list = app.relaunchActive ? *app.hot : app.warm;
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           journeyLevel(list.level), now);
    list.pushFront(page);
}

void
HotnessOrg::placeColdSibling(PageMeta &page, Tick now)
{
    AppLists &app = listsFor(page.key.uid);
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Cold, now);
    app.cold.pushFront(page);
}

void
HotnessOrg::beginRelaunch(AppId uid, Tick now)
{
    AppLists &app = listsFor(uid);
    app.lastAccess = now;
    app.relaunchActive = true;
    app.relaunchTouched.clear();
    app.relaunchSeen.clear();
    app.initialized = true; // a relaunch supersedes launch seeding

    // "The system moves all old data in the hot list to the warm
    // list and adds the data from this relaunch to the hot list."
    // The old hot list itself becomes warm's LRU end.
    telemetry::ScopedSpan span(d_decay);
    Tier &old = *app.hot;
    c_decayPages.add(old.size());
    if (telemetry::journeyEnabled())
        for (PageMeta *p = old.front(); p; p = p->lruNext)
            telemetry::journeyMark(p->key.uid, p->key.pfn,
                                   telemetry::JourneyStep::Warm, now);
    if (old.empty())
        return;
    // Charge the pop and push per page a drain into warm would take.
    if (ops)
        *ops += 2 * old.size();
    old.level = Hotness::Warm;
    old.newer = app.warmTail;
    app.warmTail->older = &old;
    app.warmTail = &old;
    app.hot = spareHotList();
}

void
HotnessOrg::endRelaunch(AppId uid)
{
    AppLists &app = listsFor(uid);
    if (!app.relaunchActive)
        return;
    app.relaunchActive = false;
    profileStore.recordRelaunch(uid, app.relaunchTouched.size());
}

bool
HotnessOrg::inRelaunch(AppId uid) const
{
    const AppLists *app = findLists(uid);
    return app && app->relaunchActive;
}

PageMeta *
HotnessOrg::popVictim(AppLists *app, Hotness level)
{
    if (!app)
        return nullptr;
    Tier &list = victimList(*app, level);
    PageMeta *victim = list.back();
    if (victim)
        take(*app, list, *victim);
    return victim;
}

HotnessOrg::AppLists *
HotnessOrg::oldestWith(Hotness level)
{
    AppLists *oldest = nullptr;
    for (const auto &app : apps) {
        if (victimList(*app, level).empty())
            continue;
        if (!oldest || app->lastAccess < oldest->lastAccess)
            oldest = app.get();
    }
    return oldest;
}

PageMeta *
HotnessOrg::popVictim(Hotness level)
{
    return popVictim(oldestWith(level), level);
}

PageMeta *
HotnessOrg::peekVictim(Hotness level)
{
    AppLists *oldest = oldestWith(level);
    return oldest ? victimList(*oldest, level).back() : nullptr;
}

PageMeta *
HotnessOrg::popVictim(AppId uid, Hotness level)
{
    return popVictim(findLists(uid), level);
}

std::size_t
HotnessOrg::listSize(AppId uid, Hotness level) const
{
    const AppLists *app = findLists(uid);
    return app ? sizeAt(*app, level) : 0;
}

std::size_t
HotnessOrg::population(Hotness level) const
{
    std::size_t total = 0;
    for (const auto &app : apps)
        total += sizeAt(*app, level);
    return total;
}

Hotness
HotnessOrg::levelOf(const PageMeta &page) const
{
    return tierOf(page).level;
}

std::vector<PageKey>
HotnessOrg::predictedHotSet(AppId uid) const
{
    const AppLists *app = findLists(uid);
    if (!app)
        return {};
    return app->relaunchTouched;
}

} // namespace ariadne

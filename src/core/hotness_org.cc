#include "core/hotness_org.hh"

#include <algorithm>

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

// The relaunch hot->warm demotion is the hotness-decay walk; walking
// only the hot list (the only pages whose level changes) keeps it
// cheap.
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
    auto app = std::make_unique<AppLists>(uid, ops);
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

LruList &
HotnessOrg::listOf(AppLists &app, Hotness level)
{
    switch (level) {
      case Hotness::Hot: return app.hot;
      case Hotness::Warm: return app.warm;
      default: return app.cold;
    }
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
        page.level = Hotness::Hot;
        app.hot.pushFront(page);
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
        page.level = Hotness::Hot;
        app.hot.pushFront(page);
        noteRelaunchTouch(app, page);
    } else {
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Cold, now);
        page.level = Hotness::Cold;
        app.cold.pushFront(page);
    }
}

void
HotnessOrg::touchResident(PageMeta &page, Tick now)
{
    AppLists &app = listsFor(page.key.uid);
    app.lastAccess = now;
    noteRelaunchTouch(app, page);

    Hotness level = page.level;
    if (app.relaunchActive && level != Hotness::Hot) {
        // Data used during relaunch belongs on the hot list.
        listOf(app, level).remove(page);
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Hot, now);
        page.level = Hotness::Hot;
        app.hot.pushFront(page);
        return;
    }

    switch (level) {
      case Hotness::Hot:
        app.hot.touch(page);
        break;
      case Hotness::Warm:
        app.warm.touch(page);
        break;
      case Hotness::Cold:
        // Cold data accessed during execution moves to warm, like the
        // kernel's inactive -> active promotion (§4.2).
        app.cold.remove(page);
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Warm, now);
        page.level = Hotness::Warm;
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

    Hotness level = app.relaunchActive ? Hotness::Hot : Hotness::Warm;
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           journeyLevel(level), now);
    page.level = level;
    listOf(app, level).pushFront(page);
}

void
HotnessOrg::placeColdSibling(PageMeta &page, Tick now)
{
    AppLists &app = listsFor(page.key.uid);
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Cold, now);
    page.level = Hotness::Cold;
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
    // Pages already on warm keep their Warm level, so demoting the
    // hot list *before* the splice touches exactly the pages whose
    // level changes, instead of walking the whole combined warm list.
    telemetry::ScopedSpan span(d_decay);
    std::uint64_t walked = 0;
    for (PageMeta *p = app.hot.front(); p; p = p->lruNext) {
        telemetry::journeyMark(p->key.uid, p->key.pfn,
                               telemetry::JourneyStep::Warm, now);
        p->level = Hotness::Warm;
        ++walked;
    }
    c_decayPages.add(walked);
    app.hot.drainTo(app.warm);
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
HotnessOrg::popVictim(Hotness level)
{
    AppLists *oldest = nullptr;
    for (const auto &app : apps) {
        if (listOf(*app, level).empty())
            continue;
        if (!oldest || app->lastAccess < oldest->lastAccess)
            oldest = app.get();
    }
    if (!oldest)
        return nullptr;
    return listOf(*oldest, level).popBack();
}

PageMeta *
HotnessOrg::peekVictim(Hotness level)
{
    AppLists *oldest = nullptr;
    for (const auto &app : apps) {
        if (listOf(*app, level).empty())
            continue;
        if (!oldest || app->lastAccess < oldest->lastAccess)
            oldest = app.get();
    }
    return oldest ? listOf(*oldest, level).back() : nullptr;
}

PageMeta *
HotnessOrg::popVictim(AppId uid, Hotness level)
{
    AppLists *app = findLists(uid);
    if (!app)
        return nullptr;
    return listOf(*app, level).popBack();
}

std::size_t
HotnessOrg::listSize(AppId uid, Hotness level) const
{
    const AppLists *app = findLists(uid);
    if (!app)
        return 0;
    switch (level) {
      case Hotness::Hot: return app->hot.size();
      case Hotness::Warm: return app->warm.size();
      default: return app->cold.size();
    }
}

std::size_t
HotnessOrg::population(Hotness level) const
{
    std::size_t total = 0;
    for (const auto &app : apps) {
        switch (level) {
          case Hotness::Hot: total += app->hot.size(); break;
          case Hotness::Warm: total += app->warm.size(); break;
          default: total += app->cold.size(); break;
        }
    }
    return total;
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

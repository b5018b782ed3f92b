#include "swap/lru_scheme.hh"

#include <algorithm>

namespace ariadne
{

LruScheme::AppState &
LruScheme::stateFor(AppId uid)
{
    auto it = std::lower_bound(
        appStates.begin(), appStates.end(), uid,
        [](const std::unique_ptr<AppState> &a, AppId u) {
            return a->uid < u;
        });
    if (it != appStates.end() && (*it)->uid == uid)
        return **it;
    return **appStates.insert(
        it, std::make_unique<AppState>(uid, &lruOpCount));
}

LruScheme::AppState *
LruScheme::oldestAppWithPages()
{
    AppState *oldest = nullptr;
    for (const auto &state : appStates) {
        if (state->resident.empty())
            continue;
        if (!oldest || state->lastAccess < oldest->lastAccess)
            oldest = state.get();
    }
    return oldest;
}

void
LruScheme::onAdmit(PageMeta &page)
{
    AppState &app = stateFor(page.key.uid);
    app.resident.pushFront(page);
    app.lastAccess = ctx.clock.now();
}

void
LruScheme::onAccess(PageMeta &page)
{
    AppState &app = stateFor(page.key.uid);
    app.resident.touch(page);
    app.lastAccess = ctx.clock.now();
}

std::size_t
LruScheme::residentPages(AppId uid)
{
    return stateFor(uid).resident.size();
}

std::size_t
LruScheme::evictTail(AppId uid, std::size_t limit, bool synchronous)
{
    LruList &resident = stateFor(uid).resident;
    std::size_t done = 0;
    while (done < limit) {
        PageMeta *victim = resident.popBack();
        if (!victim)
            break;
        evict(*victim, synchronous);
        ctx.dram.release(1);
        ++done;
    }
    return done;
}

std::size_t
LruScheme::reclaim(std::size_t pages, bool direct)
{
    if (direct)
        ++directRuns;
    std::size_t freed = 0;
    while (freed < pages) {
        AppState *app = oldestAppWithPages();
        if (!app)
            break;
        std::size_t batch = std::min(reclaimBatchPages, pages - freed);
        std::size_t done = evictTail(app->uid, batch, direct);
        if (done == 0)
            break;
        freed += done;
    }
    chargeLruOps();
    return freed;
}

void
LruScheme::readmit(PageMeta &page)
{
    allocateResident();
    page.location = PageLocation::Resident;
    LruScheme::onAdmit(page);
    chargeLruOps();
}

} // namespace ariadne

#include "core/predecomp.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ariadne
{

void
PreDecomp::evictOldest()
{
    while (!order.empty()) {
        PageMeta *oldest = order.front();
        order.pop_front();
        auto it = present.find(oldest);
        if (it == present.end())
            continue; // stale entry (already consumed/invalidated)
        present.erase(it);
        // Unused staging: revert to the compressed copy.
        oldest->location = PageLocation::Zpool;
        ++wasteCount;
        return;
    }
}

bool
PreDecomp::stage(PageMeta &page)
{
    if (capacity == 0 || present.contains(&page))
        return false;
    panicIf(page.location != PageLocation::Zpool,
            "PreDecomp::stage expects a zpool-resident page");
    while (present.size() >= capacity)
        evictOldest();
    page.location = PageLocation::Staged;
    order.push_back(&page);
    present.emplace(&page, true);
    ++stageCount;
    return true;
}

bool
PreDecomp::consume(PageMeta &page)
{
    auto it = present.find(&page);
    if (it == present.end())
        return false;
    present.erase(it);
    // The deque entry becomes stale and is skipped on eviction.
    ++hitCount;
    return true;
}

void
PreDecomp::invalidate(PageMeta &page)
{
    auto it = present.find(&page);
    if (it == present.end())
        return;
    present.erase(it);
    order.erase(std::remove(order.begin(), order.end(), &page),
                order.end());
}

bool
PreDecomp::contains(const PageMeta &page) const
{
    return present.contains(&page);
}

} // namespace ariadne

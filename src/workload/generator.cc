#include "workload/generator.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ariadne
{

AppInstance::AppInstance(AppProfile profile, double scale_factor,
                         std::uint64_t seed)
    : prof(std::move(profile)), scale(scale_factor),
      rng(mix64(seed ^ (std::uint64_t{prof.uid} << 32)))
{
    fatalIf(scale <= 0.0 || scale > 1.0,
            "workload scale must be in (0, 1]");
}

TouchEvent
AppInstance::allocatePage(Hotness truth)
{
    Pfn pfn = nextPfn++;
    pages.push_back(PageState{truth, 0});
    switch (truth) {
      case Hotness::Hot:
        hotList.push_back(pfn);
        break;
      case Hotness::Warm:
        warmList.push_back(pfn);
        break;
      case Hotness::Cold:
        coldList.push_back(pfn);
        break;
    }
    return TouchEvent{pfn, 0, truth, true, true};
}

std::vector<TouchEvent>
AppInstance::coldLaunch()
{
    panicIf(launched, "coldLaunch on an already-launched app");
    launched = true;
    ageNs = 10ULL * 1000000000ULL; // launch completes the 10 s point

    std::size_t total_pages = static_cast<std::size_t>(
        scale * static_cast<double>(prof.anonBytes10s)) /
        pageSize;
    if (total_pages < 8)
        total_pages = 8;
    hotTargetPages = std::max<std::size_t>(
        1, static_cast<std::size_t>(prof.hotFraction *
                                    static_cast<double>(total_pages)));

    std::vector<TouchEvent> events;
    events.reserve(total_pages);
    // Launch data first: this access order is the canonical hot order
    // and — because reclaim follows LRU — also the compression order.
    for (std::size_t i = 0; i < hotTargetPages; ++i)
        events.push_back(allocatePage(Hotness::Hot));

    appendGrowth(events, total_pages);
    return events;
}

void
AppInstance::appendGrowth(std::vector<TouchEvent> &events,
                          std::size_t target_pages)
{
    // Allocations happen in contiguous typed segments (a decoded
    // image, a parsed document, ...): the pages of one buffer share a
    // ground-truth hotness and sit adjacently in allocation order,
    // which is what gives relaunch swap-ins their sector locality.
    const Threshold warm(prof.warmFraction);
    while (pages.size() < target_pages) {
        Hotness truth = rng.chance(warm) ? Hotness::Warm : Hotness::Cold;
        std::size_t segment = std::min<std::size_t>(
            8 + rng.below(24), target_pages - pages.size());
        for (std::size_t i = 0; i < segment; ++i)
            events.push_back(allocatePage(truth));
    }
}

std::vector<TouchEvent>
AppInstance::execute(Tick dt)
{
    panicIf(!launched, "execute before coldLaunch");
    ageNs += dt;

    std::vector<TouchEvent> events;
    std::size_t target_pages = static_cast<std::size_t>(
        scale * static_cast<double>(prof.anonBytesAtAge(ageNs))) /
        pageSize;
    appendGrowth(events, target_pages);

    // Re-touch a slice of the warm working set in sequential runs —
    // apps walk related buffers together, which is what later gives
    // swap-ins their zpool sector locality (Insight 3). Touch volume
    // is proportional to execution time (~2.5% of warm pages per
    // second).
    if (!warmList.empty()) {
        double seconds = static_cast<double>(dt) / 1e9;
        auto touches = static_cast<std::size_t>(
            0.025 * seconds * static_cast<double>(warmList.size()));
        touches = std::min(touches, warmList.size());
        const Threshold write_t(prof.writeProb);
        std::size_t emitted = 0;
        while (emitted < touches) {
            std::size_t start = rng.below(warmList.size());
            std::size_t run = std::min<std::size_t>(
                8 + rng.below(24), touches - emitted);
            run = std::min(run, warmList.size() - start);
            for (std::size_t j = 0; j < run; ++j) {
                Pfn pfn = warmList[start + j];
                PageState &st = pages[pfn];
                bool write = rng.chance(write_t);
                if (write)
                    ++st.version;
                events.push_back(TouchEvent{pfn, st.version, st.truth,
                                            false, write});
                ++emitted;
            }
        }
    }
    return events;
}

const std::vector<std::uint32_t> &
AppInstance::localityOrder(std::size_t n)
{
    std::vector<std::uint32_t> &result = orderScratch;
    result.clear();
    result.reserve(n);
    if (n == 0)
        return result;

    // Unvisited index pool with O(1) removal via position map.
    std::vector<std::uint32_t> &unvisited = unvisitedScratch;
    std::vector<std::uint32_t> &position = positionScratch;
    unvisited.resize(n);
    position.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        unvisited[i] = i;
        position[i] = i;
    }
    auto visit = [&](std::uint32_t idx) {
        std::uint32_t pos = position[idx];
        std::uint32_t last = unvisited.back();
        unvisited[pos] = last;
        position[last] = pos;
        unvisited.pop_back();
        position[idx] = UINT32_MAX;
        result.push_back(idx);
    };

    // A run continues with a chance that grows with its length, up
    // to a length of 3.
    auto continuing = [&](unsigned len) {
        return Threshold(
            std::min(prof.seqAccessProb + prof.seqMomentum * len, 0.97));
    };
    const Threshold keep_going[] = {continuing(0), continuing(1),
                                    continuing(2), continuing(3)};

    std::uint32_t current = 0;
    visit(current);
    unsigned run_len = 0;
    while (!unvisited.empty()) {
        std::uint32_t next = current + 1;
        if (next < n && position[next] != UINT32_MAX &&
            rng.chance(keep_going[std::min(run_len, 3u)])) {
            current = next;
            ++run_len;
        } else {
            current = unvisited[rng.below(unvisited.size())];
            run_len = 0;
        }
        visit(current);
    }
    return result;
}

std::vector<TouchEvent>
AppInstance::relaunch()
{
    panicIf(!launched, "relaunch before coldLaunch");

    // --- Churn the hot set (Insight 1 statistics). ---
    // A page demoted to cold joins the cold list at once: the refill
    // below reads only the warm list, which must not see this
    // relaunch's demotions yet.
    std::vector<Pfn> &new_hot = newHotScratch;
    std::vector<Pfn> &demoted_warm = demotedWarmScratch;
    new_hot.clear();
    demoted_warm.clear();
    new_hot.reserve(hotTargetPages);

    double keep_p = prof.hotSimilarity;
    double reuse_q =
        keep_p < 1.0
            ? std::clamp((prof.reuseFraction - keep_p) / (1.0 - keep_p),
                         0.0, 1.0)
            : 1.0;
    const Threshold keep(keep_p), reuse(reuse_q);

    for (Pfn pfn : hotList) {
        if (rng.chance(keep)) {
            new_hot.push_back(pfn);
        } else if (rng.chance(reuse)) {
            pages[pfn].truth = Hotness::Warm;
            demoted_warm.push_back(pfn);
        } else {
            pages[pfn].truth = Hotness::Cold;
            coldList.push_back(pfn);
        }
    }

    // Refill to the (stable) hot-set size: promote warm pages in
    // sequential runs (new relaunch activity loads related data
    // together, preserving zpool sector locality) or allocate fresh
    // activity data. Pages allocated below get pfns >= first_new_pfn
    // (pfns are handed out densely), which is how the emit loop tells
    // a first-touch allocation from a re-touch without a hash map.
    const Pfn first_new_pfn = nextPfn;
    const Threshold promote(0.7);
    while (new_hot.size() < hotTargetPages) {
        if (!warmList.empty() && rng.chance(promote)) {
            std::size_t want = hotTargetPages - new_hot.size();
            std::size_t start = rng.below(warmList.size());
            std::size_t run = std::min<std::size_t>(
                {8 + rng.below(28), want, warmList.size() - start});
            for (std::size_t j = 0; j < run; ++j) {
                Pfn pfn = warmList[start + j];
                pages[pfn].truth = Hotness::Hot;
                new_hot.push_back(pfn);
            }
            warmList.erase(
                warmList.begin() + static_cast<long>(start),
                warmList.begin() + static_cast<long>(start + run));
        } else {
            TouchEvent ev = allocatePage(Hotness::Hot);
            // allocatePage appended to hotList; undo — membership is
            // rebuilt below from new_hot.
            hotList.pop_back();
            new_hot.push_back(ev.pfn);
        }
    }

    // Every page of new_hot is Hot already: kept pages were, promoted
    // ones were set above and fresh ones were allocated so.
    warmList.insert(warmList.end(), demoted_warm.begin(),
                    demoted_warm.end());
    // The old hot list becomes the previous one, and the previous
    // one's buffer the next relaunch's new_hot.
    prevHotList.swap(hotList);
    hotList.swap(new_hot);

    // --- Emit the access sequence with run-based locality. ---
    std::vector<TouchEvent> events;
    events.reserve(hotList.size());
    const auto &order = localityOrder(hotList.size());
    const Threshold write_t(prof.writeProb / 3.0);

    for (std::uint32_t idx : order) {
        Pfn pfn = hotList[idx];
        PageState &st = pages[pfn];
        // This relaunch's fresh allocations occupy the dense pfn range
        // [first_new_pfn, nextPfn); the order is a permutation, so
        // each appears exactly once — its first touch faults as an
        // allocation.
        bool is_new = pfn >= first_new_pfn;
        bool write = !is_new && rng.chance(write_t);
        if (write)
            ++st.version;
        events.push_back(
            TouchEvent{pfn, st.version, Hotness::Hot, is_new, write});
    }
    return events;
}

Hotness
AppInstance::truthOf(Pfn pfn) const
{
    panicIf(pfn >= pages.size(), "truthOf unknown page");
    return pages[pfn].truth;
}

std::uint32_t
AppInstance::versionOf(Pfn pfn) const
{
    panicIf(pfn >= pages.size(), "versionOf unknown page");
    return pages[pfn].version;
}

} // namespace ariadne

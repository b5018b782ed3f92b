#include "telemetry/journey.hh"

#include <algorithm>
#include <tuple>

#include "telemetry/timeline.hh"

namespace ariadne::telemetry
{

namespace detail
{
std::atomic<bool> g_journeyEnabled{false};
} // namespace detail

void
setJourneyEnabled(bool on) noexcept
{
    detail::g_journeyEnabled.store(on, std::memory_order_relaxed);
}

const char *
journeyStepName(JourneyStep s) noexcept
{
    switch (s) {
    case JourneyStep::Alloc:
        return "alloc";
    case JourneyStep::Hot:
        return "hot";
    case JourneyStep::Warm:
        return "warm";
    case JourneyStep::Cold:
        return "cold";
    case JourneyStep::Zram:
        return "zram";
    case JourneyStep::Writeback:
        return "writeback";
    case JourneyStep::Flash:
        return "flash";
    case JourneyStep::Staged:
        return "staged";
    case JourneyStep::SwapIn:
        return "swapin";
    case JourneyStep::Resident:
        return "resident";
    case JourneyStep::Recreate:
        return "recreate";
    case JourneyStep::Lost:
        return "lost";
    }
    return "?";
}

JourneyLog &
JourneyLog::global()
{
    static JourneyLog instance;
    return instance;
}

void
JourneyLog::record(std::uint32_t uid, std::uint64_t pfn,
                   JourneyStep step, std::uint64_t t_ns,
                   std::uint64_t detail) noexcept
{
    log.push(Event{uid, pfn, currentSession(), step, t_ns, detail});
}

std::vector<JourneyLog::Event>
JourneyLog::events() const
{
    std::vector<Event> all = log.items();
    std::stable_sort(all.begin(), all.end(),
                     [](const Event &a, const Event &b) {
                         return std::tie(a.session, a.uid, a.pfn,
                                         a.tNs) <
                                std::tie(b.session, b.uid, b.pfn,
                                         b.tNs);
                     });
    return all;
}

std::uint64_t
JourneyLog::droppedEvents() const
{
    return log.dropped();
}

void
JourneyLog::clear()
{
    log.clear();
}

} // namespace ariadne::telemetry

#include "telemetry/timeline.hh"

#include <algorithm>

namespace ariadne::telemetry
{

namespace detail
{
std::atomic<bool> g_timelineEnabled{false};

namespace
{
thread_local std::uint32_t t_sessionIndex = 0;
} // namespace
} // namespace detail

void
setTimelineEnabled(bool on) noexcept
{
    detail::g_timelineEnabled.store(on, std::memory_order_relaxed);
}

void
beginSession(std::uint32_t index) noexcept
{
    detail::t_sessionIndex = index;
}

std::uint32_t
currentSession() noexcept
{
    return detail::t_sessionIndex;
}

TimelineRecorder &
TimelineRecorder::global()
{
    static TimelineRecorder instance;
    return instance;
}

std::uint32_t
TimelineRecorder::seriesId(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu);
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return static_cast<std::uint32_t>(i);
    names.push_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
}

void
TimelineRecorder::record(std::uint32_t series, std::uint64_t t_ns,
                         std::uint64_t value) noexcept
{
    log.push(Point{series, detail::t_sessionIndex, t_ns, value});
}

std::vector<std::string>
TimelineRecorder::seriesNames() const
{
    std::lock_guard<std::mutex> lk(mu);
    return names;
}

std::vector<TimelineRecorder::Point>
TimelineRecorder::points() const
{
    std::vector<Point> all = log.items();
    std::lock_guard<std::mutex> lk(mu);
    std::sort(all.begin(), all.end(),
              [this](const Point &a, const Point &b) {
                  if (a.series != b.series)
                      return names[a.series] < names[b.series];
                  if (a.session != b.session)
                      return a.session < b.session;
                  if (a.tNs != b.tNs)
                      return a.tNs < b.tNs;
                  return a.value < b.value;
              });
    return all;
}

std::uint64_t
TimelineRecorder::droppedPoints() const
{
    return log.dropped();
}

void
TimelineRecorder::clear()
{
    log.clear();
}

TimelineGauge::TimelineGauge(const char *name)
    : base(Registry::global().gaugeSlot(name)),
      series(TimelineRecorder::global().seriesId(name))
{
}

} // namespace ariadne::telemetry

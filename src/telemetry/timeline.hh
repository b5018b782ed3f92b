/**
 * @file
 * Time-series flight recorder: gauge samples on a simulated-time
 * cadence, buffered per thread, exported as `--timeline` JSON.
 *
 * Gauges summarize into count/sum/min/max in the Registry
 * (telemetry.hh); the TimelineRecorder keeps the *series* — every
 * (gauge, session, simulated-time, value) point — so occupancy
 * curves, kswapd storms and watermark pressure are visible over a
 * session's lifetime instead of only as end-of-run totals.
 *
 * Recording follows the telemetry contract: strictly out-of-band
 * (points are copies of simulator state, never references), one
 * relaxed load + branch when disabled, a per-thread BoundedLog
 * (per_thread.hh) when enabled. Sampling happens at deterministic
 * simulated times (MobileSystem crosses every timelineIntervalMs
 * boundary), so the set of points per session is a function of
 * (spec, seed); only their distribution across thread buffers
 * varies, and export sorts them into a canonical order.
 *
 * Buffers are bounded (pointCap per thread); overflow drops points
 * and counts the drops, which the export reports so a truncated
 * series is never mistaken for a complete one.
 */

#ifndef ARIADNE_TELEMETRY_TIMELINE_HH
#define ARIADNE_TELEMETRY_TIMELINE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/per_thread.hh"
#include "telemetry/telemetry.hh"

namespace ariadne::telemetry
{

/** Gauge-sampling cadence in simulated milliseconds: each session
 * samples its gauges once per interval of simulated time. */
constexpr std::uint64_t timelineIntervalMs = 1000;

namespace detail
{
/** Whether timeline points are recorded; read relaxed per sample. */
extern std::atomic<bool> g_timelineEnabled;
} // namespace detail

/** Whether the timeline recorder keeps gauge sample points. */
inline bool
timelineEnabled() noexcept
{
    return detail::g_timelineEnabled.load(std::memory_order_relaxed);
}

/** Turn timeline point recording on or off (off by default). */
void setTimelineEnabled(bool on) noexcept;

/**
 * Announce the fleet session the calling thread is about to run.
 * Timeline points and journey events recorded by this thread are
 * attributed to this session until the next call. Cheap (one TLS
 * store); safe to call unconditionally.
 */
void beginSession(std::uint32_t index) noexcept;

/** The session the calling thread last announced (0 by default). */
std::uint32_t currentSession() noexcept;

/**
 * Process-wide recorder of gauge sample series. Series names are
 * interned once (probe-construction time); record() appends to the
 * calling thread's own buffer without locks.
 */
class TimelineRecorder
{
  public:
    /** Max points buffered per thread before drops begin. */
    static constexpr std::size_t pointCap = std::size_t{1} << 18;

    static TimelineRecorder &global();

    /** Intern a series name; returns its id. Idempotent. */
    std::uint32_t seriesId(const std::string &name);

    /** One gauge sample: @p value at simulated time @p t_ns,
     * attributed to the calling thread's current session. */
    void record(std::uint32_t series, std::uint64_t t_ns,
                std::uint64_t value) noexcept;

    struct Point
    {
        std::uint32_t series = 0;
        std::uint32_t session = 0;
        std::uint64_t tNs = 0;
        std::uint64_t value = 0;
    };

    /** Interned series names, indexed by series id. */
    std::vector<std::string> seriesNames() const;

    /** Every buffered point, merged across threads and sorted by
     * (series name, session, time, value) — canonical regardless of
     * which worker ran which session. */
    std::vector<Point> points() const;

    /** Points lost to per-thread buffer overflow. */
    std::uint64_t droppedPoints() const;

    /** Discard all points (names and buffers stay registered). */
    void clear();

  private:
    TimelineRecorder() = default;

    mutable std::mutex mu;
    std::vector<std::string> names;
    BoundedLog<Point, pointCap> log;
};

/**
 * A gauge probe wired into both sinks: sample() feeds the Registry
 * summary (count/sum/min/max for `--metrics`) and, when the timeline
 * is enabled, appends the raw point to the TimelineRecorder for
 * `--timeline`.
 */
class TimelineGauge
{
  public:
    explicit TimelineGauge(const char *name);

    void
    sample(std::uint64_t t_ns, std::uint64_t value) noexcept
    {
        if (enabled())
            Registry::global().recordGauge(base, value);
        if (timelineEnabled())
            TimelineRecorder::global().record(series, t_ns, value);
    }

  private:
    std::size_t base;
    std::uint32_t series;
};

} // namespace ariadne::telemetry

#endif // ARIADNE_TELEMETRY_TIMELINE_HH

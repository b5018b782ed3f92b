/**
 * @file
 * Sampled page-lifecycle journey tracing.
 *
 * One allocated page in journeySampleEvery (64) — chosen
 * deterministically from a splitmix64 hash of its (uid, pfn) key, so
 * the sample set is a function of the workload and not of thread
 * scheduling — records its state transitions with simulated
 * timestamps: alloc, hotness moves (hot/warm/cold), compression into
 * zram, writeback to flash, staging, swap-in, loss and recreation.
 * The result is the paper's story per page: you can watch a cold page
 * ride the FIFO into flash and pay the flash fault on relaunch.
 *
 * Same contract as the rest of src/telemetry/: strictly out-of-band
 * (sites read state, never mutate it), one relaxed load + branch
 * when disabled, a per-thread BoundedLog (per_thread.hh) when
 * enabled, canonical sort on export. Events feed two sinks: the
 * `--journeys FILE` JSON summary (grouped per page) and, when
 * `--trace-events` is also on, instant events injected into the
 * Chrome trace.
 */

#ifndef ARIADNE_TELEMETRY_JOURNEY_HH
#define ARIADNE_TELEMETRY_JOURNEY_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "telemetry/per_thread.hh"

namespace ariadne::telemetry
{

/** Journey sampling stride: one page in this many is followed. */
constexpr std::uint64_t journeySampleEvery = 64;

namespace detail
{
/** Whether journey events are recorded; read relaxed per site. */
extern std::atomic<bool> g_journeyEnabled;
} // namespace detail

/** Whether journey sites record anything. */
inline bool
journeyEnabled() noexcept
{
    return detail::g_journeyEnabled.load(std::memory_order_relaxed);
}

/** Turn journey recording on or off. */
void setJourneyEnabled(bool on) noexcept;

/** A page's lifecycle steps, in rough forward order. */
enum class JourneyStep : std::uint8_t
{
    Alloc,     ///< first materialization in DRAM
    Hot,       ///< classified / promoted to the hot list
    Warm,      ///< moved to the warm list
    Cold,      ///< moved to the cold list
    Zram,      ///< compressed into the zpool
    Writeback, ///< compressed block written back toward flash
    Flash,     ///< now resident on flash swap
    Staged,    ///< pre-decompressed into the staging buffer
    SwapIn,    ///< major fault brought it back (detail = latency ns)
    Resident,  ///< residentized as a sibling of a faulted unit
    Recreate,  ///< lost content rebuilt on access
    Lost       ///< dropped (incompressible or out of space)
};

/** Stable lowercase name of @p s (JSON event vocabulary). */
const char *journeyStepName(JourneyStep s) noexcept;

/** Deterministic predicate: is page (uid, pfn) in the sample? */
inline bool
journeySampled(std::uint32_t uid, std::uint64_t pfn) noexcept
{
    return mix64((static_cast<std::uint64_t>(uid) << 40) ^ pfn) %
               journeySampleEvery ==
           0;
}

/**
 * Process-wide journey event log, buffered per thread. record() is
 * only reached for sampled pages, so its cost is off the common
 * path by construction.
 */
class JourneyLog
{
  public:
    /** Max events buffered per thread before drops begin. */
    static constexpr std::size_t eventCap = std::size_t{1} << 16;

    static JourneyLog &global();

    struct Event
    {
        std::uint32_t uid = 0;
        std::uint64_t pfn = 0;
        std::uint32_t session = 0;
        JourneyStep step = JourneyStep::Alloc;
        std::uint64_t tNs = 0;
        /** Step-specific payload (e.g. swap-in latency ns). */
        std::uint64_t detail = 0;
    };

    /** Record one step for a sampled page at simulated @p t_ns,
     * attributed to the calling thread's current session. */
    void record(std::uint32_t uid, std::uint64_t pfn, JourneyStep step,
                std::uint64_t t_ns, std::uint64_t detail = 0) noexcept;

    /** Every buffered event, merged and stably sorted by (session,
     * uid, pfn, time) — one page's journey is contiguous and, since a
     * session runs on one thread, in issue order. */
    std::vector<Event> events() const;

    /** Events lost to per-thread buffer overflow. */
    std::uint64_t droppedEvents() const;

    /** Discard all events. */
    void clear();

  private:
    JourneyLog() = default;

    BoundedLog<Event, eventCap> log;
};

/** Site helper: record @p step for page (uid, pfn) iff journey
 * tracing is on and the page is in the deterministic sample. Cost
 * when disabled: one relaxed load and a branch. */
inline void
journeyMark(std::uint32_t uid, std::uint64_t pfn, JourneyStep step,
            std::uint64_t t_ns, std::uint64_t detail = 0) noexcept
{
    if (journeyEnabled() && journeySampled(uid, pfn))
        JourneyLog::global().record(uid, pfn, step, t_ns, detail);
}

} // namespace ariadne::telemetry

#endif // ARIADNE_TELEMETRY_JOURNEY_HH

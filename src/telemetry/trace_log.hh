/**
 * @file
 * Chrome trace-event timeline log.
 *
 * Collects host-time spans (what each worker thread was doing, when)
 * and exports them in the Chrome trace-event JSON format, loadable in
 * Perfetto / chrome://tracing / catapult. Spans are recorded into
 * per-thread buffers (a PerThread, per_thread.hh: no locks per span)
 * and merged at export, where a thread's track id is its buffer's
 * attach order plus one; like the rest of telemetry the log is
 * strictly out-of-band — recording never touches simulator state, so
 * traced runs produce byte-identical reports.
 *
 * Two phases are emitted alongside thread-name metadata events:
 * "complete" spans (ph = "X": name, ts, dur) — the subset every
 * trace viewer renders as nested span timelines — and thread-scoped
 * "instant" marks (ph = "i"), used by the journey tracer to inject
 * page-lifecycle steps onto synthetic per-session tracks (those
 * carry *simulated* timestamps; host spans carry host time — the
 * shared axis is documented, not reconciled). Timestamps are
 * microseconds since the log's origin (its construction, reset by
 * clear()).
 */

#ifndef ARIADNE_TELEMETRY_TRACE_LOG_HH
#define ARIADNE_TELEMETRY_TRACE_LOG_HH

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/per_thread.hh"
#include "telemetry/telemetry.hh"

namespace ariadne::telemetry
{

/** One recorded span or instant mark. */
struct TraceEvent
{
    std::string name;
    std::uint64_t tsNs = 0;  //!< start, ns since the log origin
    std::uint64_t durNs = 0; //!< span length in ns
    std::uint32_t tid = 0;   //!< track: the recording thread's, or
                             //!< an instant's explicit one
    /** Optional single argument rendered into "args". */
    std::string argKey;
    std::uint64_t argValue = 0;
    char phase = 'X'; //!< 'X' complete span, 'i' instant mark
};

/** Process-wide span log with per-thread buffers. */
class TraceLog
{
  public:
    static TraceLog &global();

    /** ns since the log origin on the host steady clock. */
    std::uint64_t nowNs() const noexcept;

    /** Record one span on this thread from two hostNowNs() readings. */
    void complete(const char *name, std::uint64_t start_ns,
                  std::uint64_t end_ns, const char *arg_key = nullptr,
                  std::uint64_t arg_value = 0);

    /** Record one instant mark (ph = "i") on an explicit track @p tid
     * — used at export time to inject events whose timeline identity
     * is synthetic (journey tracks per session) rather than the
     * recording thread. */
    void instant(std::string name, std::uint64_t ts_ns,
                 std::uint32_t tid, const char *arg_key = nullptr,
                 std::uint64_t arg_value = 0);

    /** Name the calling thread in the exported timeline (emitted as a
     * thread_name metadata event). No-op while tracing is disabled. */
    void nameThisThread(const std::string &name);

    /** Name a synthetic track @p tid (pair with instant()). */
    void nameSyntheticThread(std::uint32_t tid,
                             const std::string &name);

    /** All recorded spans merged across threads, by start time. */
    std::vector<TraceEvent> events() const;

    /** Thread names assigned so far as (tid, name). */
    std::vector<std::pair<std::uint32_t, std::string>>
    threadNames() const;

    /**
     * Export the Chrome trace-event document:
     * {"displayTimeUnit": "ms", "traceEvents": [...]} with one
     * metadata event per named thread and one "X" event per span
     * (ts/dur in microseconds).
     */
    void writeChromeTrace(std::ostream &os) const;

    /** Drop every recorded span and thread name. */
    void clear();

  private:
    struct Buffer
    {
        std::vector<TraceEvent> events;
        std::string threadName;
    };

    TraceLog();

    std::uint64_t originNs = 0;
    PerThread<Buffer> buffers;
    mutable std::mutex mu;
    /** (tid, name) for synthetic tracks (not backed by a thread). */
    std::vector<std::pair<std::uint32_t, std::string>> syntheticNames;
};

} // namespace ariadne::telemetry

#endif // ARIADNE_TELEMETRY_TRACE_LOG_HH

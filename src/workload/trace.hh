/**
 * @file
 * Workload trace format.
 *
 * The paper's methodology replays traces of (PFN, ZRAM sector, UID,
 * page data) collected via MonkeyRunner (§5). Our trace records the
 * same identifying tuple plus the event kind and ground-truth hotness;
 * page data is reproduced from (uid, pfn, version) by the synthesizer,
 * so traces stay small. Binary format with a magic/version header and
 * fixed-size little-endian records; a CSV exporter aids inspection.
 *
 * The format (version 2, the only one read or written) captures a
 * whole fleet run once for bit-identical replay (`ariadne_sim
 * --record` / `workload = trace`): the header carries the recording's
 * serialized ScenarioSpec, `SessionStart` records delimit fleet
 * sessions, and the primitive-op vocabulary covers everything
 * MobileSystem executes (`Execute`/`Idle` store their duration in the
 * record's `pfn` field; `Sample` marks a relaunch the driver recorded
 * into its session result).
 *
 * SystemObserver, the passive tap on a simulated session that trace
 * recording and the figure hooks attach, lives here beside the op
 * vocabulary it reports, where the swap schemes can include it.
 */

#ifndef ARIADNE_WORKLOAD_TRACE_HH
#define ARIADNE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/page.hh"
#include "sim/types.hh"

namespace ariadne
{

/** Kind of a trace event. */
enum class TraceOp : std::uint8_t
{
    Launch = 0,     //!< cold launch of an app
    Relaunch = 1,   //!< hot relaunch begins
    RelaunchEnd = 2,//!< relaunch access sequence finished
    Background = 3, //!< app moved to background
    Touch = 4,      //!< page access (allocation or reuse)
    Free = 5,       //!< page freed
    // Fleet record/replay ops.
    Execute = 6,      //!< foreground execution; `pfn` holds the Tick
                      //!< duration
    Idle = 7,         //!< idle wall time; `pfn` holds the duration
    Sample = 8,       //!< preceding relaunch was recorded as a sample
    SessionStart = 9, //!< fleet session boundary; `pfn` is the index
};

/** Stable display name of a trace op. */
const char *traceOpName(TraceOp op) noexcept;

struct TouchEvent;

/**
 * Passive observer of a simulated session: the primitive op and touch
 * stream a MobileSystem executes, and the zpool traffic of its swap
 * scheme. Trace recording (driver::TraceRecorder) and the figure
 * hooks attach one through MobileSystem::setObserver. Every callback
 * defaults to doing nothing, and observing never changes the run.
 */
class SystemObserver
{
  public:
    virtual ~SystemObserver() = default;

    /** One primitive driver op. @p arg is the duration of
     * Execute/Idle ops and zero otherwise; @p now is the simulated
     * time the op begins. */
    virtual void onOp(TraceOp, AppId, Tick /*arg*/, Tick /*now*/) {}

    /** One page touch executed for @p uid at time @p now. */
    virtual void onTouch(AppId, const TouchEvent &, Tick /*now*/) {}

    /** @p page was compressed into the zpool (once per page, also
     * for each page of a multi-page unit). */
    virtual void onZpoolPut(const PageMeta &) {}

    /** A fault took the object at @p sector out of the zpool. */
    virtual void onZpoolSwapIn(Sector) {}
};

/** One trace event. */
struct TraceRecord
{
    Tick time = 0;
    TraceOp op = TraceOp::Touch;
    AppId uid = invalidApp;
    /** Page frame for Touch; duration for Execute/Idle; session index
     * for SessionStart. */
    Pfn pfn = invalidPfn;
    std::uint32_t version = 0;
    Hotness truth = Hotness::Cold;
    /** Whether this Touch allocates the page for the first time. */
    bool newAllocation = false;

    bool operator==(const TraceRecord &o) const noexcept = default;
};

/**
 * Unreadable or corrupt trace file. TraceReader raises it so callers
 * (the driver, the CLI, the examples) can surface the problem as a
 * clean non-zero exit.
 */
class TraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Streaming writer for binary trace files. */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing; fatal() on failure.
     * @param spec_text Serialized ScenarioSpec of the recorded run,
     *        embedded in the header so the trace is replayable on its
     *        own. Empty for free-form traces.
     */
    explicit TraceWriter(const std::string &path,
                         const std::string &spec_text = "");
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Start fleet session @p index (appends a SessionStart record). */
    void beginSession(std::size_t index);

    /** Append one record. */
    void append(const TraceRecord &rec);

    /** Records written so far. */
    std::uint64_t count() const noexcept { return written; }

    /** Sessions begun so far. */
    std::uint32_t sessionCount() const noexcept { return sessions; }

    /** Flush and close; called by the destructor as well. */
    void close();

  private:
    std::ofstream out;
    std::uint64_t written = 0;
    std::uint32_t sessions = 0;
    bool closed = false;
};

/** Streaming reader for binary trace files. */
class TraceReader
{
  public:
    /**
     * Open @p path. Throws TraceError on a missing file, bad magic,
     * an unsupported version or a truncated header.
     */
    explicit TraceReader(const std::string &path);

    /**
     * Read the next record. @return false at end of file.
     * Throws TraceError when the file is shorter than its header
     * promises (truncation) or a record fails to decode.
     */
    bool next(TraceRecord &rec);

    /** Records promised by the file header. */
    std::uint64_t count() const noexcept { return total; }

    /** Format version of the file (always 2). */
    std::uint32_t version() const noexcept { return fileVersion; }

    /** Fleet sessions promised by the header. */
    std::uint32_t sessionCount() const noexcept { return sessions; }

    /** Embedded scenario text (empty for free-form traces). */
    const std::string &spec() const noexcept { return specText; }

  private:
    std::ifstream in;
    std::string path;
    std::uint64_t total = 0;
    std::uint64_t consumed = 0;
    std::uint32_t fileVersion = 0;
    std::uint32_t sessions = 0;
    std::string specText;
};

/** Read an entire trace into memory; throws TraceError like
 * TraceReader. */
std::vector<TraceRecord> readTrace(const std::string &path);

/** Write an entire trace; convenience over TraceWriter. */
void writeTrace(const std::string &path,
                const std::vector<TraceRecord> &records);

/** Export a trace as CSV with a header row. */
void exportTraceCsv(const std::string &path,
                    const std::vector<TraceRecord> &records);

} // namespace ariadne

#endif // ARIADNE_WORKLOAD_TRACE_HH

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
 * Unreadable or corrupt trace file. Raised instead of fatal() when a
 * reader runs with OnError::Throw, so library callers (the driver, the
 * CLI) can surface the problem as a clean non-zero exit.
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
    /** How to report unreadable or corrupt input. */
    enum class OnError
    {
        Fatal, //!< fatal() with a message (programmatic misuse)
        Throw, //!< raise TraceError (driver / CLI paths)
    };

    /**
     * Open @p path. Missing files, bad magic, unsupported versions and
     * truncated headers are diagnosed via @p on_error.
     */
    explicit TraceReader(const std::string &path,
                         OnError on_error = OnError::Fatal);

    /**
     * Read the next record. @return false at end of file.
     * A file shorter than its header promises (truncation) or a record
     * that fails to decode is diagnosed via the reader's error policy.
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
    [[noreturn]] void fail(const std::string &msg) const;

    std::ifstream in;
    std::string path;
    OnError onError;
    std::uint64_t total = 0;
    std::uint64_t consumed = 0;
    std::uint32_t fileVersion = 0;
    std::uint32_t sessions = 0;
    std::string specText;
};

/** Read an entire trace into memory. */
std::vector<TraceRecord> readTrace(
    const std::string &path,
    TraceReader::OnError on_error = TraceReader::OnError::Fatal);

/** Write an entire trace; convenience over TraceWriter. */
void writeTrace(const std::string &path,
                const std::vector<TraceRecord> &records);

/** Export a trace as CSV with a header row. */
void exportTraceCsv(const std::string &path,
                    const std::vector<TraceRecord> &records);

} // namespace ariadne

#endif // ARIADNE_WORKLOAD_TRACE_HH

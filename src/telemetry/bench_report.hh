/**
 * @file
 * Stable JSON schemas for perf and metrics artifacts.
 *
 * Two documents share one metadata envelope:
 *
 *  - BenchReport (`"ariadneBench": 1`) — what `bench/perf_*` binaries
 *    emit as BENCH_pages.json / BENCH_pagetable.json: throughput
 *    rates (pages/sec, ops/sec), integer totals, wall time, peak RSS,
 *    and the run's telemetry counters/durations. CI diffs these
 *    against committed baselines (bench/compare_bench.py).
 *
 *  - the `--metrics` document (`"ariadneMetrics": 1`) — the telemetry
 *    snapshot of any `ariadne_sim` run, out-of-band from the report.
 *
 * Both stamp reproducibility metadata (git SHA, build type, thread
 * count, scenario name + FNV-1a hash of the canonical spec) so every
 * point of a perf trajectory is attributable. Counter/duration maps
 * are emitted sorted by name; number formatting goes through
 * JsonWriter, so identical inputs serialize byte-identically.
 */

#ifndef ARIADNE_TELEMETRY_BENCH_REPORT_HH
#define ARIADNE_TELEMETRY_BENCH_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hh"

namespace ariadne::telemetry
{

/** Reproducibility envelope stamped into every artifact. */
struct RunMeta
{
    std::string gitSha;    //!< from build_info (configure-time)
    std::string buildType; //!< CMAKE_BUILD_TYPE of the binary
    unsigned threads = 0;  //!< worker threads the run used
    std::string scenario;  //!< scenario/spec display name
    /** FNV-1a 64 of the canonical spec text (0 = none). */
    std::uint64_t scenarioHash = 0;

    /** gitSha/buildType pre-filled from build_info. */
    static RunMeta current();
};

/** One perf-harness result document (BENCH_*.json). */
struct BenchReport
{
    static constexpr std::uint64_t schemaVersion = 1;

    std::string bench; //!< harness name: "pages", "pagetable"
    RunMeta meta;

    double wallSeconds = 0.0;
    std::uint64_t peakRssBytes = 0;

    /** Throughput rates, e.g. ("pagesPerSec.lzo", 812.4). */
    std::vector<std::pair<std::string, double>> rates;

    /** Integer totals, e.g. ("pagesPerCodec", 64). */
    std::vector<std::pair<std::string, std::uint64_t>> totals;

    /** Telemetry of the measured run (merged across threads). */
    Registry::Snapshot telemetry;

    void writeJson(std::ostream &os) const;
};

/** Write the `--metrics` document for @p snapshot. */
void writeMetricsJson(std::ostream &os, const RunMeta &meta,
                      const Registry::Snapshot &snapshot);

/**
 * Write the `--timeline` document (`"ariadneTimeline": 1`): every
 * gauge sample point buffered by the TimelineRecorder, grouped into
 * per-gauge series of {session, tMs, v} sorted by (gauge, session,
 * time). `intervalMs` is timelineIntervalMs; `droppedPoints` counts
 * the points dropped past the per-thread cap, so truncation is never
 * silent.
 */
void writeTimelineJson(std::ostream &os, const RunMeta &meta);

/**
 * Write the `--journeys` document (`"ariadneJourneys": 1`): sampled
 * page lifecycles grouped per (session, uid, pfn), each a list of
 * {tMs, step[, detail]} transitions in simulated-time order.
 * `sampleEvery` is journeySampleEvery.
 */
void writeJourneysJson(std::ostream &os, const RunMeta &meta);

/** Peak resident set of this process in bytes (0 if unsupported). */
std::uint64_t currentPeakRssBytes() noexcept;

} // namespace ariadne::telemetry

#endif // ARIADNE_TELEMETRY_BENCH_REPORT_HH

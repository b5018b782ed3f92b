/**
 * @file
 * FleetRunner — executes a ScenarioSpec as a fleet of independent
 * simulated devices and aggregates the results.
 *
 * Each fleet session owns a full MobileSystem seeded from
 * ScenarioSpec::sessionSeed(index); its profiles and behaviour come
 * from the spec's WorkloadSource (workload_source.hh), so a session
 * depends only on (spec, index) whichever of the three workload kinds
 * — event programs, synthetic populations, trace replay — drives it.
 * Sessions are distributed over a thread pool and *streamed* into the
 * aggregate in session-index order through a bounded reorder window:
 * workers park an out-of-order result until its predecessors are
 * folded, so peak retained SessionResults stay O(threads) no matter
 * how large the fleet is, while the aggregate (including every
 * percentile and its JSON rendering) remains bit-identical whether
 * the fleet ran on one thread or sixteen.
 *
 * runRecorded() captures a fleet into a trace that replays
 * bit-identically (`ariadne_sim --record` / `workload = trace`).
 * Sweeps (SweepSpec) run their variants back to back and report them
 * side by side in one JSON document.
 *
 * Aggregation itself lives in src/report/: sessions fold into a
 * report::FleetPartial and the final numbers come from
 * report::finalizeFleet — the same code path `ariadne_sim --merge`
 * uses — so an in-process run is literally the 1/1-shard case of the
 * sharded pipeline (runShard / runSweepShard produce the other
 * shards' PartialReports).
 */

#ifndef ARIADNE_DRIVER_FLEET_RUNNER_HH
#define ARIADNE_DRIVER_FLEET_RUNNER_HH

#include <memory>
#include <optional>
#include <ostream>

#include "driver/session_result.hh"
#include "driver/sweep_spec.hh"
#include "report/partial_report.hh"

namespace ariadne
{
class PageArena;
}

namespace ariadne::driver
{

class WorkloadSource;
class TraceRecorder;

/** The per-metric summary record (moved to the report subsystem so
 * the shard/merge pipeline and the driver share one definition). */
using report::MetricSummary;

/** Aggregate outcome of a fleet run. */
struct FleetResult
{
    std::string scenario;
    std::string scheme;
    std::string ariadneConfig;
    double scale = 0.0625;
    std::uint64_t seed = 0;
    std::size_t fleet = 0;
    /** How percentiles were aggregated (exact vectors or sketch);
     * sketch-mode summaries carry their rank-error bounds. */
    PercentileMode percentiles = PercentileMode::Exact;

    /** Per-session records; only populated when the run was asked to
     * keep them (they defeat streaming aggregation's O(threads)
     * memory bound). */
    std::vector<SessionResult> sessions;

    /** High-water mark of SessionResults alive in the streaming
     * reorder window (bounded by 2 * threads; 1 for single-threaded
     * runs). Diagnostic only — never serialized, so reports stay
     * thread-invariant. */
    std::size_t peakRetainedSessions = 0;

    /** Across every measured relaunch of every session (paper-scale
     * milliseconds). */
    MetricSummary relaunchMs;
    /** Per-session distributions (paper-scale ms / Joules). */
    MetricSummary compDecompCpuMs;
    MetricSummary kswapdCpuMs;
    MetricSummary energyJ;
    MetricSummary compRatio;

    std::uint64_t totalRelaunches = 0;
    std::uint64_t totalStagedHits = 0;
    std::uint64_t totalMajorFaults = 0;
    std::uint64_t totalFlashFaults = 0;
    std::uint64_t totalLostPages = 0;
    std::uint64_t totalDirectReclaims = 0;

    /**
     * Machine-readable report. @p per_session additionally emits one
     * record per session (seeds, CPU, relaunch samples) — the run
     * must have kept sessions for that to be non-empty.
     */
    void writeJson(std::ostream &os, bool per_session = false) const;

    /** Emit the report object into an open writer (SweepResult embeds
     * variant reports this way). */
    void writeJson(class JsonWriter &w, bool per_session = false) const;
};

/** Side-by-side outcome of a multi-scenario sweep. */
struct SweepResult
{
    std::string name;
    /** One aggregate per variant, in SweepSpec order. */
    std::vector<FleetResult> variants;

    /** One report comparing every variant side by side. */
    void writeJson(std::ostream &os, bool per_session = false) const;
};

/** Runs ScenarioSpecs as session fleets. */
class FleetRunner
{
  public:
    /**
     * Builds the spec's WorkloadSource. For `workload = trace` specs
     * this loads and validates the trace and adopts the scenario
     * embedded in it as the effective spec (only the replay spec's
     * explicit name survives), which is what makes a replayed report
     * byte-identical to the recorded one. A what-if override
     * (ScenarioSpec::replayScheme / replayParams, or `ariadne_sim
     * --replay TRACE --scheme NAME`) swaps the scheme the recorded
     * workload runs under instead — the workload stream itself stays
     * bit-identical to the recording — and also flows into
     * runRecorded()'s embedded spec, so a re-recorded what-if replay
     * carries the scheme it actually ran. Throws TraceError /
     * SpecError on unreadable or corrupt traces and SpecError on an
     * override that fails the scheme registry's validation.
     *
     * @param spec Scenario to run.
     * @param hooks Targets for the spec's `custom` events (a program
     *        referencing hooks[i] with i >= hooks.size() panics).
     */
    explicit FleetRunner(ScenarioSpec spec,
                         std::vector<SessionHook> hooks = {});

    /**
     * Run @p fleet sessions on @p threads worker threads, streaming
     * results into the aggregate in session-index order.
     * @param fleet Session count; 0 uses the spec's fleet size.
     *        Throws SpecError when it exceeds the workload source's
     *        session limit (finite for trace replays).
     * @param threads Worker threads; 0 picks the hardware count.
     * @param keep_sessions Retain every SessionResult in the result
     *        (needed for per-session JSON; costs O(fleet) memory).
     * Aggregates are independent of @p threads.
     */
    FleetResult run(std::size_t fleet = 0, unsigned threads = 1,
                    bool keep_sessions = false) const;

    /**
     * Run the fleet single-threaded and record every session's
     * primitive op/touch stream into @p trace_path. Recording is
     * passive: the returned FleetResult is bit-identical to an
     * unrecorded run(), and replaying the trace (`workload = trace`)
     * reproduces it byte for byte. One worker is mandatory — parallel
     * sessions would interleave in the stream.
     */
    FleetResult runRecorded(const std::string &trace_path,
                            std::size_t fleet = 0,
                            bool keep_sessions = false) const;

    /**
     * Run only this process's share of the fleet — the contiguous
     * session range @p plan assigns (global indices, so per-session
     * seeds are unchanged) — and return its mergeable PartialReport.
     * Merging all COUNT shards (report::mergePartials / `ariadne_sim
     * --merge`) reproduces run()'s report; byte-identically in exact
     * percentile mode. Shards never retain sessions or record traces.
     */
    report::PartialReport runShard(const report::ShardPlan &plan,
                                   std::size_t fleet = 0,
                                   unsigned threads = 1) const;

    /**
     * Run this process's share of @p sweep — the variants @p plan
     * assigns round-robin, each as a complete fleet — as a mergeable
     * PartialReport tagged with the variants' declaration indices.
     */
    static report::PartialReport
    runSweepShard(const SweepSpec &sweep,
                  const report::ShardPlan &plan, std::size_t fleet = 0,
                  unsigned threads = 1);

    /** Run the single session @p index (deterministic in isolation). */
    SessionResult runSession(std::size_t index) const;

    /**
     * Run every variant of @p sweep back to back (variant order is
     * the spec's declaration order; aggregates are thread-invariant).
     * @param fleet Per-variant session count; 0 uses each variant's
     *        own fleet size.
     */
    static SweepResult runSweep(const SweepSpec &sweep,
                                std::size_t fleet = 0,
                                unsigned threads = 1,
                                bool keep_sessions = false);

    /** Effective spec (the embedded scenario for trace replays). */
    const ScenarioSpec &spec() const noexcept { return scenario; }

    /** The workload source driving this runner's sessions. */
    const WorkloadSource &workload() const noexcept { return *source; }

  private:
    /** @p arena Optional slab arena to build the session's
     * MobileSystem on. Fleet workers pass their thread's arena so
     * page-metadata slabs (and the SoA scan arrays) are allocated
     * once per worker and recycled across every session it runs;
     * nullptr makes the session own a private arena. */
    SessionResult runSession(std::size_t index, TraceRecorder *recorder,
                             PageArena *arena) const;
    FleetResult runFleet(std::size_t fleet, unsigned threads,
                         bool keep_sessions,
                         TraceRecorder *recorder) const;
    std::size_t resolveFleet(std::size_t fleet) const;
    report::FleetPartial
    makePartial(std::size_t fleet,
                const report::ShardPlan &plan) const;
    /** Fold the partial's session range through the thread pool /
     * reorder window; optionally retaining sessions (full-range runs
     * only) and reporting the window's high-water mark. */
    void runPartialInto(report::FleetPartial &partial,
                        unsigned threads,
                        std::vector<SessionResult> *kept,
                        std::size_t &peak,
                        TraceRecorder *recorder) const;
    std::string embeddableSpecText(std::size_t fleet) const;

    ScenarioSpec scenario;
    std::vector<SessionHook> sessionHooks;
    std::shared_ptr<const WorkloadSource> source;
    /** Set for trace replays only: the spec to embed when re-recording
     * (the recorded scenario, never a trace reference, so a recorded
     * replay stays replayable). Other runners embed `scenario`. */
    std::optional<ScenarioSpec> recordedForEmbed;
};

} // namespace ariadne::driver

#endif // ARIADNE_DRIVER_FLEET_RUNNER_HH

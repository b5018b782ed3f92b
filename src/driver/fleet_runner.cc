#include "driver/fleet_runner.hh"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <tuple>

#include "driver/json_writer.hh"
#include "driver/workload_source.hh"
#include "report/report_merger.hh"
#include "sim/log.hh"
#include "swap/scheme_registry.hh"
#include "telemetry/progress.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace_log.hh"
#include "workload/apps.hh"

namespace ariadne::driver
{

namespace
{

telemetry::Counter c_sessions("fleet.sessions");
telemetry::SpanProbe d_session("fleet.session", "session", "index");

void
writeSummary(JsonWriter &w, const std::string &name,
             const MetricSummary &m, report::PercentileMode mode)
{
    w.key(name);
    w.beginObject();
    w.field("samples", m.samples);
    w.field("mean", m.mean);
    w.field("min", m.min);
    w.field("max", m.max);
    w.field("p50", m.p50);
    w.field("p90", m.p90);
    w.field("p99", m.p99);
    if (mode == report::PercentileMode::Sketch)
        w.field("rankErrorBound", m.rankErrorBound);
    w.endObject();
}

void
writeCompStats(JsonWriter &w, const CompStats &c)
{
    w.beginObject();
    w.field("compNs", c.compNs);
    w.field("decompNs", c.decompNs);
    w.field("inBytes", c.inBytes);
    w.field("outBytes", c.outBytes);
    w.field("decompBytes", c.decompBytes);
    w.field("compOps", c.compOps);
    w.field("decompOps", c.decompOps);
    w.field("ratio", c.ratio());
    w.endObject();
}

/**
 * Apply a what-if replay override to the recorded scenario: knob
 * overrides overlay the recorded knobs when the scheme is unchanged
 * (so `--scheme ariadne` on an Ariadne trace — or a pure knob tweak —
 * keeps the recorded configuration), and start from a fresh bag when
 * the scheme differs (another scheme's knobs would fail its schema).
 * The result is validated against the registry; errors surface as
 * SpecError, the driver's configuration-error currency.
 */
void
applySchemeOverride(ScenarioSpec &spec,
                    const std::string &override_scheme,
                    const SchemeParams &override_params)
{
    if (override_scheme.empty() || override_scheme == spec.scheme) {
        for (const auto &[knob, value] : override_params.entries())
            spec.params.set(knob, value);
    } else {
        spec.scheme = override_scheme;
        spec.params = override_params;
    }
    try {
        SchemeRegistry::instance().validate(spec.scheme, spec.params);
    } catch (const SchemeError &e) {
        throw SpecError(std::string("what-if replay override: ") +
                        e.what());
    }
}

/**
 * The spec a replay runs: the scenario recorded in its trace, so the
 * replayed report is byte-identical to the recorded one. An explicit
 * name in the replay spec survives (sweep variants rely on it for
 * side-by-side reports), and a what-if override swaps the scheme the
 * recorded workload runs under; everything else comes from the
 * recording.
 */
ScenarioSpec
replayedSpec(const ScenarioSpec &replay, const ScenarioSpec &recorded)
{
    ScenarioSpec effective = recorded;
    effective.workload = WorkloadKind::Trace;
    effective.tracePath = replay.tracePath;
    if (replay.name != "unnamed")
        effective.name = replay.name;
    if (!replay.replayScheme.empty() || !replay.replayParams.empty())
        applySchemeOverride(effective, replay.replayScheme,
                            replay.replayParams);
    return effective;
}

/** An empty aggregation state for sessions [0, @p fleet) of @p spec
 * (an effective spec). */
report::FleetPartial
partialOf(const ScenarioSpec &spec, std::size_t fleet)
{
    report::FleetPartial p(spec.percentiles, spec.sketchK);
    p.scenario = spec.name;
    p.scheme = SchemeRegistry::instance().at(spec.scheme).displayName;
    p.ariadneConfig = spec.params.getString("config", "");
    p.scale = spec.scale;
    p.seed = spec.seed;
    p.fleet = fleet;
    p.sessionsEnd = fleet;
    return p;
}

} // namespace

double
SessionResult::compDecompCpuMs(double scale) const noexcept
{
    return ticksToMs(compCpuNs + decompCpuNs) / scale;
}

FleetRunner::FleetRunner(ScenarioSpec spec,
                         std::vector<SessionHook> hooks)
    : scenario(std::move(spec)), sessionHooks(std::move(hooks))
{
    if (scenario.workload == WorkloadKind::Trace) {
        auto replay =
            std::make_shared<TraceReplaySource>(scenario.tracePath);
        scenario = replayedSpec(scenario, replay->recordedSpec());
        // Re-recording a what-if replay must embed the scheme it
        // actually ran (the workload axes stay the recording's).
        recordedForEmbed = replay->recordedSpec();
        recordedForEmbed->name = scenario.name;
        recordedForEmbed->scheme = scenario.scheme;
        recordedForEmbed->params = scenario.params;
        source = std::move(replay);
    } else {
        source = makeWorkloadSource(scenario);
    }
}

SessionResult
FleetRunner::runSession(std::size_t index) const
{
    return runSession(index, nullptr, nullptr);
}

SessionResult
FleetRunner::runSession(std::size_t index, TraceRecorder *recorder,
                        WorkerState *worker) const
{
    c_sessions.add();
    telemetry::ScopedSpan span(d_session, index);
    telemetry::beginSession(static_cast<std::uint32_t>(index));
    SessionResult result;
    result.index = index;
    result.seed = scenario.sessionSeed(index);

    MobileSystem sys(scenario.systemConfig(index),
                     source->sessionProfiles(index), worker);
    SessionDriver driver(sys);

    if (recorder) {
        recorder->beginSession(index);
        sys.setObserver(recorder);
    }
    SessionRun run(sys, driver, result, sessionHooks, scenario.scale,
                   recorder);
    source->drive(index, run);
    auto uids = sys.appIds();

    result.compCpuNs = sys.cpu().total(CpuRole::Compression);
    result.decompCpuNs = sys.cpu().total(CpuRole::Decompression);
    result.kswapdCpuNs = sys.kswapdCpuNs();
    result.grandCpuNs = sys.cpu().grandTotal();
    result.energyJ = sys.energyJoules();
    result.simulatedNs = sys.clock().now();
    result.comp = sys.scheme().totalStats();
    for (AppId uid : uids)
        result.appComp[uid] = sys.scheme().appStats(uid);
    result.lostPages = sys.lostRecreations();
    result.directReclaims = sys.scheme().directReclaims();
    for (const auto &sample : result.relaunches) {
        result.stagedHits += sample.stats.stagedHits;
        result.majorFaults += sample.stats.majorFaults;
        result.flashFaults += sample.stats.flashFaults;
    }
    return result;
}

FleetResult
FleetRunner::run(std::size_t fleet, unsigned threads,
                 bool keep_sessions) const
{
    return runFleet(fleet, threads, keep_sessions, nullptr);
}

FleetResult
FleetRunner::runRecorded(const std::string &trace_path,
                         std::size_t fleet, bool keep_sessions) const
{
    TraceWriter writer(trace_path, embeddableSpecText(fleet));
    TraceRecorder recorder(writer);
    FleetResult result = runFleet(fleet, 1, keep_sessions, &recorder);
    writer.close();
    return result;
}

std::string
FleetRunner::embeddableSpecText(std::size_t fleet) const
{
    // Embed the recorded scenario with the fleet size that was
    // actually captured, so a plain replay (`--fleet` omitted) runs
    // exactly the recorded sessions.
    ScenarioSpec spec = recordedForEmbed.value_or(scenario);
    if (fleet != 0)
        spec.fleet = fleet;
    else
        spec.fleet = scenario.fleet;
    return spec.toString();
}

std::size_t
FleetRunner::resolveFleet(std::size_t fleet) const
{
    if (fleet == 0)
        fleet = scenario.fleet;
    fatalIf(fleet == 0, "fleet size must be >= 1");
    if (std::size_t limit = source->sessionLimit();
        limit != 0 && fleet > limit)
        throw SpecError("workload source '" +
                        std::string(source->kind()) + "' supplies " +
                        std::to_string(limit) +
                        " session(s) but the run asked for " +
                        std::to_string(fleet) +
                        " (trace replays cannot exceed the recorded "
                        "fleet)");
    return fleet;
}

ScenarioSpec
FleetRunner::effectiveSpec(const ScenarioSpec &spec)
{
    if (spec.workload != WorkloadKind::Trace)
        return spec;
    TraceReader header(spec.tracePath);
    return replayedSpec(
        spec, TraceReplaySource::embeddedSpec(header, spec.tracePath));
}

void
FleetRunner::runPartialInto(report::FleetPartial &partial,
                            unsigned threads,
                            std::vector<SessionResult> *kept,
                            std::size_t &peak,
                            TraceRecorder *recorder) const
{
    const std::size_t begin = partial.sessionsBegin;
    const std::size_t end = partial.sessionsEnd;
    peak = 0;
    if (begin == end)
        return; // a small fleet can leave a shard empty
    const std::size_t span = end - begin;
    if (recorder) {
        // Recording serializes sessions into one stream; parallel
        // workers would interleave it.
        threads = 1;
    }
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (threads > span)
        threads = static_cast<unsigned>(span);
    if (kept)
        kept->resize(span);

    // Streaming aggregation. Session indices are claimed in order
    // from an atomic counter; finished results enter a reorder buffer
    // and are folded strictly in index order, so the aggregate cannot
    // observe scheduling. A worker whose index is too far ahead of
    // the fold frontier waits, which bounds the buffer (and therefore
    // peak retained SessionResults) at `window`, independent of the
    // fleet size.
    const std::size_t window = std::size_t{2} * threads;
    std::atomic<std::size_t> next{begin};
    std::mutex mu;
    std::condition_variable room;
    std::map<std::size_t, SessionResult> pending;
    std::size_t fold_frontier = begin;
    std::size_t high_water = 0;

    auto worker = [&]() {
        // One worker state per worker thread and per call, lent to
        // every session this worker runs. Its arena's slabs reach
        // steady-state capacity after the first session, so later
        // sessions allocate nothing; the arena is reset and the memo
        // returns exact sizes, so the aggregate stays bit-identical to
        // private-state runs. The memo lives no longer than this call:
        // a runner that runs its fleet again sizes its units again.
        WorkerState state;
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= end)
                return;
            {
                std::unique_lock<std::mutex> lk(mu);
                room.wait(lk,
                          [&] { return i < fold_frontier + window; });
            }
            SessionResult s = runSession(i, recorder, &state);
            std::size_t folded = 0;
            {
                std::unique_lock<std::mutex> lk(mu);
                pending.emplace(i, std::move(s));
                high_water = std::max(high_water, pending.size());
                while (!pending.empty() &&
                       pending.begin()->first == fold_frontier) {
                    SessionResult &head = pending.begin()->second;
                    partial.fold(head);
                    if (kept)
                        (*kept)[fold_frontier - begin] =
                            std::move(head);
                    pending.erase(pending.begin());
                    ++fold_frontier;
                    ++folded;
                }
                room.notify_all();
            }
            // Heartbeats happen outside the fold lock; the meter has
            // its own synchronization and may block on stderr.
            if (folded)
                telemetry::ProgressMeter::global().tick(folded);
        }
    };
    if (threads == 1) {
        telemetry::TraceLog::global().nameThisThread("fleet-main");
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&worker, t]() {
                telemetry::TraceLog::global().nameThisThread(
                    "worker-" + std::to_string(t));
                worker();
            });
        }
        for (auto &th : pool)
            th.join();
    }
    fatalIf(fold_frontier != end,
            "fleet aggregation lost sessions (internal bug)");
    peak = high_water;
}

FleetResult
FleetRunner::runFleet(std::size_t fleet, unsigned threads,
                      bool keep_sessions,
                      TraceRecorder *recorder) const
{
    fleet = resolveFleet(fleet);
    // An in-process run is the 1/1 shard of the sharded pipeline:
    // fold into a FleetPartial, finalize through the merge code path.
    report::FleetPartial partial = partialOf(scenario, fleet);
    std::vector<SessionResult> kept;
    std::size_t peak = 0;
    runPartialInto(partial, threads, keep_sessions ? &kept : nullptr,
                   peak, recorder);
    FleetResult result = report::finalizeFleet(partial);
    result.sessions = std::move(kept);
    result.peakRetainedSessions = peak;
    return result;
}

report::PartialReport
FleetRunner::runShard(const SweepSpec &run,
                      const report::ShardPlan &plan, std::size_t fleet,
                      unsigned threads)
{
    report::PartialReport rep;
    rep.shard = plan;
    rep.sweepName = run.name;
    // The slice depends on every variant's fleet size, which a replay
    // takes from its trace's header. Runners, and the records they
    // load, exist only for the variants the slice reaches, one at a
    // time.
    std::string identity = run.toString();
    for (const ScenarioSpec &variant : run.variants) {
        ScenarioSpec effective = effectiveSpec(variant);
        rep.variants.push_back(
            partialOf(effective, fleet ? fleet : effective.fleet));
        identity += "\nfleet = ";
        identity += std::to_string(rep.variants.back().fleet);
    }
    rep.runHash = report::fnv1a64(identity);
    auto ranges = rep.plannedRanges();
    for (std::size_t v = 0; v < ranges.size(); ++v) {
        report::FleetPartial &part = rep.variants[v];
        std::tie(part.sessionsBegin, part.sessionsEnd) = ranges[v];
        if (part.sessionsBegin == part.sessionsEnd)
            continue;
        FleetRunner runner(run.variants[v]);
        runner.resolveFleet(fleet); // a replay's recorded sessions bound it
        std::size_t peak = 0;
        runner.runPartialInto(part, threads, nullptr, peak, nullptr);
    }
    return rep;
}

SweepResult
FleetRunner::runSweep(const SweepSpec &sweep, std::size_t fleet,
                      unsigned threads, bool keep_sessions)
{
    SweepResult result;
    result.name = sweep.name;
    result.variants.reserve(sweep.variants.size());
    for (const ScenarioSpec &variant : sweep.variants)
        result.variants.push_back(
            FleetRunner(variant).run(fleet, threads, keep_sessions));
    return result;
}

void
FleetResult::writeJson(std::ostream &os, bool per_session) const
{
    JsonWriter w(os);
    writeJson(w, per_session);
    os << "\n";
}

void
FleetResult::writeJson(JsonWriter &w, bool per_session) const
{
    w.beginObject();
    w.field("scenario", scenario);
    w.field("scheme", scheme);
    if (!ariadneConfig.empty())
        w.field("ariadneConfig", ariadneConfig);
    w.field("scale", scale);
    w.field("seed", seed);
    w.field("fleet", fleet);
    w.field("percentiles", report::percentileModeName(percentiles));
    w.field("totalRelaunches", totalRelaunches);
    w.field("totalStagedHits", totalStagedHits);
    w.field("totalMajorFaults", totalMajorFaults);
    w.field("totalFlashFaults", totalFlashFaults);
    w.field("totalLostPages", totalLostPages);
    w.field("totalDirectReclaims", totalDirectReclaims);

    w.key("metrics");
    w.beginObject();
    writeSummary(w, "relaunchMs", relaunchMs, percentiles);
    writeSummary(w, "compDecompCpuMs", compDecompCpuMs, percentiles);
    writeSummary(w, "kswapdCpuMs", kswapdCpuMs, percentiles);
    writeSummary(w, "energyJoules", energyJ, percentiles);
    writeSummary(w, "compressionRatio", compRatio, percentiles);
    w.endObject();

    if (per_session) {
        w.key("sessions");
        w.beginArray();
        for (const SessionResult &s : sessions) {
            w.beginObject();
            w.field("index", s.index);
            w.field("seed", s.seed);
            w.field("compCpuNs", s.compCpuNs);
            w.field("decompCpuNs", s.decompCpuNs);
            w.field("kswapdCpuNs", s.kswapdCpuNs);
            w.field("grandCpuNs", s.grandCpuNs);
            w.field("energyJoules", s.energyJ);
            w.field("simulatedNs", s.simulatedNs);
            w.field("directReclaims", s.directReclaims);
            w.field("lostPages", s.lostPages);
            w.key("comp");
            writeCompStats(w, s.comp);
            w.key("relaunches");
            w.beginArray();
            for (const auto &sample : s.relaunches) {
                w.beginObject();
                w.field("uid", static_cast<std::uint64_t>(sample.uid));
                w.field("fullScaleMs", sample.fullScaleMs);
                w.field("pagesTouched", sample.stats.pagesTouched);
                w.field("majorFaults", sample.stats.majorFaults);
                w.field("stagedHits", sample.stats.stagedHits);
                w.field("flashFaults", sample.stats.flashFaults);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

void
SweepResult::writeJson(std::ostream &os, bool per_session) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("sweep", name);
    w.field("variantCount",
            static_cast<std::uint64_t>(variants.size()));
    w.key("variants");
    w.beginArray();
    for (const FleetResult &variant : variants)
        variant.writeJson(w, per_session);
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace ariadne::driver

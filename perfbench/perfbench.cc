/**
 * @file
 * perfbench — the repository's end-to-end benchmark.
 *
 *     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * Runs one named workload through the public driver::FleetRunner API
 * on one worker thread, closed loop: fleets of independent simulated
 * devices run back to back for S seconds of host time. Every fleet's
 * report must be byte-identical to the first one, every session must
 * record the relaunches its program implies, and the workload must
 * keep its memory-pressure shape; any mismatch counts the sessions
 * concerned as failed.
 *
 * With --trace 0 the run measures with tracing off and prints the
 * end-to-end metrics. With --trace 1 it spends half the time on
 * untraced fleets and half on traced ones, and prints per-layer
 * metrics: spans the benchmark records around MobileSystem's primitive
 * ops (a SystemObserver attached from a `custom` hook), the
 * simulator's own telemetry registry and session spans, and its own
 * timings of the public PageSynthesizer and Codec calls. The traced
 * fleets' reports must equal the untraced ones.
 *
 * The last line of stdout is the result:
 * {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
 * See README.md next to this file for the workloads and metrics.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compress/registry.hh"
#include "driver/fleet_runner.hh"
#include "driver/workload_source.hh"
#include "perfbench_lib.hh"
#include "sys/session.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_log.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
namespace pb = perfbench;

namespace
{

/** One benchmark workload, defined here rather than read from
 * scenarios/ so that editing those files never changes what the
 * benchmark measures. The seed line is appended at run time. */
struct Workload
{
    const char *name;
    /** Scenario config text. */
    const char *config;
    /** Sessions per measured fleet. */
    std::size_t fleet;
    pb::Pressure expect;
    /** The scheme's compression chunk sizes (bytes). Both schemes
     * compress with their default codec, lzo. */
    std::vector<std::size_t> chunks;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"ariadne_daily",
         R"(name = ariadne_daily
scheme = ariadne
scheme.config = EHL-1K-2K-16K
scale = 0.0625
event = warmup
event = repeat 120
event =   switch_next 2s 1s
event = end
)",
         9, pb::Pressure::Reclaim, {1024, 2048, 16384}},
        {"zram_heavy",
         R"(name = zram_heavy
scheme = zram
scale = 0.0625
event = warmup
event = repeat 60
event =   switch_next 250ms 0s
event = end
)",
         17, pb::Pressure::ReclaimAndSwapIn, {4096}},
        {"population_light",
         R"(name = population_light
scheme = ariadne
scheme.config = EHL-1K-2K-16K
scale = 0.0625
workload = synthetic
population_apps_per_user = 5
population_footprint_spread = 0.3
population_light_share = 0.3
population_heavy_share = 0.2
population_switches = 40
population_use = 2s
population_gap = 1s
)",
         512, pb::Pressure::None, {1024, 2048, 16384}},
    };
    return all;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Host-time axis shared with the simulator's own session spans. */
std::uint64_t
traceNowNs()
{
    return telemetry::TraceLog::global().nowNs();
}

/**
 * Records one span per MobileSystem primitive op while armed. A span
 * runs from its op's onOp() to the next op, the end of a relaunch, or
 * the session's closing hook.
 */
class OpTracer : public SystemObserver
{
  public:
    /** Start (or stop) recording and drop earlier spans. */
    void
    arm(bool on)
    {
        armed = on;
        spans.clear();
        bytesIn = 0;
        open = nullptr;
    }

    /** Opening hook of a session. */
    void
    attach(MobileSystem &sys)
    {
        if (armed)
            sys.setObserver(this);
    }

    /** Closing hook of a session. */
    void
    detach(MobileSystem &sys)
    {
        if (!armed)
            return;
        close(traceNowNs());
        sys.setObserver(nullptr);
        bytesIn += sys.compressor().bytesCompressed();
    }

    void
    onOp(TraceOp op, AppId, Tick, Tick) override
    {
        std::uint64_t t = traceNowNs();
        close(t);
        switch (op) {
          case TraceOp::Launch: open = "launch"; break;
          case TraceOp::Execute: open = "execute"; break;
          case TraceOp::Relaunch: open = "relaunch"; break;
          case TraceOp::Idle: open = "idle"; break;
          case TraceOp::Background: open = "background"; break;
          default: break;
        }
        openBeginNs = t;
    }

    void onTouch(AppId, const TouchEvent &, Tick) override {}

    /** Op spans of the armed runs (parents unset). */
    std::vector<pb::Span> spans;
    /** Sum of PageCompressor::bytesCompressed() at session ends. */
    std::uint64_t bytesIn = 0;

  private:
    void
    close(std::uint64_t t)
    {
        if (open)
            spans.push_back({open, openBeginNs, t, pb::noParent});
        open = nullptr;
    }

    bool armed = false;
    const char *open = nullptr;
    std::uint64_t openBeginNs = 0;
};

/** Parse the workload's spec and build its runner and source. */
std::unique_ptr<driver::FleetRunner>
setUp(const Workload &w, std::uint64_t seed, OpTracer &tracer)
{
    driver::ScenarioSpec spec = driver::ScenarioSpec::parseString(
        std::string(w.config) + "seed = " + std::to_string(seed) + "\n");
    std::vector<driver::SessionHook> hooks;
    if (spec.workload == driver::WorkloadKind::Profiles) {
        // Event programs take custom hooks; the synthetic population
        // generates its own program and takes none.
        spec.program.insert(spec.program.begin(),
                            driver::Event::custom(0));
        spec.program.push_back(driver::Event::custom(1));
        hooks.push_back([&tracer](MobileSystem &sys, SessionDriver &,
                                  driver::SessionResult &) {
            tracer.attach(sys);
        });
        hooks.push_back([&tracer](MobileSystem &sys, SessionDriver &,
                                  driver::SessionResult &) {
            tracer.detach(sys);
        });
    }
    return std::make_unique<driver::FleetRunner>(std::move(spec),
                                                 std::move(hooks));
}

/** Relaunches a program records: after warmup every switch is one. */
std::size_t
relaunchesIn(const std::vector<driver::Event> &program)
{
    std::size_t n = 0;
    for (const driver::Event &ev : program) {
        switch (ev.kind) {
          case driver::Event::Kind::SwitchNext:
          case driver::Event::Kind::TargetScenario:
            ++n;
            break;
          case driver::Event::Kind::Repeat:
            n += ev.count * relaunchesIn(ev.body);
            break;
          default:
            break;
        }
    }
    return n;
}

/** Relaunches session @p index of @p runner must record. */
std::size_t
expectedRelaunches(const driver::FleetRunner &runner, std::size_t index)
{
    if (const auto *pop =
            dynamic_cast<const driver::SyntheticPopulationSource *>(
                &runner.workload()))
        return relaunchesIn(pop->sessionProgram(index));
    return relaunchesIn(runner.spec().program);
}

/** Shape facts from the sessions' own results (tracing off). */
pb::ShapeFacts
sessionFacts(const driver::FleetResult &r)
{
    pb::ShapeFacts f;
    for (const driver::SessionResult &s : r.sessions) {
        f.reclaimedPages += s.comp.inBytes / pageSize;
        f.compressions += s.comp.compOps;
        for (const driver::RelaunchSample &rs : s.relaunches) {
            const RelaunchStats &st = rs.stats;
            f.zpoolSwapIns +=
                st.majorFaults -
                std::min(st.majorFaults, st.stagedHits + st.flashFaults);
        }
    }
    return f;
}

std::uint64_t
compressCalls(const telemetry::Registry::Snapshot &snap,
              std::uint64_t *total_ns = nullptr)
{
    std::uint64_t calls = 0, ns = 0;
    for (const auto &d : snap.durations) {
        if (d.name.rfind("compressor.compress.", 0) == 0) {
            calls += d.count;
            ns += d.totalNs;
        }
    }
    if (total_ns)
        *total_ns = ns;
    return calls;
}

/** Shape facts from the telemetry registry (traced runs). */
pb::ShapeFacts
telemetryFacts(const telemetry::Registry::Snapshot &snap)
{
    pb::ShapeFacts f;
    f.reclaimedPages = snap.counter("kswapd.reclaimed_pages");
    f.compressions = compressCalls(snap);
    f.zpoolSwapIns = snap.counter("zram.swapin_zpool");
    return f;
}

/** One measured fleet. */
struct FleetRun
{
    driver::FleetResult result;
    std::string report;
    double wallS = 0.0;
    /** The fleet's span on the trace-log clock. */
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t failed = 0;
};

/** Runs fleets of one workload and checks every output. */
class Bench
{
  public:
    Bench(const Workload &w, std::uint64_t seed, OpTracer &tracer)
        : work(w), seed(seed), tracer(tracer),
          runner(setUp(w, seed, tracer))
    {
        for (std::size_t i = 0; i < w.fleet; ++i)
            expected.push_back(expectedRelaunches(*runner, i));
    }

    /** Time @p n fresh set-ups, appending host seconds to @p out. */
    void
    timeSetUps(std::size_t n, std::vector<double> &out) const
    {
        for (std::size_t i = 0; i < n; ++i) {
            auto t = Clock::now();
            auto fresh = setUp(work, seed, tracer);
            out.push_back(secondsSince(t));
        }
    }

    const driver::FleetRunner &fleetRunner() const { return *runner; }

    /** The first fleet's result (the reference for later fleets). */
    const driver::FleetResult &
    reference() const
    {
        return first;
    }

    /** Peak RSS of the process when its first fleet ended. Later
     * fleets only add allocator fragmentation, which varies with how
     * many fleets fit into the run. */
    std::uint64_t
    firstPeakRssBytes() const
    {
        return firstPeakRss;
    }

    FleetRun
    run()
    {
        FleetRun fr;
        fr.beginNs = traceNowNs();
        auto t0 = Clock::now();
        try {
            fr.result = runner->run(work.fleet, 1, true);
        } catch (const std::exception &e) {
            fr.wallS = secondsSince(t0);
            fr.failed = work.fleet;
            std::cerr << "perfbench: fleet threw: " << e.what() << "\n";
            return fr;
        }
        fr.wallS = secondsSince(t0);
        fr.endNs = traceNowNs();
        std::ostringstream os;
        fr.result.writeJson(os);
        fr.report = os.str();
        fr.failed = check(fr);
        if (!haveReference) {
            first = fr.result;
            firstReport = fr.report;
            firstPeakRss = telemetry::currentPeakRssBytes();
            haveReference = true;
        } else if (fr.report != firstReport) {
            std::cerr << "perfbench: fleet report differs from the "
                         "first fleet's\n";
            fr.failed = work.fleet;
        }
        return fr;
    }

    /** Fail the fleet when @p facts break the workload's shape. */
    std::uint64_t
    guard(const pb::ShapeFacts &facts, const char *source) const
    {
        auto bad = pb::shapeViolations(work.expect, facts);
        for (const std::string &v : bad)
            std::cerr << "perfbench: shape guard (" << source
                      << "): " << v << "\n";
        return bad.empty() ? 0 : work.fleet;
    }

  private:
    std::uint64_t
    check(const FleetRun &fr) const
    {
        const driver::FleetResult &r = fr.result;
        if (r.fleet != work.fleet || r.sessions.size() != work.fleet) {
            std::cerr << "perfbench: fleet ran " << r.sessions.size()
                      << " of " << work.fleet << " sessions\n";
            return work.fleet;
        }
        std::uint64_t failed = 0, total = 0;
        for (std::size_t i = 0; i < r.sessions.size(); ++i) {
            total += expected[i];
            if (r.sessions[i].index != i ||
                r.sessions[i].relaunches.size() != expected[i])
                ++failed;
        }
        if (r.totalRelaunches != total || r.relaunchMs.samples != total)
            failed = work.fleet;
        if (failed)
            std::cerr << "perfbench: " << failed
                      << " session(s) with unexpected relaunch counts\n";
        return std::max(failed, guard(sessionFacts(r), "sessions"));
    }

    const Workload &work;
    std::uint64_t seed;
    OpTracer &tracer;
    std::unique_ptr<driver::FleetRunner> runner;
    std::vector<std::size_t> expected;
    bool haveReference = false;
    driver::FleetResult first;
    std::string firstReport;
    std::uint64_t firstPeakRss = 0;
};

/** Paper-scale relaunch samples of @p r, sorted. */
std::vector<double>
relaunchSamplesMs(const driver::FleetResult &r)
{
    std::vector<double> ms;
    for (const auto &s : r.sessions)
        for (const auto &rs : s.relaunches)
            ms.push_back(rs.fullScaleMs);
    std::sort(ms.begin(), ms.end());
    return ms;
}

/** Tally of the fleets a run measured. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> walls;
    /** Host seconds of each timed set-up. */
    std::vector<double> setups;
};

/** Set-ups timed before each fleet, so their median spans the run. */
constexpr std::size_t setUpsPerFleet = 100;

/**
 * Run fleets until @p budget_s of host time is used (a fleet is not
 * started when the median fleet would overrun it), at least
 * @p min_fleets of them. @p each sees every fleet after it ran.
 */
template <typename Each>
void
measure(Bench &bench, double budget_s, std::size_t min_fleets,
        Tally &tally, Each each)
{
    auto t0 = Clock::now();
    std::vector<double> walls;
    while (walls.size() < min_fleets ||
           secondsSince(t0) + pb::median(walls) <= budget_s) {
        bench.timeSetUps(setUpsPerFleet, tally.setups);
        FleetRun fr = bench.run();
        walls.push_back(fr.wallS);
        tally.attempted += fr.result.sessions.size()
                               ? fr.result.sessions.size()
                               : fr.failed;
        tally.failed += fr.failed;
        each(fr);
    }
    tally.walls.insert(tally.walls.end(), walls.begin(), walls.end());
}

/** Pages of the workload's app mix, materialized back to back. */
struct PageSample
{
    std::vector<PageKey> keys;
    std::vector<std::uint8_t> bytes;
};

constexpr Pfn samplePagesPerApp = 64;

/** Median pages/s of PageSynthesizer::materialize over the mix. */
double
materializePagesPerSec(const std::vector<AppProfile> &apps,
                       PageSample &sample)
{
    PageSynthesizer synth(apps);
    for (const AppProfile &p : apps)
        for (Pfn pfn = 0; pfn < samplePagesPerApp; ++pfn)
            sample.keys.push_back(PageKey{p.uid, pfn});
    sample.bytes.resize(sample.keys.size() * pageSize);

    std::vector<double> rates;
    auto t0 = Clock::now();
    while (rates.size() < 5 || secondsSince(t0) < 0.25) {
        auto t = Clock::now();
        for (std::size_t i = 0; i < sample.keys.size(); ++i)
            synth.materialize(sample.keys[i], 1,
                              {sample.bytes.data() + i * pageSize,
                               pageSize});
        rates.push_back(static_cast<double>(sample.keys.size()) /
                        secondsSince(t));
    }
    return pb::median(rates);
}

/** Median input MB/s of the workload's codec over the sampled pages,
 * cut into each of its chunk sizes. */
double
codecMBps(const Workload &w, const PageSample &sample,
          std::uint64_t &sink)
{
    std::unique_ptr<Codec> codec = makeCodec(CodecKind::Lzo);
    auto state = codec->makeBatchState();
    std::size_t largest =
        *std::max_element(w.chunks.begin(), w.chunks.end());
    std::vector<std::uint8_t> dst(codec->compressBound(largest));
    ConstBytes all{sample.bytes.data(), sample.bytes.size()};

    std::vector<double> rates;
    auto t0 = Clock::now();
    while (rates.size() < 5 || secondsSince(t0) < 0.25) {
        auto t = Clock::now();
        std::size_t in = 0;
        for (std::size_t chunk : w.chunks) {
            for (std::size_t off = 0; off + chunk <= all.size();
                 off += chunk) {
                sink += codec->compress(all.subspan(off, chunk),
                                        {dst.data(), dst.size()},
                                        state.get());
                in += chunk;
            }
        }
        rates.push_back(static_cast<double>(in) / 1e6 /
                        secondsSince(t));
    }
    return pb::median(rates);
}

/** Per-layer numbers of one traced fleet, by metric name. */
using LayerValues = std::map<std::string, double>;

LayerValues
layerValues(const FleetRun &fr, const OpTracer &tracer,
            const telemetry::Registry::Snapshot &snap)
{
    const std::vector<telemetry::TraceEvent> events =
        telemetry::TraceLog::global().events();

    // Span tree: the fleet run, its sessions, their ops.
    std::vector<pb::Span> sessions;
    for (const auto &ev : events)
        if (ev.phase == 'X' && ev.name == "session")
            sessions.push_back({"session", ev.tsNs, ev.tsNs + ev.durNs,
                                0});
    std::sort(sessions.begin(), sessions.end(),
              [](const pb::Span &a, const pb::Span &b) {
                  return a.beginNs < b.beginNs;
              });
    std::vector<pb::Span> ops = tracer.spans;
    if (ops.empty()) {
        // No custom hooks (synthetic population): fall back to the
        // simulator's own launch and relaunch spans.
        for (const auto &ev : events) {
            if (ev.phase != 'X')
                continue;
            if (ev.name == "cold_launch" || ev.name == "relaunch")
                ops.push_back({ev.name == "relaunch" ? "relaunch"
                                                     : "launch",
                               ev.tsNs, ev.tsNs + ev.durNs,
                               pb::noParent});
        }
    }
    std::vector<pb::Span> tree;
    tree.push_back({"run", fr.beginNs, fr.endNs, pb::noParent});
    tree.insert(tree.end(), sessions.begin(), sessions.end());
    for (pb::Span op : ops) {
        std::size_t s = pb::enclosingSpan(sessions, op.beginNs);
        op.parent = s == pb::noParent ? 0 : 1 + s;
        tree.push_back(std::move(op));
    }
    std::vector<std::uint64_t> self = pb::selfTimes(tree);

    LayerValues v;
    auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
    v["driver.self_ms"] = ms(self[0]);
    for (std::size_t i = 1; i <= sessions.size(); ++i) {
        v["driver.session_ms"] += ms(tree[i].durationNs());
        v["driver.session_self_ms"] += ms(self[i]);
    }
    for (const char *op :
         {"launch", "execute", "relaunch", "idle", "background"})
        v[std::string("sys.") + op + "_ms"] = 0.0;
    std::vector<double> relaunch_us;
    for (std::size_t i = 1 + sessions.size(); i < tree.size(); ++i) {
        v["sys." + tree[i].name + "_ms"] += ms(tree[i].durationNs());
        if (tree[i].name == "relaunch")
            relaunch_us.push_back(
                static_cast<double>(tree[i].durationNs()) / 1e3);
    }
    if (tracer.spans.empty())
        v["sys.execute_ms"] = ms(snap.duration("sys.execute").totalNs);
    std::sort(relaunch_us.begin(), relaunch_us.end());
    v["sys.relaunch_us_p50"] = pb::percentile(relaunch_us, 50);
    v["sys.relaunch_us_p99"] = pb::percentile(
        relaunch_us, pb::tailPercentile(relaunch_us.size()));
    v["sys.touches"] = static_cast<double>(snap.counter("sys.touch"));
    v["sys.major_faults"] =
        static_cast<double>(snap.counter("sys.major_fault"));
    v["sys.page_allocs"] =
        static_cast<double>(snap.counter("sys.page_alloc"));

    v["swap.kswapd_ms"] = ms(snap.duration("kswapd.run").totalNs);
    v["swap.kswapd_wakeups"] =
        static_cast<double>(snap.counter("kswapd.wakeup"));
    v["swap.reclaimed_pages"] =
        static_cast<double>(snap.counter("kswapd.reclaimed_pages"));
    v["swap.zram_swapin_ms"] = ms(snap.duration("zram.swapin").totalNs);
    v["swap.zram_swapins"] =
        static_cast<double>(snap.counter("zram.swapin_zpool"));
    auto ratio = [&](const char *hit, const char *miss,
                     const std::string &name, const std::string &base) {
        double h = static_cast<double>(snap.counter(hit));
        double n = h + static_cast<double>(snap.counter(miss));
        v[name] = n > 0 ? h / n : 0.0;
        v[base] = n;
    };
    ratio("compressor.cache_hit", "compressor.cache_miss",
          "swap.cache_hit_ratio", "swap.cache_lookups");
    ratio("compressor.memo.hit", "compressor.memo.miss",
          "swap.memo_hit_ratio", "swap.memo_lookups");

    std::uint64_t compress_ns = 0;
    v["compress.calls"] =
        static_cast<double>(compressCalls(snap, &compress_ns));
    v["compress.ms"] = ms(compress_ns);
    v["compress.session_share"] =
        v["driver.session_ms"] > 0
            ? v["compress.ms"] / v["driver.session_ms"]
            : 0.0;
    v["compress.bytes_in"] = static_cast<double>(tracer.bytesIn);
    v["compress.sim_comp_decomp_cpu_ms"] =
        fr.result.compDecompCpuMs.mean;

    v["core.decay_ms"] = ms(snap.duration("hotness.decay").totalNs);
    v["core.decay_pages"] =
        static_cast<double>(snap.counter("hotness.decay_pages"));
    v["core.staged_hits"] =
        static_cast<double>(fr.result.totalStagedHits);
    return v;
}

/** Unit of each per-layer metric, in output order. */
const std::vector<std::pair<std::string, std::string>> &
layerUnits()
{
    static const std::vector<std::pair<std::string, std::string>> u = {
        {"driver.setup_ms", "ms"},
        {"driver.self_ms", "ms"},
        {"driver.session_ms", "ms"},
        {"driver.session_self_ms", "ms"},
        {"sys.launch_ms", "ms"},
        {"sys.execute_ms", "ms"},
        {"sys.relaunch_ms", "ms"},
        {"sys.idle_ms", "ms"},
        {"sys.background_ms", "ms"},
        {"sys.relaunch_us_p50", "us"},
        {"sys.relaunch_us_p99", "us"},
        {"sys.touches", "count"},
        {"sys.major_faults", "count"},
        {"sys.page_allocs", "count"},
        {"swap.kswapd_ms", "ms"},
        {"swap.kswapd_wakeups", "count"},
        {"swap.reclaimed_pages", "count"},
        {"swap.zram_swapin_ms", "ms"},
        {"swap.zram_swapins", "count"},
        {"swap.cache_hit_ratio", "ratio"},
        {"swap.cache_lookups", "count"},
        {"swap.memo_hit_ratio", "ratio"},
        {"swap.memo_lookups", "count"},
        {"compress.calls", "count"},
        {"compress.ms", "ms"},
        {"compress.session_share", "ratio"},
        {"compress.bytes_in", "bytes"},
        {"compress.codec_MBps", "MB/s"},
        {"compress.sim_comp_decomp_cpu_ms", "ms"},
        {"workload.materialize_pages_per_s", "1/s"},
        {"core.decay_ms", "ms"},
        {"core.decay_pages", "count"},
        {"core.staged_hits", "count"},
        {"trace.overhead_share", "ratio"},
    };
    return u;
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1]\nworkloads:";
    for (const Workload &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *work = nullptr;
    std::uint64_t seed = 42;
    double seconds = 20;
    bool traced = false;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (i + 1 >= argc)
                return usage(argv[0]);
            std::string val = argv[++i];
            if (arg == "--workload") {
                for (const Workload &w : workloads())
                    if (val == w.name)
                        work = &w;
                if (!work)
                    return usage(argv[0]);
            } else if (arg == "--seed") {
                seed = std::stoull(val);
            } else if (arg == "--seconds") {
                seconds = std::stod(val);
            } else if (arg == "--trace" && (val == "0" || val == "1")) {
                traced = val == "1";
            } else {
                return usage(argv[0]);
            }
        }
    } catch (const std::exception &) {
        return usage(argv[0]);
    }
    if (!work || !(seconds > 0 && seconds <= 600))
        return usage(argv[0]);

    OpTracer tracer;
    Bench bench(*work, seed, tracer);
    Tally untraced;
    std::vector<pb::Metric> metrics;

    if (!traced) {
        measure(bench, seconds, 3, untraced, [](const FleetRun &) {});
        double setup_s = pb::median(untraced.setups);
        std::vector<double> rates;
        for (double wall : untraced.walls)
            rates.push_back(static_cast<double>(work->fleet) / wall);
        const driver::FleetResult &ref = bench.reference();
        std::vector<double> relaunch = relaunchSamplesMs(ref);
        double tail = pb::tailPercentile(relaunch.size());
        std::cout << "# " << work->name << " seed " << seed << ": "
                  << untraced.walls.size() << " fleets of "
                  << work->fleet << " sessions; sim_relaunch_ms_p99 is "
                  << "p" << tail << " of " << relaunch.size()
                  << " relaunch samples (p50 "
                  << pb::percentile(relaunch, 50) << " ms)\n";
        metrics = {
            {"sessions_per_s", pb::median(rates), "1/s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb",
             static_cast<double>(bench.firstPeakRssBytes()) / 1e6,
             "MB"},
            {"sim_relaunch_ms_mean", ref.relaunchMs.mean, "ms"},
            {"sim_relaunch_ms_p99", pb::percentile(relaunch, tail), "ms"},
            {"sim_kswapd_cpu_ms", ref.kswapdCpuMs.mean, "ms"},
        };
        std::cout << pb::resultJson(untraced.failed == 0,
                                    untraced.attempted, untraced.failed,
                                    metrics)
                  << "\n";
        return 0;
    }

    measure(bench, seconds / 2, 2, untraced, [](const FleetRun &) {});
    double setup_s = pb::median(untraced.setups);

    Tally tracedTally;
    std::map<std::string, std::vector<double>> layer;
    telemetry::setEnabled(true);
    telemetry::setTraceEnabled(true);
    auto before_each = [&]() {
        telemetry::Registry::global().reset();
        telemetry::TraceLog::global().clear();
        tracer.arm(true);
    };
    before_each();
    measure(bench, seconds / 2, 2, tracedTally, [&](const FleetRun &fr) {
        telemetry::Registry::Snapshot snap =
            telemetry::Registry::global().snapshot();
        if (fr.failed == 0)
            tracedTally.failed += bench.guard(telemetryFacts(snap),
                                              "telemetry");
        if (!fr.report.empty())
            for (const auto &[name, value] :
                 layerValues(fr, tracer, snap))
                layer[name].push_back(value);
        before_each();
    });
    tracer.arm(false);
    telemetry::setEnabled(false);
    telemetry::setTraceEnabled(false);

    PageSample sample;
    std::uint64_t sink = 0;
    std::vector<AppProfile> apps = bench.fleetRunner().spec().appProfiles();
    layer["workload.materialize_pages_per_s"] = {
        materializePagesPerSec(apps, sample)};
    layer["compress.codec_MBps"] = {codecMBps(*work, sample, sink)};
    layer["driver.setup_ms"] = {setup_s * 1e3};
    layer["trace.overhead_share"] = {pb::median(tracedTally.walls) /
                                         pb::median(untraced.walls) -
                                     1.0};

    for (const auto &[name, unit] : layerUnits())
        metrics.push_back({name, pb::median(layer[name]), unit});
    std::cout << "# " << work->name << " seed " << seed << ": "
              << untraced.walls.size() << " untraced and "
              << tracedTally.walls.size() << " traced fleets of "
              << work->fleet << " sessions (codec checksum " << sink
              << ")\n";
    std::uint64_t attempted = untraced.attempted + tracedTally.attempted;
    std::uint64_t failed = untraced.failed + tracedTally.failed;
    std::cout << pb::resultJson(failed == 0, attempted, failed, metrics)
              << "\n";
    return 0;
}

/**
 * @file
 * perf_workload — touch-stream generation throughput harness.
 *
 * Drives AppInstance, the workload generator every session runs, for
 * the ten standard apps at scale 1/16: a cold launch, then cycles of
 * a 2 s execute and a relaunch, the way a switching session calls
 * them. It times the three calls apart and emits BENCH_workload.json
 * with events/sec per call and overall in the stable `ariadneBench`
 * schema. The totals are exact: events per call and one FNV-1a hash
 * of every event's fields, so a change to what the generator draws
 * fails the baseline even when its rate improves.
 *
 *     perf_workload [--out FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "telemetry/bench_report.hh"
#include "telemetry/telemetry.hh"
#include "workload/apps.hh"
#include "workload/generator.hh"

using namespace ariadne;

namespace
{

using Clock = std::chrono::steady_clock;

/** FNV-1a 64 over the little-endian bytes of @p v, continuing @p h. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Events and host time of one kind of call. */
struct Tally
{
    const char *name;
    std::uint64_t events = 0;
    Clock::duration wall{};
};

} // namespace

int
main(int argc, char **argv)
{
    // The baseline pins the totals these counts produce.
    constexpr std::size_t cycles = 40;
    constexpr std::size_t rounds = 8;
    std::string out_path = "BENCH_workload.json";
    if (argc == 3 && !std::strcmp(argv[1], "--out")) {
        out_path = argv[2];
    } else if (argc != 1) {
        std::cerr << "usage: " << argv[0] << " [--out FILE]\n";
        return 2;
    }

    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();

    telemetry::BenchReport report;
    report.bench = "workload";
    report.meta = telemetry::RunMeta::current();
    report.meta.threads = 1;
    report.meta.scenario = "perf_workload";
    report.totals.emplace_back("cycles", cycles);
    report.totals.emplace_back("rounds", rounds);

    constexpr double scale = 0.0625;
    constexpr Tick use = 2'000'000'000;
    Tally launch{"launch"}, execute{"execute"}, relaunch{"relaunch"};
    std::uint64_t hash = 0xcbf29ce484222325ull;
    // Times one call and folds its events into the tally and hash;
    // the hash is untimed.
    auto run = [&](Tally &tally, auto &&call) {
        auto start = Clock::now();
        std::vector<TouchEvent> events = call();
        tally.wall += Clock::now() - start;
        tally.events += events.size();
        hash = fold(hash, events.size());
        for (const TouchEvent &ev : events) {
            hash = fold(hash, ev.pfn);
            hash = fold(hash, ev.version);
            hash = fold(hash, static_cast<std::uint64_t>(ev.truth));
            hash = fold(hash, ev.newAllocation);
            hash = fold(hash, ev.write);
        }
    };

    // Every round runs the same instances again (same seeds), so the
    // rounds only lengthen the timed work.
    std::vector<AppProfile> apps = standardApps();
    auto total_start = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        for (const AppProfile &app : apps) {
            AppInstance inst(app, scale, 42);
            run(launch, [&] { return inst.coldLaunch(); });
            for (std::size_t c = 0; c < cycles; ++c) {
                run(execute, [&] { return inst.execute(use); });
                run(relaunch, [&] { return inst.relaunch(); });
            }
        }
    }
    std::chrono::duration<double> total_wall = Clock::now() - total_start;

    auto rate = [](std::uint64_t events, Clock::duration wall) {
        return static_cast<double>(events) /
               std::max(std::chrono::duration<double>(wall).count(), 1e-9);
    };
    std::uint64_t all = 0;
    Clock::duration all_wall{};
    for (const Tally *t : {&launch, &execute, &relaunch}) {
        report.rates.emplace_back(std::string("eventsPerSec.") + t->name,
                                  rate(t->events, t->wall));
        report.totals.emplace_back(std::string("events.") + t->name,
                                   t->events);
        all += t->events;
        all_wall += t->wall;
    }
    report.rates.emplace_back("eventsPerSec", rate(all, all_wall));
    report.totals.emplace_back("streamHash", hash);

    report.wallSeconds = total_wall.count();
    report.peakRssBytes = telemetry::currentPeakRssBytes();
    report.telemetry = telemetry::Registry::global().snapshot();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perf_workload: cannot write " << out_path << "\n";
        return 1;
    }
    report.writeJson(out);
    for (const auto &[name, value] : report.rates)
        std::cerr << "perf_workload: " << name << " " << value << "\n";
    std::cerr << "perf_workload: report " << out_path << "\n";
    return 0;
}

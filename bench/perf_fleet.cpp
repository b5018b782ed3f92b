/**
 * @file
 * perf_fleet — end-to-end fleet throughput harness.
 *
 * Runs a fixed daily-usage fleet through the FleetRunner with
 * telemetry enabled and emits BENCH_fleet.json: wall time,
 * sessions/sec, peak RSS, and the run's telemetry counters, all in
 * the stable `ariadneBench` schema (telemetry/bench_report.hh). CI
 * runs this in Release and fails when sessions/sec regresses more
 * than the tolerance band against bench/baselines/BENCH_fleet.json
 * (bench/compare_bench.py).
 *
 *     perf_fleet [--fleet N] [--threads T] [--out FILE]
 *
 * The workload is built in code (not from scenarios/) so the binary
 * measures the same work regardless of the working directory.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "sim/parse_count.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/telemetry.hh"

using namespace ariadne;

namespace
{

/** The measured workload: the daily round-robin mix over the five
 * plotted apps under the paper's scheme. */
driver::ScenarioSpec
fleetSpec()
{
    driver::ScenarioSpec spec = bench::makeSpec("ariadne");
    spec.name = "perf_fleet";
    spec.apps = bench::plottedApps();
    spec.program.push_back(driver::Event::warmup());
    for (int i = 0; i < 20; ++i)
        spec.program.push_back(driver::Event::switchNext(
            Tick{2} * 1000000000ULL, Tick{500} * 1000000ULL));
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t fleet = 16;
    unsigned threads = 0; // hardware count
    std::string out_path = "BENCH_fleet.json";
    bool ok = true;
    for (int i = 1; ok && i < argc; ++i) {
        if (!std::strcmp(argv[i], "--fleet") && i + 1 < argc)
            ok = parseCount(argv[++i], fleet) == std::errc();
        else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
            ok = parseCount(argv[++i], threads) == std::errc();
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else
            ok = false;
    }
    if (!ok) {
        std::cerr << "usage: " << argv[0]
                  << " [--fleet N] [--threads T] [--out FILE]\n";
        return 2;
    }

    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();

    driver::ScenarioSpec spec = fleetSpec();
    std::string spec_text = spec.toString();
    driver::FleetRunner runner(std::move(spec));

    auto start = std::chrono::steady_clock::now();
    driver::FleetResult result = runner.run(fleet, threads);
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    telemetry::BenchReport report;
    report.bench = "fleet";
    report.meta = telemetry::RunMeta::current();
    report.meta.threads = threads;
    report.meta.scenario = runner.spec().name;
    report.meta.scenarioHash = report::fnv1a64(spec_text);
    report.wallSeconds = wall.count();
    report.peakRssBytes = telemetry::currentPeakRssBytes();
    report.rates.emplace_back(
        "sessionsPerSec",
        static_cast<double>(fleet) / std::max(wall.count(), 1e-9));
    report.totals.emplace_back("sessions", fleet);
    report.totals.emplace_back("relaunches", result.totalRelaunches);
    report.totals.emplace_back("majorFaults", result.totalMajorFaults);
    report.telemetry = telemetry::Registry::global().snapshot();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perf_fleet: cannot write " << out_path << "\n";
        return 1;
    }
    report.writeJson(out);

    std::cerr << "perf_fleet: " << fleet << " sessions in "
              << wall.count() << "s ("
              << static_cast<double>(fleet) / wall.count()
              << " sessions/s), report " << out_path << "\n";
    return 0;
}

/**
 * @file
 * perf_synth — page synthesis throughput harness.
 *
 * Materializes pages of all ten standard apps through one
 * PageSynthesizer, the content source behind every compression, and
 * emits BENCH_synth.json with pages/sec in the stable `ariadneBench`
 * schema. Each round starts from a fresh synthesizer, so the timed
 * work includes building each app's pools on its first page, as a
 * session that compresses pays it. The bytes are hashed untimed into
 * an exact FNV-1a total, so a change to what the synthesizer writes
 * fails the baseline even when its rate improves.
 *
 *     perf_synth [--out FILE]
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
#include "workload/page_synth.hh"

using namespace ariadne;

int
main(int argc, char **argv)
{
    // The baseline pins the totals these counts produce.
    constexpr std::size_t pages = 512;
    constexpr std::size_t rounds = 2;
    std::string out_path = "BENCH_synth.json";
    if (argc == 3 && !std::strcmp(argv[1], "--out")) {
        out_path = argv[2];
    } else if (argc != 1) {
        std::cerr << "usage: " << argv[0] << " [--out FILE]\n";
        return 2;
    }

    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();

    telemetry::BenchReport report;
    report.bench = "synth";
    report.meta = telemetry::RunMeta::current();
    report.meta.threads = 1;
    report.meta.scenario = "perf_synth";
    report.totals.emplace_back("pagesPerApp", pages);
    report.totals.emplace_back("rounds", rounds);

    // Pages are materialized a batch at a time into one buffer, then
    // hashed outside the timed region.
    constexpr std::size_t batch = 64;
    std::vector<std::uint8_t> buf(batch * pageSize);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::uint64_t made = 0;
    std::chrono::steady_clock::duration timed{};
    std::vector<AppProfile> apps = standardApps();

    auto total_start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        PageSynthesizer synth(apps);
        for (const AppProfile &app : apps) {
            for (std::size_t first = 0; first < pages; first += batch) {
                std::size_t count = std::min(batch, pages - first);
                auto start = std::chrono::steady_clock::now();
                for (std::size_t k = 0; k < count; ++k) {
                    // Every fourth page at a later version, as after
                    // a write.
                    Pfn pfn = first + k;
                    std::uint32_t version = pfn % 4 == 3 ? 1 : 0;
                    synth.materialize(
                        PageKey{app.uid, pfn}, version,
                        {buf.data() + k * pageSize, pageSize});
                }
                timed += std::chrono::steady_clock::now() - start;
                for (std::size_t b = 0; b < count * pageSize; ++b) {
                    hash ^= buf[b];
                    hash *= 0x100000001b3ull;
                }
                made += count;
            }
        }
    }
    std::chrono::duration<double> total_wall =
        std::chrono::steady_clock::now() - total_start;

    report.rates.emplace_back(
        "pagesPerSec",
        static_cast<double>(made) /
            std::max(std::chrono::duration<double>(timed).count(), 1e-9));
    report.totals.emplace_back("pages", made);
    report.totals.emplace_back("bytesHash", hash);

    report.wallSeconds = total_wall.count();
    report.peakRssBytes = telemetry::currentPeakRssBytes();
    report.telemetry = telemetry::Registry::global().snapshot();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perf_synth: cannot write " << out_path << "\n";
        return 1;
    }
    report.writeJson(out);
    for (const auto &[name, value] : report.rates)
        std::cerr << "perf_synth: " << name << " " << value << "\n";
    std::cerr << "perf_synth: report " << out_path << "\n";
    return 0;
}

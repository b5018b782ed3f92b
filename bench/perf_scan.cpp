/**
 * @file
 * perf_scan — SoA scan-metadata microbench.
 *
 * Exercises the reclaim-shaped access patterns that motivated moving
 * hotness level, location, and last-access ticks out of PageMeta into
 * PageArena's parallel SoA arrays: a full-arena level scan (kswapd
 * victim selection), a cold-page sweep filtering on location and
 * last-access age, a relaunch decay walk (hot -> warm demotion), and
 * the reset-and-refill cycle fleet workers run between sessions. All
 * over a million-page arena, so the working set is far out of cache
 * and the dense arrays' bandwidth advantage over pointer-chasing
 * through 64-byte records is what the numbers measure. Emits
 * BENCH_scan.json in the stable `ariadneBench` schema; the checked-in
 * counters pin the op mix so behavioural drift is caught exactly.
 *
 *     perf_scan [--pages N] [--rounds R] [--out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "mem/page_arena.hh"
#include "sim/parse_count.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/telemetry.hh"

using namespace ariadne;

namespace
{

telemetry::Counter c_levelScan("scan.level_pages");
telemetry::Counter c_coldSweep("scan.cold_sweep_pages");
telemetry::Counter c_decay("scan.decay_pages");
telemetry::Counter c_refill("scan.refill_pages");

double
rate(std::size_t ops, std::chrono::duration<double> wall)
{
    return static_cast<double>(ops) / std::max(wall.count(), 1e-9);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t pages = 1u << 20; // a million-page arena
    std::size_t rounds = 8;
    std::string out_path = "BENCH_scan.json";
    bool ok = true;
    for (int i = 1; ok && i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pages") && i + 1 < argc)
            ok = parseCount(argv[++i], pages) == std::errc();
        else if (!std::strcmp(argv[i], "--rounds") && i + 1 < argc)
            ok = parseCount(argv[++i], rounds) == std::errc();
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else
            ok = false;
    }
    if (!ok) {
        std::cerr << "usage: " << argv[0]
                  << " [--pages N] [--rounds R] [--out FILE]\n";
        return 2;
    }

    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();

    telemetry::BenchReport report;
    report.bench = "scan";
    report.meta = telemetry::RunMeta::current();
    report.meta.threads = 1;
    report.meta.scenario = "perf_scan";
    report.totals.emplace_back("pages", pages);
    report.totals.emplace_back("rounds", rounds);

    PageArena arena;
    std::vector<PageMeta *> dir(pages, nullptr);
    auto total_start = std::chrono::steady_clock::now();

    // Populate with a deterministic mix: levels cycle hot/warm/cold,
    // every 5th page sits in the zpool, last-access ticks are dense.
    auto populate = [&]() {
        for (std::size_t i = 0; i < pages; ++i) {
            PageMeta *page = arena.alloc();
            page->key = PageKey{1000, static_cast<Pfn>(i)};
            dir[i] = page;
            arena.setLevel(*page, static_cast<Hotness>(i % 3));
            if (i % 5 == 0)
                arena.setLocation(*page, PageLocation::Zpool);
            arena.setLastAccess(*page, static_cast<Tick>(i));
        }
    };
    populate();

    // Level scan: the victim-selection shape — classify every page by
    // hotness, touching only the dense level array.
    std::uint64_t level_hist[3] = {0, 0, 0};
    auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < pages; ++i)
            ++level_hist[static_cast<std::size_t>(
                arena.level(*dir[i]))];
        c_levelScan.add(pages);
    }
    report.rates.emplace_back(
        "opsPerSec.levelScan",
        rate(rounds * pages,
             std::chrono::steady_clock::now() - start));
    report.totals.emplace_back("levelHistHot", level_hist[0]);
    report.totals.emplace_back("levelHistWarm", level_hist[1]);
    report.totals.emplace_back("levelHistCold", level_hist[2]);

    // Cold sweep: filter on location + last-access age, the shape of
    // an age-based writeback scan. Two dense arrays, no record loads.
    const Tick cutoff = static_cast<Tick>(pages / 2);
    std::uint64_t sweep_matches = 0;
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < pages; ++i) {
            const PageMeta &page = *dir[i];
            if (arena.location(page) == PageLocation::Resident &&
                arena.lastAccess(page) < cutoff)
                ++sweep_matches;
        }
        c_coldSweep.add(pages);
    }
    report.rates.emplace_back(
        "opsPerSec.coldSweep",
        rate(rounds * pages,
             std::chrono::steady_clock::now() - start));
    report.totals.emplace_back("coldSweepMatches", sweep_matches);

    // Decay walk: the beginRelaunch demotion — rewrite the level of
    // every third page (the hot ones), then restore. Write bandwidth
    // into one SoA array.
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        const Hotness to =
            (r % 2 == 0) ? Hotness::Warm : Hotness::Hot;
        for (std::size_t i = 0; i < pages; i += 3) {
            arena.setLevel(*dir[i], to);
            c_decay.add();
        }
    }
    report.rates.emplace_back(
        "opsPerSec.decay",
        rate(rounds * ((pages + 2) / 3),
             std::chrono::steady_clock::now() - start));

    // Reset + refill: the fleet worker's between-sessions cycle. The
    // slabs and SoA arrays are retained, so this measures pure record
    // re-initialization, not allocation.
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        arena.reset();
        populate();
        c_refill.add(pages);
    }
    report.rates.emplace_back(
        "opsPerSec.resetRefill",
        rate(rounds * pages,
             std::chrono::steady_clock::now() - start));
    report.totals.emplace_back("slabCount", arena.slabCount());

    std::chrono::duration<double> total_wall =
        std::chrono::steady_clock::now() - total_start;
    report.wallSeconds = total_wall.count();
    report.peakRssBytes = telemetry::currentPeakRssBytes();
    report.telemetry = telemetry::Registry::global().snapshot();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perf_scan: cannot write " << out_path << "\n";
        return 1;
    }
    report.writeJson(out);
    for (const auto &[name, value] : report.rates)
        std::cerr << "perf_scan: " << name << " " << value << "\n";
    std::cerr << "perf_scan: report " << out_path << "\n";
    return 0;
}

/**
 * @file
 * perf_pagetable — page-bookkeeping microbench.
 *
 * Exercises the structures under every simulated touch in isolation:
 * PageArena allocation with a reset() between rounds (the path a
 * fleet worker takes between sessions), direct-indexed per-app lookup
 * (the MobileSystem page-directory shape) and intrusive LruList
 * touch-to-front traffic, over a million-page arena. Emits
 * BENCH_pagetable.json with ops/sec rates in the stable
 * `ariadneBench` schema; the checked-in counters pin the op mix so a
 * behavioural change shows up as counter drift, not just a rate
 * shift.
 *
 *     perf_pagetable [--out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "mem/lru_list.hh"
#include "mem/page_arena.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/telemetry.hh"

using namespace ariadne;

namespace
{

telemetry::Counter c_alloc("pagetable.alloc");
telemetry::Counter c_touch("pagetable.touch");

double
rate(std::size_t ops, std::chrono::duration<double> wall)
{
    return static_cast<double>(ops) / std::max(wall.count(), 1e-9);
}

} // namespace

int
main(int argc, char **argv)
{
    // The baseline pins the totals these counts produce.
    constexpr std::size_t pages = 1u << 20; // a million-page arena
    constexpr std::size_t rounds = 4;
    std::string out_path = "BENCH_pagetable.json";
    if (argc == 3 && !std::strcmp(argv[1], "--out")) {
        out_path = argv[2];
    } else if (argc != 1) {
        std::cerr << "usage: " << argv[0] << " [--out FILE]\n";
        return 2;
    }

    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();

    telemetry::BenchReport report;
    report.bench = "pagetable";
    report.meta = telemetry::RunMeta::current();
    report.meta.threads = 1;
    report.meta.scenario = "perf_pagetable";
    report.totals.emplace_back("pages", pages);
    report.totals.emplace_back("rounds", rounds);

    PageArena arena;
    std::vector<PageMeta *> dir(pages, nullptr);
    std::uint64_t lru_ops = 0;
    std::optional<LruList> list;
    auto total_start = std::chrono::steady_clock::now();

    // Alloc: fill the directory the way a cold launch does — dense
    // pfns, every record admitted to the intrusive list. Each round
    // is a session: it drops the previous round's list and reset()s
    // the arena, so later rounds refill warm slabs.
    auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        arena.reset();
        list.emplace(&lru_ops);
        for (std::size_t i = 0; i < pages; ++i) {
            PageMeta *page = arena.alloc();
            page->key = PageKey{1000, static_cast<Pfn>(i)};
            dir[i] = page;
            list->pushFront(*page);
            c_alloc.add();
        }
    }
    report.rates.emplace_back(
        "opsPerSec.alloc",
        rate(rounds * pages,
             std::chrono::steady_clock::now() - start));

    // Touch: the processTouch fast path — direct-indexed lookup, LRU
    // move-to-front. Strided so the list is actually reordered rather
    // than rotating its head.
    start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < pages; ++i) {
            std::size_t pfn = (i * 7 + r) % pages;
            PageMeta *page = dir[pfn];
            list->touch(*page);
            c_touch.add();
        }
    }
    report.rates.emplace_back(
        "opsPerSec.touch",
        rate(rounds * pages,
             std::chrono::steady_clock::now() - start));

    std::chrono::duration<double> total_wall =
        std::chrono::steady_clock::now() - total_start;
    report.wallSeconds = total_wall.count();
    report.peakRssBytes = telemetry::currentPeakRssBytes();
    report.telemetry = telemetry::Registry::global().snapshot();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perf_pagetable: cannot write " << out_path
                  << "\n";
        return 1;
    }
    report.writeJson(out);
    for (const auto &[name, value] : report.rates)
        std::cerr << "perf_pagetable: " << name << " " << value
                  << "\n";
    std::cerr << "perf_pagetable: report " << out_path << "\n";
    return 0;
}

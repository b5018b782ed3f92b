/**
 * @file
 * perf_pages — page synthesis + compression throughput harness.
 *
 * Streams synthesized pages through every registered codec via the
 * PageCompressor (each page is compressed exactly once) and emits
 * BENCH_pages.json with per-codec pages/sec rates in the stable
 * `ariadneBench` schema. This isolates the simulator's real
 * compute-bound inner loop — content materialization plus codec —
 * from the scheduling and bookkeeping perf_fleet measures.
 *
 * After the timed loop, every page is framed again with
 * ChunkedFrame::compress and decompressed (untimed); a frame that does
 * not restore the original bytes fails the run with exit status 1.
 *
 *     perf_pages [--pages N] [--out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "compress/chunked.hh"
#include "compress/codec.hh"
#include "compress/registry.hh"
#include "swap/page_compressor.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/telemetry.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;

int
main(int argc, char **argv)
{
    std::size_t pages = 4096;
    std::string out_path = "BENCH_pages.json";
    bool ok = true;
    for (int i = 1; ok && i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pages") && i + 1 < argc)
            ok = bench::parseCount(argv[++i], pages);
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else
            ok = false;
    }
    if (!ok) {
        std::cerr << "usage: " << argv[0] << " [--pages N] [--out FILE]\n";
        return 2;
    }

    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();

    std::vector<AppProfile> apps = standardApps();
    PageSynthesizer synth(apps);

    telemetry::BenchReport report;
    report.bench = "pages";
    report.meta = telemetry::RunMeta::current();
    report.meta.threads = 1;
    report.meta.scenario = "perf_pages";
    report.totals.emplace_back("pagesPerCodec", pages);

    constexpr CodecKind kinds[] = {CodecKind::Lz4, CodecKind::Lzo,
                                   CodecKind::Bdi, CodecKind::Null};
    auto total_start = std::chrono::steady_clock::now();
    for (CodecKind kind : kinds) {
        PageCompressor compressor(synth);
        auto codec = makeCodec(kind);
        AppId uid = apps.front().uid;

        auto start = std::chrono::steady_clock::now();
        std::uint64_t compressed_bytes = 0;
        for (std::size_t i = 0; i < pages; ++i) {
            PageRef ref{PageKey{uid, static_cast<Pfn>(i)}, 0};
            compressed_bytes += compressor.compressedSize(
                {&ref, 1}, *codec, std::size_t{4096});
        }
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        std::string name = codecKindName(kind);
        report.rates.emplace_back(
            "pagesPerSec." + name,
            static_cast<double>(pages) /
                std::max(wall.count(), 1e-9));
        report.totals.emplace_back("compressedBytes." + name,
                                   compressed_bytes);
        std::cerr << "perf_pages: " << name << " "
                  << static_cast<double>(pages) / wall.count()
                  << " pages/s\n";

        // Round-trip oracle, untimed: every frame must decompress to
        // the page it was built from.
        std::vector<std::uint8_t> page(pageSize);
        std::vector<std::uint8_t> restored(pageSize);
        for (std::size_t i = 0; i < pages; ++i) {
            synth.materialize(PageKey{uid, static_cast<Pfn>(i)}, 0,
                              {page.data(), page.size()});
            auto frame = ChunkedFrame::compress(
                *codec, {page.data(), page.size()}, std::size_t{4096});
            std::size_t got = ChunkedFrame::decompress(
                *codec, {frame.data(), frame.size()},
                {restored.data(), restored.size()});
            if (got != pageSize ||
                std::memcmp(restored.data(), page.data(), pageSize)) {
                std::cerr << "perf_pages: " << name
                          << " round-trip mismatch on page " << i
                          << "\n";
                return 1;
            }
        }
    }
    std::chrono::duration<double> total_wall =
        std::chrono::steady_clock::now() - total_start;

    report.wallSeconds = total_wall.count();
    report.peakRssBytes = telemetry::currentPeakRssBytes();
    report.telemetry = telemetry::Registry::global().snapshot();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perf_pages: cannot write " << out_path << "\n";
        return 1;
    }
    report.writeJson(out);
    std::cerr << "perf_pages: report " << out_path << "\n";
    return 0;
}

/**
 * @file
 * perf_pages — page synthesis + compression throughput harness.
 *
 * Streams synthesized pages of app 0 through lz4 and lzo via the
 * PageCompressor in two unit shapes: 1-page units at a 4 KB chunk
 * (ZRAM's pages) and 4-page units at a 16 KB chunk (Ariadne's cold
 * units). Each shape compresses every page exactly once. It emits
 * BENCH_pages.json with per-codec, per-shape pages/sec rates and
 * compressed bytes in the stable `ariadneBench` schema. This isolates
 * the simulator's real compute-bound inner loop — content
 * materialization plus codec — from the scheduling and bookkeeping
 * around it, which perfbench's fleet workloads time end to end.
 *
 * After each timed loop, every unit is framed again with
 * ChunkedFrame::compress and decompressed (untimed); a frame that does
 * not restore the original bytes fails the run with exit status 1.
 *
 *     perf_pages [--out FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

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
    // The baseline pins the totals this count produces.
    constexpr std::size_t pages = 4096;
    std::string out_path = "BENCH_pages.json";
    if (argc == 3 && !std::strcmp(argv[1], "--out")) {
        out_path = argv[2];
    } else if (argc != 1) {
        std::cerr << "usage: " << argv[0] << " [--out FILE]\n";
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

    // A unit shape: pages per unit, chunk size, metric-name suffix.
    struct Shape
    {
        std::size_t unitPages;
        std::size_t chunkBytes;
        const char *suffix;
    };
    constexpr Shape shapes[] = {{1, 4096, ""}, {4, 16384, ".unit16k"}};

    AppId uid = apps.front().uid;
    std::vector<PageRef> refs;
    for (std::size_t i = 0; i < pages; ++i)
        refs.push_back(PageRef{PageKey{uid, static_cast<Pfn>(i)}, 0});

    constexpr CodecKind kinds[] = {CodecKind::Lz4, CodecKind::Lzo};
    auto total_start = std::chrono::steady_clock::now();
    for (CodecKind kind : kinds) {
        PageCompressor compressor(synth);
        auto codec = makeCodec(kind);
        for (const Shape &shape : shapes) {
            auto unitAt = [&](std::size_t first) {
                return std::span<const PageRef>(
                    refs.data() + first,
                    std::min(shape.unitPages, pages - first));
            };

            auto start = std::chrono::steady_clock::now();
            std::uint64_t compressed_bytes = 0;
            for (std::size_t i = 0; i < pages; i += shape.unitPages) {
                compressed_bytes += compressor.compressedSize(
                    unitAt(i), *codec, shape.chunkBytes);
            }
            std::chrono::duration<double> wall =
                std::chrono::steady_clock::now() - start;

            std::string name = codecKindName(kind) + std::string(shape.suffix);
            double rate = static_cast<double>(pages) /
                          std::max(wall.count(), 1e-9);
            report.rates.emplace_back("pagesPerSec." + name, rate);
            report.totals.emplace_back("compressedBytes." + name,
                                       compressed_bytes);
            std::cerr << "perf_pages: " << name << " " << rate
                      << " pages/s\n";

            // Round-trip oracle, untimed: every frame must decompress
            // to the unit it was built from.
            std::vector<std::uint8_t> unit;
            std::vector<std::uint8_t> restored;
            for (std::size_t i = 0; i < pages; i += shape.unitPages) {
                std::span<const PageRef> unit_refs = unitAt(i);
                unit.resize(unit_refs.size() * pageSize);
                for (std::size_t k = 0; k < unit_refs.size(); ++k) {
                    synth.materialize(unit_refs[k].key,
                                      unit_refs[k].version,
                                      {unit.data() + k * pageSize,
                                       pageSize});
                }
                auto frame = ChunkedFrame::compress(
                    *codec, {unit.data(), unit.size()},
                    shape.chunkBytes);
                restored.assign(unit.size(), 0);
                std::size_t got = ChunkedFrame::decompress(
                    *codec, {frame.data(), frame.size()},
                    {restored.data(), restored.size()});
                if (got != unit.size() || restored != unit) {
                    std::cerr << "perf_pages: " << name
                              << " round-trip mismatch on page " << i
                              << "\n";
                    return 1;
                }
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

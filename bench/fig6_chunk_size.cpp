/**
 * @file
 * Fig. 6: compression latency, decompression latency, and
 * compression ratio versus compression chunk size (128 B .. 128 KB)
 * for LZ4 and LZO on mobile anonymous data.
 *
 * Paper result: ratio grows 1.7 -> 3.9 with chunk size; 128 B
 * compression is 59.2x (LZ4) / 41.8x (LZO) faster than 128 KB for
 * the same 576 MB of data.
 *
 * Latency comes from the calibrated TimingModel (the device
 * substitute); the ratio is a real measurement of our from-scratch
 * codecs over synthesized anonymous pages (a 36 MB sample of the
 * 576 MB corpus — the ratio is volume-independent).
 */

#include "bench_common.hh"
#include "compress/chunked.hh"
#include "compress/registry.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
using namespace ariadne::bench;

namespace
{

/**
 * Synthesize @p pages anonymous pages from the ten apps. Pages are
 * laid out in contiguous per-app segments, matching how reclaim
 * batches drain one application's LRU lists at a time.
 */
std::vector<std::uint8_t>
makeCorpus(std::size_t pages)
{
    auto apps = standardApps();
    PageSynthesizer synth(apps);
    std::vector<std::uint8_t> corpus(pages * pageSize);
    std::size_t per_app = pages / apps.size();
    for (std::size_t i = 0; i < pages; ++i) {
        const auto &app =
            apps[std::min(per_app ? i / per_app : 0,
                          apps.size() - 1)];
        PageKey key{app.uid, static_cast<Pfn>(i)};
        synth.materialize(key, 0,
                          {corpus.data() + i * pageSize, pageSize});
    }
    return corpus;
}

} // namespace

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("fig6",
              "Fig. 6: comp/decomp latency and ratio vs chunk size");

    constexpr std::size_t corpusPages = 9216; // 36 MiB sample
    constexpr std::size_t fullBytes =
        std::size_t{576} * 1024 * 1024; // paper corpus
    auto corpus = makeCorpus(corpusPages);
    TimingModel timing;

    for (CodecKind kind : {CodecKind::Lz4, CodecKind::Lzo}) {
        auto codec = makeCodec(kind);
        std::cout << "\n--- " << codec->name()
                  << " (576 MB corpus; latency from device model, "
                     "ratio measured) ---\n";
        ReportTable table({"Chunk", "CompTime (ms)", "DecompTime (ms)",
                           "CompRatio"});

        // Compression time and ratio at 128 B, then at 128 KB.
        std::vector<double> time, ratios;
        for (std::size_t chunk = 128; chunk <= 128 * 1024; chunk *= 2) {
            auto frame = ChunkedFrame::compress(
                *codec, {corpus.data(), corpus.size()}, chunk);
            double ratio = static_cast<double>(corpus.size()) /
                           static_cast<double>(frame.size());
            double comp_ms = static_cast<double>(timing.compressNs(
                                 codec->cost(), chunk, fullBytes)) /
                             1e6;
            double decomp_ms = static_cast<double>(timing.decompressNs(
                                   codec->cost(), chunk, fullBytes)) /
                               1e6;
            if (chunk == 128 || chunk == 128 * 1024) {
                time.push_back(comp_ms);
                ratios.push_back(ratio);
            }
            std::string label = chunk >= 1024
                                    ? std::to_string(chunk / 1024) + "K"
                                    : std::to_string(chunk) + "B";
            table.addRow({label, ReportTable::num(comp_ms, 1),
                          ReportTable::num(decomp_ms, 1),
                          ReportTable::num(ratio, 2)});
        }

        std::string name = codec->name();
        out.table(name, table);
        // The time ratio is calibrated into the TimingModel; the
        // compression ratios are the codec's own.
        out.claim({.text = name + " compression time, 128 KB over 128 B",
                   .kind = report::ClaimKind::Input,
                   .paper = kind == CodecKind::Lz4 ? 59.2 : 41.8,
                   .unit = "x", .values = {time[1] / time[0]}});
        out.claim({.text = name + " compression ratio at 128 B",
                   .paper = 1.7, .unit = "x", .values = {ratios[0]}});
        out.claim({.text = name + " compression ratio at 128 KB",
                   .paper = 3.9, .unit = "x", .values = {ratios[1]}});
    }
    return out.finish();
}

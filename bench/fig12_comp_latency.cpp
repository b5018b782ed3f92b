/**
 * @file
 * Fig. 12: compression and decompression latency per application
 * under ZRAM and Ariadne (LZO, as on the Pixel 7).
 *
 * Following the paper's methodology, this measures the latency of
 * processing each application's *trace data* under each scheme's
 * chunk-size policy: ZRAM compresses everything at 4 KB; Ariadne
 * compresses hot data at SmallSize, warm at MediumSize and cold at
 * LargeSize. Decompression covers the relaunch-relevant data (hot
 * and warm), which is what application relaunches actually pay for.
 *
 * Paper result: Ariadne cuts decompression latency by ~60% (YouTube,
 * Twitter) up to ~90% (BangDream, whose relaunch data is small);
 * compression latency also drops ~20% for most apps.
 *
 * The ground-truth corpus composition is a workload-generator probe
 * (bare AppInstance with the shared eval seed, like Fig. 5); the
 * latency math is the calibrated TimingModel.
 */

#include "bench_common.hh"

#include "core/config.hh"
#include "compress/registry.hh"
#include "workload/generator.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
using namespace ariadne::bench;

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("fig12", "Fig. 12: comp/decomp latency (ms) of each app's "
                       "trace data under the schemes' chunk policies "
                       "(LZO)");
    report::Claim decomp_cut{.text = "Small chunks cut relaunch "
                                     "decompression: Ariadne over ZRAM, "
                                     "every app",
                             .rule = report::ClaimRule::Below,
                             .paper = 1, .unit = "x"};
    report::Claim comp_kept{.text = "Cold chunks keep compression "
                                    "comparable: Ariadne over ZRAM, "
                                    "every app",
                            .paper = 1, .unit = "x"};

    TimingModel timing;
    auto codec = makeCodec(CodecKind::Lzo);
    const CodecCost &cost = codec->cost();

    const std::vector<AriadneConfig> configs = {
        AriadneConfig::parse("EHL-1K-2K-16K"),
        AriadneConfig::parse("AL-512-2K-16K"),
    };

    ReportTable table({"App", "ZRAM comp", "ZRAM decomp",
                       "EHL-1K-2K-16K comp", "EHL-1K-2K-16K decomp",
                       "AL-512-2K-16K comp", "AL-512-2K-16K decomp"});

    for (const auto &name : plottedApps()) {
        // Ground-truth hotness composition of the app's anonymous
        // data.
        AppInstance inst(standardApp(name), evalScale, evalSeed);
        inst.coldLaunch();
        inst.execute(Tick{30} * 1000000000ULL);
        std::size_t hot = inst.hotSet().size() * pageSize;
        std::size_t warm = inst.warmSet().size() * pageSize;
        std::size_t cold = inst.coldSet().size() * pageSize;
        std::size_t total = hot + warm + cold;
        std::size_t relaunch_relevant = hot + warm;

        // ZRAM: everything at one-page chunks, both directions.
        double zram_comp =
            static_cast<double>(timing.compressNs(cost, pageSize,
                                                  total)) /
            1e6 / evalScale;
        double zram_decomp =
            static_cast<double>(
                timing.decompressNs(cost, pageSize,
                                    relaunch_relevant)) /
            1e6 / evalScale;

        std::vector<std::string> row{
            name, ReportTable::num(zram_comp, 1),
            ReportTable::num(zram_decomp, 2)};

        for (const auto &cfg : configs) {
            double comp =
                static_cast<double>(
                    timing.compressNs(cost, cfg.smallSize,
                                      hot) +
                    timing.compressNs(cost, cfg.mediumSize,
                                      warm) +
                    timing.compressNs(cost, cfg.largeSize,
                                      cold)) /
                1e6 / evalScale;
            double decomp =
                static_cast<double>(
                    timing.decompressNs(cost, cfg.smallSize,
                                        hot) +
                    timing.decompressNs(cost, cfg.mediumSize,
                                        warm)) /
                1e6 / evalScale;
            row.push_back(ReportTable::num(comp, 1));
            row.push_back(ReportTable::num(decomp, 2));
            comp_kept.values.push_back(comp / zram_comp);
            decomp_cut.values.push_back(decomp / zram_decomp);
        }
        table.addRow(std::move(row));
    }
    out.table("comp_decomp_latency_ms", table);
    out.claim(std::move(decomp_cut));
    out.claim(std::move(comp_kept));
    return out.finish();
}

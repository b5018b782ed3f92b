/**
 * @file
 * Fig. 4: proportion of hot/warm/cold data in each tenth of the
 * compressed stream under ZRAM, ordered by compression time.
 *
 * Paper result: LRU-based ZRAM compresses a significant amount of
 * hot data *early* (part 0), because launch-time data looks least
 * recently used — the root cause of unnecessary decompressions.
 *
 * Each app is one ScenarioSpec variant; a `custom` hook reads the
 * ZRAM compression log after the target scenario (the event
 * vocabulary measures latencies, not analysis logs).
 */

#include <algorithm>

#include "analysis/hotness_dist.hh"
#include "bench_common.hh"
#include "swap/zram.hh"

using namespace ariadne;
using namespace ariadne::bench;

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("fig4", "Fig. 4: hot/warm/cold share per "
                      "compression-order decile (ZRAM)");
    report::Claim early{.text = "Part 0's hot share over the stream's, "
                                "every app",
                        .rule = report::ClaimRule::Above, .paper = 1,
                        .unit = "x"};

    for (const auto &name : plottedApps()) {
        AppId target = standardApp(name).uid;
        std::vector<Hotness> stream;

        driver::ScenarioSpec spec = makeSpec("zram");
        spec.name = name + "/zram";
        spec.program.push_back(driver::Event::targetScenario(name, 0));
        spec.program.push_back(driver::Event::custom(0));
        driver::SessionHook read_log =
            [&](MobileSystem &sys, SessionDriver &,
                driver::SessionResult &) {
                auto *zram = dynamic_cast<ZramScheme *>(&sys.scheme());
                for (const auto &ev : zram->compressionLog()) {
                    if (ev.key.uid == target)
                        stream.push_back(ev.truthAtCompression);
                }
            };
        runVariant(std::move(spec), {read_log});

        auto deciles = hotnessByCompressionOrder(stream, 10);

        std::cout << "\n" << name << " (" << stream.size()
                  << " compressed pages; part 0 compressed first)\n";
        ReportTable table({"Part", "Hot", "Warm", "Cold"});
        for (std::size_t i = 0; i < deciles.size(); ++i) {
            table.addRow({std::to_string(i),
                          ReportTable::num(deciles[i].hot, 2),
                          ReportTable::num(deciles[i].warm, 2),
                          ReportTable::num(deciles[i].cold, 2)});
        }
        out.table(name, table);
        double hot = static_cast<double>(std::count(
                         stream.begin(), stream.end(), Hotness::Hot)) /
                     static_cast<double>(stream.size());
        early.values.push_back(deciles.front().hot / hot);
    }
    // LRU compresses launch-time hot data first (Observation 3).
    out.claim(std::move(early));
    return out.finish();
}

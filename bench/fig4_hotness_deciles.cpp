/**
 * @file
 * Fig. 4: proportion of hot/warm/cold data in each tenth of the
 * compressed stream under ZRAM, ordered by compression time.
 *
 * Paper result: LRU-based ZRAM compresses a significant amount of
 * hot data *early* (part 0), because launch-time data looks least
 * recently used — the root cause of unnecessary decompressions.
 *
 * Each app is one ScenarioSpec variant; a `custom` hook at the start
 * of its program attaches an observer that records the hotness of
 * each of the app's pages ZRAM compresses (the event vocabulary
 * measures latencies, not compression order).
 */

#include <algorithm>

#include "analysis/hotness_dist.hh"
#include "bench_common.hh"

using namespace ariadne;
using namespace ariadne::bench;

namespace
{

/** Ground-truth hotness of each page of one app put into the zpool,
 * in compression order. */
class CompressionStream : public SystemObserver
{
  public:
    explicit CompressionStream(AppId uid) : uid(uid) {}

    void
    onZpoolPut(const PageMeta &page) override
    {
        if (page.key.uid == uid)
            truths.push_back(page.truth);
    }

    std::vector<Hotness> truths;

  private:
    AppId uid;
};

} // namespace

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
        CompressionStream observed(standardApp(name).uid);
        const std::vector<Hotness> &stream = observed.truths;

        driver::ScenarioSpec spec = makeSpec("zram");
        spec.name = name + "/zram";
        spec.program.push_back(driver::Event::custom(0));
        spec.program.push_back(driver::Event::targetScenario(name, 0));
        driver::SessionHook attach =
            [&](MobileSystem &sys, SessionDriver &,
                driver::SessionResult &) { sys.setObserver(&observed); };
        runVariant(std::move(spec), {attach});

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

/**
 * @file
 * Table 3: probability of accessing two or four consecutive pages in
 * zpool during an application relaunch (ZRAM).
 *
 * Paper result: P(2 consecutive) = 0.61-0.86, P(4 consecutive) =
 * 0.33-0.72 across the five plotted apps — the basis of PreDecomp's
 * one-page lookahead.
 *
 * Each app is one ScenarioSpec variant: `prepare_target` builds the
 * usage scenario declaratively; the measured relaunch runs in a
 * `custom` hook with an observer attached around it, so only the
 * target relaunch's swap-in stream counts.
 */

#include <tuple>

#include "analysis/locality.hh"
#include "bench_common.hh"

using namespace ariadne;
using namespace ariadne::bench;

namespace
{

/** Zpool sectors swapped in while attached, in fault order. */
struct SwapInSectors : SystemObserver
{
    void onZpoolSwapIn(Sector sector) override { sectors.push_back(sector); }

    std::vector<Sector> sectors;
};

} // namespace

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("table3", "Table 3: P(N consecutive zpool pages) during "
                        "relaunch (ZRAM)");
    // Locality is calibrated into the workload generator.
    report::Claim drops{.text = "Locality drops with depth: P4 over P2, "
                                "every app",
                        .kind = report::ClaimKind::Input,
                        .rule = report::ClaimRule::Below, .paper = 1,
                        .unit = "x"};

    struct PaperRow
    {
        const char *name;
        double p2;
        double p4;
    };
    const PaperRow paper[] = {
        {"YouTube", 0.86, 0.72},     {"Twitter", 0.81, 0.61},
        {"Firefox", 0.69, 0.43},     {"GoogleEarth", 0.77, 0.54},
        {"BangDream", 0.61, 0.33},
    };

    ReportTable table({"App", "P2 (sim)", "P2 (paper)", "P4 (sim)",
                       "P4 (paper)"});

    for (const auto &row : paper) {
        AppId target = standardApp(row.name).uid;
        double p2 = 0.0, p4 = 0.0;

        driver::ScenarioSpec spec = makeSpec("zram");
        spec.name = std::string(row.name) + "/zram";
        spec.program.push_back(
            driver::Event::prepareTarget(row.name, 0));
        spec.program.push_back(driver::Event::custom(0));

        driver::SessionHook measure =
            [&](MobileSystem &sys, SessionDriver &,
                driver::SessionResult &) {
                SwapInSectors observed;
                sys.setObserver(&observed);
                sys.appRelaunch(target);
                sys.setObserver(nullptr);
                p2 = consecutiveAccessProbability(observed.sectors, 2);
                p4 = consecutiveAccessProbability(observed.sectors, 4);
            };
        runVariant(std::move(spec), {measure});

        table.addRow({row.name, ReportTable::num(p2, 2),
                      ReportTable::num(row.p2, 2),
                      ReportTable::num(p4, 2),
                      ReportTable::num(row.p4, 2)});
        for (auto [depth, sim, paper] : {std::tuple{"P2", p2, row.p2},
                                          std::tuple{"P4", p4, row.p4}})
            out.claim({.text = std::string(row.name) + " " + depth,
                       .kind = report::ClaimKind::Input, .paper = paper,
                       .values = {sim}});
        drops.values.push_back(p4 / p2);
    }
    out.table("locality", table);
    out.claim(std::move(drops));
    return out.finish();
}

/**
 * @file
 * Table 2: energy consumption under three swap schemes, light and
 * heavy workloads.
 *
 * Paper result (normalized to DRAM): light — DRAM 1.000, ZRAM 1.122,
 * SWAP 1.003; heavy — DRAM 1.000, ZRAM 1.195, SWAP 1.017.
 *
 * Each (workload, scheme) pair is one ScenarioSpec variant: warmup,
 * then the `light_usage` / `heavy_usage` compound op. Cold launches
 * are identical across schemes and not part of the measured window,
 * so a pair of `custom` hooks snapshots activity after warm-up and
 * converts the 60 s window's delta into Joules
 * (MobileSystem::windowEnergyJoules).
 */

#include <tuple>

#include "bench_common.hh"

using namespace ariadne;
using namespace ariadne::bench;

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("table2",
              "Table 2: energy (J) under three swap schemes, 60 s");

    constexpr Tick window = Tick{60} * 1000000000ULL;

    auto scenario_joules = [&](const std::string &kind, const char *label,
                               bool heavy) {
        driver::ScenarioSpec spec = makeSpec(kind);
        spec.name = std::string(heavy ? "heavy" : "light") + "/" +
                    label;
        spec.program.push_back(driver::Event::warmup());
        spec.program.push_back(driver::Event::custom(0));
        if (heavy)
            spec.program.push_back(driver::Event::heavyUsage(window));
        else
            spec.program.push_back(driver::Event::lightUsage(
                window, Tick{1} * 1000000000ULL));
        spec.program.push_back(driver::Event::custom(1));

        ActivityTotals before;
        double joules = 0.0;
        driver::SessionHook snapshot =
            [&](MobileSystem &sys, SessionDriver &,
                driver::SessionResult &) {
                before = sys.activityTotals();
            };
        driver::SessionHook measure =
            [&](MobileSystem &sys, SessionDriver &,
                driver::SessionResult &) {
                joules = sys.windowEnergyJoules(before, window,
                                                evalScale);
            };
        runVariant(std::move(spec), {snapshot, measure});
        return joules;
    };

    ReportTable table({"Workload", "Scheme", "Energy (J)", "Normalized",
                       "Paper"});
    const char *paper_light[] = {"1.000", "1.122", "1.003"};
    const char *paper_heavy[] = {"1.000", "1.195", "1.017"};
    // The paper's normalized energy, as a change over DRAM's (%).
    const double change_light[] = {12.2, 0.3};
    const double change_heavy[] = {19.5, 1.7};

    for (bool heavy : {false, true}) {
        double dram = scenario_joules("dram", "dram", heavy);
        double zram = scenario_joules("zram", "zram", heavy);
        double swap = scenario_joules("swap", "swap", heavy);
        const char **paper = heavy ? paper_heavy : paper_light;
        const char *label = heavy ? "Heavy" : "Light";

        table.addRow({label, "DRAM", ReportTable::num(dram, 1), "1.000",
                      paper[0]});
        table.addRow({label, "ZRAM", ReportTable::num(zram, 1),
                      ReportTable::num(zram / dram, 3), paper[1]});
        table.addRow({label, "SWAP", ReportTable::num(swap, 1),
                      ReportTable::num(swap / dram, 3), paper[2]});
        const double *change = heavy ? change_heavy : change_light;
        for (auto [scheme, joules, paper_change] :
             {std::tuple{"ZRAM", zram, change[0]},
              std::tuple{"SWAP", swap, change[1]}})
            out.claim({.text = std::string(scheme) + " energy vs DRAM, " +
                               (heavy ? "heavy" : "light"),
                       .paper = paper_change, .unit = "%",
                       .values = {100.0 * (joules / dram - 1.0)}});
    }
    out.table("energy", table);
    return out.finish();
}

/**
 * @file
 * Ablation study of Ariadne's design decisions.
 *
 * Each row disables exactly one Ariadne mechanism and reruns the
 * standard target-relaunch scenario plus a three-cycle CPU
 * measurement, so the contribution of every technique is visible in
 * isolation:
 *
 *  - D1 no-hotness-seeding: the hot list starts empty (profile = 0
 *    pages), so initialization degenerates to cold-first LRU until
 *    the first relaunch teaches the scheme;
 *  - D2 single-size: Small = Medium = Large = 4 KB removes
 *    AdaptiveComp's size adaptation (HotnessOrg + PreDecomp only);
 *  - D3 no-predecomp: speculation disabled;
 *  - D4 no-cold-batching: LargeSize = 4 KB stores cold pages as
 *    single-page units (no multi-page decompression risk, but no
 *    large-window ratio either);
 *  - EHL vs AL: hot-list exemption versus all-lists compression.
 *
 * The mechanism toggles are Ariadne's registered scheme knobs
 * (`scheme.seed_profiles`, `scheme.predecomp`,
 * `scheme.hot_init_pages`; see `ariadne_sim --list-schemes`), so
 * every variant here is pure configuration — expressible verbatim in
 * a sweep config.
 */

#include "bench_common.hh"

using namespace ariadne;
using namespace ariadne::bench;

namespace
{

struct Outcome
{
    double relaunchMs;
    double cpuMs;
    double ratio;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchReport report("ablation", argc, argv);
    printBanner(std::cout,
                "Ablation: contribution of each Ariadne mechanism "
                "(YouTube target, 3 cycles)");

    auto ablation_spec = [](std::string name, const std::string &kind,
                            const std::string &acfg) {
        driver::ScenarioSpec spec = makeSpec(kind, acfg);
        spec.name = std::move(name);
        for (unsigned v = 0; v < 3; ++v)
            spec.program.push_back(
                driver::Event::targetScenario("YouTube", v));
        return spec;
    };

    std::vector<driver::ScenarioSpec> variants;
    variants.push_back(
        ablation_spec("ZRAM baseline", "zram", ""));
    variants.push_back(ablation_spec("Ariadne full (EHL-1K-2K-16K)",
                                     "ariadne",
                                     "EHL-1K-2K-16K"));
    {
        driver::ScenarioSpec spec =
            ablation_spec("D1 no hotness seeding", "ariadne",
                          "EHL-1K-2K-16K");
        spec.params.set("seed_profiles", "false");
        spec.params.set("hot_init_pages", "0");
        variants.push_back(std::move(spec));
    }
    variants.push_back(ablation_spec(
        "D2 single 4K size", "ariadne", "EHL-4K-4K-4K"));
    {
        driver::ScenarioSpec spec =
            ablation_spec("D3 no predecomp", "ariadne",
                          "AL-1K-2K-16K");
        spec.params.set("predecomp", "false");
        variants.push_back(std::move(spec));
    }
    variants.push_back(ablation_spec("D3 control (AL, predecomp on)",
                                     "ariadne",
                                     "AL-1K-2K-16K"));
    variants.push_back(ablation_spec(
        "D4 no cold batching", "ariadne", "EHL-1K-2K-4K"));

    ReportTable table({"Variant", "Relaunch (ms)", "Comp+decomp CPU "
                                                   "(ms)",
                       "Ratio"});
    for (auto &spec : variants) {
        std::string label = spec.name;
        driver::FleetResult r = runVariant(std::move(spec));
        report.add(r);
        const driver::SessionResult &s = session(r);
        Outcome o{lastRelaunchMs(r),
                  static_cast<double>(s.compCpuNs + s.decompCpuNs) /
                      1e6,
                  s.comp.ratio()};
        table.addRow({label, ReportTable::num(o.relaunchMs, 1),
                      ReportTable::num(o.cpuMs, 1),
                      ReportTable::num(o.ratio, 2)});
    }
    table.print(std::cout);
    std::cout << "\nEach mechanism matters: seeding protects the "
                 "first relaunch, size adaptation buys ratio and CPU, "
                 "predecomp hides AL decompression, cold batching "
                 "trades ratio against misprediction cost.\n";
    report.addTable("ablation", table);
    return report.finish();
}

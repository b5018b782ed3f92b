/**
 * @file
 * Table 1: anonymous data volume (MB) of five applications at 10 s
 * and 5 min after launch.
 *
 * The workload generator is calibrated against the paper's numbers;
 * this harness verifies the calibration by actually launching each
 * app and growing it to the 5-minute point, then reports simulated
 * vs. paper volumes (full-scale MB). Like Fig. 5, it drives a bare
 * AppInstance with the shared eval seed (it measures the generator,
 * not a swap scheme).
 */

#include <tuple>

#include "bench_common.hh"

using namespace ariadne;
using namespace ariadne::bench;

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("table1",
              "Table 1: anonymous data volume (MB), 10s and 5min");
    // The volumes are calibrated into the app profiles.
    report::Claim grows{.text = "Volumes grow: 5 min over 10 s, every app",
                        .kind = report::ClaimKind::Input,
                        .rule = report::ClaimRule::Above, .paper = 1,
                        .unit = "x"};

    struct PaperRow
    {
        const char *name;
        double mb10s;
        double mb5min;
    };
    const PaperRow paper[] = {
        {"YouTube", 177, 358},  {"Twitter", 182, 273},
        {"Firefox", 560, 716},  {"GoogleEarth", 273, 429},
        {"BangDream", 326, 821},
    };

    ReportTable table({"App", "10s (sim MB)", "10s (paper)",
                       "5min (sim MB)", "5min (paper)"});

    for (const auto &row : paper) {
        AppInstance inst(standardApp(row.name), evalScale, evalSeed);
        inst.coldLaunch();
        double mb_10s = static_cast<double>(inst.anonBytes()) /
                        evalScale / 1048576.0;
        // Grow to the 5 min point.
        inst.execute(Tick{290} * 1000000000ULL);
        double mb_5min = static_cast<double>(inst.anonBytes()) /
                         evalScale / 1048576.0;

        table.addRow({row.name, ReportTable::num(mb_10s, 0),
                      ReportTable::num(row.mb10s, 0),
                      ReportTable::num(mb_5min, 0),
                      ReportTable::num(row.mb5min, 0)});
        for (auto [when, sim, paper] :
             {std::tuple{"10 s", mb_10s, row.mb10s},
              std::tuple{"5 min", mb_5min, row.mb5min}})
            out.claim({.text = std::string(row.name) + " at " + when,
                       .kind = report::ClaimKind::Input, .paper = paper,
                       .unit = " MB", .values = {sim}});
        grows.values.push_back(mb_5min / mb_10s);
    }
    out.table("anon_volume_mb", table);
    out.claim(std::move(grows));
    return out.finish();
}

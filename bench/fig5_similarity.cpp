/**
 * @file
 * Fig. 5: Hot Data Similarity and Reused Data between two
 * consecutive relaunches of an application.
 *
 * Paper result: average similarity ~70%, average reuse ~98% — the
 * basis of Insight 1 (last relaunch predicts the next).
 *
 * This measures the workload generator itself, not a swap scheme, so
 * it drives a bare AppInstance per app with the shared eval seed
 * (MobileSystem derives per-app seeds, which would change the
 * published numbers).
 */

#include "analysis/similarity.hh"
#include "bench_common.hh"

using namespace ariadne;
using namespace ariadne::bench;

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("fig5", "Fig. 5: hot-data similarity and reuse across "
                      "consecutive relaunches");

    ReportTable table({"App", "Similarity", "Reused"});
    double sim_sum = 0.0, reuse_sum = 0.0;
    std::size_t n = 0;

    for (const auto &profile : standardApps()) {
        AppInstance inst(profile, evalScale, evalSeed);
        inst.coldLaunch();
        inst.execute(Tick{30} * 1000000000ULL);

        double sim_acc = 0.0, reuse_acc = 0.0;
        constexpr unsigned relaunches = 5;
        for (unsigned r = 0; r < relaunches; ++r) {
            inst.relaunch();
            std::vector<Pfn> prev = inst.previousHotSet();
            std::vector<Pfn> cur = inst.hotSet();
            sim_acc += hotDataSimilarity(prev, cur);
            reuse_acc += reusedData(prev, cur, inst.warmSet());
            inst.execute(Tick{10} * 1000000000ULL);
        }
        double sim = sim_acc / relaunches;
        double reuse = reuse_acc / relaunches;

        table.addRow({profile.name, ReportTable::num(sim, 2),
                      ReportTable::num(reuse, 2)});
        sim_sum += sim;
        reuse_sum += reuse;
        ++n;
    }
    out.table("similarity_reuse", table);
    // Both are calibrated into the app profiles (src/workload/apps.cc).
    out.claim({.text = "Hot-data similarity, mean of apps",
               .kind = report::ClaimKind::Input, .paper = 0.70,
               .values = {sim_sum / static_cast<double>(n)}});
    out.claim({.text = "Reused data, mean of apps",
               .kind = report::ClaimKind::Input, .paper = 0.98,
               .values = {reuse_sum / static_cast<double>(n)}});
    return out.finish();
}

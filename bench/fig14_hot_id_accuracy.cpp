/**
 * @file
 * Fig. 14: coverage and accuracy of Ariadne's hot-data
 * identification.
 *
 * Coverage — fraction of the relaunch's data correctly predicted
 * (paper: ~70% average). Accuracy — fraction of the predicted hot
 * list used during the next relaunch or the following execution
 * (paper: ~92% average).
 *
 * The usage trace is declarative (prepare_target + one extra
 * relaunch cycle); the scoring relaunch runs in a `custom` hook
 * because it observes the pages touched by individual driver calls.
 */

#include "analysis/similarity.hh"
#include "bench_common.hh"
#include "core/ariadne.hh"

using namespace ariadne;
using namespace ariadne::bench;

namespace
{

/** The distinct pages one app touches while attached. */
class TouchedPages : public SystemObserver
{
  public:
    explicit TouchedPages(AppId uid) : uid(uid) {}

    void
    onTouch(AppId app, const TouchEvent &ev, Tick) override
    {
        if (app == uid)
            seen.set(ev.pfn);
    }

    std::vector<Pfn> pfns() const { return seen.toSortedVector(); }

  private:
    AppId uid;
    PfnBitmap seen;
};

/** The distinct pfns @p uid touches while @p run runs, ascending. */
template <class Run>
std::vector<Pfn>
touchedDuring(MobileSystem &sys, AppId uid, Run &&run)
{
    TouchedPages window(uid);
    sys.setObserver(&window);
    run();
    sys.setObserver(nullptr);
    return window.pfns();
}

} // namespace

int
main(int argc, char **argv)
{
    Ledger out(argc, argv);
    out.begin("fig14", "Fig. 14: coverage and accuracy of hot data "
                       "identification (Ariadne)");

    ReportTable table({"App", "Coverage", "Accuracy"});
    double cov_sum = 0.0, acc_sum = 0.0;
    std::size_t n = 0;

    for (const auto &profile : standardApps()) {
        AppId uid = profile.uid;
        double coverage = 0.0, accuracy = 0.0;

        driver::ScenarioSpec spec =
            makeSpec("ariadne", "EHL-1K-2K-16K");
        spec.name = profile.name + "/EHL-1K-2K-16K";
        spec.program.push_back(
            driver::Event::prepareTarget(profile.name, 0));
        // One extra relaunch cycle so the prediction comes from a
        // real relaunch, not launch seeding.
        spec.program.push_back(driver::Event::relaunch(profile.name));
        spec.program.push_back(driver::Event::execute(
            profile.name, Tick{10} * 1000000000ULL));
        spec.program.push_back(
            driver::Event::background(profile.name));
        spec.program.push_back(driver::Event::custom(0));

        driver::SessionHook score =
            [&](MobileSystem &sys, SessionDriver &,
                driver::SessionResult &) {
                // Score the prediction on the next relaunch +
                // execution.
                std::vector<PageKey> predicted_keys =
                    dynamic_cast<const AriadneScheme &>(sys.scheme())
                        .predictedHotSet(uid);
                std::vector<Pfn> predicted;
                predicted.reserve(predicted_keys.size());
                for (const auto &key : predicted_keys)
                    predicted.push_back(key.pfn);

                std::vector<Pfn> relaunch_used = touchedDuring(
                    sys, uid, [&] { sys.appRelaunch(uid); });
                std::vector<Pfn> exec_used = touchedDuring(sys, uid, [&] {
                    sys.appExecute(uid, Tick{20} * 1000000000ULL);
                });

                std::vector<Pfn> used = relaunch_used;
                used.insert(used.end(), exec_used.begin(),
                            exec_used.end());

                coverage =
                    predictionCoverage(predicted, relaunch_used);
                accuracy = predictionAccuracy(predicted, used);
            };
        runVariant(std::move(spec), {score});

        table.addRow({profile.name, ReportTable::num(coverage, 2),
                      ReportTable::num(accuracy, 2)});
        cov_sum += coverage;
        acc_sum += accuracy;
        ++n;
    }
    out.table("coverage_accuracy", table);
    out.claim({.text = "Coverage, mean of apps", .paper = 0.70,
               .values = {cov_sum / static_cast<double>(n)}});
    out.claim({.text = "Accuracy, mean of apps", .paper = 0.92,
               .values = {acc_sum / static_cast<double>(n)}});
    return out.finish();
}

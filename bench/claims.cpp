/**
 * @file
 * Claims runner: runs figure sweeps and prints each figure's tables
 * and the verdicts of the paper's claims about it.
 *
 *     claims FILE.cfg... [--json FILE]
 *
 * claims/ holds one sweep config (driver/sweep_spec.hh) per figure;
 * its `sweep =` name picks the figure's tables and claims below, and
 * its `fleet`, `seed` and `scale` lines set how it runs. A variant is
 * one table cell, named `ROW/COLUMN` or `ROW`. Every variant runs as
 * one fleet with its sessions kept; a variant whose settings and
 * program repeat an earlier one's, in any file, reuses its sessions.
 * The runner loads every file, runs the distinct variants of all of
 * them at once, one fleet per hardware thread, and then prints the
 * figures in file order, so its output does not depend on the thread
 * count. A cell is the mean of its metric over the sessions; a claim
 * takes one value per session, pairing variants by session index, and
 * report/claims.hh judges it.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
#include <thread>

#include "bench_common.hh"

using namespace ariadne;
using namespace ariadne::bench;
using report::ClaimRule;

namespace
{

/** What a cell or claim reads from one session. App* read the
 * compression accounting of the variant's target app. */
enum class M
{
    FirstRelaunch, LastRelaunch, Kswapd, CompDecomp, Ratio,
    AppComp, AppDecomp, AppRatio,
};

double
read(M m, const driver::SessionResult &s, AppId target)
{
    auto app = s.appComp.find(target);
    const CompStats *st = app == s.appComp.end() ? nullptr : &app->second;
    bool none = s.relaunches.empty();
    switch (m) {
      case M::FirstRelaunch:
        return none ? NAN : s.relaunches.front().fullScaleMs;
      case M::LastRelaunch:
        return none ? NAN : s.relaunches.back().fullScaleMs;
      case M::Kswapd:
        return static_cast<double>(s.kswapdCpuNs) / 1e6;
      case M::CompDecomp:
        return static_cast<double>(s.compCpuNs + s.decompCpuNs) / 1e6;
      case M::Ratio:
        return s.comp.ratio();
      case M::AppComp:
        return st ? static_cast<double>(st->compNs) / 1e6 : NAN;
      case M::AppDecomp:
        return st ? static_cast<double>(st->decompNs) / 1e6 : NAN;
      case M::AppRatio:
        return st ? st->ratio() : NAN;
    }
    return NAN;
}

/** @c metric of variant @c cell (default `{}/header`), over variant
 * @c per's when set; `{}` stands for the row. */
struct Column
{
    std::string header;
    M metric;
    int digits;
    std::string per = "", cell = "";
};

struct Table
{
    std::string label, heading, rowHeader;
    std::vector<Column> columns;
};

/** How a claim folds its (num, den) pairs in one session. */
enum class Fold
{
    MeanOfRatios, //!< one value: the mean of num/den
    RatioOfMeans, //!< one value: sum of num over sum of den
    EachRatio,    //!< one value per pair: num/den
};

/** A row of the claims table; every claim in it is emergent. Every
 * num pairs with den; `{}` runs over the rows. Unit "%" states the
 * ratio r as 100 (r - 1). */
struct ClaimSpec
{
    std::string text;
    M metric;
    std::vector<std::string> num;
    std::string den;
    Fold fold;
    std::string unit;
    ClaimRule rule;
    double paper;
};

struct Figure
{
    std::string name, title;
    std::vector<Table> tables;
    std::vector<ClaimSpec> claims;
};

/** Columns NAME reading @p m of variant `{}/NAME`. */
std::vector<Column>
grid(M m, int digits, std::vector<std::string> names)
{
    std::vector<Column> cols;
    for (auto &n : names)
        cols.push_back({std::move(n), m, digits});
    return cols;
}

const std::string full = "Ariadne full (EHL-1K-2K-16K)";
const std::vector<std::string> ehl = {
    "{}/EHL-1K-2K-16K", "{}/EHL-1K-4K-16K", "{}/EHL-256-2K-32K"};
const std::vector<std::string> all = {
    "{}/EHL-1K-2K-16K", "{}/AL-1K-2K-16K",   "{}/EHL-1K-4K-16K",
    "{}/AL-512-2K-16K", "{}/EHL-256-2K-32K", "{}/AL-256-2K-32K"};
const std::vector<std::string> fig15 = {"ZRAM", "AL-1K-4K-64K",
                                        "AL-256-1K-4K"};

/** Figs. 13 and 15 and the ablation print no paper number: each
 * clause of their old closing sentence is a relation on a per-app
 * ratio, a bound of 1, or ~1x where it said "comparable". */
const std::vector<Figure> figures = {
    {"fig2", "Fig. 2: relaunch latency (ms) under DRAM/ZRAM/SWAP",
     {{"relaunch_ms", "", "App",
       {{"DRAM", M::LastRelaunch, 1}, {"ZRAM", M::LastRelaunch, 1},
        {"SWAP", M::LastRelaunch, 1},
        {"ZRAM/DRAM", M::LastRelaunch, 2, "{}/DRAM", "{}/ZRAM"},
        {"SWAP/DRAM", M::LastRelaunch, 2, "{}/DRAM", "{}/SWAP"}}}},
     {{"ZRAM/DRAM relaunch latency, mean of apps", M::LastRelaunch,
       {"{}/ZRAM"}, "{}/DRAM", Fold::MeanOfRatios, "x", ClaimRule::Approx,
       2.1}}},
    {"fig3", "Fig. 3: kswapd CPU usage (ms) over a 60 s scenario",
     {{"kswapd_cpu_ms", "", "Scheme",
       {{"kswapd CPU (ms)", M::Kswapd, 1, "", "{}"},
        {"vs DRAM", M::Kswapd, 2, "DRAM", "{}"}}}},
     {{"ZRAM/DRAM kswapd CPU", M::Kswapd, {"ZRAM"}, "DRAM",
       Fold::MeanOfRatios, "x", ClaimRule::Approx, 2.6},
      {"ZRAM/SWAP kswapd CPU", M::Kswapd, {"ZRAM"}, "SWAP",
       Fold::MeanOfRatios, "x", ClaimRule::Approx, 2.0}}},
    {"fig10",
     "Fig. 10: relaunch latency (ms): ZRAM vs Ariadne configs vs DRAM",
     {{"relaunch_ms", "", "App",
       grid(M::LastRelaunch, 1,
            {"ZRAM", "EHL-1K-2K-16K", "AL-1K-2K-16K", "EHL-1K-4K-16K",
             "AL-512-2K-16K", "EHL-256-2K-32K", "AL-256-2K-32K",
             "DRAM"})}},
     {{"EHL configs' mean relaunch vs ZRAM's", M::LastRelaunch, ehl,
       "{}/ZRAM", Fold::RatioOfMeans, "%", ClaimRule::Approx, -50},
      {"EHL configs' mean relaunch vs DRAM's", M::LastRelaunch, ehl,
       "{}/DRAM", Fold::RatioOfMeans, "%", ClaimRule::Below, 10},
      {"All six configs' mean relaunch vs ZRAM's", M::LastRelaunch, all,
       "{}/ZRAM", Fold::RatioOfMeans, "%", ClaimRule::Approx, -50},
      {"All six configs' mean relaunch vs DRAM's", M::LastRelaunch, all,
       "{}/DRAM", Fold::RatioOfMeans, "%", ClaimRule::Below, 10}}},
    {"fig11",
     "Fig. 11: comp+decomp CPU normalized to ZRAM (lower is better)",
     {{"normalized_cpu", "", "App",
       {{"EHL-1K-2K-16K", M::CompDecomp, 2, "{}/ZRAM"},
        {"EHL-256-2K-32K", M::CompDecomp, 2, "{}/ZRAM"},
        {"AL-256-2K-32K", M::CompDecomp, 2, "{}/ZRAM"},
        {"AL-512-2K-16K", M::CompDecomp, 2, "{}/ZRAM"}}}},
     {{"Comp+decomp CPU vs ZRAM, mean of apps and configs", M::CompDecomp,
       {"{}/EHL-1K-2K-16K", "{}/EHL-256-2K-32K", "{}/AL-256-2K-32K",
        "{}/AL-512-2K-16K"},
       "{}/ZRAM", Fold::MeanOfRatios, "%", ClaimRule::Approx, -15}}},
    {"fig13",
     "Fig. 13: compression ratio per app (original / compressed; "
     "higher is better)",
     {{"comp_ratio", "", "App",
       grid(M::AppRatio, 2, {"ZRAM", "EHL-1K-4K-16K", "AL-512-2K-16K"})}},
     {{"EHL-1K-4K-16K's ratio over ZRAM's, every app", M::AppRatio,
       {"{}/EHL-1K-4K-16K"}, "{}/ZRAM", Fold::EachRatio, "x",
       ClaimRule::Above, 1},
      {"AL-512-2K-16K's ratio over ZRAM's, every app", M::AppRatio,
       {"{}/AL-512-2K-16K"}, "{}/ZRAM", Fold::EachRatio, "x",
       ClaimRule::Approx, 1}}},
    {"fig15", "Fig. 15: sensitivity to chunk-size configuration",
     {{"comp_latency_ms", "(a) Compression latency (ms)", "App",
       grid(M::AppComp, 2, fig15)},
      {"decomp_latency_ms", "(b) Decompression latency (ms)", "App",
       grid(M::AppDecomp, 3, fig15)},
      {"comp_ratio", "(c) Compression ratio", "App",
       grid(M::AppRatio, 2, fig15)}},
     {{"Larger cold chunks raise the ratio: 64K over 4K, every app",
       M::AppRatio, {"{}/AL-1K-4K-64K"}, "{}/AL-256-1K-4K",
       Fold::EachRatio, "x", ClaimRule::Above, 1},
      {"Smaller chunks cut decompression: 4K over 64K, every app",
       M::AppDecomp, {"{}/AL-256-1K-4K"}, "{}/AL-1K-4K-64K",
       Fold::EachRatio, "x", ClaimRule::Below, 1}}},
    {"ablation",
     "Ablation: contribution of each Ariadne mechanism (YouTube target, "
     "3 cycles)",
     {{"ablation", "", "Variant",
       {{"Relaunch (ms)", M::LastRelaunch, 1, "", "{}"},
        {"Comp+decomp CPU (ms)", M::CompDecomp, 1, "", "{}"},
        {"Ratio", M::Ratio, 2, "", "{}"}}}},
     {{"Seeding protects the first relaunch: D1 over full",
       M::FirstRelaunch, {"D1 no hotness seeding"}, full, Fold::EachRatio,
       "x", ClaimRule::Above, 1},
      {"Size adaptation buys ratio: full over D2", M::Ratio, {full},
       "D2 single 4K size", Fold::EachRatio, "x", ClaimRule::Above, 1},
      {"Size adaptation buys CPU: full over D2", M::CompDecomp, {full},
       "D2 single 4K size", Fold::EachRatio, "x", ClaimRule::Below, 1},
      {"Predecomp hides AL decompression: D3 over control",
       M::LastRelaunch, {"D3 no predecomp"},
       "D3 control (AL, predecomp on)", Fold::EachRatio, "x",
       ClaimRule::Above, 1},
      {"Cold batching buys ratio: full over D4", M::Ratio, {full},
       "D4 no cold batching", Fold::EachRatio, "x", ClaimRule::Above, 1},
      {"Cold batching costs relaunch: D4 over full", M::LastRelaunch,
       {"D4 no cold batching"}, full, Fold::EachRatio, "x",
       ClaimRule::Below, 1}}},
};

std::string
fill(std::string name, const std::string &row)
{
    if (auto at = name.find("{}"); at != std::string::npos)
        name.replace(at, 2, row);
    return name;
}

/** Each distinct variant's kept sessions, keyed by its config text
 * with the name blanked. */
class RunCache
{
  public:
    /** Queue @p spec unless one with the same settings and program
     * is queued. */
    void
    add(const driver::ScenarioSpec &spec)
    {
        if (index.emplace(key(spec), specs.size()).second)
            specs.push_back(spec);
    }

    /** Run every queued variant as a one-thread fleet, up to one
     * per hardware thread at a time. */
    void
    runAll()
    {
        results.resize(specs.size());
        errors.resize(specs.size());
        std::atomic<std::size_t> next{0};
        auto work = [&] {
            for (std::size_t i = next++; i < specs.size(); i = next++) {
                try {
                    results[i] = driver::FleetRunner(specs[i]).run(0, 1, true);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            }
        };
        unsigned threads = std::max(1u, std::thread::hardware_concurrency());
        // jthreads join when the pool goes out of scope.
        std::vector<std::jthread> pool;
        for (unsigned t = 1; t < std::min<std::size_t>(threads, specs.size());
             ++t)
            pool.emplace_back(work);
        work();
    }

    /** The result of the run @p spec was queued as; rethrows what
     * that run threw. */
    const driver::FleetResult &
    at(const driver::ScenarioSpec &spec) const
    {
        std::size_t i = index.at(key(spec));
        if (errors[i])
            std::rethrow_exception(errors[i]);
        return results[i];
    }

  private:
    static std::string
    key(const driver::ScenarioSpec &spec)
    {
        driver::ScenarioSpec unnamed = spec;
        unnamed.name.clear();
        return unnamed.toString();
    }

    std::map<std::string, std::size_t> index;
    std::vector<driver::ScenarioSpec> specs;
    std::vector<driver::FleetResult> results;
    std::vector<std::exception_ptr> errors;
};

/** One sweep's kept sessions. */
struct Runs
{
    std::string sweepName;
    /** Variant name -> its result and target app. */
    std::map<std::string, std::pair<const driver::FleetResult *, AppId>>
        byName;
    /** Each variant name up to its '/', first seen first. */
    std::vector<std::string> rows;
    std::size_t sessions = 0;

    Runs(const driver::SweepSpec &sweep, const RunCache &cache)
        : sweepName(sweep.name)
    {
        for (std::size_t i = 0; i < sweep.variants.size(); ++i) {
            const driver::ScenarioSpec &spec = sweep.variants[i];
            const driver::FleetResult &result = cache.at(spec);
            auto ev = std::find_if(
                spec.program.begin(), spec.program.end(),
                [](const driver::Event &e) { return !e.app.empty(); });
            byName[spec.name] = {&result,
                                 ev == spec.program.end()
                                     ? invalidApp
                                     : standardApp(ev->app).uid};
            std::string row = spec.name.substr(0, spec.name.find('/'));
            if (std::find(rows.begin(), rows.end(), row) == rows.end())
                rows.push_back(row);
            if (i == 0)
                sessions = result.sessions.size();
            if (result.sessions.size() != sessions)
                throw driver::SpecError("sweep '" + sweep.name +
                                        "': variants differ in fleet");
        }
    }

    /** @p metric of variant @p name in session @p i. */
    double
    at(M metric, const std::string &name, std::size_t i) const
    {
        auto it = byName.find(name);
        if (it == byName.end())
            throw driver::SpecError("sweep '" + sweepName +
                                    "' has no variant '" + name + "'");
        return read(metric, it->second.first->sessions[i],
                    it->second.second);
    }
};

ReportTable
render(const Table &t, const Runs &runs)
{
    std::vector<std::string> header{t.rowHeader};
    for (const Column &c : t.columns)
        header.push_back(c.header);
    ReportTable out(header);
    for (const std::string &row : runs.rows) {
        std::vector<std::string> cells{row};
        for (const Column &c : t.columns) {
            std::string cell = c.cell.empty() ? "{}/" + c.header : c.cell;
            double sum = 0.0;
            for (std::size_t i = 0; i < runs.sessions; ++i)
                sum += runs.at(c.metric, fill(cell, row), i) /
                       (c.per.empty() ? 1.0
                                      : runs.at(c.metric, fill(c.per, row),
                                                i));
            cells.push_back(ReportTable::num(
                sum / static_cast<double>(runs.sessions), c.digits));
        }
        out.addRow(std::move(cells));
    }
    return out;
}

report::Claim
evaluate(const ClaimSpec &spec, const Runs &runs)
{
    report::Claim claim{.text = spec.text,
                        .rule = spec.rule,
                        .paper = spec.paper,
                        .unit = spec.unit};
    auto terms = [&](double r) {
        return spec.unit == "%" ? 100.0 * (r - 1.0) : r;
    };
    bool per_row = spec.num.front().find("{}") != std::string::npos;
    for (std::size_t i = 0; i < runs.sessions; ++i) {
        double num = 0.0, den = 0.0, ratios = 0.0;
        std::size_t pairs = 0;
        for (const std::string &row :
             per_row ? runs.rows : std::vector<std::string>{""}) {
            for (const std::string &n : spec.num) {
                double a = runs.at(spec.metric, fill(n, row), i);
                double b = runs.at(spec.metric, fill(spec.den, row), i);
                num += a;
                den += b;
                ratios += a / b;
                ++pairs;
                if (spec.fold == Fold::EachRatio)
                    claim.values.push_back(terms(a / b));
            }
        }
        if (spec.fold == Fold::MeanOfRatios)
            claim.values.push_back(
                terms(ratios / static_cast<double>(pairs)));
        if (spec.fold == Fold::RatioOfMeans)
            claim.values.push_back(terms(num / den));
    }
    return claim;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    Ledger out(argc, argv, &paths);
    try {
        // A file that fails to load stops the run after the files
        // before it are printed.
        std::vector<std::pair<const Figure *, driver::SweepSpec>> sweeps;
        std::exception_ptr load_error;
        RunCache cache;
        try {
            for (const std::string &path : paths) {
                driver::SweepSpec sweep = driver::SweepSpec::loadFile(path);
                auto fig = std::find_if(
                    figures.begin(), figures.end(),
                    [&](const Figure &f) { return f.name == sweep.name; });
                if (fig == figures.end())
                    throw driver::SpecError(path + ": no figure named '" +
                                            sweep.name + "'");
                for (const driver::ScenarioSpec &spec : sweep.variants)
                    cache.add(spec);
                sweeps.emplace_back(&*fig, std::move(sweep));
            }
        } catch (const std::exception &) {
            load_error = std::current_exception();
        }
        cache.runAll();

        for (const auto &[fig, sweep] : sweeps) {
            Runs runs(sweep, cache);
            out.begin(fig->name, fig->title, sweep.variants.front().scale);
            for (const Table &t : fig->tables) {
                if (!t.heading.empty())
                    std::cout << "\n" << t.heading << "\n";
                out.table(t.label, render(t, runs));
            }
            for (const ClaimSpec &c : fig->claims)
                out.claim(evaluate(c, runs));
        }
        if (load_error)
            std::rethrow_exception(load_error);
    } catch (const std::exception &e) {
        std::cerr << "claims: " << e.what() << "\n";
        return 2;
    }
    return out.finish();
}

/**
 * @file
 * Shared helpers for the experiment harnesses.
 *
 * The claims runner (claims.cpp) runs the figures that sweep configs
 * express; each other bench program drives one figure or table
 * through session hooks. Both print their tables and the verdicts of
 * the paper's claims through a Ledger, which also writes them as JSON
 * with `--json FILE`. Bench specs run through the same workload layer
 * as the CLI (driver/workload_source.hh), so any variant can be
 * recorded and replayed, though replay does not re-run hook bodies.
 */

#ifndef ARIADNE_BENCH_COMMON_HH
#define ARIADNE_BENCH_COMMON_HH

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.hh"
#include "driver/fleet_runner.hh"
#include "driver/json_writer.hh"
#include "report/claims.hh"
#include "sys/session.hh"
#include "workload/apps.hh"

namespace ariadne::bench
{

/** Footprint scale all experiment harnesses run at (1/16 of the
 * paper's volumes; latencies are rescaled to full scale, see
 * RelaunchStats::fullScaleNs). */
constexpr double evalScale = 0.0625;

/** Deterministic seed shared by all benches. */
constexpr std::uint64_t evalSeed = 42;

/** The five applications the paper plots (Figs. 2, 10-13, 15). */
inline std::vector<std::string>
plottedApps()
{
    return {"YouTube", "Twitter", "Firefox", "GoogleEarth",
            "BangDream"};
}

/**
 * Empty ScenarioSpec at the evaluation scale; add events to taste.
 * @param scheme Registered scheme name ("dram", "swap", "zram",
 *        "zswap", "ariadne"; see swap/scheme_registry.hh).
 * @param ariadne_cfg Table-5 config string; stored as the
 *        `scheme.config` knob when non-empty.
 */
inline driver::ScenarioSpec
makeSpec(const std::string &scheme, const std::string &ariadne_cfg = "")
{
    driver::ScenarioSpec spec;
    spec.scheme = scheme;
    if (!ariadne_cfg.empty())
        spec.params.set("config", ariadne_cfg);
    spec.scale = evalScale;
    spec.seed = evalSeed;
    return spec;
}

/** Run one variant as a single-session fleet; its hooks measure. */
inline void
runVariant(driver::ScenarioSpec spec,
           std::vector<driver::SessionHook> hooks = {})
{
    driver::FleetRunner(std::move(spec), std::move(hooks)).run(1, 1);
}

/**
 * Prints a bench's tables and claim rows, and with `--json FILE`
 * writes both to FILE as
 *
 *     {"tables": {FIGURE: {LABEL: [rows]}}, "claims": [rows]}
 *
 * with claim rows as report::writeJson(Claim) emits them. A figure's
 * claim rows print as one table after its own tables; a value prints
 * with 2 decimals in %, none in MB and 3 otherwise.
 */
class Ledger
{
  public:
    /**
     * Parses `--json FILE`. Other arguments are appended to @p inputs,
     * which must then hold at least one; without @p inputs they are
     * errors. Errors print usage and exit(2).
     */
    Ledger(int argc, char **argv,
           std::vector<std::string> *inputs = nullptr)
    {
        bool ok = true;
        for (int i = 1; i < argc && ok; ++i) {
            if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
                jsonPath = argv[++i];
            else if ((ok = inputs && argv[i][0] != '-'))
                inputs->push_back(argv[i]);
        }
        if (!ok || (inputs && inputs->empty())) {
            std::cerr << "usage: " << argv[0]
                      << (inputs ? " FILE.cfg..." : "")
                      << " [--json FILE]\n";
            std::exit(2);
        }
    }

    /** Close the open figure and open @p figure under a banner. Its
     * claims are stamped with @p scale. */
    void
    begin(std::string figure, const std::string &title,
          double scale = evalScale)
    {
        printClaims();
        figures.push_back({std::move(figure), scale, {}});
        printBanner(std::cout, title);
    }

    /** Print @p t and record it under @p label. */
    void
    table(std::string label, const ReportTable &t)
    {
        t.print(std::cout);
        figures.back().tables.emplace_back(std::move(label), t);
    }

    /** Record a claim of the open figure (printed when it closes). */
    void
    claim(report::Claim c)
    {
        c.figure = figures.back().name;
        c.scale = figures.back().scale;
        claims.push_back(std::move(c));
    }

    /**
     * Close the open figure and write the JSON file if asked to.
     * @return the bench's exit code (non-zero when the file could not
     *         be written).
     */
    int
    finish()
    {
        printClaims();
        if (jsonPath.empty())
            return 0;
        std::ofstream out(jsonPath);
        if (!out) {
            std::cerr << "cannot write " << jsonPath << "\n";
            return 1;
        }
        driver::JsonWriter w(out);
        w.beginObject();
        w.key("tables");
        w.beginObject();
        for (const Figure &f : figures) {
            w.key(f.name);
            w.beginObject();
            for (const auto &[label, t] : f.tables) {
                w.key(label);
                driver::writeJson(w, t);
            }
            w.endObject();
        }
        w.endObject();
        w.key("claims");
        w.beginArray();
        for (const report::Claim &c : claims)
            report::writeJson(w, c);
        w.endArray();
        w.endObject();
        out << "\n";
        return out ? 0 : 1;
    }

  private:
    void
    printClaims()
    {
        if (printed == claims.size())
            return;
        ReportTable t({"Claim", "Reproduced", "Min..max", "n", "Paper",
                       "Kind", "Verdict"});
        for (; printed < claims.size(); ++printed) {
            const report::Claim &c = claims[printed];
            int digits = c.unit == "%" ? 2 : c.unit == " MB" ? 0 : 3;
            report::ClaimSpread s = c.spread();
            t.addRow({c.text, ReportTable::num(s.mean, digits) + c.unit,
                      ReportTable::num(s.min, digits) + ".." +
                          ReportTable::num(s.max, digits),
                      std::to_string(s.n), c.paperText(),
                      c.kind == report::ClaimKind::Input ? "input"
                                                         : "emergent",
                      c.reproduced() ? "reproduced" : "NOT reproduced"});
        }
        std::cout << "\n";
        t.print(std::cout);
    }

    struct Figure
    {
        std::string name;
        double scale;
        std::vector<std::pair<std::string, ReportTable>> tables;
    };

    std::string jsonPath;
    std::vector<Figure> figures;
    std::vector<report::Claim> claims;
    std::size_t printed = 0;
};

} // namespace ariadne::bench

#endif // ARIADNE_BENCH_COMMON_HH

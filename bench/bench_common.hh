/**
 * @file
 * Shared helpers for the experiment harnesses.
 *
 * Every bench binary reproduces one table or figure of the paper. A
 * bench describes its runs as named driver::ScenarioSpec variants at
 * the standard evaluation scale, executes them through the
 * FleetRunner (a single-session fleet with the shared eval seed
 * reproduces the legacy hand-rolled bench loops bit-for-bit), prints
 * results side by side with the paper's reference values, and — via
 * BenchReport — emits a machine-readable JSON report next to the
 * table when invoked with `--json FILE`.
 *
 * Bench specs flow through the same pluggable workload layer as the
 * CLI (driver/workload_source.hh): the default `workload = profiles`
 * source interprets the event program built here, and because
 * recording is observer-based, any bench variant can be captured with
 * FleetRunner::runRecorded and replayed bit-identically — custom
 * hooks record their system-level effects, though replay does not
 * re-run the hook bodies themselves.
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

/** Spec for the §5 target-relaunch scenario of one app. */
inline driver::ScenarioSpec
targetSpec(std::string name, const std::string &scheme,
           const std::string &app_name, unsigned variant = 0,
           const std::string &ariadne_cfg = "")
{
    driver::ScenarioSpec spec = makeSpec(scheme, ariadne_cfg);
    spec.name = std::move(name);
    spec.program.push_back(
        driver::Event::targetScenario(app_name, variant));
    return spec;
}

/**
 * Run one variant as a single-session fleet (the legacy bench
 * methodology), keeping the session record so benches can read
 * per-session detail (relaunch samples, CPU, per-app CompStats).
 */
inline driver::FleetResult
runVariant(driver::ScenarioSpec spec,
           std::vector<driver::SessionHook> hooks = {})
{
    return driver::FleetRunner(std::move(spec), std::move(hooks))
        .run(1, 1, /*keep_sessions=*/true);
}

/** The single session of a runVariant() result. */
inline const driver::SessionResult &
session(const driver::FleetResult &r)
{
    return r.sessions.front();
}

/** Full-scale milliseconds of a scaled relaunch measurement. */
inline double
fullScaleMs(const RelaunchStats &st, double scale = evalScale)
{
    return static_cast<double>(st.fullScaleNs(scale)) / 1e6;
}

/** Last measured relaunch of a variant, in paper-scale ms. */
inline double
lastRelaunchMs(const driver::FleetResult &r)
{
    return session(r).relaunches.back().fullScaleMs;
}

/**
 * Collects a bench's per-variant fleet results and rendered tables
 * and writes them as one JSON report when the binary was invoked
 * with `--json FILE`. Table stdout is unaffected, so migrated
 * benches stay bit-identical with their pre-driver output.
 */
class BenchReport
{
  public:
    /** Parses argv; unknown flags print usage and exit(2). */
    BenchReport(std::string bench_name, int argc, char **argv)
        : name(std::move(bench_name))
    {
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
                jsonPath = argv[++i];
            } else {
                std::cerr << name << ": usage: " << argv[0]
                          << " [--json FILE]\n";
                std::exit(2);
            }
        }
    }

    /** Record one variant's aggregate (in run order). */
    void
    add(const driver::FleetResult &r)
    {
        variants.push_back(r);
    }

    /** Record a rendered table under @p label. */
    void
    addTable(std::string label, const ReportTable &t)
    {
        tables.emplace_back(std::move(label), t);
    }

    /**
     * Write the JSON report if requested; call last in main().
     * @return the bench's exit code (non-zero when the report could
     *         not be written).
     */
    int
    finish() const
    {
        if (jsonPath.empty())
            return 0;
        std::ofstream out(jsonPath);
        if (!out) {
            std::cerr << name << ": cannot write " << jsonPath << "\n";
            return 1;
        }
        driver::JsonWriter w(out);
        w.beginObject();
        w.field("bench", name);
        w.key("variants");
        w.beginArray();
        for (const auto &variant : variants)
            variant.writeJson(w, /*per_session=*/false);
        w.endArray();
        w.key("tables");
        w.beginObject();
        for (const auto &[label, table] : tables) {
            w.key(label);
            driver::writeJson(w, table);
        }
        w.endObject();
        w.endObject();
        out << "\n";
        return out ? 0 : 1;
    }

  private:
    std::string name;
    std::string jsonPath;
    std::vector<driver::FleetResult> variants;
    std::vector<std::pair<std::string, ReportTable>> tables;
};

} // namespace ariadne::bench

#endif // ARIADNE_BENCH_COMMON_HH

/**
 * @file
 * Declarative description of one experiment scenario.
 *
 * A ScenarioSpec captures everything a run needs — scheme, Ariadne
 * configuration, footprint scale, base seed, app mix, fleet size and
 * an event program — in a value type that is constructible
 * programmatically (the bench harnesses do this) or parsed from a
 * simple `key = value` config format (ariadne_sim does this):
 *
 *     # Daily usage, §1: users switch apps >100 times a day.
 *     name = daily
 *     scheme = ariadne
 *     scheme.config = EHL-1K-2K-16K
 *     scale = 0.0625
 *     seed = 42
 *     fleet = 32
 *     event = warmup
 *     event = repeat 120
 *     event =   switch_next 2s 1s
 *     event = end
 *
 * The scheme axis is registry-driven (swap/scheme_registry.hh):
 * `scheme = NAME` selects any registered scheme and namespaced
 * `scheme.<knob> = value` lines set its policy knobs, validated
 * against the scheme's schema (`ariadne_sim --list-schemes` prints
 * every scheme with its knobs).
 *
 * The event program speaks the MobileSystem driver vocabulary
 * (cold-launch / execute / background / relaunch / idle) plus the
 * compound ops that encode the paper's methodology: `warmup`
 * (launch-use-background every app), `switch_next use idle`
 * (round-robin app switching, the daily-usage trace),
 * `target_scenario app variant` (the §5 measured-relaunch trace),
 * `prepare_target app variant` (the same trace minus the measured
 * relaunch), and `light_usage` / `heavy_usage` (the Table 2 usage
 * mixes). Programmatic specs may additionally embed `custom` events
 * that call back into bench-supplied hooks (see FleetRunner); those
 * have no config syntax.
 *
 * Which workload drives the fleet is itself an axis: `workload =
 * profiles` (default) runs the event program against the standard app
 * profiles, `workload = trace` replays a recorded trace (`trace =
 * FILE`, see `ariadne_sim --record`), and `workload = synthetic`
 * generates a heterogeneous user population from the `population_*`
 * keys — per-session app subsets, footprint spread and switch-rate
 * classes (see SyntheticPopulationSource). Sweep variants may
 * override any of these, which is how one sweep compares app mixes
 * side by side.
 *
 * A trace spec may additionally carry a *what-if* scheme override:
 * `scheme = zswap` (plus `scheme.*` knobs) re-runs the recorded
 * workload — its touch streams are bit-identical by construction —
 * under a different scheme or different policy knobs. Without an
 * override the replay reproduces the recorded report byte for byte.
 *
 * Parse errors throw SpecError rather than calling fatal(): the
 * driver is a library and its callers (CLI, tests) decide how to
 * surface bad user input.
 */

#ifndef ARIADNE_DRIVER_SCENARIO_SPEC_HH
#define ARIADNE_DRIVER_SCENARIO_SPEC_HH

#include <istream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sys/system_config.hh"
#include "workload/app_model.hh"

namespace ariadne::driver
{

/** Invalid scenario config text (message names the offending line). */
class SpecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One step of an event program. */
struct Event
{
    enum class Kind
    {
        Launch,         //!< cold-launch `app`
        Execute,        //!< run `app` in foreground for `duration`
        Background,     //!< background `app`
        Relaunch,       //!< measured hot relaunch of `app`
        Idle,           //!< idle wall time `duration`
        Warmup,         //!< launch-use-background every app
        SwitchNext,     //!< round-robin: relaunch next app, use
                        //!< `duration`, background, idle `gap`
        TargetScenario, //!< §5 methodology for `app`, `variant`
        PrepareTarget,  //!< TargetScenario minus the measured relaunch
        LightUsage,     //!< Table 2 light mix for `duration`, `gap`
        HeavyUsage,     //!< Table 2 heavy mix for `duration`
        Repeat,         //!< run `body` `count` times
        Custom,         //!< call bench hook `hook` (programmatic only)
    };

    Kind kind = Kind::Idle;
    std::string app;          //!< Launch/Execute/Background/Relaunch/
                              //!< TargetScenario/PrepareTarget
    Tick duration = 0;        //!< Execute/Idle; SwitchNext use time;
                              //!< LightUsage/HeavyUsage span
    Tick gap = 0;             //!< SwitchNext/LightUsage intermission
    unsigned variant = 0;     //!< TargetScenario/PrepareTarget variant
    std::size_t count = 0;    //!< Repeat iterations
    std::size_t hook = 0;     //!< Custom hook index (FleetRunner)
    std::vector<Event> body;  //!< Repeat sub-program

    // Convenience constructors for programmatic specs.
    static Event launch(std::string app);
    static Event execute(std::string app, Tick duration);
    static Event background(std::string app);
    static Event relaunch(std::string app);
    static Event idle(Tick duration);
    static Event warmup();
    static Event switchNext(Tick use, Tick gap);
    static Event targetScenario(std::string app, unsigned variant);
    static Event prepareTarget(std::string app, unsigned variant);
    static Event lightUsage(Tick duration, Tick gap);
    static Event heavyUsage(Tick duration);
    static Event repeat(std::size_t count, std::vector<Event> body);
    static Event custom(std::size_t hook_index);

    bool operator==(const Event &o) const;
};

/** Which workload source drives a scenario's sessions. */
enum class WorkloadKind
{
    Profiles,  //!< event program over the declared app profiles
    Trace,     //!< replay a recorded trace file bit-identically
    Synthetic, //!< per-session synthetic user population
};

/** Stable config-format name ("profiles" / "trace" / "synthetic"). */
const char *workloadKindName(WorkloadKind kind) noexcept;

/** Parse a workload kind (case-insensitive); throws SpecError. */
WorkloadKind parseWorkloadKind(const std::string &text);

/**
 * Parameters of a synthetic user population (`workload = synthetic`).
 * Every fleet session models one user: a subset of the app pool, a
 * per-app footprint multiplier, and a switch-rate class that shapes
 * its generated program. All draws are deterministic in
 * (seed, session index), so fleets stay thread-invariant.
 */
struct PopulationConfig
{
    /** Apps each user installs, drawn from the spec's pool
     * (0 = every app). */
    std::size_t appsPerUser = 0;
    /** Relative half-width of the per-app footprint multiplier:
     * volumes scale by 1 + U(-spread, spread). */
    double footprintSpread = 0.25;
    /** Share of light users (half the switches, double the gap). */
    double lightShare = 0.25;
    /** Share of heavy users (double the switches, half the use time,
     * no gap); the remainder are regular users. */
    double heavyShare = 0.25;
    /** App switches a regular user performs after warmup. */
    std::size_t switches = 40;
    /** Foreground use per switch of a regular user. */
    Tick useTime = Tick{2} * 1000000000ULL;
    /** Intermission between switches of a regular user. */
    Tick gap = Tick{1} * 1000000000ULL;

    bool operator==(const PopulationConfig &o) const = default;
};

/** Full declarative description of one scenario. */
struct ScenarioSpec
{
    std::string name = "unnamed";
    /** Registered scheme name (`scheme = ...`); see
     * SchemeRegistry. */
    std::string scheme = "zram";
    /** Scheme policy knobs (`scheme.<knob> = ...` lines), validated
     * against the scheme's schema at parse time. */
    SchemeParams params;
    double scale = 0.0625;
    /** Base seed; each fleet session derives its own from it. */
    std::uint64_t seed = 42;
    /** Default fleet size (the CLI --fleet flag overrides it). */
    std::size_t fleet = 1;
    /**
     * How fleet aggregates compute percentiles (`percentiles =
     * exact|sketch`). Exact keeps every sample (byte-reproducible,
     * memory O(samples)); sketch keeps a mergeable
     * PercentileSketch (memory O(sketch_k * log n), percentiles
     * within its tracked rank-error bound) — the mode for
     * million-session fleets and their shards.
     */
    PercentileMode percentiles = PercentileMode::Exact;
    /** Sketch buffer size (`sketch_k = N`, sketch mode only). */
    std::size_t sketchK = PercentileSketch::defaultK;

    /** Default gauge-sampling cadence (`timeline_interval_ms`). */
    static constexpr std::size_t defaultTimelineIntervalMs = 1000;
    /** Default journey sampling stride (`journey_sample`). */
    static constexpr std::size_t defaultJourneySample = 64;

    /**
     * Flight-recorder cadence (`timeline_interval_ms = N`, default
     * 1000, 0 = off): how often, in simulated milliseconds, each
     * session samples its gauges (zram/flash occupancy, free pages,
     * hotness populations, ...) for `--metrics` summaries and
     * `--timeline` series. Observability-only: sampling reads state,
     * so any value produces byte-identical reports.
     */
    std::size_t timelineIntervalMs = defaultTimelineIntervalMs;
    /**
     * Page-journey sampling stride (`journey_sample = K`, default
     * 64, min 1): `--journeys` follows every K-th page, selected by a
     * deterministic hash of (uid, pfn) so the sample is a property of
     * the workload, not of scheduling. Observability-only, like
     * timeline_interval_ms.
     */
    std::size_t journeySample = defaultJourneySample;

    /** App names; empty = all ten standard apps. For synthetic
     * workloads this is the pool users draw their subsets from. */
    std::vector<std::string> apps;
    std::vector<Event> program;

    /** Which workload source drives the fleet's sessions. */
    WorkloadKind workload = WorkloadKind::Profiles;
    /** Trace file to replay (workload = trace). */
    std::string tracePath;
    /** Population parameters (workload = synthetic). */
    PopulationConfig population;

    // What-if replay override (workload = trace only). The replay's
    // workload stream always comes from the recording; these swap the
    // scheme it runs under.
    /** Scheme to replay under; empty = the recorded scheme. */
    std::string replayScheme;
    /** Knob overrides: overlaid on the recorded knobs when the
     * scheme is unchanged, a fresh bag when it differs. */
    SchemeParams replayParams;

    /**
     * SystemConfig for fleet session @p session_index: the spec's
     * scheme/scale plus a per-session seed derived from the base seed,
     * so sessions are independent and reproducible in isolation.
     */
    SystemConfig systemConfig(std::size_t session_index) const;

    /**
     * Seed of fleet session @p session_index. Session 0 uses the base
     * seed unchanged (a fleet of one reproduces a plain run with that
     * seed); later sessions derive decorrelated seeds from it.
     */
    std::uint64_t sessionSeed(std::size_t session_index) const noexcept;

    /** Profiles for this spec's app mix (validated names). */
    std::vector<AppProfile> appProfiles() const;

    /** Serialize to the config format; parse(toString()) == *this. */
    std::string toString() const;

    /** Parse the config format; throws SpecError on invalid input. */
    static ScenarioSpec parse(std::istream &in);

    /** Parse from a string (convenience over the stream overload). */
    static ScenarioSpec parseString(const std::string &text);

    /** Load and parse a config file; throws SpecError when
     * unreadable. */
    static ScenarioSpec loadFile(const std::string &path);

    bool operator==(const ScenarioSpec &o) const;
};

/**
 * Incremental line-oriented parser behind ScenarioSpec::parse.
 *
 * SweepSpec reuses it to parse variant sections with their original
 * file line numbers, so sweep-config errors point at the right line.
 * feed() accepts one raw config line at a time; finish() validates
 * (open repeat blocks, app references) and returns the spec.
 */
class SpecParser
{
  public:
    SpecParser();
    ~SpecParser();
    SpecParser(SpecParser &&) noexcept;
    SpecParser &operator=(SpecParser &&) noexcept;

    /** Parse one raw line; @p lineno is used in error messages. */
    void feed(const std::string &raw_line, std::size_t lineno);

    /** Whether any `event` line has been fed so far. */
    bool sawEvents() const noexcept;

    /** Validate and return the accumulated spec (call once). */
    ScenarioSpec finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * One lexed config line. Both the scenario and the sweep parser read
 * the same `key = value` grammar (`#` starts a comment, whitespace is
 * trimmed), so the lexer is shared.
 */
struct ConfigLine
{
    /** Whole line was blank or a comment. */
    bool blank = true;
    /** Line contained a '='; key/value are only meaningful then. */
    bool hasEquals = false;
    std::string key;
    std::string value;
    /** Comment-stripped, trimmed text (for error messages). */
    std::string text;
};

/** Lex one raw config line (never throws; callers judge validity). */
ConfigLine lexConfigLine(const std::string &raw);

/**
 * Validate a `scheme =` value against the registry; returns the
 * canonical lowercase key or throws SpecError listing the registered
 * names.
 */
std::string parseSchemeName(const std::string &text);

/**
 * Parse a duration like "250ms", "2s", "1500us", "30" (plain = ns).
 * Throws SpecError on malformed input.
 */
Tick parseDuration(const std::string &text);

/** Render a Tick as the shortest exact suffix form ("2s", "250ms"). */
std::string formatDuration(Tick t);

} // namespace ariadne::driver

#endif // ARIADNE_DRIVER_SCENARIO_SPEC_HH

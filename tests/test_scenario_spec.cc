/** @file Unit tests for the scenario- and sweep-config parsers. */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/scenario_spec.hh"
#include "driver/sweep_spec.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

const char *fullConfig = R"(
# A kitchen-sink scenario exercising every key and op.
name = kitchen-sink
scheme = ariadne
scheme.config = AL-512-2K-16K
scale = 0.125
seed = 1234
fleet = 16
apps = YouTube, Twitter, Firefox

event = warmup
event = launch YouTube
event = execute YouTube 30s
event = background YouTube
event = repeat 3
event =   switch_next 500ms 1s
event =   repeat 2
event =     relaunch Twitter
event =     idle 250ms
event =   end
event = end
event = target_scenario Firefox 2
)";

} // namespace

TEST(ScenarioSpec, ParsesEveryKeyAndOp)
{
    ScenarioSpec spec = ScenarioSpec::parseString(fullConfig);
    EXPECT_EQ(spec.name, "kitchen-sink");
    EXPECT_EQ(spec.scheme, "ariadne");
    EXPECT_EQ(spec.params.getString("config", ""), "AL-512-2K-16K");
    EXPECT_DOUBLE_EQ(spec.scale, 0.125);
    EXPECT_EQ(spec.seed, 1234u);
    EXPECT_EQ(spec.fleet, 16u);
    ASSERT_EQ(spec.apps.size(), 3u);
    EXPECT_EQ(spec.apps[1], "Twitter");

    ASSERT_EQ(spec.program.size(), 6u);
    EXPECT_EQ(spec.program[0].kind, Event::Kind::Warmup);
    EXPECT_EQ(spec.program[1].kind, Event::Kind::Launch);
    EXPECT_EQ(spec.program[1].app, "YouTube");
    EXPECT_EQ(spec.program[2].kind, Event::Kind::Execute);
    EXPECT_EQ(spec.program[2].duration, 30ull * 1000000000ull);
    EXPECT_EQ(spec.program[3].kind, Event::Kind::Background);

    const Event &outer = spec.program[4];
    EXPECT_EQ(outer.kind, Event::Kind::Repeat);
    EXPECT_EQ(outer.count, 3u);
    ASSERT_EQ(outer.body.size(), 2u);
    EXPECT_EQ(outer.body[0].kind, Event::Kind::SwitchNext);
    EXPECT_EQ(outer.body[0].duration, 500ull * 1000000ull);
    EXPECT_EQ(outer.body[0].gap, 1ull * 1000000000ull);
    const Event &inner = outer.body[1];
    EXPECT_EQ(inner.kind, Event::Kind::Repeat);
    EXPECT_EQ(inner.count, 2u);
    ASSERT_EQ(inner.body.size(), 2u);
    EXPECT_EQ(inner.body[0].kind, Event::Kind::Relaunch);
    EXPECT_EQ(inner.body[0].app, "Twitter");
    EXPECT_EQ(inner.body[1].kind, Event::Kind::Idle);

    EXPECT_EQ(spec.program[5].kind, Event::Kind::TargetScenario);
    EXPECT_EQ(spec.program[5].app, "Firefox");
    EXPECT_EQ(spec.program[5].variant, 2u);
}

TEST(ScenarioSpec, ParsesCompoundUsageOps)
{
    ScenarioSpec spec = ScenarioSpec::parseString(
        "event = prepare_target YouTube 1\n"
        "event = light_usage 60s 2s\n"
        "event = light_usage 30s\n"
        "event = heavy_usage 45s\n");
    ASSERT_EQ(spec.program.size(), 4u);
    EXPECT_EQ(spec.program[0].kind, Event::Kind::PrepareTarget);
    EXPECT_EQ(spec.program[0].app, "YouTube");
    EXPECT_EQ(spec.program[0].variant, 1u);
    EXPECT_EQ(spec.program[1].kind, Event::Kind::LightUsage);
    EXPECT_EQ(spec.program[1].duration, 60ull * 1000000000ull);
    EXPECT_EQ(spec.program[1].gap, 2ull * 1000000000ull);
    // The gap argument is optional and defaults to the driver's 1 s.
    EXPECT_EQ(spec.program[2].gap, 1ull * 1000000000ull);
    EXPECT_EQ(spec.program[3].kind, Event::Kind::HeavyUsage);
    EXPECT_EQ(spec.program[3].duration, 45ull * 1000000000ull);

    // They serialize canonically and round-trip.
    ScenarioSpec reparsed = ScenarioSpec::parseString(spec.toString());
    EXPECT_TRUE(spec == reparsed);
}

namespace
{

/** A removed key is rejected like any typo: line-numbered unknown key. */
void
expectUnknownKeyOnLine2(const std::string &line)
{
    std::string key = line.substr(0, line.find(' '));
    try {
        ScenarioSpec::parseString("scheme = ariadne\n" + line +
                                  "\nevent = warmup\n");
        FAIL() << "expected SpecError for " << key;
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "line 2: unknown key '" + key + "'"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

// The memo knob and the flat aliases of scheme.* knobs are gone; the
// namespaced `scheme.<knob>` lines are the only spelling.
TEST(ScenarioSpec, RemovedCompressMemoKeyIsUnknown)
{
    expectUnknownKeyOnLine2("compress_memo = off");
}

// The flight recorder samples at fixed telemetry constants (1000 ms of
// simulated time, one page in 64); its two scenario knobs are gone.
TEST(ScenarioSpec, RemovedFlightRecorderKeysAreUnknown)
{
    expectUnknownKeyOnLine2("timeline_interval_ms = 500");
    expectUnknownKeyOnLine2("journey_sample = 32");
}

TEST(ScenarioSpec, RemovedAriadneAliasIsUnknown)
{
    expectUnknownKeyOnLine2("ariadne = EHL-1K-2K-16K");
}

TEST(ScenarioSpec, RemovedSeedProfilesAliasIsUnknown)
{
    expectUnknownKeyOnLine2("seed_profiles = false");
}

TEST(ScenarioSpec, RemovedPredecompAliasIsUnknown)
{
    expectUnknownKeyOnLine2("predecomp = off");
}

TEST(ScenarioSpec, RemovedHotInitPagesAliasIsUnknown)
{
    expectUnknownKeyOnLine2("hot_init_pages = 0");
}

TEST(ScenarioSpec, SchemeKnobsAreValidatedAgainstTheSchema)
{
    // Order-free: the knob may precede the scheme line it configures.
    ScenarioSpec spec = ScenarioSpec::parseString(
        "scheme.zpool_mb = 192\n"
        "scheme = zswap\n"
        "event = warmup\n");
    EXPECT_EQ(spec.params.getMiB("zpool_mb", 0),
              std::size_t{192} << 20);

    // Unknown knobs name the scheme and list its valid knobs.
    try {
        ScenarioSpec::parseString("scheme = zram\n"
                                  "scheme.config = EHL-1K-2K-16K\n"
                                  "event = warmup\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("scheme 'zram' has no knob 'config'"),
                  std::string::npos);
        EXPECT_NE(msg.find("zpool_mb"), std::string::npos);
    }
    // PreDecomp stages one page per trigger (§4.4); there is no depth
    // knob to set.
    try {
        ScenarioSpec::parseString("scheme = ariadne\n"
                                  "scheme.predecomp_depth = 2\n"
                                  "event = warmup\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "scheme 'ariadne' has no knob 'predecomp_depth'"),
                  std::string::npos);
    }
    // Malformed values are typed errors, with the line named.
    EXPECT_THROW(ScenarioSpec::parseString("scheme = ariadne\n"
                                           "scheme.predecomp = maybe\n"
                                           "event = warmup\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("scheme = ariadne\n"
                                           "scheme.config = EHL-1K\n"
                                           "event = warmup\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("scheme. = 1\n"),
                 SpecError);
}

TEST(ScenarioSpec, UnknownSchemeErrorListsRegisteredNames)
{
    try {
        ScenarioSpec::parseString("scheme = windows\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown scheme 'windows'"),
                  std::string::npos);
        for (const char *name :
             {"ariadne", "dram", "swap", "zram", "zswap"})
            EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
}

TEST(ScenarioSpec, ParsesSyntheticWorkloadKeys)
{
    ScenarioSpec spec = ScenarioSpec::parseString(
        "scheme = zram\n"
        "workload = synthetic\n"
        "population_apps_per_user = 4\n"
        "population_footprint_spread = 0.3\n"
        "population_light_share = 0.2\n"
        "population_heavy_share = 0.5\n"
        "population_switches = 25\n"
        "population_use = 500ms\n"
        "population_gap = 250ms\n");
    EXPECT_EQ(spec.workload, WorkloadKind::Synthetic);
    EXPECT_EQ(spec.population.appsPerUser, 4u);
    EXPECT_DOUBLE_EQ(spec.population.footprintSpread, 0.3);
    EXPECT_DOUBLE_EQ(spec.population.lightShare, 0.2);
    EXPECT_DOUBLE_EQ(spec.population.heavyShare, 0.5);
    EXPECT_EQ(spec.population.switches, 25u);
    EXPECT_EQ(spec.population.useTime, 500ull * 1000000ull);
    EXPECT_EQ(spec.population.gap, 250ull * 1000000ull);

    // Round-trips through the canonical form.
    ScenarioSpec reparsed = ScenarioSpec::parseString(spec.toString());
    EXPECT_TRUE(spec == reparsed);
    EXPECT_EQ(spec.toString(), reparsed.toString());

    // Key order is free: population keys may precede the workload
    // line (sweep variants inherit base keys in base order).
    ScenarioSpec reordered = ScenarioSpec::parseString(
        "population_switches = 25\n"
        "workload = synthetic\n");
    EXPECT_EQ(reordered.population.switches, 25u);
}

TEST(ScenarioSpec, ParsesTraceWorkloadKeys)
{
    ScenarioSpec spec = ScenarioSpec::parseString(
        "name = replay\n"
        "workload = trace\n"
        "trace = scenarios/daily.trace\n");
    EXPECT_EQ(spec.workload, WorkloadKind::Trace);
    EXPECT_EQ(spec.tracePath, "scenarios/daily.trace");
    ScenarioSpec reparsed = ScenarioSpec::parseString(spec.toString());
    EXPECT_TRUE(spec == reparsed);
}

TEST(ScenarioSpec, WorkloadKeyCombinationsAreValidated)
{
    // trace needs a file and tolerates no other identity keys.
    EXPECT_THROW(ScenarioSpec::parseString("workload = trace\n"),
                 SpecError);
    // A scheme line is the what-if override, not an error...
    ScenarioSpec what_if = ScenarioSpec::parseString(
        "workload = trace\n"
        "trace = x.trace\n"
        "scheme = zswap\n"
        "scheme.zpool_mb = 64\n");
    EXPECT_EQ(what_if.replayScheme, "zswap");
    EXPECT_EQ(what_if.replayParams.getMiB("zpool_mb", 0),
              std::size_t{64} << 20);
    EXPECT_TRUE(ScenarioSpec::parseString(what_if.toString()) ==
                what_if);
    // ...a knob-only override keeps the recorded scheme...
    ScenarioSpec knob_only = ScenarioSpec::parseString(
        "workload = trace\n"
        "trace = x.trace\n"
        "scheme.zpool_mb = 64\n");
    EXPECT_TRUE(knob_only.replayScheme.empty());
    EXPECT_NE(knob_only.replayParams.raw("zpool_mb"), nullptr);
    // ...but workload-identity keys are still rejected.
    EXPECT_THROW(ScenarioSpec::parseString("workload = trace\n"
                                           "trace = x.trace\n"
                                           "seed = 7\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("workload = trace\n"
                                           "trace = x.trace\n"
                                           "event = warmup\n"),
                 SpecError);
    // 'trace' outside workload = trace is an error, not ignored.
    EXPECT_THROW(ScenarioSpec::parseString("trace = x.trace\n"),
                 SpecError);
    // population keys demand a synthetic workload...
    EXPECT_THROW(
        ScenarioSpec::parseString("population_switches = 5\n"),
        SpecError);
    // ...and synthetic sessions generate their own programs.
    EXPECT_THROW(ScenarioSpec::parseString("workload = synthetic\n"
                                           "event = warmup\n"),
                 SpecError);
    // Share and spread ranges.
    EXPECT_THROW(ScenarioSpec::parseString(
                     "workload = synthetic\n"
                     "population_light_share = 0.7\n"
                     "population_heavy_share = 0.7\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString(
                     "workload = synthetic\n"
                     "population_footprint_spread = 1.5\n"),
                 SpecError);
    // NaN fails every comparison, so range checks must demand the
    // in-range predicate (strtod happily parses "nan").
    EXPECT_THROW(ScenarioSpec::parseString(
                     "workload = synthetic\n"
                     "population_footprint_spread = nan\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString(
                     "workload = synthetic\n"
                     "population_light_share = nan\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("workload = monkeys\n"),
                 SpecError);
}

TEST(SweepSpec, VariantsMayOverrideTheWorkload)
{
    SweepSpec sweep = SweepSpec::parseString(
        "scheme = zram\n"
        "variant = program\n"
        "event = warmup\n"
        "variant = population\n"
        "workload = synthetic\n"
        "population_apps_per_user = 3\n");
    ASSERT_EQ(sweep.variants.size(), 2u);
    EXPECT_EQ(sweep.variants[0].workload, WorkloadKind::Profiles);
    EXPECT_EQ(sweep.variants[1].workload, WorkloadKind::Synthetic);
    EXPECT_EQ(sweep.variants[1].population.appsPerUser, 3u);
    EXPECT_TRUE(SweepSpec::parseString(sweep.toString()) == sweep);
}

TEST(ScenarioSpec, CustomEventsAreProgrammaticOnly)
{
    EXPECT_THROW(ScenarioSpec::parseString("event = custom 0\n"),
                 SpecError);
    Event ev = Event::custom(3);
    EXPECT_EQ(ev.kind, Event::Kind::Custom);
    EXPECT_EQ(ev.hook, 3u);
    EXPECT_FALSE(ev == Event::custom(2));
}

TEST(ScenarioSpec, RoundTripsThroughToString)
{
    ScenarioSpec spec = ScenarioSpec::parseString(fullConfig);
    ScenarioSpec reparsed = ScenarioSpec::parseString(spec.toString());
    EXPECT_TRUE(spec == reparsed);
    // Serialization is canonical: a second round changes nothing.
    EXPECT_EQ(spec.toString(), reparsed.toString());
}

TEST(ScenarioSpec, ParsesPercentileModeKeys)
{
    ScenarioSpec spec = ScenarioSpec::parseString(
        "percentiles = sketch\n"
        "sketch_k = 128\n"
        "event = warmup\n");
    EXPECT_EQ(spec.percentiles, report::PercentileMode::Sketch);
    EXPECT_EQ(spec.sketchK, 128u);
    // Sketch mode round-trips with its buffer size spelled out.
    EXPECT_NE(spec.toString().find("percentiles = sketch"),
              std::string::npos);
    EXPECT_NE(spec.toString().find("sketch_k = 128"),
              std::string::npos);
    EXPECT_TRUE(ScenarioSpec::parseString(spec.toString()) == spec);

    // The default stays exact (and is omitted from the canonical
    // form, so pre-sketch configs and traces are untouched).
    ScenarioSpec exact = ScenarioSpec::parseString(
        "percentiles = exact\nevent = warmup\n");
    EXPECT_EQ(exact.percentiles, report::PercentileMode::Exact);
    EXPECT_EQ(exact.toString().find("percentiles"),
              std::string::npos);
}

TEST(ScenarioSpec, ValidatesPercentileModeKeys)
{
    EXPECT_THROW(ScenarioSpec::parseString("percentiles = median\n"),
                 SpecError);
    // sketch_k needs sketch mode, whatever the line order...
    EXPECT_THROW(ScenarioSpec::parseString("sketch_k = 128\n"
                                           "event = warmup\n"),
                 SpecError);
    EXPECT_THROW(
        ScenarioSpec::parseString("sketch_k = 128\n"
                                  "percentiles = exact\n"
                                  "event = warmup\n"),
        SpecError);
    // ...and a sane size.
    EXPECT_THROW(ScenarioSpec::parseString("percentiles = sketch\n"
                                           "sketch_k = 4\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("percentiles = sketch\n"
                                           "sketch_k = nope\n"),
                 SpecError);
    // Replay specs adopt the recorded scenario's aggregation mode;
    // overriding it there is rejected like any other stray key.
    EXPECT_THROW(ScenarioSpec::parseString("workload = trace\n"
                                           "trace = x.trace\n"
                                           "percentiles = sketch\n"),
                 SpecError);
}

TEST(ScenarioSpec, DefaultsWhenKeysOmitted)
{
    ScenarioSpec spec = ScenarioSpec::parseString("event = warmup\n");
    EXPECT_EQ(spec.name, "unnamed");
    EXPECT_EQ(spec.scheme, "zram");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_DOUBLE_EQ(spec.scale, 0.0625);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.fleet, 1u);
    EXPECT_TRUE(spec.apps.empty());
    EXPECT_EQ(spec.appProfiles().size(), 10u);
}

TEST(ScenarioSpec, SessionSeedsAreStableAndDecorrelated)
{
    ScenarioSpec spec;
    spec.seed = 42;
    // Session 0 runs the base seed (legacy single-run compatibility).
    EXPECT_EQ(spec.sessionSeed(0), 42u);
    EXPECT_NE(spec.sessionSeed(1), spec.sessionSeed(2));
    EXPECT_EQ(spec.sessionSeed(7), spec.sessionSeed(7));
    // The derived SystemConfig carries the per-session seed.
    EXPECT_EQ(spec.systemConfig(3).seed, spec.sessionSeed(3));
}

TEST(ScenarioSpec, RejectsMalformedLines)
{
    EXPECT_THROW(ScenarioSpec::parseString("name daily\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("= value\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("name =\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("bogus = 1\n"), SpecError);
}

TEST(ScenarioSpec, RejectsBadValues)
{
    EXPECT_THROW(ScenarioSpec::parseString("scheme = windows\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("scale = 0\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("scale = 2.0\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("scale = abc\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("seed = -1\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("fleet = 0\n"), SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("apps = NoSuchApp\n"),
                 SpecError);
    auto ariadne_config = [](const std::string &config) {
        return ScenarioSpec::parseString("scheme = ariadne\n"
                                         "scheme.config = " +
                                         config + "\n");
    };
    EXPECT_THROW(ariadne_config("EHL-1K-2K"), SpecError);
    EXPECT_THROW(ariadne_config("XXL-1K-2K-16K"), SpecError);
    // Shape is fine but the size constraints AriadneConfig::parse
    // enforces with fatal() must already fail here with SpecError.
    EXPECT_THROW(ariadne_config("EHL-16K-2K-1K"), SpecError);
    EXPECT_THROW(ariadne_config("EHL-0-1K-2K"), SpecError);
    // Oversized chunk-size tokens must become SpecError, not escape
    // as std::out_of_range.
    EXPECT_THROW(ariadne_config("EHL-99999999999999999999K-1K-2K"),
                 SpecError);
    EXPECT_THROW(ariadne_config("EHL-1K-2K-99999999999999999999"),
                 SpecError);
    // A LargeSize whose cold unit one zpool object cannot hold.
    EXPECT_THROW(ariadne_config("EHL-1K-2K-1020K"), SpecError);
}

TEST(ScenarioSpec, AppListMayFollowTheEventsUsingIt)
{
    // Validation is order-independent: events may reference apps the
    // mix only declares later in the file...
    ScenarioSpec spec =
        ScenarioSpec::parseString("event = launch Twitter\n"
                                  "apps = Twitter\n");
    EXPECT_EQ(spec.program[0].app, "Twitter");
    // ...and an app outside the final mix is rejected no matter where
    // the apps line sits.
    EXPECT_THROW(
        ScenarioSpec::parseString("event = launch YouTube\n"
                                  "apps = Twitter\n"),
        SpecError);
}

TEST(ScenarioSpec, RejectsBadEvents)
{
    EXPECT_THROW(ScenarioSpec::parseString("event = fly YouTube\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("event = launch\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("event = launch NoSuchApp\n"),
                 SpecError);
    EXPECT_THROW(
        ScenarioSpec::parseString("event = execute YouTube 5parsecs\n"),
        SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("event = idle abc\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("event = repeat 0\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("event = repeat 2\n"
                                           "event = warmup\n"),
                 SpecError);
    EXPECT_THROW(ScenarioSpec::parseString("event = end\n"), SpecError);
    // Events may only reference apps in the scenario's mix.
    EXPECT_THROW(
        ScenarioSpec::parseString("apps = YouTube\n"
                                  "event = launch Twitter\n"),
        SpecError);
}

TEST(ScenarioSpec, ErrorsNameTheLine)
{
    try {
        ScenarioSpec::parseString("name = ok\nbogus = 1\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(ScenarioSpec, LoadFileThrowsOnMissingFile)
{
    EXPECT_THROW(ScenarioSpec::loadFile("/nonexistent/path.cfg"),
                 SpecError);
}

TEST(ParseDuration, AcceptsAllSuffixes)
{
    EXPECT_EQ(parseDuration("42"), 42u);
    EXPECT_EQ(parseDuration("42ns"), 42u);
    EXPECT_EQ(parseDuration("7us"), 7000u);
    EXPECT_EQ(parseDuration("250ms"), 250ull * 1000000ull);
    EXPECT_EQ(parseDuration("2s"), 2ull * 1000000000ull);
    EXPECT_THROW(parseDuration(""), SpecError);
    EXPECT_THROW(parseDuration("ms"), SpecError);
    EXPECT_THROW(parseDuration("5h"), SpecError);
    EXPECT_THROW(parseDuration("-5s"), SpecError);
}

TEST(ParseDuration, RejectsOverflowInsteadOfWrapping)
{
    // 1e11 seconds * 1e9 would wrap uint64; must throw, not truncate.
    EXPECT_THROW(parseDuration("99999999999s"), SpecError);
    // Digits alone already beyond uint64.
    EXPECT_THROW(parseDuration("99999999999999999999"), SpecError);
    // Near the limit but representable stays accepted.
    EXPECT_EQ(parseDuration("18000000000s"),
              18000000000ull * 1000000000ull);
}

namespace
{

const char *sweepConfig = R"(
# Base section shared by every variant.
sweep = my-sweep
scale = 0.125
seed = 9
fleet = 4
apps = YouTube, Twitter
event = warmup
event = repeat 3
event =   switch_next 1s 500ms
event = end

variant = zram
scheme = zram

variant = ariadne
scheme = ariadne
scheme.config = EHL-1K-2K-16K

variant = own-program
scheme = dram
event = launch YouTube
event = execute YouTube 5s
)";

} // namespace

TEST(SweepSpec, ParsesBaseAndVariantSections)
{
    SweepSpec sweep = SweepSpec::parseString(sweepConfig);
    EXPECT_EQ(sweep.name, "my-sweep");
    ASSERT_EQ(sweep.variants.size(), 3u);

    const ScenarioSpec &zram = sweep.variants[0];
    EXPECT_EQ(zram.name, "zram");
    EXPECT_EQ(zram.scheme, "zram");
    // Base settings and program are inherited.
    EXPECT_DOUBLE_EQ(zram.scale, 0.125);
    EXPECT_EQ(zram.seed, 9u);
    EXPECT_EQ(zram.fleet, 4u);
    ASSERT_EQ(zram.apps.size(), 2u);
    ASSERT_EQ(zram.program.size(), 2u);
    EXPECT_EQ(zram.program[0].kind, Event::Kind::Warmup);
    EXPECT_EQ(zram.program[1].kind, Event::Kind::Repeat);

    const ScenarioSpec &ariadne = sweep.variants[1];
    EXPECT_EQ(ariadne.scheme, "ariadne");
    EXPECT_EQ(ariadne.params.getString("config", ""),
              "EHL-1K-2K-16K");
    EXPECT_TRUE(ariadne.program == zram.program);

    // A variant with its own events replaces the base program.
    const ScenarioSpec &own = sweep.variants[2];
    ASSERT_EQ(own.program.size(), 2u);
    EXPECT_EQ(own.program[0].kind, Event::Kind::Launch);
    EXPECT_EQ(own.program[1].kind, Event::Kind::Execute);
    // ...but still inherits the base settings.
    EXPECT_EQ(own.fleet, 4u);
}

TEST(SweepSpec, VariantAppsOverrideTheBaseMix)
{
    SweepSpec sweep = SweepSpec::parseString(
        "apps = YouTube, Twitter\n"
        "event = warmup\n"
        "variant = inherit\n"
        "scheme = zram\n"
        "variant = own-mix\n"
        "apps = Firefox\n");
    ASSERT_EQ(sweep.variants.size(), 2u);
    EXPECT_EQ(sweep.variants[0].apps,
              (std::vector<std::string>{"YouTube", "Twitter"}));
    // The variant's list replaces — not appends to — the base list.
    EXPECT_EQ(sweep.variants[1].apps,
              (std::vector<std::string>{"Firefox"}));
    // `apps = standard` restores the full ten-app mix.
    SweepSpec standard = SweepSpec::parseString(
        "apps = YouTube\n"
        "event = warmup\n"
        "variant = all\n"
        "apps = standard\n");
    EXPECT_TRUE(standard.variants[0].apps.empty());
}

TEST(SweepSpec, DuplicateDetectionUsesTheFinalVariantName)
{
    // An explicit `name =` line overrides the section header; two
    // sections that end up with the same final name are rejected so
    // every parsed sweep round-trips through its canonical form.
    EXPECT_THROW(SweepSpec::parseString("variant = a\n"
                                        "name = x\n"
                                        "variant = b\n"
                                        "name = x\n"),
                 SpecError);
    // Distinct final names are fine even with identical headers.
    SweepSpec ok = SweepSpec::parseString("variant = a\n"
                                          "name = x\n"
                                          "variant = a\n"
                                          "name = y\n");
    EXPECT_EQ(ok.variants[0].name, "x");
    EXPECT_EQ(ok.variants[1].name, "y");
    EXPECT_TRUE(SweepSpec::parseString(ok.toString()) == ok);
}

TEST(SweepSpec, RoundTripsThroughToString)
{
    SweepSpec sweep = SweepSpec::parseString(sweepConfig);
    SweepSpec reparsed = SweepSpec::parseString(sweep.toString());
    EXPECT_TRUE(sweep == reparsed);
    EXPECT_EQ(sweep.toString(), reparsed.toString());
}

TEST(SweepSpec, RejectsInvalidSweeps)
{
    // No variants at all.
    EXPECT_THROW(SweepSpec::parseString("scheme = zram\n"), SpecError);
    EXPECT_THROW(SweepSpec::parseString(""), SpecError);
    // Duplicate variant names.
    EXPECT_THROW(SweepSpec::parseString("variant = a\n"
                                        "scheme = zram\n"
                                        "variant = a\n"
                                        "scheme = dram\n"),
                 SpecError);
    // `sweep` after the first variant.
    EXPECT_THROW(SweepSpec::parseString("variant = a\n"
                                        "sweep = late\n"),
                 SpecError);
    // Empty names.
    EXPECT_THROW(SweepSpec::parseString("sweep =\n"
                                        "variant = a\n"),
                 SpecError);
    EXPECT_THROW(SweepSpec::parseString("variant =\n"), SpecError);
}

TEST(SweepSpec, BaseSectionIsValidatedEvenWhenUnused)
{
    // Every variant overrides the program, so the bogus base event is
    // never inherited — it must still be diagnosed, with its line.
    try {
        SweepSpec::parseString("event = bogus_op 1\n"
                               "variant = a\n"
                               "event = warmup\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("line 1"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bogus_op"),
                  std::string::npos);
    }
    // A malformed base line with no variants reports the actual
    // syntax error, not the generic no-variants message.
    try {
        SweepSpec::parseString("scheme = windows\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown scheme"),
                  std::string::npos);
    }
}

TEST(SweepSpec, ErrorsNameTheOriginalFileLine)
{
    try {
        SweepSpec::parseString("sweep = s\n"
                               "variant = a\n"
                               "scheme = zram\n"
                               "bogus = 1\n");
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("line 4"),
                  std::string::npos);
    }
}

TEST(SweepSpec, DetectsSweepConfigs)
{
    std::istringstream sweep_text("sweep = s\nvariant = a\n");
    EXPECT_TRUE(looksLikeSweepConfig(sweep_text));
    std::istringstream scenario_text("name = daily\nevent = warmup\n");
    EXPECT_FALSE(looksLikeSweepConfig(scenario_text));
}

TEST(FormatDuration, PicksShortestExactSuffix)
{
    EXPECT_EQ(formatDuration(2000000000ull), "2s");
    EXPECT_EQ(formatDuration(250000000ull), "250ms");
    EXPECT_EQ(formatDuration(7000ull), "7us");
    EXPECT_EQ(formatDuration(42ull), "42ns");
    EXPECT_EQ(formatDuration(0), "0s");
    // Round-trip property.
    EXPECT_EQ(parseDuration(formatDuration(123456789ull)), 123456789ull);
}

/** @file Unit tests for the pluggable workload layer. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "driver/fleet_runner.hh"
#include "driver/workload_source.hh"
#include "workload/apps.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Small but busy scenario for record/replay tests: exercises cold
 * launches, executes, backgrounds, measured and unmeasured
 * relaunches, idles and the compound target scenario. */
ScenarioSpec
recordableSpec()
{
    return ScenarioSpec::parseString(R"(
name = recordable
scheme = ariadne
scheme.config = EHL-1K-2K-16K
scale = 0.0625
seed = 11
fleet = 2
apps = YouTube, Twitter, Firefox
event = warmup
event = repeat 4
event =   switch_next 200ms 100ms
event = end
event = target_scenario YouTube 1
event = idle 500ms
event = relaunch Twitter
)");
}

ScenarioSpec
syntheticSpec()
{
    return ScenarioSpec::parseString(R"(
name = synthetic-pop
scheme = zram
scale = 0.0625
seed = 21
fleet = 8
workload = synthetic
population_apps_per_user = 3
population_footprint_spread = 0.4
population_light_share = 0.3
population_heavy_share = 0.3
population_switches = 6
population_use = 200ms
population_gap = 100ms
)");
}

ScenarioSpec
replaySpec(const std::string &trace_path)
{
    ScenarioSpec spec;
    spec.workload = WorkloadKind::Trace;
    spec.tracePath = trace_path;
    return spec;
}

std::string
jsonOf(const FleetResult &r, bool per_session = false)
{
    std::ostringstream os;
    r.writeJson(os, per_session);
    return os.str();
}

/**
 * Record one session of recordableSpec(), rewrite the trace with
 * @p patch applied to every record but the session starts (it gets
 * the record's replay index, the one load errors name), replay the
 * result and return the replay's SpecError message ("" when the
 * replay runs).
 */
template <typename Patch>
std::string
replayPatched(const std::string &name, Patch patch)
{
    std::string recorded = tempPath(name + ".orig");
    std::string patched = tempPath(name);
    FleetRunner(recordableSpec()).runRecorded(recorded, 1);
    {
        TraceReader reader(recorded);
        TraceWriter writer(patched, reader.spec());
        TraceRecord rec;
        std::size_t index = 0;
        while (reader.next(rec)) {
            if (rec.op == TraceOp::SessionStart) {
                writer.beginSession(rec.pfn);
                continue;
            }
            patch(index++, rec);
            writer.append(rec);
        }
    }
    std::string what;
    try {
        FleetRunner(replaySpec(patched)).run(0, 1);
    } catch (const SpecError &e) {
        what = e.what();
    }
    std::remove(recorded.c_str());
    std::remove(patched.c_str());
    return what;
}

/** Patch the pfn of the first touch to @p pfn and replay. */
std::string
replayWithFirstTouchPfn(const std::string &name, Pfn pfn,
                        std::size_t &touch_index)
{
    touch_index = SIZE_MAX;
    return replayPatched(name, [&](std::size_t i, TraceRecord &r) {
        if (r.op == TraceOp::Touch && touch_index == SIZE_MAX) {
            touch_index = i;
            r.pfn = pfn;
        }
    });
}

} // namespace

TEST(WorkloadSource, FactoryPicksTheSpecsKind)
{
    EXPECT_STREQ(makeWorkloadSource(recordableSpec())->kind(),
                 "profiles");
    EXPECT_STREQ(makeWorkloadSource(syntheticSpec())->kind(),
                 "synthetic");
}

TEST(WorkloadSource, ProfileSourceIsSessionInvariant)
{
    auto source = makeWorkloadSource(recordableSpec());
    EXPECT_EQ(source->sessionLimit(), 0u);
    auto a = source->sessionProfiles(0);
    auto b = source->sessionProfiles(7);
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].uid, b[i].uid);
        EXPECT_EQ(a[i].anonBytes10s, b[i].anonBytes10s);
    }
}

TEST(SyntheticPopulation, SessionsDrawDistinctUsersDeterministically)
{
    SyntheticPopulationSource source(syntheticSpec());

    auto s0 = source.sessionProfiles(0);
    auto s1 = source.sessionProfiles(1);
    ASSERT_EQ(s0.size(), 3u);
    ASSERT_EQ(s1.size(), 3u);

    // Same index twice is identical (determinism)...
    auto s0_again = source.sessionProfiles(0);
    for (std::size_t i = 0; i < s0.size(); ++i) {
        EXPECT_EQ(s0[i].uid, s0_again[i].uid);
        EXPECT_EQ(s0[i].anonBytes10s, s0_again[i].anonBytes10s);
    }

    // ...while different indices differ somewhere (subset, order or
    // footprint).
    bool differs = false;
    for (std::size_t i = 0; i < s0.size(); ++i)
        differs = differs || s0[i].uid != s1[i].uid ||
                  s0[i].anonBytes10s != s1[i].anonBytes10s;
    EXPECT_TRUE(differs);

    // Footprints stay within the configured ±40 % of the base
    // profile.
    for (const AppProfile &p : s0) {
        std::size_t base = 0;
        for (const AppProfile &q : standardApps())
            if (q.uid == p.uid)
                base = q.anonBytes10s;
        ASSERT_GT(base, 0u);
        EXPECT_GE(p.anonBytes10s,
                  static_cast<std::size_t>(0.59 * base));
        EXPECT_LE(p.anonBytes10s,
                  static_cast<std::size_t>(1.41 * base));
    }
}

TEST(SyntheticPopulation, SwitchRateClassesShapeThePrograms)
{
    // Force a single class per source and check the generated shape.
    ScenarioSpec spec = syntheticSpec();
    spec.population.lightShare = 1.0;
    spec.population.heavyShare = 0.0;
    SyntheticPopulationSource light(spec);
    EXPECT_EQ(light.sessionClass(3),
              SyntheticPopulationSource::UserClass::Light);
    auto lp = light.sessionProgram(3);
    ASSERT_EQ(lp.size(), 2u);
    EXPECT_EQ(lp[0].kind, Event::Kind::Warmup);
    EXPECT_EQ(lp[1].kind, Event::Kind::Repeat);
    EXPECT_EQ(lp[1].count, 3u); // 6 / 2
    EXPECT_EQ(lp[1].body[0].gap, 200000000ULL); // 100ms * 2

    spec.population.lightShare = 0.0;
    spec.population.heavyShare = 1.0;
    SyntheticPopulationSource heavy(spec);
    EXPECT_EQ(heavy.sessionClass(3),
              SyntheticPopulationSource::UserClass::Heavy);
    auto hp = heavy.sessionProgram(3);
    EXPECT_EQ(hp[1].count, 12u); // 6 * 2
    EXPECT_EQ(hp[1].body[0].duration, 100000000ULL); // 200ms / 2
    EXPECT_EQ(hp[1].body[0].gap, 0u);

    spec.population.heavyShare = 0.0;
    SyntheticPopulationSource regular(spec);
    EXPECT_EQ(regular.sessionClass(3),
              SyntheticPopulationSource::UserClass::Regular);
    EXPECT_EQ(regular.sessionProgram(3)[1].count, 6u);
}

TEST(SyntheticPopulation, FleetJsonIsIdenticalAcrossThreadCounts)
{
    FleetRunner runner(syntheticSpec());
    std::string one = jsonOf(runner.run(8, 1));
    std::string four = jsonOf(runner.run(8, 4));
    std::string sixteen = jsonOf(runner.run(8, 16));
    EXPECT_EQ(one, four);
    EXPECT_EQ(one, sixteen);
    // And sessions genuinely differ (heterogeneous population).
    SessionResult s0 = runner.runSession(0);
    SessionResult s1 = runner.runSession(1);
    EXPECT_NE(s0.simulatedNs, s1.simulatedNs);
}

TEST(TraceRecordReplay, ReplayedFleetReportIsByteIdentical)
{
    std::string path = tempPath("ariadne_ws_replay.trace");
    FleetRunner recorder(recordableSpec());
    FleetResult recorded =
        recorder.runRecorded(path, 0, /*keep_sessions=*/true);

    FleetRunner replayer(replaySpec(path));
    EXPECT_STREQ(replayer.workload().kind(), "trace");
    // The replay adopts the recorded scenario wholesale.
    EXPECT_EQ(replayer.spec().name, "recordable");
    EXPECT_EQ(replayer.spec().fleet, 2u);
    FleetResult replayed = replayer.run(0, 1, /*keep_sessions=*/true);

    EXPECT_EQ(jsonOf(recorded, false), jsonOf(replayed, false));
    // Per-session detail (every relaunch sample) matches too.
    EXPECT_EQ(jsonOf(recorded, true), jsonOf(replayed, true));
    std::remove(path.c_str());
}

TEST(TraceRecordReplay, RecordingIsPassive)
{
    std::string path = tempPath("ariadne_ws_passive.trace");
    FleetRunner runner(recordableSpec());
    FleetResult plain = runner.run(2, 1, true);
    FleetResult recorded = runner.runRecorded(path, 2, true);
    EXPECT_EQ(jsonOf(plain, true), jsonOf(recorded, true));
    std::remove(path.c_str());
}

TEST(TraceRecordReplay, ReplayMaySubsetButNotExceedTheRecordedFleet)
{
    std::string path = tempPath("ariadne_ws_subset.trace");
    FleetRunner recorder(recordableSpec());
    FleetResult recorded = recorder.runRecorded(path, 2);

    FleetRunner replayer(replaySpec(path));
    EXPECT_EQ(replayer.workload().sessionLimit(), 2u);
    // A one-session replay equals a one-session fresh run: session 0
    // is the same device either way.
    FleetResult one = replayer.run(1, 1);
    FleetResult fresh = FleetRunner(recordableSpec()).run(1, 1);
    // Identity fields differ only in fleet size bookkeeping; compare
    // full reports after aligning nothing — they must match, both
    // fleets being [session 0] of the same spec.
    EXPECT_EQ(jsonOf(one), jsonOf(fresh));

    EXPECT_THROW(replayer.run(3, 1), SpecError);
    (void)recorded;
    std::remove(path.c_str());
}

TEST(TraceRecordReplay, SyntheticPopulationsReplayToo)
{
    std::string path = tempPath("ariadne_ws_synth.trace");
    ScenarioSpec spec = syntheticSpec();
    spec.fleet = 3;
    FleetRunner recorder(spec);
    FleetResult recorded = recorder.runRecorded(path, 0, true);

    FleetResult replayed =
        FleetRunner(replaySpec(path)).run(0, 2, true);
    EXPECT_EQ(jsonOf(recorded, true), jsonOf(replayed, true));
    std::remove(path.c_str());
}

TEST(TraceRecordReplay, ReplaySpecNameOverrideSurvives)
{
    std::string path = tempPath("ariadne_ws_rename.trace");
    FleetRunner(recordableSpec()).runRecorded(path, 2);

    ScenarioSpec spec = replaySpec(path);
    spec.name = "renamed";
    FleetResult r = FleetRunner(std::move(spec)).run();
    EXPECT_NE(jsonOf(r).find("\"scenario\": \"renamed\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceRecordReplay, RejectsTracesWithoutAnEmbeddedScenario)
{
    std::string path = tempPath("ariadne_ws_bare.trace");
    {
        TraceWriter w(path); // no spec text
        w.beginSession(0);
    }
    EXPECT_THROW(TraceReplaySource{path}, SpecError);
    std::remove(path.c_str());
}

TEST(TraceRecordReplay, RejectsMissingAndCorruptTraceFiles)
{
    EXPECT_THROW(FleetRunner(replaySpec("/nonexistent/x.trace")),
                 TraceError);
    std::string path = tempPath("ariadne_ws_corrupt.trace");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace";
    }
    EXPECT_THROW(FleetRunner(replaySpec(path)), TraceError);
    std::remove(path.c_str());
}

TEST(TraceRecordReplay, RejectsATouchWhosePfnWraps)
{
    // pfn + 1 wraps to 0, so growing the page directory to fit the
    // touch would write past its end.
    std::size_t touch = 0;
    std::string what = replayWithFirstTouchPfn(
        "ariadne_ws_pfn_wrap.trace", UINT64_MAX, touch);
    EXPECT_NE(what.find("touch record " + std::to_string(touch) +
                        " has pfn 18446744073709551615, beyond the "),
              std::string::npos)
        << what;
}

TEST(TraceRecordReplay, RejectsATouchBeyondItsAppsAllocations)
{
    // A 2^31 pfn would ask for a 16 GB page directory.
    std::size_t touch = 0;
    std::string what = replayWithFirstTouchPfn(
        "ariadne_ws_pfn_huge.trace", Pfn{1} << 31, touch);
    EXPECT_NE(what.find("touch record " + std::to_string(touch) +
                        " has pfn 2147483648, beyond the "),
              std::string::npos)
        << what;
}

TEST(TraceRecordReplay, RejectsAnOpOfAnAppOutsideTheSession)
{
    // Move the first launch and its touches to uid 10.
    std::size_t launch = SIZE_MAX;
    bool in_block = false;
    std::string what = replayPatched(
        "ariadne_ws_uid.trace", [&](std::size_t i, TraceRecord &r) {
            if (r.op == TraceOp::Launch && launch == SIZE_MAX) {
                launch = i;
                in_block = true;
            } else if (r.op != TraceOp::Touch) {
                in_block = false;
            }
            if (in_block)
                r.uid = 10;
        });
    EXPECT_NE(what.find("launch record " + std::to_string(launch) +
                        " names app 10, which session 0 does not "
                        "carry"),
              std::string::npos)
        << what;
}

TEST(SweepMixes, PerVariantWorkloadAxesRunInOneReport)
{
    SweepSpec sweep = SweepSpec::parseString(R"(
sweep = mixes
scheme = zram
scale = 0.0625
seed = 5
fleet = 2

variant = standard
apps = YouTube, Twitter
event = warmup
event = repeat 2
event =   switch_next 200ms 100ms
event = end

variant = population
workload = synthetic
population_apps_per_user = 2
population_switches = 2
population_use = 200ms
population_gap = 100ms
)");
    ASSERT_EQ(sweep.variants.size(), 2u);
    EXPECT_EQ(sweep.variants[0].workload, WorkloadKind::Profiles);
    EXPECT_EQ(sweep.variants[1].workload, WorkloadKind::Synthetic);
    EXPECT_EQ(sweep.variants[1].population.appsPerUser, 2u);

    SweepResult r = FleetRunner::runSweep(sweep, 0, 2);
    ASSERT_EQ(r.variants.size(), 2u);
    EXPECT_GT(r.variants[0].totalRelaunches, 0u);
    EXPECT_GT(r.variants[1].totalRelaunches, 0u);

    std::ostringstream os;
    r.writeJson(os);
    EXPECT_NE(os.str().find("\"scenario\": \"standard\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"scenario\": \"population\""),
              std::string::npos);
}

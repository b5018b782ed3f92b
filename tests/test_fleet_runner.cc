/** @file Unit tests for the fleet experiment runner. */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/fleet_runner.hh"
#include "workload/apps.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

/**
 * A fast scenario: warm up all ten apps (which overflows the scaled
 * DRAM budget, so reclaim and compression run), then a dozen
 * round-robin switches. Small enough to run a fleet of six in about a
 * second, busy enough to exercise the fault and relaunch paths.
 */
ScenarioSpec
smallSpec()
{
    return ScenarioSpec::parseString(R"(
name = test-fleet
scheme = ariadne
scheme.config = EHL-1K-2K-16K
scale = 0.0625
seed = 7
fleet = 6
event = warmup
event = repeat 12
event =   switch_next 200ms 100ms
event = end
)");
}

std::string
jsonOf(const FleetResult &r, bool per_session)
{
    std::ostringstream os;
    r.writeJson(os, per_session);
    return os.str();
}

} // namespace

TEST(FleetRunner, SessionCountAndRecordedRelaunches)
{
    FleetRunner runner(smallSpec());
    FleetResult r = runner.run(2, 1, /*keep_sessions=*/true);
    ASSERT_EQ(r.sessions.size(), 2u);
    // Warmup launches all three apps, so every switch_next relaunches.
    EXPECT_EQ(r.sessions[0].relaunches.size(), 12u);
    EXPECT_EQ(r.totalRelaunches, 24u);
    EXPECT_EQ(r.relaunchMs.samples, 24u);
    for (const auto &sample : r.sessions[0].relaunches)
        EXPECT_GT(sample.fullScaleMs, 0.0);
}

TEST(FleetRunner, UsesSpecFleetSizeByDefault)
{
    FleetRunner runner(smallSpec());
    FleetResult r = runner.run(0, 1);
    EXPECT_EQ(r.fleet, 6u);
    // Streaming aggregation: sessions are not retained unless asked.
    EXPECT_TRUE(r.sessions.empty());
    EXPECT_EQ(runner.run(0, 1, /*keep_sessions=*/true).sessions.size(),
              6u);
}

TEST(FleetRunner, SessionIsDeterministicInIsolation)
{
    FleetRunner runner(smallSpec());
    SessionResult a = runner.runSession(3);
    SessionResult b = runner.runSession(3);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.compCpuNs, b.compCpuNs);
    EXPECT_EQ(a.kswapdCpuNs, b.kswapdCpuNs);
    EXPECT_EQ(a.simulatedNs, b.simulatedNs);
    ASSERT_EQ(a.relaunches.size(), b.relaunches.size());
    for (std::size_t i = 0; i < a.relaunches.size(); ++i) {
        EXPECT_EQ(a.relaunches[i].uid, b.relaunches[i].uid);
        EXPECT_EQ(a.relaunches[i].stats.totalNs,
                  b.relaunches[i].stats.totalNs);
    }
}

TEST(FleetRunner, SessionsDiffer)
{
    FleetRunner runner(smallSpec());
    // Distinct seeds should give (at least slightly) distinct
    // behaviour; identical sessions would mean the seed is ignored.
    SessionResult s0 = runner.runSession(0);
    SessionResult s1 = runner.runSession(1);
    EXPECT_NE(s0.seed, s1.seed);
    EXPECT_NE(s0.simulatedNs, s1.simulatedNs);
}

TEST(FleetRunner, AggregateJsonIsThreadInvariant)
{
    FleetRunner runner(smallSpec());
    FleetResult one = runner.run(6, 1, true);
    FleetResult eight = runner.run(6, 8, true);
    EXPECT_EQ(jsonOf(one, true), jsonOf(eight, true));
    // Streaming (discarding) runs produce the same aggregate report.
    FleetResult streamed = runner.run(6, 8);
    EXPECT_EQ(jsonOf(one, false), jsonOf(streamed, false));
}

TEST(FleetRunner, PercentilesAreOrdered)
{
    FleetRunner runner(smallSpec());
    FleetResult r = runner.run(4, 2);
    EXPECT_GT(r.relaunchMs.samples, 0u);
    EXPECT_LE(r.relaunchMs.min, r.relaunchMs.p50);
    EXPECT_LE(r.relaunchMs.p50, r.relaunchMs.p90);
    EXPECT_LE(r.relaunchMs.p90, r.relaunchMs.p99);
    EXPECT_LE(r.relaunchMs.p99, r.relaunchMs.max);
    EXPECT_GT(r.compDecompCpuMs.mean, 0.0);
    EXPECT_GT(r.compRatio.mean, 1.0);
}

TEST(FleetRunner, JsonReportCarriesScenarioIdentity)
{
    FleetRunner runner(smallSpec());
    std::string text = jsonOf(runner.run(2, 1), false);
    EXPECT_NE(text.find("\"scenario\": \"test-fleet\""),
              std::string::npos);
    EXPECT_NE(text.find("\"scheme\": \"Ariadne\""), std::string::npos);
    EXPECT_NE(text.find("\"ariadneConfig\": \"EHL-1K-2K-16K\""),
              std::string::npos);
    EXPECT_NE(text.find("\"relaunchMs\""), std::string::npos);
    EXPECT_NE(text.find("\"p99\""), std::string::npos);
    // No per-session records unless asked for.
    EXPECT_EQ(text.find("\"sessions\""), std::string::npos);
    std::string per = jsonOf(runner.run(2, 1, true), true);
    EXPECT_NE(per.find("\"sessions\""), std::string::npos);
}

TEST(FleetRunner, ProgrammaticSpecMatchesParsedSpec)
{
    ScenarioSpec parsed = smallSpec();

    ScenarioSpec built;
    built.name = "test-fleet";
    built.scheme = "ariadne";
    built.params.set("config", "EHL-1K-2K-16K");
    built.scale = 0.0625;
    built.seed = 7;
    built.fleet = 6;
    built.program.push_back(Event::warmup());
    built.program.push_back(Event::repeat(
        12, {Event::switchNext(200 * 1000000ULL, 100 * 1000000ULL)}));
    EXPECT_TRUE(parsed == built);

    FleetResult a = FleetRunner(parsed).run(2, 1, true);
    FleetResult b = FleetRunner(built).run(2, 1, true);
    EXPECT_EQ(jsonOf(a, true), jsonOf(b, true));
}

TEST(FleetRunner, TargetScenarioRecordsMeasuredRelaunch)
{
    ScenarioSpec spec;
    spec.name = "target";
    spec.scheme = "zram";
    spec.scale = 0.0625;
    spec.apps = {"YouTube", "Twitter", "Firefox"};
    spec.program.push_back(Event::targetScenario("YouTube", 0));
    SessionResult s = FleetRunner(std::move(spec)).runSession(0);
    ASSERT_EQ(s.relaunches.size(), 1u);
    EXPECT_GT(s.relaunches[0].stats.pagesTouched, 0u);
}

TEST(FleetRunner, ColdLaunchIsNotARelaunchSample)
{
    ScenarioSpec spec;
    spec.name = "cold";
    spec.scheme = "zram";
    spec.scale = 0.0625;
    spec.apps = {"YouTube"};
    // First relaunch op can only cold-launch: nothing measured.
    spec.program.push_back(Event::relaunch("YouTube"));
    spec.program.push_back(Event::execute("YouTube", 1000000000ULL));
    spec.program.push_back(Event::background("YouTube"));
    spec.program.push_back(Event::relaunch("YouTube"));
    SessionResult s = FleetRunner(std::move(spec)).runSession(0);
    ASSERT_EQ(s.relaunches.size(), 1u);
    EXPECT_EQ(s.relaunches[0].uid, standardApp("YouTube").uid);
}

TEST(FleetRunner, StreamingKeepsPeakRetainedSessionsBounded)
{
    FleetRunner runner(smallSpec());
    // Single-threaded: every session is folded the moment it
    // finishes — exactly one SessionResult alive at a time, however
    // large the fleet.
    FleetResult serial = runner.run(6, 1);
    EXPECT_TRUE(serial.sessions.empty());
    EXPECT_EQ(serial.peakRetainedSessions, 1u);
    // Multi-threaded: the reorder window bounds retention at
    // 2 * threads, independent of the fleet size.
    FleetResult parallel = runner.run(6, 3);
    EXPECT_TRUE(parallel.sessions.empty());
    EXPECT_GE(parallel.peakRetainedSessions, 1u);
    EXPECT_LE(parallel.peakRetainedSessions, 6u);
}

TEST(FleetRunner, StreamingAggregateMatchesBatchPercentiles)
{
    FleetRunner runner(smallSpec());
    FleetResult streamed = runner.run(6, 4);
    FleetResult kept = runner.run(6, 4, /*keep_sessions=*/true);

    // Recompute the relaunch aggregate the pre-streaming way — all
    // samples collected in session order, then summarized — and
    // demand exact equality with the streaming fold.
    Distribution relaunch_ms;
    for (const SessionResult &s : kept.sessions)
        for (const auto &sample : s.relaunches)
            relaunch_ms.sample(sample.fullScaleMs);
    MetricSummary batch = MetricSummary::of(relaunch_ms);
    EXPECT_EQ(streamed.relaunchMs.samples, batch.samples);
    EXPECT_EQ(streamed.relaunchMs.mean, batch.mean);
    EXPECT_EQ(streamed.relaunchMs.min, batch.min);
    EXPECT_EQ(streamed.relaunchMs.max, batch.max);
    EXPECT_EQ(streamed.relaunchMs.p50, batch.p50);
    EXPECT_EQ(streamed.relaunchMs.p90, batch.p90);
    EXPECT_EQ(streamed.relaunchMs.p99, batch.p99);
}

TEST(FleetRunner, CustomEventsCallHooksInProgramOrder)
{
    ScenarioSpec spec;
    spec.name = "hooks";
    spec.scheme = "zram";
    spec.scale = 0.0625;
    spec.apps = {"YouTube"};
    spec.program.push_back(Event::custom(1));
    spec.program.push_back(Event::launch("YouTube"));
    spec.program.push_back(Event::custom(0));

    std::vector<int> calls;
    std::vector<SessionHook> hooks;
    hooks.push_back([&](MobileSystem &sys, SessionDriver &driver,
                        SessionResult &) {
        // Runs after the launch event.
        EXPECT_TRUE(driver.isLaunched(standardApp("YouTube").uid));
        EXPECT_GT(sys.clock().now(), 0u);
        calls.push_back(0);
    });
    hooks.push_back([&](MobileSystem &, SessionDriver &driver,
                        SessionResult &) {
        // Runs before the launch event.
        EXPECT_FALSE(driver.isLaunched(standardApp("YouTube").uid));
        calls.push_back(1);
    });
    FleetRunner(std::move(spec), std::move(hooks)).runSession(0);
    EXPECT_EQ(calls, (std::vector<int>{1, 0}));
}

namespace
{

SweepSpec
smallSweep()
{
    return SweepSpec::parseString(R"(
sweep = schemes
scale = 0.0625
seed = 7
fleet = 2
event = warmup
event = repeat 4
event =   switch_next 200ms 100ms
event = end

variant = zram
scheme = zram

variant = ariadne
scheme = ariadne
scheme.config = EHL-1K-2K-16K

variant = dram
scheme = dram
)");
}

} // namespace

TEST(FleetRunner, SweepRunsVariantsInDeclarationOrder)
{
    SweepResult r = FleetRunner::runSweep(smallSweep(), 0, 1);
    ASSERT_EQ(r.variants.size(), 3u);
    EXPECT_EQ(r.name, "schemes");
    EXPECT_EQ(r.variants[0].scenario, "zram");
    EXPECT_EQ(r.variants[1].scenario, "ariadne");
    EXPECT_EQ(r.variants[2].scenario, "dram");
    EXPECT_EQ(r.variants[0].scheme, "ZRAM");
    EXPECT_EQ(r.variants[1].ariadneConfig, "EHL-1K-2K-16K");
    // Every variant inherited the base fleet size and program.
    for (const auto &v : r.variants) {
        EXPECT_EQ(v.fleet, 2u);
        EXPECT_EQ(v.totalRelaunches, 8u);
    }
}

TEST(FleetRunner, SweepJsonIsThreadInvariantAndComparative)
{
    auto json_of = [](const SweepResult &r) {
        std::ostringstream os;
        r.writeJson(os);
        return os.str();
    };
    std::string one = json_of(FleetRunner::runSweep(smallSweep(), 2, 1));
    std::string four =
        json_of(FleetRunner::runSweep(smallSweep(), 2, 4));
    EXPECT_EQ(one, four);
    EXPECT_NE(one.find("\"sweep\": \"schemes\""), std::string::npos);
    EXPECT_NE(one.find("\"variantCount\": 3"), std::string::npos);
    // All three variants appear in one document.
    EXPECT_NE(one.find("\"scenario\": \"zram\""), std::string::npos);
    EXPECT_NE(one.find("\"scenario\": \"ariadne\""), std::string::npos);
    EXPECT_NE(one.find("\"scenario\": \"dram\""), std::string::npos);
}

TEST(FleetRunner, SweepVariantEqualsStandaloneFleet)
{
    SweepSpec sweep = smallSweep();
    SweepResult r = FleetRunner::runSweep(sweep, 2, 1);
    // A sweep variant is exactly the fleet its spec describes.
    FleetResult standalone = FleetRunner(sweep.variants[1]).run(2, 1);
    std::ostringstream a, b;
    r.variants[1].writeJson(a, false);
    standalone.writeJson(b, false);
    EXPECT_EQ(a.str(), b.str());
}

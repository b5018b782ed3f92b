/**
 * @file
 * Proof that telemetry is strictly out-of-band: enabling counters,
 * trace spans and the progress meter leaves every report byte
 * untouched. Reports are functions of (spec, seed) only; telemetry
 * writes go to its own shards and sinks. These tests are the
 * in-process counterpart of CI's byte-identity smoke diff.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/fleet_runner.hh"
#include "telemetry/progress.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_log.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

ScenarioSpec
smallSpec()
{
    return ScenarioSpec::parseString(R"(
name = test-oob
scheme = ariadne
scheme.config = EHL-1K-2K-16K
scale = 0.0625
seed = 11
fleet = 4
event = warmup
event = repeat 6
event =   switch_next 200ms 100ms
event = end
)");
}

std::string
fleetJson(unsigned threads)
{
    FleetRunner runner(smallSpec());
    std::ostringstream os;
    runner.run(0, threads).writeJson(os, /*per_session=*/false);
    return os.str();
}

std::string
partialJson()
{
    FleetRunner runner(smallSpec());
    report::PartialReport part =
        runner.runShard(report::ShardPlan::parse("1/2"));
    std::ostringstream os;
    part.writeJson(os);
    return os.str();
}

/** RAII: telemetry + tracing + progress all on, restored on exit. */
class AllTelemetryOn
{
  public:
    explicit AllTelemetryOn(std::ostream *progress_sink)
    {
        telemetry::Registry::global().reset();
        telemetry::setEnabled(true);
        telemetry::setTraceEnabled(true);
        telemetry::TraceLog::global().clear();
        telemetry::ProgressMeter::global().enable(0, "test",
                                                  progress_sink);
        telemetry::ProgressMeter::global().setMinIntervalNs(0);
    }

    ~AllTelemetryOn()
    {
        telemetry::ProgressMeter::global().disable();
        telemetry::ProgressMeter::global().setMinIntervalNs(
            200'000'000);
        telemetry::setTraceEnabled(false);
        telemetry::setEnabled(false);
        telemetry::TraceLog::global().clear();
        telemetry::Registry::global().reset();
    }
};

} // namespace

TEST(TelemetryOutOfBand, FleetReportBytesUnchanged)
{
    std::string baseline = fleetJson(1);
    std::ostringstream progress;
    std::string instrumented;
    {
        AllTelemetryOn on(&progress);
        instrumented = fleetJson(1);
    }
    EXPECT_EQ(baseline, instrumented);
    // The run *did* observe work: counters and heartbeats are live.
    EXPECT_FALSE(progress.str().empty());
}

TEST(TelemetryOutOfBand, MultiThreadedReportBytesUnchanged)
{
    std::string baseline = fleetJson(1);
    std::ostringstream progress;
    std::string instrumented;
    {
        AllTelemetryOn on(&progress);
        instrumented = fleetJson(3);
    }
    EXPECT_EQ(baseline, instrumented);
}

TEST(TelemetryOutOfBand, PartialReportBytesUnchanged)
{
    std::string baseline = partialJson();
    std::ostringstream progress;
    std::string instrumented;
    {
        AllTelemetryOn on(&progress);
        instrumented = partialJson();
    }
    EXPECT_EQ(baseline, instrumented);
}

TEST(TelemetryOutOfBand, CountersObserveTheRun)
{
    std::ostringstream progress;
    telemetry::Registry::global().reset();
    {
        AllTelemetryOn on(&progress);
        fleetJson(1);
        auto snap = telemetry::Registry::global().snapshot();
        EXPECT_EQ(snap.counter("fleet.sessions"), 4u);
        EXPECT_GT(snap.counter("sys.touch"), 0u);
        EXPECT_GT(snap.counter("sys.launch"), 0u);
        EXPECT_GT(snap.duration("fleet.session").count, 0u);
        // Trace spans exist for every session.
        std::size_t session_spans = 0;
        for (const auto &e : telemetry::TraceLog::global().events())
            if (e.name == "session")
                ++session_spans;
        EXPECT_EQ(session_spans, 4u);
        EXPECT_EQ(telemetry::ProgressMeter::global().completed(), 4u);
    }
}

TEST(TelemetryOutOfBand, CountersAreThreadInvariant)
{
    std::ostringstream progress;
    std::uint64_t touches_1t = 0, touches_3t = 0;
    {
        AllTelemetryOn on(&progress);
        fleetJson(1);
        touches_1t =
            telemetry::Registry::global().snapshot().counter(
                "sys.touch");
    }
    {
        AllTelemetryOn on(&progress);
        fleetJson(3);
        touches_3t =
            telemetry::Registry::global().snapshot().counter(
                "sys.touch");
    }
    EXPECT_GT(touches_1t, 0u);
    EXPECT_EQ(touches_1t, touches_3t);
}

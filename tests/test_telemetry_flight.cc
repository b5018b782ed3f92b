/**
 * @file
 * Unit tests for the flight-recorder telemetry kinds: sampled gauges,
 * log2 histograms with per-app breakdowns, the timeline recorder and
 * the sampled page-journey log — plus fleet-level proofs that gauge
 * and histogram snapshots merge across shards to exactly the
 * unsharded totals and are invariant to the worker-thread count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "driver/fleet_runner.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"

using namespace ariadne;
using namespace ariadne::driver;
using telemetry::AppHistogram;
using telemetry::Gauge;

using telemetry::JourneyLog;
using telemetry::JourneyStep;
using telemetry::Registry;
using telemetry::TimelineGauge;
using telemetry::TimelineRecorder;

namespace
{

/** Every test starts from zeroed shards and empty ring buffers. */
class FlightTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::setEnabled(true);
        Registry::global().reset();
        TimelineRecorder::global().clear();
        JourneyLog::global().clear();
        telemetry::beginSession(0);
    }

    void
    TearDown() override
    {
        telemetry::setEnabled(false);
        telemetry::setTimelineEnabled(false);
        telemetry::setJourneyEnabled(false);
        Registry::global().reset();
        TimelineRecorder::global().clear();
        JourneyLog::global().clear();
    }
};

} // namespace

TEST_F(FlightTest, GaugeSummarizesCountSumMinMax)
{
    Gauge g("test.gauge");
    g.sample(30);
    g.sample(10);
    g.sample(20);
    auto v = Registry::global().snapshot().gauge("test.gauge");
    EXPECT_EQ(v.count, 3u);
    EXPECT_EQ(v.sum, 60u);
    EXPECT_EQ(v.min, 10u);
    EXPECT_EQ(v.max, 30u);
    EXPECT_DOUBLE_EQ(v.mean(), 20.0);
}

TEST_F(FlightTest, DisabledGaugeRecordsNothing)
{
    Gauge g("test.gauge.off");
    telemetry::setEnabled(false);
    g.sample(99);
    EXPECT_EQ(
        Registry::global().snapshot().gauge("test.gauge.off").count,
        0u);
}

TEST_F(FlightTest, GaugeZeroSampleIsValid)
{
    // A sampled value of 0 must set min/max, not read as "empty".
    Gauge g("test.gauge.zero");
    g.sample(0);
    g.sample(5);
    auto v = Registry::global().snapshot().gauge("test.gauge.zero");
    EXPECT_EQ(v.count, 2u);
    EXPECT_EQ(v.min, 0u);
    EXPECT_EQ(v.max, 5u);
}

TEST_F(FlightTest, HistogramBucketsByBitWidth)
{
    telemetry::Histogram h("test.hist");
    h.record(0);   // bucket 0
    h.record(1);   // bucket 1
    h.record(2);   // bucket 2
    h.record(3);   // bucket 2
    h.record(4);   // bucket 3
    h.record(7);   // bucket 3
    h.record(~std::uint64_t{0}); // saturates to the top bucket
    auto v = Registry::global().snapshot().histogram("test.hist");
    EXPECT_EQ(v.buckets[0], 1u);
    EXPECT_EQ(v.buckets[1], 1u);
    EXPECT_EQ(v.buckets[2], 2u);
    EXPECT_EQ(v.buckets[3], 2u);
    EXPECT_EQ(v.buckets[Registry::histogramBuckets - 1], 1u);
    EXPECT_EQ(v.count(), 7u);
}

TEST_F(FlightTest, GaugeAndHistogramMerge)
{
    Gauge g("test.m.gauge");
    telemetry::Histogram h("test.m.hist");

    g.sample(10);
    h.record(4);
    auto s1 = Registry::global().snapshot();
    Registry::global().reset();

    g.sample(50);
    h.record(4);
    h.record(100);
    auto s2 = Registry::global().snapshot();
    Registry::global().reset();

    auto merged = s1;
    merged.merge(s2);
    auto gv = merged.gauge("test.m.gauge");
    EXPECT_EQ(gv.count, 2u);
    EXPECT_EQ(gv.sum, 60u);
    EXPECT_EQ(gv.min, 10u);
    EXPECT_EQ(gv.max, 50u);
    auto hv = merged.histogram("test.m.hist");
    EXPECT_EQ(hv.buckets[3], 2u);
    EXPECT_EQ(hv.buckets[7], 1u);
    EXPECT_EQ(hv.sum, 108u);

    // Merging an empty-gauge snapshot must not clamp min to 0.
    auto s3 = Registry::global().snapshot();
    merged.merge(s3);
    EXPECT_EQ(merged.gauge("test.m.gauge").min, 10u);
}

TEST_F(FlightTest, AppHistogramLabelsLeadingUids)
{
    AppHistogram h("test.app.lat");
    h.record(0, 8);
    h.record(1, 16);
    h.record(200, 32); // beyond maxLabeledApps: aggregate only
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.histogram("test.app.lat").count(), 3u);
    EXPECT_EQ(snap.histogram("test.app.lat").sum, 56u);
    EXPECT_EQ(snap.histogram("test.app.lat.app0").count(), 1u);
    EXPECT_EQ(snap.histogram("test.app.lat.app0").sum, 8u);
    EXPECT_EQ(snap.histogram("test.app.lat.app1").sum, 16u);
    EXPECT_EQ(snap.histogram("test.app.lat.app200").count(), 0u);
}

TEST_F(FlightTest, SnapshotVectorsAreSortedByName)
{
    Gauge gz("test.z.gauge");
    Gauge ga("test.a.gauge");
    telemetry::Histogram hz("test.z.hist");
    telemetry::Histogram ha("test.a.hist");
    gz.sample(1);
    ga.sample(1);
    hz.record(1);
    ha.record(1);
    auto snap = Registry::global().snapshot();
    for (std::size_t i = 1; i < snap.gauges.size(); ++i)
        EXPECT_LT(snap.gauges[i - 1].name, snap.gauges[i].name);
    for (std::size_t i = 1; i < snap.histograms.size(); ++i)
        EXPECT_LT(snap.histograms[i - 1].name,
                  snap.histograms[i].name);
}

TEST_F(FlightTest, MetricsJsonCarriesGaugesAndHistograms)
{
    Gauge g("test.json.gauge");
    telemetry::Histogram h("test.json.hist");
    g.sample(42);
    h.record(42);
    std::ostringstream os;
    telemetry::writeMetricsJson(os, telemetry::RunMeta::current(),
                                Registry::global().snapshot());
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
    EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.json.gauge\""), std::string::npos);
    EXPECT_NE(doc.find("\"test.json.hist\""), std::string::npos);
}

TEST_F(FlightTest, TimelineRecorderSortsAcrossSessions)
{
    telemetry::setTimelineEnabled(true);
    TimelineRecorder &rec = TimelineRecorder::global();
    std::uint32_t a = rec.seriesId("test.tl.a");
    std::uint32_t b = rec.seriesId("test.tl.b");
    telemetry::beginSession(1);
    rec.record(b, 2000, 7);
    rec.record(a, 1000, 5);
    telemetry::beginSession(0);
    rec.record(a, 3000, 9);
    auto pts = rec.points();
    ASSERT_EQ(pts.size(), 3u);
    // Canonical order: (series name, session, time).
    EXPECT_EQ(pts[0].session, 0u);
    EXPECT_EQ(pts[0].tNs, 3000u);
    EXPECT_EQ(pts[1].session, 1u);
    EXPECT_EQ(pts[1].tNs, 1000u);
    EXPECT_EQ(pts[2].value, 7u);
}

TEST_F(FlightTest, TimelineGaugeFeedsBothSinks)
{
    telemetry::setTimelineEnabled(true);
    TimelineGauge g("test.tl.dual");
    g.sample(500, 33);
    EXPECT_EQ(Registry::global().snapshot().gauge("test.tl.dual").sum,
              33u);
    ASSERT_EQ(TimelineRecorder::global().points().size(), 1u);

    // Timeline off: the Registry summary still accumulates, the
    // series does not grow.
    telemetry::setTimelineEnabled(false);
    TimelineRecorder::global().clear();
    g.sample(600, 44);
    EXPECT_EQ(
        Registry::global().snapshot().gauge("test.tl.dual").count,
        2u);
    EXPECT_TRUE(TimelineRecorder::global().points().empty());
}

TEST_F(FlightTest, TimelineJsonHasSchemaAndSeries)
{
    telemetry::setTimelineEnabled(true);
    TimelineGauge g("test.tl.json");
    telemetry::beginSession(2);
    g.sample(1'000'000, 11);
    std::ostringstream os;
    telemetry::writeTimelineJson(os, telemetry::RunMeta::current(),
                                 250);
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"ariadneTimeline\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"intervalMs\": 250"), std::string::npos);
    EXPECT_NE(doc.find("\"test.tl.json\""), std::string::npos);
    EXPECT_NE(doc.find("\"session\": 2"), std::string::npos);
}

TEST_F(FlightTest, JourneySamplingIsDeterministicInPageKey)
{
    telemetry::setJourneyEnabled(true, 64);
    bool first = telemetry::journeySampled(3, 1234);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(telemetry::journeySampled(3, 1234), first);
    // Stride 1 samples every page.
    telemetry::setJourneyEnabled(true, 1);
    EXPECT_TRUE(telemetry::journeySampled(7, 99999));
}

TEST_F(FlightTest, JourneyLogGroupsAndOrdersEvents)
{
    telemetry::setJourneyEnabled(true, 1);
    telemetry::beginSession(0);
    telemetry::journeyMark(1, 10, JourneyStep::Alloc, 100);
    telemetry::journeyMark(1, 10, JourneyStep::Cold, 100);
    telemetry::journeyMark(0, 20, JourneyStep::Alloc, 50);
    telemetry::journeyMark(1, 10, JourneyStep::Zram, 300, 2048);
    auto evs = JourneyLog::global().events();
    ASSERT_EQ(evs.size(), 4u);
    // Sorted by (session, uid, pfn, time, issue order).
    EXPECT_EQ(evs[0].uid, 0u);
    EXPECT_EQ(evs[1].step, JourneyStep::Alloc);
    EXPECT_EQ(evs[2].step, JourneyStep::Cold);
    EXPECT_EQ(evs[3].step, JourneyStep::Zram);
    EXPECT_EQ(evs[3].detail, 2048u);
}

TEST_F(FlightTest, JourneyMarkIsGatedByEnable)
{
    telemetry::setJourneyEnabled(false);
    telemetry::journeyMark(1, 10, JourneyStep::Alloc, 100);
    EXPECT_TRUE(JourneyLog::global().events().empty());
}

TEST_F(FlightTest, JourneysJsonGroupsPerPage)
{
    telemetry::setJourneyEnabled(true, 1);
    telemetry::beginSession(0);
    telemetry::journeyMark(4, 77, JourneyStep::Alloc, 1'000'000);
    telemetry::journeyMark(4, 77, JourneyStep::Zram, 2'000'000, 512);
    std::ostringstream os;
    telemetry::writeJourneysJson(os, telemetry::RunMeta::current(),
                                 1);
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"ariadneJourneys\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"sampleEvery\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"pfn\": 77"), std::string::npos);
    EXPECT_NE(doc.find("\"step\": \"zram\""), std::string::npos);
    EXPECT_NE(doc.find("\"detail\": 512"), std::string::npos);
}

// ---------------------------------------------------------------------
// Fleet-level invariance: gauges and histograms are fed *simulated*
// values at simulated times, so their merged totals are functions of
// (spec, seed) — invariant across shard splits and thread counts.
// ---------------------------------------------------------------------

namespace
{

ScenarioSpec
smallSpec()
{
    return ScenarioSpec::parseString(R"(
name = test-flight
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

void
expectStableKindsEqual(const Registry::Snapshot &a,
                       const Registry::Snapshot &b)
{
    for (const auto &g : a.gauges) {
        auto o = b.gauge(g.name);
        EXPECT_EQ(g.count, o.count) << g.name;
        EXPECT_EQ(g.sum, o.sum) << g.name;
        if (g.count > 0) {
            EXPECT_EQ(g.min, o.min) << g.name;
            EXPECT_EQ(g.max, o.max) << g.name;
        }
    }
    for (const auto &h : a.histograms) {
        auto o = b.histogram(h.name);
        EXPECT_EQ(h.sum, o.sum) << h.name;
        EXPECT_EQ(h.buckets, o.buckets) << h.name;
    }
}

Registry::Snapshot
snapshotOfFleetRun(unsigned threads)
{
    Registry::global().reset();
    FleetRunner runner(smallSpec());
    runner.run(0, threads);
    return Registry::global().snapshot();
}

Registry::Snapshot
snapshotOfShard(const char *shard)
{
    Registry::global().reset();
    FleetRunner runner(smallSpec());
    runner.runShard(report::ShardPlan::parse(shard));
    return Registry::global().snapshot();
}

} // namespace

TEST_F(FlightTest, MergedShardSnapshotsEqualUnsharded)
{
    auto whole = snapshotOfFleetRun(1);
    ASSERT_FALSE(whole.gauges.empty());
    ASSERT_FALSE(whole.histograms.empty());

    auto s1 = snapshotOfShard("1/2");
    auto s2 = snapshotOfShard("2/2");
    auto merged = s1;
    merged.merge(s2);

    expectStableKindsEqual(whole, merged);
    expectStableKindsEqual(merged, whole);
}

TEST_F(FlightTest, GaugesAndHistogramsAreThreadInvariant)
{
    auto one = snapshotOfFleetRun(1);
    auto three = snapshotOfFleetRun(3);
    ASSERT_GT(one.histogram("swap.compress_ns").count(), 0u);
    ASSERT_GT(one.gauge("mem.free_pages").count, 0u);
    expectStableKindsEqual(one, three);
    expectStableKindsEqual(three, one);
}

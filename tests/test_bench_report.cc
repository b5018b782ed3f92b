/** @file Unit tests for BENCH/metrics JSON schemas and build info. */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "report/json_reader.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/build_info.hh"
#include "telemetry/telemetry.hh"

using namespace ariadne;
using telemetry::BenchReport;
using telemetry::RunMeta;

namespace
{

RunMeta
testMeta()
{
    RunMeta meta = RunMeta::current();
    meta.threads = 4;
    meta.scenario = "unit";
    meta.scenarioHash = 0xdeadbeefULL;
    return meta;
}

} // namespace

TEST(BuildInfo, AlwaysNonEmpty)
{
    ASSERT_NE(telemetry::gitSha(), nullptr);
    ASSERT_NE(telemetry::buildType(), nullptr);
    EXPECT_GT(std::strlen(telemetry::gitSha()), 0u);
    EXPECT_GT(std::strlen(telemetry::buildType()), 0u);
}

TEST(BenchReportJson, EmitsStableSchema)
{
    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();
    telemetry::Counter c("bench_test.counter");
    telemetry::Registry &r = telemetry::Registry::global();
    c.add(3);
    r.recordDuration(r.durationSlot("bench_test.duration"), 500, 200);

    BenchReport report;
    report.bench = "unit";
    report.meta = testMeta();
    report.wallSeconds = 1.5;
    report.peakRssBytes = 1 << 20;
    report.rates.emplace_back("sessionsPerSec", 42.5);
    report.totals.emplace_back("sessions", 64);
    report.telemetry = telemetry::Registry::global().snapshot();
    telemetry::setEnabled(false);
    telemetry::Registry::global().reset();

    std::ostringstream os;
    report.writeJson(os);
    report::JsonValue doc = report::JsonValue::parseText(os.str());

    EXPECT_EQ(doc.at("ariadneBench").asU64(), 1u);
    EXPECT_EQ(doc.at("bench").asString(), "unit");
    EXPECT_EQ(doc.at("meta").at("threads").asU64(), 4u);
    EXPECT_EQ(doc.at("meta").at("scenario").asString(), "unit");
    EXPECT_EQ(doc.at("meta").at("scenarioHash").asU64(),
              0xdeadbeefULL);
    EXPECT_EQ(doc.at("meta").at("gitSha").asString(),
              telemetry::gitSha());
    EXPECT_EQ(doc.at("meta").at("buildType").asString(),
              telemetry::buildType());
    EXPECT_DOUBLE_EQ(doc.at("wallSeconds").asDouble(), 1.5);
    EXPECT_EQ(doc.at("peakRssBytes").asU64(), 1u << 20);
    EXPECT_DOUBLE_EQ(doc.at("rates").at("sessionsPerSec").asDouble(),
                     42.5);
    EXPECT_EQ(doc.at("totals").at("sessions").asU64(), 64u);
    EXPECT_EQ(doc.at("counters").at("bench_test.counter").asU64(), 3u);
    const auto &dur = doc.at("durations").at("bench_test.duration");
    EXPECT_EQ(dur.at("count").asU64(), 1u);
    EXPECT_EQ(dur.at("totalNs").asU64(), 500u);
    EXPECT_EQ(dur.at("selfNs").asU64(), 200u);
    EXPECT_DOUBLE_EQ(dur.at("meanNs").asDouble(), 500.0);
}

TEST(BenchReportJson, IdenticalInputsSerializeIdentically)
{
    BenchReport report;
    report.bench = "stable";
    report.meta = testMeta();
    report.wallSeconds = 0.25;
    report.rates.emplace_back("r", 1.0 / 3.0);

    std::ostringstream a, b;
    report.writeJson(a);
    report.writeJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(MetricsJson, EmitsMetaAndSnapshot)
{
    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();
    telemetry::Counter c("metrics_test.counter");
    c.add(11);
    auto snap = telemetry::Registry::global().snapshot();
    telemetry::setEnabled(false);
    telemetry::Registry::global().reset();

    std::ostringstream os;
    telemetry::writeMetricsJson(os, testMeta(), snap);
    report::JsonValue doc = report::JsonValue::parseText(os.str());

    EXPECT_EQ(doc.at("ariadneMetrics").asU64(), 1u);
    EXPECT_EQ(doc.at("meta").at("scenario").asString(), "unit");
    EXPECT_EQ(doc.at("counters").at("metrics_test.counter").asU64(),
              11u);
    EXPECT_TRUE(doc.find("durations") != nullptr);
}

TEST(PeakRss, ReportsPlausibleValue)
{
    std::uint64_t rss = telemetry::currentPeakRssBytes();
#if defined(__unix__) || defined(__APPLE__)
    // A running test binary occupies at least a megabyte.
    EXPECT_GT(rss, std::uint64_t{1} << 20);
#else
    (void)rss;
#endif
}

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "perfbench_lib.hh"

using namespace perfbench;

TEST(SelfTimes, LeafSpanKeepsItsDuration)
{
    std::vector<Span> s = {{"run", 10, 30, noParent}};
    EXPECT_EQ(selfTimes(s), (std::vector<std::uint64_t>{20}));
}

TEST(SelfTimes, NestedChildrenCountOnlyForTheirParent)
{
    // run [0,100) > session [10,60) > op [20,30)
    std::vector<Span> s = {{"run", 0, 100, noParent},
                           {"session", 10, 60, 0},
                           {"op", 20, 30, 1}};
    EXPECT_EQ(selfTimes(s), (std::vector<std::uint64_t>{50, 40, 10}));
}

TEST(SelfTimes, OverlappingChildrenAreCountedOnce)
{
    // Children [10,40) and [30,50) overlap on [30,40): together they
    // cover 40 of the parent's 100.
    std::vector<Span> s = {{"run", 0, 100, noParent},
                           {"a", 10, 40, 0},
                           {"b", 30, 50, 0},
                           {"c", 35, 45, 0}};
    EXPECT_EQ(selfTimes(s)[0], 60u);
}

TEST(SelfTimes, ChildrenAreClippedToTheParent)
{
    std::vector<Span> s = {{"session", 10, 20, noParent},
                           {"early", 0, 15, 0},
                           {"late", 18, 40, 0},
                           {"outside", 50, 60, 0}};
    EXPECT_EQ(selfTimes(s)[0], 3u); // [15,18)
}

TEST(SelfTimes, BadParentThrows)
{
    std::vector<Span> s = {{"run", 0, 10, 3}};
    EXPECT_THROW(selfTimes(s), std::invalid_argument);
}

TEST(EnclosingSpan, FindsTheContainingSession)
{
    std::vector<Span> sessions = {{"s", 10, 20, 0}, {"s", 30, 40, 0}};
    EXPECT_EQ(enclosingSpan(sessions, 5), noParent);
    EXPECT_EQ(enclosingSpan(sessions, 10), 0u);
    EXPECT_EQ(enclosingSpan(sessions, 19), 0u);
    EXPECT_EQ(enclosingSpan(sessions, 25), noParent);
    EXPECT_EQ(enclosingSpan(sessions, 35), 1u);
    EXPECT_EQ(enclosingSpan(sessions, 40), noParent);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 99), 99);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(percentile({7.0}, 99), 7.0);
    EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(TailPercentile, KeepsTenSamplesBeyond)
{
    // p99 of 1000 samples has rank 990: ten beyond.
    EXPECT_EQ(tailPercentile(1000), 99.0);
    // 999 samples: rank 990, nine beyond; p95 has rank 950.
    EXPECT_EQ(tailPercentile(999), 95.0);
    EXPECT_EQ(tailPercentile(200), 95.0);
    EXPECT_EQ(tailPercentile(199), 90.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(40), 75.0);
    EXPECT_EQ(tailPercentile(20), 50.0);
    EXPECT_EQ(tailPercentile(5), 50.0);
    EXPECT_EQ(tailPercentile(0), 50.0);
    EXPECT_EQ(tailPercentile(100, 1), 99.0);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(MetricName, Validation)
{
    EXPECT_TRUE(validMetricName("sessions_per_s"));
    EXPECT_TRUE(validMetricName("sys.relaunch_us_p99"));
    EXPECT_TRUE(validMetricName("compress.codec_MBps"));
    EXPECT_TRUE(validMetricName("9-lives"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_hidden"));
    EXPECT_FALSE(validMetricName(".dot"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName("quote\""));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(ResultJson, RendersEveryDigitAndRejectsBadMetrics)
{
    EXPECT_EQ(resultJson(true, 3, 0, {{"a.b", 0.1, "ms"}, {"n", 12, "count"}}),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"a.b\": {\"value\": 0.1, \"unit\": \"ms\"}, "
              "\"n\": {\"value\": 12, \"unit\": \"count\"}}}");
    EXPECT_NE(resultJson(false, 1, 1, {{"x", 1.0 / 3.0, "s"}})
                  .find("0.3333333333333333"),
              std::string::npos);
    EXPECT_THROW(resultJson(true, 1, 0, {{"bad name", 1, "s"}}),
                 std::invalid_argument);
    EXPECT_THROW(resultJson(true, 1, 0, {{"x", 1, "s"}, {"x", 2, "s"}}),
                 std::invalid_argument);
    EXPECT_THROW(resultJson(true, 1, 0, {{"x", std::nan(""), "s"}}),
                 std::invalid_argument);
}

TEST(ShapeGuard, PressuredWorkloadsMustReclaimAndCompress)
{
    EXPECT_TRUE(shapeViolations(Pressure::Reclaim, {10, 5, 0}).empty());
    EXPECT_EQ(shapeViolations(Pressure::Reclaim, {0, 5, 0}).size(), 1u);
    EXPECT_EQ(shapeViolations(Pressure::Reclaim, {0, 0, 0}).size(), 2u);
}

TEST(ShapeGuard, SwapInWorkloadMustSwapIn)
{
    EXPECT_TRUE(
        shapeViolations(Pressure::ReclaimAndSwapIn, {10, 5, 1}).empty());
    EXPECT_EQ(
        shapeViolations(Pressure::ReclaimAndSwapIn, {10, 5, 0}).size(),
        1u);
}

TEST(ShapeGuard, BypassWorkloadMustStayPressureFree)
{
    EXPECT_TRUE(shapeViolations(Pressure::None, {0, 0, 0}).empty());
    EXPECT_EQ(shapeViolations(Pressure::None, {1, 0, 0}).size(), 1u);
    EXPECT_EQ(shapeViolations(Pressure::None, {0, 1, 0}).size(), 1u);
    EXPECT_EQ(shapeViolations(Pressure::None, {0, 0, 1}).size(), 1u);
}

/** @file Unit tests for the report subsystem: JSON reader, shard
 * plans, metric states, percentile sketches, partial reports and the
 * merger. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "driver/json_writer.hh"
#include "report/json_reader.hh"
#include "report/metric_state.hh"
#include "report/partial_report.hh"
#include "report/report_merger.hh"
#include "report/shard_plan.hh"

using namespace ariadne;
using namespace ariadne::report;

// --- JSON reader ----------------------------------------------------

TEST(JsonReader, ParsesNestedDocument)
{
    JsonValue v = JsonValue::parseText(R"({
        "name": "daily",
        "count": 3,
        "ok": true,
        "none": null,
        "list": [1, 2.5, -3e2],
        "obj": {"inner": "x"}
    })");
    EXPECT_EQ(v.at("name").asString(), "daily");
    EXPECT_EQ(v.at("count").asU64(), 3u);
    EXPECT_TRUE(v.at("ok").asBool());
    EXPECT_TRUE(v.at("none").isNull());
    ASSERT_EQ(v.at("list").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("list").asArray()[2].asDouble(), -300.0);
    EXPECT_EQ(v.at("obj").at("inner").asString(), "x");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_THROW(v.at("missing"), JsonError);
}

TEST(JsonReader, ShortestRoundTripDoublesComeBackBitIdentical)
{
    for (double d : {0.1, 1.0 / 3.0, 6.02e23, 5e-324, 0.0625,
                     123456789.123456789}) {
        std::string text = driver::JsonWriter::formatDouble(d);
        JsonValue v = JsonValue::parseText("[" + text + "]");
        EXPECT_EQ(v.asArray()[0].asDouble(), d) << text;
    }
}

TEST(JsonReader, FullRangeIntegersSurvive)
{
    JsonValue v = JsonValue::parseText("[18446744073709551615, 42]");
    EXPECT_EQ(v.asArray()[0].asU64(), 18446744073709551615ULL);
    EXPECT_EQ(v.asArray()[1].asU64(), 42u);
    // Fractions and negatives are not integers.
    EXPECT_THROW(JsonValue::parseText("[1.5]").asArray()[0].asU64(),
                 JsonError);
    EXPECT_THROW(JsonValue::parseText("[-1]").asArray()[0].asU64(),
                 JsonError);
}

TEST(JsonReader, DecodesEscapes)
{
    JsonValue v = JsonValue::parseText(
        R"(["a\"b\\c\n\t", "Aé€", "\u00e9\ud83d\ude00"])");
    EXPECT_EQ(v.asArray()[0].asString(), "a\"b\\c\n\t");
    // Raw UTF-8 passes through verbatim...
    EXPECT_EQ(v.asArray()[1].asString(), "A\xc3\xa9\xe2\x82\xac");
    // ...and \uXXXX escapes (including surrogate pairs) decode to it.
    EXPECT_EQ(v.asArray()[2].asString(), "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonReader, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parseText(""), JsonError);
    EXPECT_THROW(JsonValue::parseText("{"), JsonError);
    EXPECT_THROW(JsonValue::parseText("{\"a\" 1}"), JsonError);
    EXPECT_THROW(JsonValue::parseText("[1,]"), JsonError);
    EXPECT_THROW(JsonValue::parseText("[1] trailing"), JsonError);
    EXPECT_THROW(JsonValue::parseText("nul"), JsonError);
    EXPECT_THROW(JsonValue::parseText("\"unterminated"), JsonError);
    EXPECT_THROW(JsonValue::parseText("[01e]"), JsonError);
    // Deep nesting errors instead of smashing the stack.
    std::string bomb(100000, '[');
    EXPECT_THROW(JsonValue::parseText(bomb), JsonError);
}

// --- ShardPlan ------------------------------------------------------

TEST(ShardPlan, ParsesValidSpecs)
{
    ShardPlan p = ShardPlan::parse("2/4");
    EXPECT_EQ(p.index, 2u);
    EXPECT_EQ(p.count, 4u);
    EXPECT_EQ(p.toString(), "2/4");
    EXPECT_EQ(ShardPlan::parse("1/1").toString(), "1/1");
}

TEST(ShardPlan, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"0/4", "5/4", "a/b", "4", "1/0", "", "1/", "/4", "-1/4",
          "1/4/2", "1 / 4"})
        EXPECT_THROW(ShardPlan::parse(bad), ReportError) << bad;
}

TEST(ShardPlan, SessionRangesTileTheFleet)
{
    for (std::size_t count : {1u, 2u, 3u, 4u, 7u, 8u}) {
        for (std::size_t fleet : {0u, 1u, 2u, 5u, 8u, 64u, 1000u}) {
            std::size_t expected_begin = 0;
            for (std::size_t i = 1; i <= count; ++i) {
                auto [begin, end] =
                    ShardPlan{i, count}.sessionRange(fleet);
                EXPECT_EQ(begin, expected_begin);
                EXPECT_LE(begin, end);
                expected_begin = end;
            }
            EXPECT_EQ(expected_begin, fleet);
        }
    }
}

TEST(ShardPlan, HugeShardCountsDoNotOverflowTheRanges)
{
    // COUNT is unbounded user input; index*fleet must not wrap.
    const std::size_t huge = ~std::size_t{0} / 3 + 1;
    std::size_t covered = 0;
    for (std::size_t i : {std::size_t{1}, huge - 1, huge}) {
        auto [begin, end] = ShardPlan{i, huge}.sessionRange(3);
        EXPECT_LE(begin, end);
        EXPECT_LE(end, 3u);
        covered += end - begin;
    }
    EXPECT_LE(covered, 3u);
    auto [last_begin, last_end] = ShardPlan{huge, huge}.sessionRange(3);
    EXPECT_EQ(last_end, 3u);
    (void)last_begin;
}

// --- MetricState ----------------------------------------------------

TEST(MetricState, ExactMergeReproducesTheUnshardedFold)
{
    MetricState whole(PercentileMode::Exact);
    MetricState a(PercentileMode::Exact), b(PercentileMode::Exact);
    for (int i = 0; i < 100; ++i) {
        double v = static_cast<double>((i * 13) % 41) + 0.125;
        whole.sample(v);
        (i < 37 ? a : b).sample(v);
    }
    a.merge(b);
    MetricSummary lhs = a.summarize(), rhs = whole.summarize();
    EXPECT_EQ(lhs.samples, rhs.samples);
    EXPECT_EQ(lhs.mean, rhs.mean);
    EXPECT_EQ(lhs.min, rhs.min);
    EXPECT_EQ(lhs.max, rhs.max);
    EXPECT_EQ(lhs.p50, rhs.p50);
    EXPECT_EQ(lhs.p90, rhs.p90);
    EXPECT_EQ(lhs.p99, rhs.p99);
}

TEST(MetricState, SketchModeRetainsNoSampleVector)
{
    MetricState state(PercentileMode::Sketch, 32);
    for (int i = 0; i < 10000; ++i)
        state.sample(static_cast<double>(i));
    EXPECT_TRUE(state.sampleValues().empty());
    EXPECT_LT(state.retainedValues(), 1000u);
    EXPECT_EQ(state.count(), 10000u);
    EXPECT_DOUBLE_EQ(state.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(state.maxValue(), 9999.0);
    MetricSummary s = state.summarize();
    EXPECT_GT(s.rankErrorBound, 0u);
    EXPECT_NEAR(s.p50, 5000.0,
                static_cast<double>(s.rankErrorBound));
}

TEST(MetricState, MergeRejectsMismatchedModes)
{
    MetricState exact(PercentileMode::Exact);
    MetricState sketch(PercentileMode::Sketch, 32);
    MetricState sketch64(PercentileMode::Sketch, 64);
    exact.sample(1.0);
    sketch.sample(1.0);
    EXPECT_THROW(exact.merge(sketch), ReportError);
    EXPECT_THROW(sketch.merge(sketch64), ReportError);
}

TEST(MetricState, ExactSummaryOfAKnownDistribution)
{
    MetricState d(PercentileMode::Exact);
    for (int i = 100; i >= 1; --i) // reverse order: summarize() sorts
        d.sample(static_cast<double>(i));
    MetricSummary s = d.summarize();
    EXPECT_EQ(s.samples, 100u);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    // Nearest rank: ceil(p * n)-th smallest.
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_DOUBLE_EQ(s.p90, 90.0);
    EXPECT_DOUBLE_EQ(s.p99, 99.0);
    EXPECT_EQ(s.rankErrorBound, 0u);
}

TEST(MetricState, ExactSummaryOfSingleSampleAndEmpty)
{
    MetricState d(PercentileMode::Exact);
    MetricSummary empty = d.summarize();
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_DOUBLE_EQ(empty.mean, 0.0);
    EXPECT_DOUBLE_EQ(empty.min, 0.0);
    EXPECT_DOUBLE_EQ(empty.max, 0.0);
    EXPECT_DOUBLE_EQ(empty.p50, 0.0);
    d.sample(7.0);
    MetricSummary one = d.summarize();
    EXPECT_EQ(one.samples, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 7.0);
    EXPECT_DOUBLE_EQ(one.min, 7.0);
    EXPECT_DOUBLE_EQ(one.max, 7.0);
    EXPECT_DOUBLE_EQ(one.p50, 7.0);
    EXPECT_DOUBLE_EQ(one.p90, 7.0);
    EXPECT_DOUBLE_EQ(one.p99, 7.0);
}

TEST(MetricState, ExactMeanIsSummedInFoldOrder)
{
    // 0.1 + (0.2 + 0.3) != (0.1 + 0.2) + 0.3 in binary floating
    // point: the merged running total differs from the fold-order
    // sum, and only the latter reproduces the unsharded report.
    MetricState a(PercentileMode::Exact), b(PercentileMode::Exact);
    a.sample(0.1);
    b.sample(0.2);
    b.sample(0.3);
    a.merge(b);
    double fold_order = (0.1 + 0.2) + 0.3;
    EXPECT_NE(a.sum(), fold_order);
    EXPECT_EQ(a.summarize().mean, fold_order / 3.0);
}

// --- Percentile sketch ----------------------------------------------

namespace
{

/**
 * Worst-case distance between the true rank interval of the value the
 * sketch returned for percentile @p p and the nearest-rank target —
 * the quantity PercentileSketch::rankErrorBound bounds.
 */
std::uint64_t
rankError(const std::vector<double> &sorted, double p, double value)
{
    auto n = static_cast<double>(sorted.size());
    auto target = static_cast<std::uint64_t>(std::ceil(p * n));
    if (target == 0)
        target = 1;
    auto lo = static_cast<std::uint64_t>(
        std::lower_bound(sorted.begin(), sorted.end(), value) -
        sorted.begin()); // samples strictly below `value`
    auto hi = static_cast<std::uint64_t>(
        std::upper_bound(sorted.begin(), sorted.end(), value) -
        sorted.begin()); // samples <= `value`
    if (target >= lo + 1 && target <= hi)
        return 0;
    return target < lo + 1 ? (lo + 1) - target : target - hi;
}

/** Nearest-rank percentile of @p sorted: the ceil(p * n)-th smallest
 * sample, the first one for p = 0. */
double
nearestRank(const std::vector<double> &sorted, double p)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

void
expectWithinBound(const std::vector<double> &data,
                  const PercentileSketch &sk)
{
    std::vector<double> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        double v = sk.percentile(p);
        EXPECT_LE(rankError(sorted, p, v), sk.rankErrorBound())
            << "p=" << p << " value=" << v;
    }
}

} // namespace

TEST(PercentileSketch, ExactUntilFirstCompaction)
{
    PercentileSketch sk(64);
    std::vector<double> sorted;
    for (int i = 0; i < 63; ++i) {
        sk.sample(static_cast<double>((i * 37) % 63));
        sorted.push_back(static_cast<double>((i * 37) % 63));
    }
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sk.rankErrorBound(), 0u);
    for (double p : {0.0, 0.25, 0.5, 0.9, 1.0})
        EXPECT_DOUBLE_EQ(sk.percentile(p), nearestRank(sorted, p));
}

TEST(PercentileSketch, EmptyAndClampedQueries)
{
    PercentileSketch sk;
    EXPECT_DOUBLE_EQ(sk.percentile(0.5), 0.0);
    sk.sample(7.0);
    EXPECT_DOUBLE_EQ(sk.percentile(-1.0), 7.0);
    EXPECT_DOUBLE_EQ(sk.percentile(2.0), 7.0);
    EXPECT_DOUBLE_EQ(
        sk.percentile(std::numeric_limits<double>::quiet_NaN()), 7.0);
}

TEST(PercentileSketch, BoundHoldsOnAdversarialInputs)
{
    // Patterns chosen to stress the compactors: sorted, reversed,
    // constant runs, alternating extremes, and a sawtooth.
    const std::size_t n = 40000;
    std::vector<std::vector<double>> inputs(5);
    for (std::size_t i = 0; i < n; ++i) {
        auto x = static_cast<double>(i);
        inputs[0].push_back(x);
        inputs[1].push_back(static_cast<double>(n - i));
        inputs[2].push_back(static_cast<double>(i / 1000));
        inputs[3].push_back(i % 2 ? 1e9 + x : -1e9 - x);
        inputs[4].push_back(static_cast<double>(i % 97));
    }
    for (const auto &data : inputs) {
        PercentileSketch sk(64);
        for (double v : data)
            sk.sample(v);
        EXPECT_EQ(sk.samples(), n);
        EXPECT_GT(sk.rankErrorBound(), 0u);
        expectWithinBound(data, sk);
    }
}

TEST(PercentileSketch, MemoryAndErrorStaySublinearAtMillionSamples)
{
    const std::size_t n = 1000000;
    PercentileSketch sk; // defaultK = 256
    for (std::size_t i = 0; i < n; ++i)
        sk.sample(static_cast<double>((i * 2654435761ULL) % n));
    EXPECT_EQ(sk.samples(), n);
    // Retention is O(k log(n/k)), nowhere near O(n).
    EXPECT_LE(sk.retained(), 4096u);
    // The tracked bound follows the documented (n/k) log2(n/k)
    // envelope (~5 % of n at these parameters; allow slack).
    EXPECT_LE(sk.rankErrorBound(), n / 12);
    // And the returned percentiles honour it.
    std::vector<double> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<double>((i * 2654435761ULL) % n);
    expectWithinBound(data, sk);
}

TEST(PercentileSketch, MergeMatchesSequentialBounds)
{
    const std::size_t n = 20000;
    std::vector<double> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<double>((i * 7919) % 10007);

    // Shard the stream four ways, sketch each, merge in shard order.
    std::vector<PercentileSketch> shards(4, PercentileSketch(64));
    for (std::size_t i = 0; i < n; ++i)
        shards[i / (n / 4)].sample(data[i]);
    PercentileSketch merged = shards[0];
    for (std::size_t s = 1; s < shards.size(); ++s)
        merged.merge(shards[s]);
    EXPECT_EQ(merged.samples(), n);
    expectWithinBound(data, merged);

    // The merge is deterministic: repeating it reproduces every
    // queried percentile and the tracked bound exactly.
    PercentileSketch again = shards[0];
    for (std::size_t s = 1; s < shards.size(); ++s)
        again.merge(shards[s]);
    EXPECT_EQ(again.rankErrorBound(), merged.rankErrorBound());
    for (double p : {0.1, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(again.percentile(p), merged.percentile(p));
}

TEST(PercentileSketch, RestoreRoundTripsSerializedState)
{
    PercentileSketch sk(32);
    for (int i = 0; i < 5000; ++i)
        sk.sample(static_cast<double>((i * 31) % 499));
    PercentileSketch back = PercentileSketch::restore(
        sk.k(), sk.samples(), sk.rankErrorBound(),
        {sk.levels().begin(), sk.levels().end()});
    EXPECT_EQ(back.samples(), sk.samples());
    EXPECT_EQ(back.rankErrorBound(), sk.rankErrorBound());
    for (double p : {0.1, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(back.percentile(p), sk.percentile(p));
}

TEST(PercentileSketch, ResetClears)
{
    PercentileSketch sk(16);
    for (int i = 0; i < 100; ++i)
        sk.sample(static_cast<double>(i));
    sk.reset();
    EXPECT_EQ(sk.samples(), 0u);
    EXPECT_EQ(sk.rankErrorBound(), 0u);
    EXPECT_DOUBLE_EQ(sk.percentile(0.5), 0.0);
}

TEST(PercentileModeNames, RoundTrip)
{
    EXPECT_STREQ(percentileModeName(PercentileMode::Exact), "exact");
    EXPECT_STREQ(percentileModeName(PercentileMode::Sketch), "sketch");
    EXPECT_EQ(parsePercentileModeName("Sketch"),
              PercentileMode::Sketch);
    EXPECT_EQ(parsePercentileModeName("EXACT"), PercentileMode::Exact);
    EXPECT_FALSE(parsePercentileModeName("median").has_value());
}

// --- Partial reports ------------------------------------------------

namespace
{

FleetPartial
samplePartial(PercentileMode mode, std::size_t begin, std::size_t end,
              std::uint64_t salt)
{
    FleetPartial p(mode, 32);
    p.scenario = "unit";
    p.scheme = "ZRAM";
    p.scale = 0.0625;
    p.seed = 0xdeadbeefcafef00dULL;
    p.fleet = 8;
    p.sessionsBegin = begin;
    p.sessionsEnd = end;
    for (std::size_t i = begin; i < end; ++i) {
        driver::SessionResult s;
        driver::RelaunchSample r;
        r.fullScaleMs =
            static_cast<double>((i * 131 + salt) % 97) + 0.5;
        s.relaunches.push_back(r);
        s.kswapdCpuNs = 1000000 * (i + 1);
        s.energyJ = 0.25 * static_cast<double>(i + salt);
        s.majorFaults = i;
        p.fold(s);
    }
    return p;
}

std::string
partialJson(const PartialReport &p)
{
    std::ostringstream os;
    p.writeJson(os);
    return os.str();
}

} // namespace

TEST(PartialReport, JsonRoundTripIsExact)
{
    for (PercentileMode mode :
         {PercentileMode::Exact, PercentileMode::Sketch}) {
        PartialReport rep;
        rep.shard = {2, 4};
        rep.runHash = ~std::uint64_t{0} - 5;
        rep.variants = {samplePartial(mode, 2, 4, 7)};
        std::string text = partialJson(rep);
        PartialReport back = PartialReport::parseText(text);
        EXPECT_EQ(back.shard, rep.shard);
        EXPECT_EQ(back.runHash, rep.runHash);
        ASSERT_EQ(back.variants.size(), 1u);
        EXPECT_EQ(back.variants[0].seed, rep.variants[0].seed);
        // Re-serializing the parsed report reproduces every byte —
        // doubles round-trip exactly.
        EXPECT_EQ(partialJson(back), text);
    }
}

TEST(PartialReport, SweepRoundTrip)
{
    PartialReport rep;
    rep.shard = {1, 2};
    rep.sweepName = "schemes";
    rep.runHash = 7;
    rep.variants = {samplePartial(PercentileMode::Exact, 0, 8, 1),
                    samplePartial(PercentileMode::Exact, 0, 4, 2),
                    samplePartial(PercentileMode::Exact, 0, 0, 3)};
    std::string text = partialJson(rep);
    PartialReport back = PartialReport::parseText(text);
    EXPECT_EQ(back.sweepName, "schemes");
    ASSERT_EQ(back.variants.size(), 3u);
    EXPECT_EQ(back.variants[1].sessionsEnd, 4u);
    EXPECT_EQ(partialJson(back), text);
}

TEST(PartialReport, RejectsCorruptDocuments)
{
    EXPECT_THROW(PartialReport::parseText("garbage"), ReportError);
    EXPECT_THROW(PartialReport::parseText("{}"), ReportError);
    EXPECT_THROW(PartialReport::parseText(
                     R"({"ariadnePartial": 99, "kind": "fleet",
                         "shardIndex": 1, "shardCount": 1})"),
                 ReportError);
    // A fleet carries exactly one variant, a sweep at least one.
    PartialReport rep;
    EXPECT_THROW(PartialReport::parseText(partialJson(rep)), ReportError);
    rep.variants.assign(2, samplePartial(PercentileMode::Exact, 0, 4, 3));
    EXPECT_THROW(PartialReport::parseText(partialJson(rep)), ReportError);
    rep.sweepName = "s";
    EXPECT_NO_THROW(PartialReport::parseText(partialJson(rep)));
    // Truncated sample vectors are diagnosed via the count field.
    rep.sweepName.clear();
    rep.variants.resize(1);
    std::string text = partialJson(rep);
    auto pos = text.find("\"samples\": [");
    ASSERT_NE(pos, std::string::npos);
    auto end = text.find("]", pos);
    std::string truncated = text.substr(0, text.find("[", pos) + 1) +
                            "1" + text.substr(end);
    EXPECT_THROW(PartialReport::parseText(truncated), ReportError);
    EXPECT_THROW(PartialReport::loadFile("/nonexistent/partial.json"),
                 ReportError);
}

TEST(PartialReport, RejectsVersionOnePartials)
{
    // Version 1 had a fleet shape and a sweep shape; this build reads
    // only the one shape of version 2.
    try {
        PartialReport::parseText(R"({"ariadnePartial": 1, "kind": "fleet",
            "shardIndex": 1, "shardCount": 2, "report": {}})");
        FAIL() << "a version-1 partial parsed";
    } catch (const ReportError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported format version 1 (this build reads 2)"),
                  std::string::npos)
            << e.what();
    }
}

// --- Merger ---------------------------------------------------------

TEST(ReportMerger, MergesShardsInCanonicalOrder)
{
    PartialReport a, b;
    a.shard = {1, 2};
    a.variants = {samplePartial(PercentileMode::Exact, 0, 4, 5)};
    b.shard = {2, 2};
    b.variants = {samplePartial(PercentileMode::Exact, 4, 8, 5)};

    driver::SweepResult forward = mergePartials({a, b});
    driver::SweepResult shuffled = mergePartials({b, a});
    std::ostringstream x, y;
    forward.writeJson(x);
    shuffled.writeJson(y);
    EXPECT_EQ(x.str(), y.str());
    EXPECT_EQ(forward.name, "");
    ASSERT_EQ(forward.variants.size(), 1u);
    EXPECT_EQ(forward.variants[0].fleet, 8u);
    EXPECT_EQ(forward.variants[0].relaunchMs.samples, 8u);
}

TEST(ReportMerger, SingleShardMergeEqualsFinalize)
{
    PartialReport solo;
    solo.variants = {samplePartial(PercentileMode::Exact, 0, 8, 9)};
    driver::SweepResult merged = mergePartials({solo});
    std::ostringstream x, y;
    merged.variants.at(0).writeJson(x);
    finalizeFleet(solo.variants[0]).writeJson(y);
    EXPECT_EQ(x.str(), y.str());
}

TEST(ReportMerger, DiagnosesBadShardSets)
{
    PartialReport a, b, dup;
    a.shard = {1, 2};
    a.variants = {samplePartial(PercentileMode::Exact, 0, 4, 5)};
    b.shard = {2, 2};
    b.variants = {samplePartial(PercentileMode::Exact, 4, 8, 5)};
    dup = a;

    EXPECT_THROW(mergePartials({}), ReportError);
    EXPECT_THROW(mergePartials({a}), ReportError);         // missing 2/2
    EXPECT_THROW(mergePartials({a, dup}), ReportError);    // duplicate
    PartialReport wrong_seed = b;
    wrong_seed.variants[0].seed ^= 1;
    EXPECT_THROW(mergePartials({a, wrong_seed}), ReportError);
    PartialReport wrong_range = b;
    wrong_range.variants[0].sessionsBegin = 3;
    EXPECT_THROW(mergePartials({a, wrong_range}), ReportError);
    PartialReport wrong_mode = b;
    wrong_mode.variants = {samplePartial(PercentileMode::Sketch, 4, 8, 5)};
    EXPECT_THROW(mergePartials({a, wrong_mode}), ReportError);
    // Fleet sizes whose total wraps are refused, not wrapped.
    PartialReport huge = b;
    huge.variants.push_back(b.variants[0]);
    huge.variants[0].fleet = ~std::size_t{0};
    EXPECT_THROW(huge.plannedRanges(), ReportError);
}

TEST(PartialReport, RejectsCorruptSketchState)
{
    PartialReport rep;
    rep.variants = {samplePartial(PercentileMode::Sketch, 0, 4, 3)};
    std::string text = partialJson(rep);
    // Empty the first sketch's levels while leaving its count: the
    // weight invariant (levels weigh exactly `count`) must catch it
    // with exit-2 currency, never a crash at percentile time.
    auto pos = text.find("\"levels\": [");
    ASSERT_NE(pos, std::string::npos);
    auto open = text.find("[", pos);
    std::size_t depth = 0, end = open;
    do {
        if (text[end] == '[')
            ++depth;
        else if (text[end] == ']')
            --depth;
        ++end;
    } while (depth > 0);
    std::string gutted =
        text.substr(0, open + 1) + text.substr(end - 1);
    EXPECT_THROW(PartialReport::parseText(gutted), ReportError);
}

TEST(ReportMerger, SweepShardsMustShareOneRunIdentity)
{
    // Two variants of 8 sessions on 2 shards: shard 1 runs variant 0,
    // shard 2 variant 1, and each carries an empty slice of the other.
    auto shard = [](std::size_t index, std::uint64_t hash,
                    const std::string &name) {
        PartialReport p;
        p.shard = {index, 2};
        p.sweepName = name;
        p.runHash = hash;
        std::size_t cut = index == 1 ? 0 : 8;
        p.variants = {
            samplePartial(PercentileMode::Exact, cut, 8, index),
            samplePartial(PercentileMode::Exact, 0, cut, index)};
        return p;
    };
    // Same spec + same --fleet merges fine...
    EXPECT_EQ(mergePartials({shard(1, 7, "s"), shard(2, 7, "s")})
                  .variants.size(),
              2u);
    // ...but shards of different specs or different --fleet values
    // must be refused, not silently mixed: a sweep's, and a fleet's,
    // whose shards differ in nothing else.
    EXPECT_THROW(mergePartials({shard(1, 7, "s"), shard(2, 8, "s")}),
                 ReportError);
    PartialReport a, b;
    a.shard = {1, 2};
    a.runHash = 1;
    a.variants = {samplePartial(PercentileMode::Exact, 0, 4, 5)};
    b.shard = {2, 2};
    b.runHash = 2;
    b.variants = {samplePartial(PercentileMode::Exact, 4, 8, 5)};
    EXPECT_THROW(mergePartials({a, b}), ReportError);
}

TEST(ReportMerger, SweepNeedsEveryVariantExactlyOnce)
{
    // Three variants of 8 sessions on 2 shards: 24 sessions, 12 each,
    // so variant 1 is split between the shards.
    PartialReport a, b;
    a.sweepName = b.sweepName = "s";
    a.shard = {1, 2};
    b.shard = {2, 2};
    a.variants = {samplePartial(PercentileMode::Exact, 0, 8, 0),
                  samplePartial(PercentileMode::Exact, 0, 4, 1),
                  samplePartial(PercentileMode::Exact, 0, 0, 2)};
    b.variants = {samplePartial(PercentileMode::Exact, 8, 8, 0),
                  samplePartial(PercentileMode::Exact, 4, 8, 1),
                  samplePartial(PercentileMode::Exact, 0, 8, 2)};

    driver::SweepResult merged = mergePartials({b, a});
    ASSERT_EQ(merged.variants.size(), 3u);
    EXPECT_EQ(merged.name, "s");
    EXPECT_EQ(merged.variants[1].relaunchMs.samples, 8u);

    PartialReport missing = b;
    missing.variants.pop_back();
    EXPECT_THROW(mergePartials({a, missing}), ReportError);
    PartialReport incomplete = b;
    incomplete.variants[2].sessionsEnd = 4;
    EXPECT_THROW(mergePartials({a, incomplete}), ReportError);
    // A variant run whole on one shard is not its slice of the plan.
    PartialReport whole = a;
    whole.variants[1] = samplePartial(PercentileMode::Exact, 0, 8, 1);
    EXPECT_THROW(mergePartials({whole, b}), ReportError);
}

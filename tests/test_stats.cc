/** @file Unit tests for counters, distributions and sketches. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/stats.hh"

using namespace ariadne;

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, PercentilesOnKnownDistribution)
{
    Distribution d;
    for (int i = 100; i >= 1; --i) // reverse order: sorting is lazy
        d.sample(static_cast<double>(i));
    EXPECT_EQ(d.samples(), 100u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    // Nearest rank: ceil(p * n)-th smallest.
    EXPECT_DOUBLE_EQ(d.percentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.90), 90.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(-3.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(7.0), 100.0);
    EXPECT_DOUBLE_EQ(
        d.percentile(std::numeric_limits<double>::quiet_NaN()), 1.0);
}

TEST(Distribution, SingleSampleAndEmpty)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    d.sample(7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 7.0);
}

TEST(Distribution, SamplingAfterPercentileQueryStillWorks)
{
    Distribution d;
    d.sample(3.0);
    d.sample(1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 3.0);
    d.sample(2.0); // invalidates the lazily sorted order
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 2.0);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
}

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
    Distribution d;
    for (int i = 0; i < 63; ++i) {
        sk.sample(static_cast<double>((i * 37) % 63));
        d.sample(static_cast<double>((i * 37) % 63));
    }
    EXPECT_EQ(sk.rankErrorBound(), 0u);
    for (double p : {0.0, 0.25, 0.5, 0.9, 1.0})
        EXPECT_DOUBLE_EQ(sk.percentile(p), d.percentile(p));
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

/** @file End-to-end shard/merge determinism: merged shard reports
 * must reproduce the unsharded report — byte-identically in exact
 * percentile mode — through the real serialize/parse/merge pipeline,
 * and sketch mode must bound memory and rank error. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "driver/fleet_runner.hh"
#include "report/report_merger.hh"

using namespace ariadne;
using namespace ariadne::driver;
using namespace ariadne::report;

namespace
{

/** Busy-enough fleet scenario (mirrors test_fleet_runner's). */
ScenarioSpec
fleetSpec(int switches = 6)
{
    return ScenarioSpec::parseString(std::string(R"(
name = shard-fleet
scheme = ariadne
scheme.config = EHL-1K-2K-16K
scale = 0.0625
seed = 11
fleet = 8
event = warmup
event = repeat )") + std::to_string(switches) + R"(
event =   switch_next 200ms 100ms
event = end
)");
}

/** A fleet as the shard pipeline runs it: a nameless sweep of one
 * variant. */
SweepSpec
asRun(ScenarioSpec spec)
{
    return SweepSpec{"", {std::move(spec)}};
}

SweepSpec
smallSweep()
{
    return SweepSpec::parseString(R"(
sweep = shard-sweep
scale = 0.0625
seed = 11
fleet = 2
event = warmup
event = repeat 3
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

std::string
jsonOf(const FleetResult &r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

std::string
jsonOf(const SweepResult &r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

/** Serialize + reparse a partial — the exact artifact a distributed
 * worker would ship — so the test exercises the real pipeline. */
PartialReport
throughDisk(const PartialReport &p)
{
    std::ostringstream os;
    p.writeJson(os);
    return PartialReport::parseText(os.str());
}

/** Run every shard of the fleet through disk and merge them. */
std::string
mergedFleetJson(std::size_t shards, std::size_t fleet, unsigned threads)
{
    std::vector<PartialReport> partials;
    for (std::size_t i = 1; i <= shards; ++i)
        partials.push_back(throughDisk(FleetRunner::runShard(
            asRun(fleetSpec()), ShardPlan{i, shards}, fleet, threads)));
    SweepResult merged = mergePartials(std::move(partials));
    EXPECT_EQ(merged.name, "");
    EXPECT_EQ(merged.variants.size(), 1u);
    return jsonOf(merged.variants.at(0));
}

/** Sessions shard @p p ran, over all variants. */
std::size_t
sessionsRun(const PartialReport &p)
{
    std::size_t ran = 0;
    for (const FleetPartial &v : p.variants)
        ran += v.sessionsEnd - v.sessionsBegin;
    return ran;
}

} // namespace

TEST(ShardMerge, MergedFleetShardsAreByteIdenticalToUnsharded)
{
    FleetRunner runner(fleetSpec());
    std::string unsharded = jsonOf(runner.run(8, 2));
    // 2, 4 and 8 shards, with varying worker counts per shard.
    EXPECT_EQ(mergedFleetJson(2, 8, 1), unsharded);
    EXPECT_EQ(mergedFleetJson(4, 8, 3), unsharded);
    EXPECT_EQ(mergedFleetJson(8, 8, 2), unsharded);
}

TEST(ShardMerge, MergeOrderCannotChangeTheResult)
{
    std::vector<PartialReport> partials;
    for (std::size_t i = 1; i <= 3; ++i)
        partials.push_back(throughDisk(FleetRunner::runShard(
            asRun(fleetSpec()), ShardPlan{i, 3}, 6, 2)));
    std::string sorted =
        jsonOf(mergePartials({partials[0], partials[1], partials[2]}));
    std::string shuffled =
        jsonOf(mergePartials({partials[2], partials[0], partials[1]}));
    EXPECT_EQ(sorted, shuffled);
}

TEST(ShardMerge, ShardsNeverRetainMoreThanTheirShare)
{
    PartialReport p =
        FleetRunner::runShard(asRun(fleetSpec()), ShardPlan{2, 4}, 8, 1);
    ASSERT_EQ(p.variants.size(), 1u);
    EXPECT_EQ(p.variants[0].sessionsBegin, 2u);
    EXPECT_EQ(p.variants[0].sessionsEnd, 4u);
    // Two sessions' worth of samples, not the whole fleet's.
    EXPECT_EQ(p.variants[0].relaunchMs.count(), 12u);
    // Tiny fleets leave some shards empty — still mergeable.
    PartialReport empty =
        FleetRunner::runShard(asRun(fleetSpec()), ShardPlan{3, 4}, 2, 1);
    EXPECT_EQ(empty.variants[0].sessionsBegin,
              empty.variants[0].sessionsEnd);
    EXPECT_EQ(empty.variants[0].relaunchMs.count(), 0u);
}

TEST(ShardMerge, TinyFleetShardsStillMergeExactly)
{
    FleetRunner runner(fleetSpec());
    EXPECT_EQ(mergedFleetJson(4, 2, 1), jsonOf(runner.run(2, 1)));
}

TEST(ShardMerge, MergedSweepShardsAreByteIdenticalToUnsharded)
{
    SweepSpec sweep = smallSweep();
    std::string unsharded =
        jsonOf(FleetRunner::runSweep(sweep, 0, 2));
    std::vector<PartialReport> partials;
    for (std::size_t i = 1; i <= 2; ++i)
        partials.push_back(throughDisk(FleetRunner::runShard(
            sweep, ShardPlan{i, 2}, 0, i == 1 ? 1 : 2)));
    // Six sessions, numbered variant by variant: shard 1 runs both of
    // zram's and ariadne's first, shard 2 the other three.
    EXPECT_EQ(sessionsRun(partials[0]), 3u);
    EXPECT_EQ(sessionsRun(partials[1]), 3u);
    EXPECT_EQ(jsonOf(mergePartials(std::move(partials))), unsharded);
}

TEST(ShardMerge, SweepWithFewerVariantsThanShardsSplitsSessionsEvenly)
{
    // Three variants of two sessions on four shards: T = 6, N = 4.
    SweepSpec sweep = smallSweep();
    std::vector<PartialReport> partials;
    std::size_t empty_slices = 0;
    for (std::size_t i = 1; i <= 4; ++i) {
        partials.push_back(throughDisk(
            FleetRunner::runShard(sweep, ShardPlan{i, 4}, 0, 1)));
        // Every shard runs floor(6/4) or ceil(6/4) sessions.
        std::size_t ran = sessionsRun(partials.back());
        EXPECT_TRUE(ran == 1 || ran == 2) << "shard " << i << ": " << ran;
        for (const FleetPartial &v : partials.back().variants)
            empty_slices += v.sessionsBegin == v.sessionsEnd;
    }
    EXPECT_GT(empty_slices, 0u);
    // zram's two sessions fall on shards 1 and 2.
    EXPECT_EQ(partials[0].variants[0].sessionsEnd, 1u);
    EXPECT_EQ(partials[1].variants[0].sessionsBegin, 1u);
    EXPECT_EQ(partials[1].variants[0].sessionsEnd, 2u);
    EXPECT_EQ(jsonOf(mergePartials(std::move(partials))),
              jsonOf(FleetRunner::runSweep(sweep, 0, 2)));
}

TEST(ShardMerge, FleetShardsOfDifferentProgramsAreRefused)
{
    // Same scenario name, scheme, seed and fleet; only the program
    // differs, so no report field tells the shards apart.
    PartialReport a = throughDisk(
        FleetRunner::runShard(asRun(fleetSpec()), ShardPlan{1, 2}, 2, 1));
    PartialReport b = throughDisk(
        FleetRunner::runShard(asRun(fleetSpec(5)), ShardPlan{2, 2}, 2, 1));
    EXPECT_EQ(a.variants[0].scenario, b.variants[0].scenario);
    EXPECT_THROW(mergePartials({a, b}), ReportError);
    // The same program merges.
    PartialReport c = throughDisk(
        FleetRunner::runShard(asRun(fleetSpec()), ShardPlan{2, 2}, 2, 1));
    EXPECT_EQ(mergePartials({a, c}).variants.size(), 1u);
}

TEST(ShardMerge, SketchModeBoundsMemoryAndRankError)
{
    ScenarioSpec exact_spec = fleetSpec();
    ScenarioSpec sketch_spec = fleetSpec();
    sketch_spec.percentiles = PercentileMode::Sketch;
    sketch_spec.sketchK = 32;

    FleetRunner exact_runner(exact_spec);
    FleetRunner sketch_runner(sketch_spec);
    FleetResult exact = exact_runner.run(6, 2);
    FleetResult sketched = sketch_runner.run(6, 2);

    // Identity metadata and exact moments agree; the JSON declares
    // the mode.
    EXPECT_EQ(sketched.percentiles, PercentileMode::Sketch);
    EXPECT_EQ(sketched.relaunchMs.samples, exact.relaunchMs.samples);
    EXPECT_EQ(sketched.relaunchMs.min, exact.relaunchMs.min);
    EXPECT_EQ(sketched.relaunchMs.max, exact.relaunchMs.max);
    EXPECT_NE(jsonOf(sketched).find("\"percentiles\": \"sketch\""),
              std::string::npos);

    // Sketch percentiles stay within the tracked rank bound of the
    // exact ones. With n samples, a rank window of ±bound around the
    // target can only move the reported value between order
    // statistics that far apart; compare against the exact
    // distribution's neighbouring percentiles.
    PartialReport part =
        FleetRunner::runShard(asRun(sketch_spec), ShardPlan{1, 1}, 6, 2);
    const MetricState &relaunch = part.variants[0].relaunchMs;
    auto n = static_cast<double>(relaunch.count());
    std::uint64_t bound = relaunch.sketch().rankErrorBound();
    double slack = static_cast<double>(bound) / n;
    double lo_p = std::max(0.0, 0.5 - slack);
    double hi_p = std::min(1.0, 0.5 + slack);
    // Exact order statistics around p50 from the exact run's shard.
    PartialReport exact_part =
        FleetRunner::runShard(asRun(exact_spec), ShardPlan{1, 1}, 6, 2);
    std::vector<double> sorted =
        exact_part.variants[0].relaunchMs.sampleValues();
    std::sort(sorted.begin(), sorted.end());
    auto nearest_rank = [&](double p) {
        auto rank = static_cast<std::size_t>(
            std::ceil(p * static_cast<double>(sorted.size())));
        return sorted[std::max<std::size_t>(rank, 1) - 1];
    };
    EXPECT_GE(sketched.relaunchMs.p50, nearest_rank(lo_p));
    EXPECT_LE(sketched.relaunchMs.p50, nearest_rank(hi_p));

    // Sharded sketch runs retain O(sketch) values, and their merge is
    // deterministic (same partials -> same bytes).
    EXPECT_LE(relaunch.retainedValues(), std::size_t{32} * 8);
    std::vector<PartialReport> partials;
    for (std::size_t i = 1; i <= 2; ++i)
        partials.push_back(throughDisk(FleetRunner::runShard(
            asRun(sketch_spec), ShardPlan{i, 2}, 6, 1)));
    std::string once = jsonOf(mergePartials(partials));
    std::string twice = jsonOf(mergePartials(partials));
    EXPECT_EQ(once, twice);
    // The merged report is the thread-invariant in-process one too:
    // sketch folding happens in session-index order either way.
    EXPECT_EQ(jsonOf(sketch_runner.run(6, 4)), jsonOf(sketched));
}

TEST(ShardMerge, SketchKeepsPartialReportsSmallAtScale)
{
    // A synthetic per-metric stress: fold far more samples than any
    // test fleet could, and check the partial's retained footprint
    // stays O(sketch), not O(sessions).
    FleetPartial p(PercentileMode::Sketch, 64);
    p.scale = 0.0625;
    p.fleet = 1;
    p.sessionsEnd = 1;
    driver::SessionResult s;
    s.relaunches.resize(200000);
    for (std::size_t i = 0; i < s.relaunches.size(); ++i)
        s.relaunches[i].fullScaleMs =
            static_cast<double>((i * 48271) % 99991);
    p.fold(s);
    EXPECT_EQ(p.relaunchMs.count(), 200000u);
    EXPECT_LE(p.relaunchMs.retainedValues(), 64u * 16u);

    FleetPartial exact(PercentileMode::Exact);
    exact.scale = 0.0625;
    exact.fleet = 1;
    exact.sessionsEnd = 1;
    exact.fold(s);
    EXPECT_EQ(exact.relaunchMs.retainedValues(), 200000u);
}

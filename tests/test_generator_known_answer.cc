/**
 * @file
 * Known-answer tests for AppInstance: the exact touch streams that
 * coldLaunch(), execute() and relaunch() emit, pinned as FNV-1a 64
 * hashes.
 *
 * The goldens see these streams only through the reports they drive,
 * and a fleet without reclaim (the synthetic population) reports few
 * numbers. These constants pin every event field and the RNG draw
 * sequence behind them. They are recorded once and never re-recorded:
 * a generator speed change must leave every stream as it is.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "driver/scenario_spec.hh"
#include "driver/workload_source.hh"
#include "workload/apps.hh"
#include "workload/generator.hh"

using namespace ariadne;

namespace
{

/** FNV-1a 64 over the little-endian bytes of @p v, continuing @p h. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Folds the stream's length, then every field of every event. */
std::uint64_t
fold(std::uint64_t h, const std::vector<TouchEvent> &events)
{
    h = fold(h, events.size());
    for (const TouchEvent &ev : events) {
        h = fold(h, ev.pfn);
        h = fold(h, ev.version);
        h = fold(h, static_cast<std::uint64_t>(ev.truth));
        h = fold(h, ev.newAllocation);
        h = fold(h, ev.write);
    }
    return h;
}

constexpr double scale = 0.0625;
constexpr int relaunches = 40;
constexpr Tick useNs = 2'000'000'000;

/** Hash of one app's cold launch, then 40 cycles of a 2 s execute
 * and a relaunch; also the event count. */
struct Answer
{
    std::uint64_t hash;
    std::uint64_t events;

    bool operator==(const Answer &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Answer &a)
{
    return os << "{0x" << std::hex << a.hash << "ull, " << std::dec
              << a.events << "}";
}

Answer
run(const AppProfile &profile, std::uint64_t seed)
{
    AppInstance inst(profile, scale, seed);
    Answer a{0xcbf29ce484222325ull, 0};
    auto add = [&](const std::vector<TouchEvent> &events) {
        a.hash = fold(a.hash, events);
        a.events += events.size();
    };
    add(inst.coldLaunch());
    for (int i = 0; i < relaunches; ++i) {
        add(inst.execute(useNs));
        add(inst.relaunch());
    }
    return a;
}

/** The first app of population session 0 (seed 42): a standard
 * profile with its footprint scaled by the user's multiplier. */
AppProfile
populationProfile()
{
    driver::ScenarioSpec spec = driver::ScenarioSpec::parseString(
        "workload = synthetic\n"
        "seed = 42\n"
        "population_apps_per_user = 5\n"
        "population_footprint_spread = 0.3\n");
    return driver::SyntheticPopulationSource(spec)
        .sessionProfiles(0)
        .front();
}

constexpr std::uint64_t seeds[] = {42, 7919};

/** Recorded answers: the ten standard apps in uid order, then the
 * population profile; one column per seed. */
constexpr Answer expected[][std::size(seeds)] = {
    {{0xa9c357913d40b3a8ull, 38765},
     {0x2063eed53bc665baull, 39095}},
    {{0xb9ed658c609c7199ull, 44973},
     {0x8181c6f14df7a04eull, 45094}},
    {{0x70f2d2265b72aaa0ull, 91352},
     {0x1b0fe4bd53a3650bull, 92506}},
    {{0x6ca1476fdac12c06ull, 50710},
     {0xc1c84929ecdb700cull, 50583}},
    {{0x4309fdf5bb06368ull, 34796},
     {0x4b3b8b0f27e87859ull, 34726}},
    {{0x6d247d28130543full, 55939},
     {0xdc47a3979158767aull, 55907}},
    {{0xb201f43f107e6597ull, 50301},
     {0x35384a5b6195f16dull, 50977}},
    {{0x76564b8041dd62c4ull, 46448},
     {0x5576180c3d51b0dfull, 46254}},
    {{0xca6ffb8b16c8af8bull, 28167},
     {0xb2b4adc0b4627d6ull, 28462}},
    {{0x180cec4ad44db1f3ull, 44053},
     {0xc02696a20dea8a6cull, 44423}},
    {{0xd2588a9255f3ed8cull, 33210},
     {0xa5c9170b1d4b9c6full, 33315}},
};

} // namespace

TEST(AppInstanceKnownAnswer, EventStreamsMatchRecordedHashes)
{
    std::vector<AppProfile> profiles = standardApps();
    profiles.push_back(populationProfile());
    // The population profile is a resized standard app, not a copy.
    ASSERT_NE(profiles.back().anonBytes10s,
              standardApps()[profiles.back().uid].anonBytes10s);
    ASSERT_EQ(std::size(expected), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (std::size_t s = 0; s < std::size(seeds); ++s) {
            EXPECT_EQ(run(profiles[i], seeds[s]), expected[i][s])
                << profiles[i].name << " (profile " << i << "), seed "
                << seeds[s];
        }
    }
}

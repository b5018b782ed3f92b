/** @file Unit tests for the telemetry counter/duration registry. */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "telemetry/telemetry.hh"

using namespace ariadne;
using telemetry::Counter;
using telemetry::DurationProbe;
using telemetry::Registry;
using telemetry::ScopedTimer;

namespace
{

/** Every test starts from zeroed shards with probes disabled. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::setEnabled(true);
        Registry::global().reset();
    }

    void
    TearDown() override
    {
        telemetry::setEnabled(false);
        Registry::global().reset();
    }
};

} // namespace

TEST_F(TelemetryTest, CounterAccumulates)
{
    Counter c("test.basic");
    c.add();
    c.add(41);
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.counter("test.basic"), 42u);
}

TEST_F(TelemetryTest, DisabledCounterRecordsNothing)
{
    Counter c("test.disabled");
    telemetry::setEnabled(false);
    c.add(100);
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.counter("test.disabled"), 0u);
}

TEST_F(TelemetryTest, InterningIsIdempotent)
{
    std::size_t a = Registry::global().counterSlot("test.intern");
    std::size_t b = Registry::global().counterSlot("test.intern");
    EXPECT_EQ(a, b);
    // Two Counter objects with the same name share a slot.
    Counter c1("test.intern2");
    Counter c2("test.intern2");
    c1.add();
    c2.add();
    EXPECT_EQ(Registry::global().snapshot().counter("test.intern2"),
              2u);
}

TEST_F(TelemetryTest, CounterAndDurationNamespacesAreSeparate)
{
    Counter c("test.both");
    DurationProbe d("test.both");
    c.add(7);
    d.record(100);
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.counter("test.both"), 7u);
    EXPECT_EQ(snap.duration("test.both").count, 1u);
    EXPECT_EQ(snap.duration("test.both").totalNs, 100u);
}

TEST_F(TelemetryTest, UnknownNamesReadAsZero)
{
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.counter("test.never_registered"), 0u);
    EXPECT_EQ(snap.duration("test.never_registered").count, 0u);
}

TEST_F(TelemetryTest, DurationAccumulatesTotalAndCount)
{
    DurationProbe d("test.dur");
    d.record(10);
    d.record(20);
    d.record(30);
    auto v = Registry::global().snapshot().duration("test.dur");
    EXPECT_EQ(v.count, 3u);
    EXPECT_EQ(v.totalNs, 60u);
    EXPECT_DOUBLE_EQ(v.meanNs(), 20.0);
}

TEST_F(TelemetryTest, ScopedTimerRecordsRealTime)
{
    DurationProbe d("test.timer");
    {
        ScopedTimer t(d);
        // Burn a little host time so the span is non-zero.
        volatile unsigned sink = 0;
        for (unsigned i = 0; i < 10000; ++i)
            sink = sink + i;
    }
    auto v = Registry::global().snapshot().duration("test.timer");
    EXPECT_EQ(v.count, 1u);
    EXPECT_GT(v.totalNs, 0u);
}

TEST_F(TelemetryTest, NestedTimersRecordIndependently)
{
    DurationProbe outer("test.outer");
    DurationProbe inner("test.inner");
    {
        ScopedTimer to(outer);
        {
            ScopedTimer ti(inner);
        }
        {
            ScopedTimer ti(inner);
        }
    }
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.duration("test.outer").count, 1u);
    EXPECT_EQ(snap.duration("test.inner").count, 2u);
    // The outer span covers both inner spans.
    EXPECT_GE(snap.duration("test.outer").totalNs,
              snap.duration("test.inner").totalNs);
}

TEST_F(TelemetryTest, TimerCapturesEnabledAtConstruction)
{
    DurationProbe d("test.capture");
    telemetry::setEnabled(false);
    {
        ScopedTimer t(d);
        // Enabling mid-span must not make this span record.
        telemetry::setEnabled(true);
    }
    EXPECT_EQ(Registry::global().snapshot().duration("test.capture")
                  .count,
              0u);
}

TEST_F(TelemetryTest, MergeOnFinalizeSumsThreadShards)
{
    Counter c("test.sharded");
    constexpr int threads = 8;
    constexpr std::uint64_t per_thread = 1000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::uint64_t i = 0; i < per_thread; ++i)
                c.add();
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(Registry::global().snapshot().counter("test.sharded"),
              threads * per_thread);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName)
{
    Counter z("test.z");
    Counter a("test.a");
    z.add();
    a.add();
    auto snap = Registry::global().snapshot();
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

TEST_F(TelemetryTest, ResetZeroesButKeepsRegistrations)
{
    Counter c("test.reset");
    c.add(9);
    Registry::global().reset();
    EXPECT_EQ(Registry::global().snapshot().counter("test.reset"), 0u);
    // The probe's slot survives the reset.
    c.add(4);
    EXPECT_EQ(Registry::global().snapshot().counter("test.reset"), 4u);
}

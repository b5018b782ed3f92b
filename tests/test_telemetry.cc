/** @file Unit tests for the telemetry counter/duration registry and
 * its host-time spans. */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "telemetry/telemetry.hh"

using namespace ariadne;
using telemetry::Counter;
using telemetry::Registry;
using telemetry::ScopedSpan;
using telemetry::SpanProbe;

namespace
{

/** Burn a little host time so a span is non-zero. */
void
spin()
{
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 10000; ++i)
        sink = sink + i;
}

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
    Registry &r = Registry::global();
    c.add(7);
    r.recordDuration(r.durationSlot("test.both"), 100, 60);
    auto snap = r.snapshot();
    EXPECT_EQ(snap.counter("test.both"), 7u);
    EXPECT_EQ(snap.duration("test.both").count, 1u);
    EXPECT_EQ(snap.duration("test.both").totalNs, 100u);
    EXPECT_EQ(snap.duration("test.both").selfNs, 60u);
}

TEST_F(TelemetryTest, UnknownNamesReadAsZero)
{
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.counter("test.never_registered"), 0u);
    EXPECT_EQ(snap.duration("test.never_registered").count, 0u);
    EXPECT_EQ(snap.duration("test.never_registered").selfNs, 0u);
}

TEST_F(TelemetryTest, DurationAccumulatesTotalAndCount)
{
    Registry &r = Registry::global();
    std::size_t d = r.durationSlot("test.dur");
    r.recordDuration(d, 10, 10);
    r.recordDuration(d, 20, 5);
    r.recordDuration(d, 30, 0);
    auto v = r.snapshot().duration("test.dur");
    EXPECT_EQ(v.count, 3u);
    EXPECT_EQ(v.totalNs, 60u);
    EXPECT_EQ(v.selfNs, 15u);
    EXPECT_DOUBLE_EQ(v.meanNs(), 20.0);
}

TEST_F(TelemetryTest, SpanRecordsRealTime)
{
    SpanProbe d("test.timer");
    {
        ScopedSpan s(d);
        spin();
    }
    auto v = Registry::global().snapshot().duration("test.timer");
    EXPECT_EQ(v.count, 1u);
    EXPECT_GT(v.totalNs, 0u);
    // A span without children spends all of its time in itself.
    EXPECT_EQ(v.selfNs, v.totalNs);
}

TEST_F(TelemetryTest, NestedTimersRecordIndependently)
{
    SpanProbe outer("test.outer");
    SpanProbe inner("test.inner");
    {
        ScopedSpan so(outer);
        {
            ScopedSpan si(inner);
        }
        {
            ScopedSpan si(inner);
        }
    }
    auto snap = Registry::global().snapshot();
    EXPECT_EQ(snap.duration("test.outer").count, 1u);
    EXPECT_EQ(snap.duration("test.inner").count, 2u);
    // The outer span covers both inner spans.
    EXPECT_GE(snap.duration("test.outer").totalNs,
              snap.duration("test.inner").totalNs);
}

TEST_F(TelemetryTest, ParentSelfIsInclusiveMinusChildren)
{
    SpanProbe root("test.self_root");
    SpanProbe child("test.self_child");
    SpanProbe leaf("test.self_leaf");
    {
        ScopedSpan sr(root);
        spin();
        {
            ScopedSpan sc(child);
            spin();
            {
                ScopedSpan sl(leaf);
                spin();
            }
        }
        {
            ScopedSpan sc(child);
            spin();
        }
        spin();
    }
    auto snap = Registry::global().snapshot();
    auto r = snap.duration("test.self_root");
    auto c = snap.duration("test.self_child");
    auto l = snap.duration("test.self_leaf");
    ASSERT_EQ(c.count, 2u);
    // Exact: each parent's children are subtracted from the same
    // clock readings that make up their inclusive times.
    EXPECT_EQ(r.selfNs, r.totalNs - c.totalNs);
    EXPECT_EQ(c.selfNs, c.totalNs - l.totalNs);
    EXPECT_EQ(l.selfNs, l.totalNs);
    EXPECT_EQ(r.selfNs + c.selfNs + l.selfNs, r.totalNs);
    EXPECT_GT(r.selfNs, 0u);
}

TEST_F(TelemetryTest, TimerCapturesEnabledAtConstruction)
{
    SpanProbe d("test.capture");
    telemetry::setEnabled(false);
    {
        ScopedSpan s(d);
        // Enabling mid-span must not make this span record.
        telemetry::setEnabled(true);
    }
    EXPECT_EQ(Registry::global().snapshot().duration("test.capture")
                  .count,
              0u);
}

TEST_F(TelemetryTest, DisabledSpanRecordsNothingAndIsNeverAParent)
{
    SpanProbe root("test.dis_root");
    SpanProbe off("test.dis_off");
    SpanProbe child("test.dis_child");
    {
        ScopedSpan sr(root);
        telemetry::setEnabled(false);
        ScopedSpan so(off);
        telemetry::setEnabled(true);
        {
            ScopedSpan sc(child);
            spin();
        }
    }
    auto snap = Registry::global().snapshot();
    auto r = snap.duration("test.dis_root");
    auto c = snap.duration("test.dis_child");
    EXPECT_EQ(snap.duration("test.dis_off").count, 0u);
    EXPECT_EQ(snap.duration("test.dis_off").totalNs, 0u);
    // The child's time comes off the nearest recording ancestor.
    EXPECT_EQ(c.count, 1u);
    EXPECT_EQ(c.selfNs, c.totalNs);
    EXPECT_EQ(r.selfNs, r.totalNs - c.totalNs);
}

TEST_F(TelemetryTest, SpansOnTwoThreadsAreNeverParents)
{
    SpanProbe a("test.thread_a");
    SpanProbe b("test.thread_b");
    {
        ScopedSpan sa(a);
        // b opens and closes on another thread while a is open.
        std::thread other([&] {
            ScopedSpan sb(b);
            spin();
        });
        other.join();
    }
    std::thread other([&] {
        ScopedSpan sb(b);
        // a opens on this thread while b is open on the other.
        std::thread inner([&] {
            ScopedSpan sa(a);
            spin();
        });
        inner.join();
    });
    other.join();
    auto snap = Registry::global().snapshot();
    auto va = snap.duration("test.thread_a");
    auto vb = snap.duration("test.thread_b");
    ASSERT_EQ(va.count, 2u);
    ASSERT_EQ(vb.count, 2u);
    EXPECT_EQ(va.selfNs, va.totalNs);
    EXPECT_EQ(vb.selfNs, vb.totalNs);
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

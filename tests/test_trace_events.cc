/** @file Unit tests for the Chrome trace-event timeline log. */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "report/json_reader.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_log.hh"

using namespace ariadne;
using telemetry::ScopedSpan;
using telemetry::SpanProbe;
using telemetry::TraceLog;

namespace
{

class TraceLogTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::setTraceEnabled(true);
        TraceLog::global().clear();
    }

    void
    TearDown() override
    {
        telemetry::setTraceEnabled(false);
        TraceLog::global().clear();
    }
};

std::string
exported()
{
    std::ostringstream os;
    TraceLog::global().writeChromeTrace(os);
    return os.str();
}

} // namespace

TEST_F(TraceLogTest, RecordsCompleteSpans)
{
    SpanProbe p("test.unit_span", "unit_span");
    {
        ScopedSpan span(p);
    }
    auto events = TraceLog::global().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "unit_span");
    EXPECT_GT(events[0].tid, 0u);
}

TEST_F(TraceLogTest, DisabledSpanRecordsNothing)
{
    SpanProbe p("test.invisible", "invisible");
    telemetry::setTraceEnabled(false);
    {
        ScopedSpan span(p);
    }
    EXPECT_TRUE(TraceLog::global().events().empty());
}

TEST_F(TraceLogTest, SpanCapturesEnabledAtConstruction)
{
    SpanProbe p("test.race", "race");
    telemetry::setTraceEnabled(false);
    {
        ScopedSpan span(p);
        telemetry::setTraceEnabled(true);
    }
    EXPECT_TRUE(TraceLog::global().events().empty());
}

TEST_F(TraceLogTest, OnlyProbesThatNameAnEventEmitOne)
{
    SpanProbe unnamed("test.unnamed");
    SpanProbe named("test.named", "named", "uid");
    {
        ScopedSpan span(unnamed, 5);
    }
    EXPECT_TRUE(TraceLog::global().events().empty());
    std::uint64_t before = TraceLog::global().nowNs();
    {
        ScopedSpan span(named, 3);
    }
    std::uint64_t after = TraceLog::global().nowNs();
    auto events = TraceLog::global().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_EQ(events[0].name, "named");
    EXPECT_EQ(events[0].argKey, "uid");
    EXPECT_EQ(events[0].argValue, 3u);
    // The event sits on nowNs()'s axis.
    EXPECT_LE(before, events[0].tsNs);
    EXPECT_LE(events[0].tsNs + events[0].durNs, after);
}

TEST_F(TraceLogTest, EventsSortedByStartAcrossThreads)
{
    SpanProbe a("test.thread_a", "thread_a");
    SpanProbe b("test.thread_b", "thread_b");
    std::thread other([&] {
        ScopedSpan span(b);
    });
    other.join();
    {
        ScopedSpan span(a);
    }
    auto events = TraceLog::global().events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_LE(events[0].tsNs, events[1].tsNs);
    // Two distinct threads get distinct tids.
    EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceLogTest, ExportIsWellFormedChromeTraceJson)
{
    TraceLog::global().nameThisThread("main");
    SpanProbe outer("test.outer", "outer", "index");
    SpanProbe inner("test.inner", "inner");
    {
        ScopedSpan so(outer, 7);
        ScopedSpan si(inner);
    }
    report::JsonValue doc = report::JsonValue::parseText(exported());
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");

    const auto &events = doc.at("traceEvents").asArray();
    // One thread_name metadata event + two spans.
    ASSERT_EQ(events.size(), 3u);

    const auto &meta = events[0];
    EXPECT_EQ(meta.at("ph").asString(), "M");
    EXPECT_EQ(meta.at("name").asString(), "thread_name");
    EXPECT_EQ(meta.at("args").at("name").asString(), "main");

    bool saw_outer = false, saw_inner = false;
    for (std::size_t i = 1; i < events.size(); ++i) {
        const auto &e = events[i];
        EXPECT_EQ(e.at("ph").asString(), "X");
        EXPECT_GE(e.at("dur").asDouble(), 0.0);
        EXPECT_GE(e.at("ts").asDouble(), 0.0);
        EXPECT_EQ(e.at("pid").asU64(), 1u);
        if (e.at("name").asString() == "outer") {
            saw_outer = true;
            EXPECT_EQ(e.at("args").at("index").asU64(), 7u);
        }
        if (e.at("name").asString() == "inner")
            saw_inner = true;
    }
    EXPECT_TRUE(saw_outer);
    EXPECT_TRUE(saw_inner);
}

TEST_F(TraceLogTest, EmptyLogExportsValidDocument)
{
    report::JsonValue doc = report::JsonValue::parseText(exported());
    EXPECT_TRUE(doc.at("traceEvents").asArray().empty());
}

TEST_F(TraceLogTest, ClearDropsEventsAndNames)
{
    TraceLog::global().nameThisThread("gone");
    SpanProbe p("test.gone_too", "gone_too");
    {
        ScopedSpan span(p);
    }
    TraceLog::global().clear();
    EXPECT_TRUE(TraceLog::global().events().empty());
    EXPECT_TRUE(TraceLog::global().threadNames().empty());
}

TEST_F(TraceLogTest, NestedSpanContainedInOuterInterval)
{
    SpanProbe outer_probe("test.contain_outer", "contain_outer");
    SpanProbe inner_probe("test.contain_inner", "contain_inner");
    {
        ScopedSpan outer(outer_probe);
        {
            ScopedSpan inner(inner_probe);
            volatile unsigned sink = 0;
            for (unsigned i = 0; i < 1000; ++i)
                sink = sink + i;
        }
    }
    auto events = TraceLog::global().events();
    ASSERT_EQ(events.size(), 2u);
    // events() sorts by start: outer starts first.
    const auto &outer = events[0];
    const auto &inner = events[1];
    EXPECT_EQ(outer.name, "contain_outer");
    EXPECT_EQ(inner.name, "contain_inner");
    EXPECT_LE(outer.tsNs, inner.tsNs);
    EXPECT_GE(outer.tsNs + outer.durNs, inner.tsNs + inner.durNs);
}

#include "telemetry/bench_report.hh"

#include <ostream>

#include "driver/json_writer.hh"
#include "telemetry/build_info.hh"
#include "telemetry/journey.hh"
#include "telemetry/timeline.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ariadne::telemetry
{

namespace
{

void
writeMeta(driver::JsonWriter &w, const RunMeta &meta)
{
    w.key("meta");
    w.beginObject();
    w.field("gitSha", meta.gitSha);
    w.field("buildType", meta.buildType);
    w.field("threads", meta.threads);
    w.field("scenario", meta.scenario);
    w.field("scenarioHash", meta.scenarioHash);
    w.endObject();
}

void
writeSnapshot(driver::JsonWriter &w,
              const Registry::Snapshot &snapshot)
{
    w.key("counters");
    w.beginObject();
    for (const auto &c : snapshot.counters)
        w.field(c.name, c.value);
    w.endObject();

    w.key("durations");
    w.beginObject();
    for (const auto &d : snapshot.durations) {
        w.key(d.name);
        w.beginObject();
        w.field("count", d.count);
        w.field("totalNs", d.totalNs);
        w.field("selfNs", d.selfNs);
        w.field("meanNs", d.meanNs());
        w.endObject();
    }
    w.endObject();

    w.key("gauges");
    w.beginObject();
    for (const auto &g : snapshot.gauges) {
        w.key(g.name);
        w.beginObject();
        w.field("count", g.count);
        w.field("sum", g.sum);
        w.field("min", g.min);
        w.field("max", g.max);
        w.field("mean", g.mean());
        w.endObject();
    }
    w.endObject();

    w.key("histograms");
    w.beginObject();
    for (const auto &h : snapshot.histograms) {
        w.key(h.name);
        w.beginObject();
        w.field("count", h.count());
        w.field("sum", h.sum);
        w.field("mean", h.mean());
        // Log2 buckets, zero tail trimmed: buckets[b] counts values
        // of bit width b (0, 1, 2-3, 4-7, ...).
        std::size_t used = h.buckets.size();
        while (used > 0 && h.buckets[used - 1] == 0)
            --used;
        w.key("buckets");
        w.beginArray();
        for (std::size_t b = 0; b < used; ++b)
            w.value(h.buckets[b]);
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

} // namespace

RunMeta
RunMeta::current()
{
    RunMeta meta;
    meta.gitSha = telemetry::gitSha();
    meta.buildType = telemetry::buildType();
    return meta;
}

void
BenchReport::writeJson(std::ostream &os) const
{
    driver::JsonWriter w(os);
    w.beginObject();
    w.field("ariadneBench", schemaVersion);
    w.field("bench", bench);
    writeMeta(w, meta);
    w.field("wallSeconds", wallSeconds);
    w.field("peakRssBytes", peakRssBytes);

    w.key("rates");
    w.beginObject();
    for (const auto &[name, value] : rates)
        w.field(name, value);
    w.endObject();

    w.key("totals");
    w.beginObject();
    for (const auto &[name, value] : totals)
        w.field(name, value);
    w.endObject();

    writeSnapshot(w, telemetry);
    w.endObject();
    os << "\n";
}

void
writeMetricsJson(std::ostream &os, const RunMeta &meta,
                 const Registry::Snapshot &snapshot)
{
    driver::JsonWriter w(os);
    w.beginObject();
    w.field("ariadneMetrics", std::uint64_t{1});
    writeMeta(w, meta);
    writeSnapshot(w, snapshot);
    w.endObject();
    os << "\n";
}

void
writeTimelineJson(std::ostream &os, const RunMeta &meta)
{
    const TimelineRecorder &rec = TimelineRecorder::global();
    std::vector<std::string> names = rec.seriesNames();
    std::vector<TimelineRecorder::Point> pts = rec.points();

    driver::JsonWriter w(os);
    w.beginObject();
    w.field("ariadneTimeline", std::uint64_t{1});
    writeMeta(w, meta);
    w.field("intervalMs", timelineIntervalMs);
    w.field("droppedPoints", rec.droppedPoints());
    w.key("series");
    w.beginObject();
    std::size_t i = 0;
    while (i < pts.size()) {
        std::uint32_t series = pts[i].series;
        w.key(names[series]);
        w.beginArray();
        for (; i < pts.size() && pts[i].series == series; ++i) {
            w.beginObject();
            w.field("session",
                    static_cast<std::uint64_t>(pts[i].session));
            w.field("tMs",
                    static_cast<double>(pts[i].tNs) / 1'000'000.0);
            w.field("v", pts[i].value);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

void
writeJourneysJson(std::ostream &os, const RunMeta &meta)
{
    const JourneyLog &log = JourneyLog::global();
    std::vector<JourneyLog::Event> evs = log.events();

    driver::JsonWriter w(os);
    w.beginObject();
    w.field("ariadneJourneys", std::uint64_t{1});
    writeMeta(w, meta);
    w.field("sampleEvery", journeySampleEvery);
    w.field("droppedEvents", log.droppedEvents());
    w.key("pages");
    w.beginArray();
    std::size_t i = 0;
    while (i < evs.size()) {
        const JourneyLog::Event &head = evs[i];
        w.beginObject();
        w.field("session", static_cast<std::uint64_t>(head.session));
        w.field("uid", static_cast<std::uint64_t>(head.uid));
        w.field("pfn", head.pfn);
        w.key("steps");
        w.beginArray();
        for (; i < evs.size() && evs[i].session == head.session &&
               evs[i].uid == head.uid && evs[i].pfn == head.pfn;
             ++i) {
            w.beginObject();
            w.field("tMs",
                    static_cast<double>(evs[i].tNs) / 1'000'000.0);
            w.field("step", journeyStepName(evs[i].step));
            if (evs[i].detail != 0)
                w.field("detail", evs[i].detail);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

std::uint64_t
currentPeakRssBytes() noexcept
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    // Linux reports ru_maxrss in KiB.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
    return 0;
#endif
}

} // namespace ariadne::telemetry

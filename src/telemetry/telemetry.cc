#include "telemetry/telemetry.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"
#include "telemetry/trace_log.hh"

namespace ariadne::telemetry
{

namespace detail
{
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_traceEnabled{false};
} // namespace detail

void
setEnabled(bool on) noexcept
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void
setTraceEnabled(bool on) noexcept
{
    detail::g_traceEnabled.store(on, std::memory_order_relaxed);
}

Registry::Registry() = default;

namespace
{

/** The innermost recording span open on this thread. */
thread_local ScopedSpan *t_innermost = nullptr;

std::size_t
slotWidth(Registry::Kind kind)
{
    switch (kind) {
    case Registry::Kind::Counter:
        return 1;
    case Registry::Kind::Duration:
        return 3;
    case Registry::Kind::Gauge:
        return 4;
    case Registry::Kind::Histogram:
        return Registry::histogramBuckets + 1;
    }
    return 1;
}

} // namespace

std::size_t
Registry::intern(const std::string &name, Kind kind)
{
    std::lock_guard<std::mutex> lk(mu);
    for (const Entry &e : entries) {
        if (e.name == name && e.kind == kind)
            return e.slot;
    }
    std::size_t width = slotWidth(kind);
    panicIf(nextSlot + width > maxSlots,
            "telemetry registry slot space exhausted (raise "
            "Registry::maxSlots)");
    std::size_t slot = nextSlot;
    nextSlot += width;
    entries.push_back(Entry{name, slot, kind});
    return slot;
}

std::size_t
Registry::counterSlot(const std::string &name)
{
    return intern(name, Kind::Counter);
}

std::size_t
Registry::durationSlot(const std::string &name)
{
    return intern(name, Kind::Duration);
}

std::size_t
Registry::gaugeSlot(const std::string &name)
{
    return intern(name, Kind::Gauge);
}

std::size_t
Registry::histogramSlot(const std::string &name)
{
    return intern(name, Kind::Histogram);
}

void
ScopedSpan::open() noexcept
{
    if (recording)
        parent = std::exchange(t_innermost, this);
    startNs = hostNowNs();
}

void
ScopedSpan::close() noexcept
{
    std::uint64_t end = hostNowNs(), ns = end - startNs;
    if (recording) {
        t_innermost = parent;
        if (parent)
            parent->childNs += ns;
        Registry::global().recordDuration(probe.base, ns, ns - childNs);
    }
    if (tracing)
        TraceLog::global().complete(probe.traceName, startNs, end,
                                    probe.argKey, argValue);
}

std::size_t
AppHistogram::internApp(std::uint32_t uid)
{
    std::size_t b = Registry::global().histogramSlot(
                        prefix + ".app" + std::to_string(uid)) +
                    1;
    perApp[uid].store(b, std::memory_order_release);
    return b;
}

Registry::Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lk(mu);
    std::vector<const Shard *> all;
    shards.forEach([&](const Shard &s) { all.push_back(&s); });
    auto slot_total = [&](std::size_t slot) {
        std::uint64_t total = 0;
        for (const Shard *shard : all)
            total +=
                shard->slots[slot].load(std::memory_order_relaxed);
        return total;
    };
    for (const Entry &e : entries) {
        switch (e.kind) {
        case Kind::Counter:
            snap.counters.push_back(
                CounterValue{e.name, slot_total(e.slot)});
            break;
        case Kind::Duration:
            snap.durations.push_back(DurationValue{
                e.name, slot_total(e.slot + 1), slot_total(e.slot),
                slot_total(e.slot + 2)});
            break;
        case Kind::Gauge: {
            // min/max are only meaningful in shards whose thread
            // actually recorded (count > 0), so widen per shard.
            GaugeValue g;
            g.name = e.name;
            for (const Shard *shard : all) {
                std::uint64_t n = shard->slots[e.slot].load(
                    std::memory_order_relaxed);
                if (n == 0)
                    continue;
                std::uint64_t lo = shard->slots[e.slot + 2].load(
                    std::memory_order_relaxed);
                std::uint64_t hi = shard->slots[e.slot + 3].load(
                    std::memory_order_relaxed);
                if (g.count == 0) {
                    g.min = lo;
                    g.max = hi;
                } else {
                    g.min = std::min(g.min, lo);
                    g.max = std::max(g.max, hi);
                }
                g.count += n;
                g.sum += shard->slots[e.slot + 1].load(
                    std::memory_order_relaxed);
            }
            snap.gauges.push_back(std::move(g));
            break;
        }
        case Kind::Histogram: {
            HistogramValue h;
            h.name = e.name;
            for (std::size_t b = 0; b < histogramBuckets; ++b)
                h.buckets[b] = slot_total(e.slot + b);
            h.sum = slot_total(e.slot + histogramBuckets);
            snap.histograms.push_back(std::move(h));
            break;
        }
        }
    }
    auto by_name = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), by_name);
    std::sort(snap.durations.begin(), snap.durations.end(), by_name);
    std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              by_name);
    return snap;
}

void
Registry::reset() noexcept
{
    shards.forEach([](Shard &s) {
        for (std::atomic<std::uint64_t> &slot : s.slots)
            slot.store(0, std::memory_order_relaxed);
    });
}

std::uint64_t
Registry::Snapshot::counter(const std::string &name) const noexcept
{
    for (const CounterValue &c : counters)
        if (c.name == name)
            return c.value;
    return 0;
}

Registry::DurationValue
Registry::Snapshot::duration(const std::string &name) const noexcept
{
    for (const DurationValue &d : durations)
        if (d.name == name)
            return d;
    return DurationValue{name, 0, 0, 0};
}

Registry::GaugeValue
Registry::Snapshot::gauge(const std::string &name) const noexcept
{
    for (const GaugeValue &g : gauges)
        if (g.name == name)
            return g;
    GaugeValue g;
    g.name = name;
    return g;
}

Registry::HistogramValue
Registry::Snapshot::histogram(const std::string &name) const noexcept
{
    for (const HistogramValue &h : histograms)
        if (h.name == name)
            return h;
    HistogramValue h;
    h.name = name;
    return h;
}

} // namespace ariadne::telemetry

#include "telemetry/trace_log.hh"

#include <algorithm>
#include <ostream>

#include "driver/json_writer.hh"

namespace ariadne::telemetry
{

TraceLog &
TraceLog::global()
{
    static TraceLog instance;
    return instance;
}

TraceLog::TraceLog() : originNs(hostNowNs()) {}

std::uint64_t
TraceLog::nowNs() const noexcept
{
    return hostNowNs() - originNs;
}

void
TraceLog::complete(const char *name, std::uint64_t start_ns,
                   std::uint64_t end_ns, const char *arg_key,
                   std::uint64_t arg_value)
{
    TraceEvent ev;
    ev.name = name;
    ev.tsNs = start_ns > originNs ? start_ns - originNs : 0;
    ev.durNs = end_ns > start_ns ? end_ns - start_ns : 0;
    ev.argKey = arg_key ? arg_key : "";
    ev.argValue = arg_value;
    // The buffer belongs to this thread alone; readers (events/export)
    // run after the traced work joined. events() fills in the tid.
    buffers.local().events.push_back(std::move(ev));
}

void
TraceLog::instant(std::string name, std::uint64_t ts_ns,
                  std::uint32_t tid, const char *arg_key,
                  std::uint64_t arg_value)
{
    TraceEvent ev;
    ev.name = std::move(name);
    ev.tsNs = ts_ns;
    ev.tid = tid;
    ev.phase = 'i';
    if (arg_key) {
        ev.argKey = arg_key;
        ev.argValue = arg_value;
    }
    buffers.local().events.push_back(std::move(ev));
}

void
TraceLog::nameSyntheticThread(std::uint32_t tid,
                              const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu);
    for (auto &[t, n] : syntheticNames)
        if (t == tid) {
            n = name;
            return;
        }
    syntheticNames.emplace_back(tid, name);
}

void
TraceLog::nameThisThread(const std::string &name)
{
    if (!traceEnabled())
        return;
    buffers.local().threadName = name;
}

std::vector<TraceEvent>
TraceLog::events() const
{
    std::vector<TraceEvent> all;
    std::uint32_t tid = 0;
    buffers.forEach([&](const Buffer &b) {
        ++tid;
        for (const TraceEvent &ev : b.events) {
            all.push_back(ev);
            if (ev.phase == 'X')
                all.back().tid = tid;
        }
    });
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tsNs < b.tsNs;
                     });
    return all;
}

std::vector<std::pair<std::uint32_t, std::string>>
TraceLog::threadNames() const
{
    std::vector<std::pair<std::uint32_t, std::string>> names;
    std::uint32_t tid = 0;
    buffers.forEach([&](const Buffer &b) {
        ++tid;
        if (!b.threadName.empty())
            names.emplace_back(tid, b.threadName);
    });
    std::lock_guard<std::mutex> lk(mu);
    names.insert(names.end(), syntheticNames.begin(),
                 syntheticNames.end());
    return names;
}

void
TraceLog::writeChromeTrace(std::ostream &os) const
{
    driver::JsonWriter w(os);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.beginArray();
    for (const auto &[tid, name] : threadNames()) {
        w.beginObject();
        w.field("ph", "M");
        w.field("name", "thread_name");
        w.field("pid", 1);
        w.field("tid", static_cast<std::uint64_t>(tid));
        w.key("args");
        w.beginObject();
        w.field("name", name);
        w.endObject();
        w.endObject();
    }
    for (const TraceEvent &ev : events()) {
        w.beginObject();
        w.field("ph", ev.phase == 'i' ? "i" : "X");
        w.field("name", ev.name);
        w.field("pid", 1);
        w.field("tid", static_cast<std::uint64_t>(ev.tid));
        // Trace-event timestamps are microseconds; keep sub-us
        // precision as a decimal fraction.
        w.field("ts", static_cast<double>(ev.tsNs) / 1000.0);
        if (ev.phase == 'i')
            w.field("s", "t"); // thread-scoped instant mark
        else
            w.field("dur", static_cast<double>(ev.durNs) / 1000.0);
        if (!ev.argKey.empty()) {
            w.key("args");
            w.beginObject();
            w.field(ev.argKey, ev.argValue);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
TraceLog::clear()
{
    buffers.forEach([](Buffer &b) {
        b.events.clear();
        b.threadName.clear();
    });
    std::lock_guard<std::mutex> lk(mu);
    syntheticNames.clear();
}

} // namespace ariadne::telemetry

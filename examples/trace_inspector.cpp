/**
 * @file
 * Trace tooling example: record a workload trace, write it to disk in
 * the paper's (PFN, sector, UID, data) spirit, read it back, and
 * print summary statistics plus a CSV export — the reproducibility
 * workflow of §5.
 *
 * Traces written here use the v2 format: a session boundary and an
 * embedded scenario snippet in the header, like the fleet traces
 * `ariadne_sim --record` produces (those replay bit-identically via
 * `workload = trace`; this hand-rolled one is for inspection only).
 *
 * Run:  ./build/examples/trace_inspector [output.trace]
 */

#include <array>
#include <cstdio>
#include <string>

#include "workload/apps.hh"
#include "workload/generator.hh"
#include "workload/trace.hh"

using namespace ariadne;

namespace
{

void
append(std::vector<TraceRecord> &trace, Tick &now, AppId uid,
       TraceOp op, const std::vector<TouchEvent> &events = {})
{
    trace.push_back(
        TraceRecord{now, op, uid, invalidPfn, 0, Hotness::Cold, false});
    for (const auto &ev : events) {
        now += 2000;
        trace.push_back(TraceRecord{now, TraceOp::Touch, uid, ev.pfn,
                                    ev.version, ev.truth,
                                    ev.newAllocation});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path =
        argc > 1 ? argv[1] : "/tmp/ariadne_example.trace";

    // Record: launch, use, and twice relaunch YouTube.
    AppInstance inst(standardApp("YouTube"), 0.03125, 7);
    std::vector<TraceRecord> trace;
    Tick now = 0;
    append(trace, now, inst.profile().uid, TraceOp::Launch,
           inst.coldLaunch());
    append(trace, now, inst.profile().uid, TraceOp::Background,
           inst.execute(30_s));
    for (int i = 0; i < 2; ++i) {
        append(trace, now, inst.profile().uid, TraceOp::Relaunch,
               inst.relaunch());
        append(trace, now, inst.profile().uid, TraceOp::RelaunchEnd);
    }
    {
        TraceWriter writer(path, "name = trace-inspector-example\n");
        writer.beginSession(0);
        for (const auto &rec : trace)
            writer.append(rec);
    }
    std::printf("wrote %zu records to %s\n", trace.size(),
                path.c_str());

    // Read back and summarize (the header knows the session count and
    // carries the scenario text the trace was recorded under).
    std::vector<TraceRecord> loaded;
    try {
        TraceReader header(path);
        std::printf("trace v%u: %llu records, %u session(s), %zu bytes "
                    "of embedded scenario\n",
                    header.version(),
                    static_cast<unsigned long long>(header.count()),
                    header.sessionCount(), header.spec().size());
        loaded = readTrace(path);
    } catch (const TraceError &e) {
        std::fprintf(stderr, "trace_inspector: %s\n", e.what());
        return 2;
    }
    std::array<std::size_t, 3> by_truth{};
    std::size_t touches = 0, allocations = 0, relaunches = 0;
    for (const auto &rec : loaded) {
        if (rec.op == TraceOp::Touch) {
            ++touches;
            allocations += rec.newAllocation;
            by_truth[static_cast<std::size_t>(rec.truth)] += 1;
        } else if (rec.op == TraceOp::Relaunch) {
            ++relaunches;
        }
    }
    std::printf("read  %zu records: %zu touches (%zu allocations), "
                "%zu relaunches\n",
                loaded.size(), touches, allocations, relaunches);
    std::printf("touch hotness: hot %zu, warm %zu, cold %zu\n",
                by_truth[0], by_truth[1], by_truth[2]);

    std::string csv = path + ".csv";
    exportTraceCsv(csv, loaded);
    std::printf("CSV export at %s\n", csv.c_str());
    return 0;
}

#include "report/report_merger.hh"

#include <algorithm>

namespace ariadne::report
{

using driver::FleetResult;
using driver::SweepResult;

namespace
{

[[noreturn]] void
badMerge(const std::string &msg)
{
    throw ReportError("cannot merge partial reports: " + msg);
}

/** Sort by shard index and demand exactly the shards 1..N of one
 * run, each once. */
void
canonicalize(std::vector<PartialReport> &partials)
{
    if (partials.empty())
        badMerge("no partial reports given");
    std::sort(partials.begin(), partials.end(),
              [](const PartialReport &a, const PartialReport &b) {
                  return a.shard.index < b.shard.index;
              });
    const PartialReport &first = partials[0];
    std::size_t count = first.shard.count;
    if (partials.size() != count)
        badMerge("plan says " + std::to_string(count) +
                 " shard(s) but " + std::to_string(partials.size()) +
                 " partial report(s) were given");
    for (std::size_t i = 0; i < partials.size(); ++i) {
        const PartialReport &p = partials[i];
        if (p.shard.count != count)
            badMerge("shard counts differ (" +
                     std::to_string(p.shard.count) + " vs " +
                     std::to_string(count) + ")");
        if (p.shard.index != i + 1) {
            bool duplicate =
                i > 0 &&
                p.shard.index == partials[i - 1].shard.index;
            badMerge(duplicate
                         ? "duplicate shard " +
                               std::to_string(p.shard.index) + "/" +
                               std::to_string(count)
                         : "missing shard " + std::to_string(i + 1) +
                               "/" + std::to_string(count));
        }
        if (p.runHash != first.runHash)
            badMerge("the shards come from different runs (their run "
                     "hashes differ; every shard must run the same "
                     "config with the same --fleet)");
        if (p.variants.size() != first.variants.size())
            badMerge("variant counts differ (" +
                     std::to_string(p.variants.size()) + " vs " +
                     std::to_string(first.variants.size()) + ")");
    }
}

} // namespace

FleetResult
finalizeFleet(const FleetPartial &p)
{
    FleetResult r;
    r.scenario = p.scenario;
    r.scheme = p.scheme;
    r.ariadneConfig = p.ariadneConfig;
    r.scale = p.scale;
    r.seed = p.seed;
    r.fleet = p.fleet;
    r.percentiles = p.mode;
    r.totalRelaunches = p.totalRelaunches;
    r.totalStagedHits = p.totalStagedHits;
    r.totalMajorFaults = p.totalMajorFaults;
    r.totalFlashFaults = p.totalFlashFaults;
    r.totalLostPages = p.totalLostPages;
    r.totalDirectReclaims = p.totalDirectReclaims;
    r.relaunchMs = p.relaunchMs.summarize();
    r.compDecompCpuMs = p.compDecompCpuMs.summarize();
    r.kswapdCpuMs = p.kswapdCpuMs.summarize();
    r.energyJ = p.energyJ.summarize();
    r.compRatio = p.compRatio.summarize();
    return r;
}

SweepResult
mergePartials(std::vector<PartialReport> partials)
{
    canonicalize(partials);
    // Every variant's session range must be exactly what the plan
    // computes; adjacency (and therefore full coverage) then follows,
    // and FleetPartial::merge re-checks it anyway.
    for (const PartialReport &p : partials) {
        auto ranges = p.plannedRanges();
        for (std::size_t v = 0; v < ranges.size(); ++v) {
            const FleetPartial &part = p.variants[v];
            auto [begin, end] = ranges[v];
            if (part.sessionsBegin != begin || part.sessionsEnd != end)
                badMerge("shard " + p.shard.toString() + " covers "
                         "sessions [" +
                         std::to_string(part.sessionsBegin) + ", " +
                         std::to_string(part.sessionsEnd) +
                         ") of variant " + std::to_string(v) +
                         " but its plan assigns [" +
                         std::to_string(begin) + ", " +
                         std::to_string(end) + ")");
        }
    }
    SweepResult result;
    result.name = partials[0].sweepName;
    for (std::size_t v = 0; v < partials[0].variants.size(); ++v) {
        FleetPartial merged = std::move(partials[0].variants[v]);
        for (std::size_t i = 1; i < partials.size(); ++i)
            merged.merge(partials[i].variants[v]);
        result.variants.push_back(finalizeFleet(merged));
    }
    return result;
}

SweepResult
mergeReportFiles(const std::vector<std::string> &paths)
{
    std::vector<PartialReport> partials;
    partials.reserve(paths.size());
    for (const std::string &path : paths)
        partials.push_back(PartialReport::loadFile(path));
    return mergePartials(std::move(partials));
}

} // namespace ariadne::report

#include "report/partial_report.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "driver/json_writer.hh"
#include "report/json_reader.hh"
#include "sim/types.hh"

namespace ariadne::report
{

using driver::JsonWriter;

namespace
{

[[noreturn]] void
badReport(const std::string &msg)
{
    throw ReportError("invalid partial report: " + msg);
}

void
requireEqual(const std::string &field, const std::string &a,
             const std::string &b)
{
    if (a != b)
        throw ReportError("cannot merge partial reports: '" + field +
                          "' differs ('" + a + "' vs '" + b + "')");
}

template <typename T>
void
requireEqualNum(const std::string &field, T a, T b)
{
    if (a != b)
        throw ReportError("cannot merge partial reports: '" + field +
                          "' differs (" + std::to_string(a) + " vs " +
                          std::to_string(b) + ")");
}

void
writeMetric(JsonWriter &w, const std::string &name,
            const MetricState &state)
{
    w.key(name);
    w.beginObject();
    w.field("count", state.count());
    w.field("sum", state.sum());
    w.field("min", state.minValue());
    w.field("max", state.maxValue());
    if (state.mode() == PercentileMode::Exact) {
        w.key("samples");
        w.beginArray();
        for (double v : state.sampleValues())
            w.value(v);
        w.endArray();
    } else {
        w.field("rankErrorBound", state.sketch().rankErrorBound());
        w.key("levels");
        w.beginArray();
        for (const auto &level : state.sketch().levels()) {
            w.beginArray();
            for (double v : level.items)
                w.value(v);
            w.endArray();
        }
        w.endArray();
    }
    w.endObject();
}

MetricState
parseMetric(const JsonValue &v, PercentileMode mode,
            std::size_t sketch_k)
{
    std::uint64_t count = v.at("count").asU64();
    if (mode == PercentileMode::Exact) {
        // Replaying the fold-ordered samples reproduces count, sum
        // and min/max exactly; the serialized count doubles as a
        // cheap truncation check.
        MetricState state(PercentileMode::Exact);
        const auto &samples = v.at("samples").asArray();
        if (samples.size() != count)
            badReport("metric sample count mismatch (count says " +
                      std::to_string(count) + ", samples hold " +
                      std::to_string(samples.size()) + ")");
        for (const JsonValue &s : samples)
            state.sample(s.asDouble());
        return state;
    }
    std::vector<PercentileSketch::Level> levels;
    for (const JsonValue &level : v.at("levels").asArray()) {
        PercentileSketch::Level l;
        for (const JsonValue &item : level.asArray())
            l.items.push_back(item.asDouble());
        levels.push_back(std::move(l));
    }
    // Compaction preserves total weight, so a healthy sketch's items
    // weigh exactly `count`; anything else is corruption and would
    // poison every percentile query after the merge.
    if (levels.size() > 64)
        badReport("sketch has " + std::to_string(levels.size()) +
                  " levels (a 64-bit weight supports at most 64)");
    std::uint64_t weight = 0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        std::uint64_t n = levels[i].items.size();
        if (n != 0 && (i >= 64 || n > (~std::uint64_t{0} >> i) ||
                       weight > ~std::uint64_t{0} - (n << i)))
            badReport("sketch level weights overflow");
        weight += n << i;
    }
    if (weight != count)
        badReport("sketch weight mismatch (count says " +
                  std::to_string(count) + ", levels weigh " +
                  std::to_string(weight) + ")");
    return MetricState::restoreSketch(
        count, v.at("sum").asDouble(), v.at("min").asDouble(),
        v.at("max").asDouble(), sketch_k,
        v.at("rankErrorBound").asU64(), std::move(levels));
}

void
writeFleetPartial(JsonWriter &w, const FleetPartial &p)
{
    w.beginObject();
    w.field("scenario", p.scenario);
    w.field("scheme", p.scheme);
    if (!p.ariadneConfig.empty())
        w.field("ariadneConfig", p.ariadneConfig);
    w.field("scale", p.scale);
    w.field("seed", p.seed);
    w.field("fleet", static_cast<std::uint64_t>(p.fleet));
    w.field("percentiles", percentileModeName(p.mode));
    if (p.mode == PercentileMode::Sketch)
        w.field("sketchK", static_cast<std::uint64_t>(p.sketchK));
    w.field("sessionsBegin",
            static_cast<std::uint64_t>(p.sessionsBegin));
    w.field("sessionsEnd", static_cast<std::uint64_t>(p.sessionsEnd));

    w.key("totals");
    w.beginObject();
    w.field("relaunches", p.totalRelaunches);
    w.field("stagedHits", p.totalStagedHits);
    w.field("majorFaults", p.totalMajorFaults);
    w.field("flashFaults", p.totalFlashFaults);
    w.field("lostPages", p.totalLostPages);
    w.field("directReclaims", p.totalDirectReclaims);
    w.endObject();

    w.key("metrics");
    w.beginObject();
    writeMetric(w, "relaunchMs", p.relaunchMs);
    writeMetric(w, "compDecompCpuMs", p.compDecompCpuMs);
    writeMetric(w, "kswapdCpuMs", p.kswapdCpuMs);
    writeMetric(w, "energyJoules", p.energyJ);
    writeMetric(w, "compressionRatio", p.compRatio);
    w.endObject();
    w.endObject();
}

FleetPartial
parseFleetPartial(const JsonValue &v)
{
    auto mode_name = v.at("percentiles").asString();
    auto mode = parsePercentileModeName(mode_name);
    if (!mode)
        badReport("unknown percentiles mode '" + mode_name + "'");
    std::size_t sketch_k = PercentileSketch::defaultK;
    if (*mode == PercentileMode::Sketch)
        sketch_k = v.at("sketchK").asU64();

    FleetPartial p(*mode, sketch_k);
    p.scenario = v.at("scenario").asString();
    p.scheme = v.at("scheme").asString();
    if (const JsonValue *cfg = v.find("ariadneConfig"))
        p.ariadneConfig = cfg->asString();
    p.scale = v.at("scale").asDouble();
    p.seed = v.at("seed").asU64();
    p.fleet = v.at("fleet").asU64();
    p.sessionsBegin = v.at("sessionsBegin").asU64();
    p.sessionsEnd = v.at("sessionsEnd").asU64();
    if (p.sessionsBegin > p.sessionsEnd || p.sessionsEnd > p.fleet)
        badReport("session range [" +
                  std::to_string(p.sessionsBegin) + ", " +
                  std::to_string(p.sessionsEnd) +
                  ") does not fit fleet " + std::to_string(p.fleet));

    const JsonValue &totals = v.at("totals");
    p.totalRelaunches = totals.at("relaunches").asU64();
    p.totalStagedHits = totals.at("stagedHits").asU64();
    p.totalMajorFaults = totals.at("majorFaults").asU64();
    p.totalFlashFaults = totals.at("flashFaults").asU64();
    p.totalLostPages = totals.at("lostPages").asU64();
    p.totalDirectReclaims = totals.at("directReclaims").asU64();

    const JsonValue &metrics = v.at("metrics");
    p.relaunchMs = parseMetric(metrics.at("relaunchMs"), *mode, sketch_k);
    p.compDecompCpuMs =
        parseMetric(metrics.at("compDecompCpuMs"), *mode, sketch_k);
    p.kswapdCpuMs =
        parseMetric(metrics.at("kswapdCpuMs"), *mode, sketch_k);
    p.energyJ = parseMetric(metrics.at("energyJoules"), *mode, sketch_k);
    p.compRatio =
        parseMetric(metrics.at("compressionRatio"), *mode, sketch_k);
    return p;
}

} // namespace

void
FleetPartial::fold(const driver::SessionResult &s)
{
    for (const auto &sample : s.relaunches)
        relaunchMs.sample(sample.fullScaleMs);
    compDecompCpuMs.sample(s.compDecompCpuMs(scale));
    kswapdCpuMs.sample(ticksToMs(s.kswapdCpuNs) / scale);
    energyJ.sample(s.energyJ);
    if (s.comp.outBytes > 0)
        compRatio.sample(s.comp.ratio());
    totalRelaunches += s.relaunches.size();
    totalStagedHits += s.stagedHits;
    totalMajorFaults += s.majorFaults;
    totalFlashFaults += s.flashFaults;
    totalLostPages += s.lostPages;
    totalDirectReclaims += s.directReclaims;
}

void
FleetPartial::merge(const FleetPartial &o)
{
    requireEqual("scenario", scenario, o.scenario);
    requireEqual("scheme", scheme, o.scheme);
    requireEqual("ariadneConfig", ariadneConfig, o.ariadneConfig);
    requireEqualNum("scale", scale, o.scale);
    requireEqualNum("seed", seed, o.seed);
    requireEqualNum("fleet", fleet, o.fleet);
    requireEqual("percentiles", percentileModeName(mode),
                 percentileModeName(o.mode));
    if (mode == PercentileMode::Sketch)
        requireEqualNum("sketchK", sketchK, o.sketchK);
    if (o.sessionsBegin != sessionsEnd)
        throw ReportError(
            "cannot merge partial reports: session ranges are not "
            "adjacent (have [... , " +
            std::to_string(sessionsEnd) + "), next starts at " +
            std::to_string(o.sessionsBegin) + ")");
    sessionsEnd = o.sessionsEnd;

    totalRelaunches += o.totalRelaunches;
    totalStagedHits += o.totalStagedHits;
    totalMajorFaults += o.totalMajorFaults;
    totalFlashFaults += o.totalFlashFaults;
    totalLostPages += o.totalLostPages;
    totalDirectReclaims += o.totalDirectReclaims;

    relaunchMs.merge(o.relaunchMs);
    compDecompCpuMs.merge(o.compDecompCpuMs);
    kswapdCpuMs.merge(o.kswapdCpuMs);
    energyJ.merge(o.energyJ);
    compRatio.merge(o.compRatio);
}

std::size_t
FleetPartial::retainedValues() const noexcept
{
    return relaunchMs.retainedValues() +
           compDecompCpuMs.retainedValues() +
           kswapdCpuMs.retainedValues() + energyJ.retainedValues() +
           compRatio.retainedValues();
}

std::vector<std::pair<std::size_t, std::size_t>>
PartialReport::plannedRanges() const
{
    std::size_t total = 0;
    for (const FleetPartial &v : variants) {
        if (v.fleet > ~std::size_t{0} - total)
            throw ReportError("the run's fleet sizes overflow its "
                              "session numbering");
        total += v.fleet;
    }
    auto [begin, end] = shard.sessionRange(total);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::size_t offset = 0;
    for (const FleetPartial &v : variants) {
        auto local = [&](std::size_t global) {
            return global <= offset ? 0 : std::min(global - offset, v.fleet);
        };
        ranges.emplace_back(local(begin), local(end));
        offset += v.fleet;
    }
    return ranges;
}

void
PartialReport::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("ariadnePartial", formatVersion);
    w.field("shardIndex", static_cast<std::uint64_t>(shard.index));
    w.field("shardCount", static_cast<std::uint64_t>(shard.count));
    w.field("sweep", sweepName);
    w.field("runHash", runHash);
    w.key("variants");
    w.beginArray();
    for (const FleetPartial &variant : variants)
        writeFleetPartial(w, variant);
    w.endArray();
    w.endObject();
    os << "\n";
}

PartialReport
PartialReport::parseText(const std::string &text)
{
    JsonValue doc = JsonValue::parseText(text);
    if (!doc.isObject() || !doc.find("ariadnePartial"))
        badReport("not an ariadne partial report (missing "
                  "\"ariadnePartial\")");
    std::uint64_t version = doc.at("ariadnePartial").asU64();
    if (version != formatVersion)
        badReport("unsupported format version " +
                  std::to_string(version) + " (this build reads " +
                  std::to_string(formatVersion) + ")");

    PartialReport out;
    ShardPlan plan;
    plan.index = doc.at("shardIndex").asU64();
    plan.count = doc.at("shardCount").asU64();
    if (plan.count == 0 || plan.index == 0 || plan.index > plan.count)
        badReport("shard " + std::to_string(plan.index) + "/" +
                  std::to_string(plan.count) + " is out of range");
    out.shard = plan;
    out.sweepName = doc.at("sweep").asString();
    out.runHash = doc.at("runHash").asU64();
    for (const JsonValue &variant : doc.at("variants").asArray())
        out.variants.push_back(parseFleetPartial(variant));
    if (out.variants.empty() ||
        (out.sweepName.empty() && out.variants.size() != 1))
        badReport("a sweep needs at least one variant and a fleet "
                  "exactly one (got " +
                  std::to_string(out.variants.size()) + ")");
    return out;
}

std::uint64_t
fnv1a64(const std::string &text) noexcept
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

PartialReport
PartialReport::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ReportError("cannot open partial report: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        return parseText(buf.str());
    } catch (const ReportError &e) {
        throw ReportError(path + ": " + e.what());
    }
}

} // namespace ariadne::report

#include "perfbench_lib.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace perfbench
{

std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::size_t p = spans[i].parent;
        if (p != noParent) {
            if (p >= spans.size() || p == i)
                throw std::invalid_argument("span parent out of range");
            children[p].push_back(i);
        }
    }

    std::vector<std::uint64_t> self(spans.size(), 0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        cover.clear();
        for (std::size_t c : children[i]) {
            std::uint64_t b = std::max(spans[c].beginNs, s.beginNs);
            std::uint64_t e = std::min(spans[c].endNs, s.endNs);
            if (b < e)
                cover.emplace_back(b, e);
        }
        std::sort(cover.begin(), cover.end());
        std::uint64_t covered = 0;
        std::uint64_t reach = s.beginNs;
        for (auto [b, e] : cover) {
            b = std::max(b, reach);
            if (b < e) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = s.durationNs() - covered;
    }
    return self;
}

std::size_t
enclosingSpan(const std::vector<Span> &parents, std::uint64_t t)
{
    auto it = std::upper_bound(
        parents.begin(), parents.end(), t,
        [](std::uint64_t v, const Span &s) { return v < s.beginNs; });
    if (it == parents.begin())
        return noParent;
    --it;
    if (t >= it->endNs)
        return noParent;
    return static_cast<std::size_t>(it - parents.begin());
}

namespace
{

/** 1-based nearest rank of percentile @p q among @p n samples. */
std::size_t
nearestRank(std::size_t n, double q)
{
    auto r = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}

} // namespace

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), q) - 1];
}

double
tailPercentile(std::size_t n, std::size_t min_beyond)
{
    for (double q : {99.0, 95.0, 90.0, 75.0}) {
        if (n > 0 && n - nearestRank(n, q) >= min_beyond)
            return q;
    }
    return 50.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    if (values.size() % 2)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2.0;
}

bool
validMetricName(std::string_view name) noexcept
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

namespace
{

std::string
jsonNumber(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::set<std::string_view> seen;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!validMetricName(m.name) || !seen.insert(m.name).second)
            throw std::invalid_argument("bad or repeated metric name: " +
                                        m.name);
        if (!std::isfinite(m.value))
            throw std::invalid_argument("non-finite metric: " + m.name);
        if (i)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

std::vector<std::string>
shapeViolations(Pressure expect, const ShapeFacts &facts)
{
    std::vector<std::string> out;
    auto need = [&](bool ok, const char *what) {
        if (!ok)
            out.emplace_back(what);
    };
    switch (expect) {
      case Pressure::ReclaimAndSwapIn:
        need(facts.zpoolSwapIns > 0, "no zpool swap-ins");
        [[fallthrough]];
      case Pressure::Reclaim:
        need(facts.reclaimedPages > 0, "no reclaimed pages");
        need(facts.compressions > 0, "no compressions");
        break;
      case Pressure::None:
        need(facts.reclaimedPages == 0, "reclaimed pages on the bypass "
                                        "workload");
        need(facts.compressions == 0, "compressions on the bypass "
                                      "workload");
        need(facts.zpoolSwapIns == 0, "zpool swap-ins on the bypass "
                                      "workload");
        break;
    }
    return out;
}

} // namespace perfbench

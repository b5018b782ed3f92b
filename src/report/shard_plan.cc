#include "report/shard_plan.hh"

#include "sim/parse_count.hh"

namespace ariadne::report
{

ShardPlan
ShardPlan::parse(const std::string &text)
{
    auto fail = [&](const std::string &why) -> ShardPlan {
        throw ReportError("invalid shard spec '" + text + "': " + why +
                          " (expected INDEX/COUNT with 1 <= INDEX <= "
                          "COUNT, e.g. 2/4)");
    };
    auto slash = text.find('/');
    if (slash == std::string::npos)
        return fail("missing '/'");
    ShardPlan plan;
    std::string_view spec = text;
    if (parseCount(spec.substr(0, slash), plan.index) != std::errc() ||
        parseCount(spec.substr(slash + 1), plan.count) != std::errc())
        return fail("INDEX and COUNT must be decimal integers");
    if (plan.count == 0)
        return fail("COUNT must be >= 1");
    if (plan.index == 0 || plan.index > plan.count)
        return fail("INDEX must be in [1, COUNT]");
    return plan;
}

std::string
ShardPlan::toString() const
{
    return std::to_string(index) + "/" + std::to_string(count);
}

std::pair<std::size_t, std::size_t>
ShardPlan::sessionRange(std::size_t total) const noexcept
{
    // Balanced contiguous ranges: shard i gets
    // [ (i-1)*total/count, i*total/count ). Integer arithmetic tiles
    // [0, total) exactly, with sizes differing by at most one. The
    // products go through 128 bits: COUNT is unbounded user input,
    // and a wrapped product would yield begin > end.
    auto cut = [&](std::size_t i) {
        return static_cast<std::size_t>(
            static_cast<unsigned __int128>(i) * total / count);
    };
    return {cut(index - 1), cut(index)};
}

} // namespace ariadne::report

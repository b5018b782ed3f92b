/**
 * @file
 * Helpers of the end-to-end benchmark (perfbench.cc): the span tree
 * and its self times, tail-percentile selection, metric naming and
 * the result line, and the workload-shape guards. Kept apart from the
 * benchmark's main so test_perfbench_lib.cc can pin them.
 */

#ifndef ARIADNE_PERFBENCH_LIB_HH
#define ARIADNE_PERFBENCH_LIB_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** Index of "no parent" in Span::parent. */
constexpr std::size_t noParent = static_cast<std::size_t>(-1);

/** One host-time span [beginNs, endNs) and the span that caused it. */
struct Span
{
    std::string name;
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the parent span in the same vector, or noParent. */
    std::size_t parent = noParent;

    std::uint64_t
    durationNs() const noexcept
    {
        return endNs > beginNs ? endNs - beginNs : 0;
    }
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children cover. Children may nest, overlap each
 * other or stick out of the parent; only the union of their
 * intervals, clipped to the parent, is subtracted.
 */
std::vector<std::uint64_t> selfTimes(const std::vector<Span> &spans);

/**
 * Parent of a span beginning at @p t: the last of @p parents (sorted
 * by beginNs, disjoint) whose interval contains @p t, or noParent.
 * Returns an index into @p parents.
 */
std::size_t enclosingSpan(const std::vector<Span> &parents,
                          std::uint64_t t);

/** Nearest-rank percentile @p q (0 < q <= 100) of sorted samples. */
double percentile(const std::vector<double> &sorted, double q);

/**
 * The highest of p99, p95, p90, p75 and p50 that leaves at least
 * @p min_beyond of @p n samples strictly above its nearest rank; 50
 * when even the median does not (fewer than 2 * min_beyond samples).
 */
double tailPercentile(std::size_t n, std::size_t min_beyond = 10);

/** Median of @p values (mean of the middle pair for even counts). */
double median(std::vector<double> values);

/**
 * Whether @p name is a valid metric name: 1 to 64 characters from
 * letters, digits, `_`, `.` and `-`, starting with a letter or digit.
 */
bool validMetricName(std::string_view name) noexcept;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The benchmark's result line:
 * {"correct": ..., "attempted": N, "failed": N, "metrics": {NAME:
 * {"value": V, "unit": U}, ...}}. Values keep every digit (shortest
 * round-trip form). Throws std::invalid_argument on an invalid or
 * repeated name or a non-finite value.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

/** What a workload must do to its memory to measure what it claims. */
enum class Pressure
{
    /** Reclaim and compress (the swap-in count is not checked). */
    Reclaim,
    /** Reclaim, compress and swap pages back in from the zpool. */
    ReclaimAndSwapIn,
    /** The bypass workload: no reclaim, compression or swap-in. */
    None,
};

/** Swap activity of one fleet run, as the shape guards see it. */
struct ShapeFacts
{
    std::uint64_t reclaimedPages = 0;
    std::uint64_t compressions = 0;
    std::uint64_t zpoolSwapIns = 0;
};

/** Every way @p facts contradicts @p expect (empty = shape holds). */
std::vector<std::string> shapeViolations(Pressure expect,
                                         const ShapeFacts &facts);

} // namespace perfbench

#endif // ARIADNE_PERFBENCH_LIB_HH

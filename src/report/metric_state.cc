#include "report/metric_state.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "report/report_error.hh"
#include "sim/log.hh"

namespace ariadne::report
{

const char *
percentileModeName(PercentileMode mode) noexcept
{
    switch (mode) {
      case PercentileMode::Exact: return "exact";
      case PercentileMode::Sketch: return "sketch";
      default: return "unknown";
    }
}

std::optional<PercentileMode>
parsePercentileModeName(const std::string &text)
{
    std::string t;
    for (char c : text)
        t += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (t == "exact")
        return PercentileMode::Exact;
    if (t == "sketch")
        return PercentileMode::Sketch;
    return std::nullopt;
}

PercentileSketch::PercentileSketch(std::size_t k)
    : cap(std::max(k, minK) + (std::max(k, minK) % 2)), lvls(1),
      compactions(1, 0)
{
}

void
PercentileSketch::sample(double v)
{
    lvls[0].items.push_back(v);
    n += 1;
    if (lvls[0].items.size() >= cap)
        compactOverfull();
}

void
PercentileSketch::merge(const PercentileSketch &o)
{
    panicIf(!compatible(o),
            "PercentileSketch::merge: capacity mismatch");
    n += o.n;
    errBound += o.errBound;
    for (std::size_t l = 0; l < o.lvls.size(); ++l) {
        if (lvls.size() <= l) {
            lvls.emplace_back();
            compactions.push_back(0);
        }
        lvls[l].items.insert(lvls[l].items.end(),
                             o.lvls[l].items.begin(),
                             o.lvls[l].items.end());
    }
    compactOverfull();
}

std::size_t
PercentileSketch::retained() const noexcept
{
    std::size_t total = 0;
    for (const Level &l : lvls)
        total += l.items.size();
    return total;
}

/**
 * Halve level @p level into the one above: sort, keep every other
 * item (the surviving parity alternates with the level's compaction
 * counter — deterministic, never random) at twice the weight. An odd
 * buffer leaves its largest item in place so total weight is
 * preserved exactly. Each halving of weight-2^ℓ items perturbs any
 * rank by at most 2^ℓ, which is what rankErrorBound() accumulates.
 */
void
PercentileSketch::compactLevel(std::size_t level)
{
    // Move the buffer out first: growing `lvls` below reallocates,
    // so references into it must not be held across the emplace.
    std::vector<double> buf = std::move(lvls[level].items);
    lvls[level].items.clear();
    std::sort(buf.begin(), buf.end());
    if (buf.size() % 2) {
        lvls[level].items.push_back(buf.back());
        buf.pop_back();
    }
    std::size_t offset = compactions[level] % 2;
    compactions[level] += 1;
    if (lvls.size() == level + 1) {
        lvls.emplace_back();
        compactions.push_back(0);
    }
    auto &up = lvls[level + 1].items;
    for (std::size_t i = offset; i < buf.size(); i += 2)
        up.push_back(buf[i]);
    errBound += std::uint64_t{1} << level;
}

void
PercentileSketch::compactOverfull()
{
    for (std::size_t l = 0; l < lvls.size(); ++l)
        while (lvls[l].items.size() >= cap)
            compactLevel(l);
}

double
PercentileSketch::percentile(double p) const
{
    if (n == 0)
        return 0.0;
    // Negated comparison so NaN clamps to 0 instead of reaching the
    // integer cast below (double-to-integer conversion out of range is
    // undefined behavior).
    if (!(p > 0.0))
        p = 0.0;
    else if (p > 1.0)
        p = 1.0;
    std::vector<std::pair<double, std::uint64_t>> weighted;
    weighted.reserve(retained());
    for (std::size_t l = 0; l < lvls.size(); ++l) {
        std::uint64_t w = std::uint64_t{1} << l;
        for (double v : lvls[l].items)
            weighted.emplace_back(v, w);
    }
    if (weighted.empty())
        return 0.0; // restore() can be handed n > 0 with no items
    std::sort(weighted.begin(), weighted.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    auto target = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(n)));
    if (target == 0)
        target = 1;
    std::uint64_t acc = 0;
    for (const auto &[v, w] : weighted) {
        acc += w;
        if (acc >= target)
            return v;
    }
    // Compaction preserves total weight, so the walk always reaches n;
    // this is only a numeric-edge fallback.
    return weighted.back().first;
}

PercentileSketch
PercentileSketch::restore(std::size_t k, std::uint64_t count,
                          std::uint64_t rank_error_bound,
                          std::vector<Level> levels)
{
    PercentileSketch sk(k);
    if (!levels.empty()) {
        sk.lvls = std::move(levels);
        sk.compactions.assign(sk.lvls.size(), 0);
    }
    sk.n = count;
    sk.errBound = rank_error_bound;
    sk.compactOverfull();
    return sk;
}

void
PercentileSketch::reset()
{
    lvls.assign(1, Level{});
    compactions.assign(1, 0);
    n = 0;
    errBound = 0;
}

MetricState::MetricState(PercentileMode mode, std::size_t sketch_k)
    : percentileMode(mode), sk(sketch_k)
{
}

void
MetricState::sample(double v)
{
    total += v;
    n += 1;
    lo = (n == 1) ? v : std::min(lo, v);
    hi = (n == 1) ? v : std::max(hi, v);
    if (percentileMode == PercentileMode::Exact)
        samples_.push_back(v);
    else
        sk.sample(v);
}

void
MetricState::merge(const MetricState &o)
{
    if (percentileMode != o.percentileMode)
        throw ReportError(
            "cannot merge metric states with different percentile "
            "modes (" +
            std::string(percentileModeName(percentileMode)) + " vs " +
            percentileModeName(o.percentileMode) + ")");
    if (percentileMode == PercentileMode::Sketch &&
        !sk.compatible(o.sk))
        throw ReportError(
            "cannot merge percentile sketches of different capacity "
            "(k = " +
            std::to_string(sk.k()) + " vs " + std::to_string(o.sk.k()) +
            ")");
    if (o.n == 0)
        return;
    total += o.total;
    lo = (n == 0) ? o.lo : std::min(lo, o.lo);
    hi = (n == 0) ? o.hi : std::max(hi, o.hi);
    n += o.n;
    if (percentileMode == PercentileMode::Exact)
        samples_.insert(samples_.end(), o.samples_.begin(),
                        o.samples_.end());
    else
        sk.merge(o.sk);
}

MetricSummary
MetricState::summarize() const
{
    MetricSummary m;
    if (percentileMode == PercentileMode::Exact) {
        // Recompute from the fold-ordered sample vector rather than
        // the running total: a merged state adds shard sums in another
        // order, and merged shards must reproduce the unsharded report
        // byte for byte.
        if (samples_.empty())
            return m;
        double sum = 0.0;
        m.min = m.max = samples_.front();
        for (double v : samples_) {
            sum += v;
            m.min = std::min(m.min, v);
            m.max = std::max(m.max, v);
        }
        std::vector<double> sorted = samples_;
        std::sort(sorted.begin(), sorted.end());
        auto rank = [&](double p) {
            auto r = static_cast<std::size_t>(
                std::ceil(p * static_cast<double>(sorted.size())));
            return sorted[r - 1];
        };
        m.samples = samples_.size();
        m.mean = sum / static_cast<double>(samples_.size());
        m.p50 = rank(0.50);
        m.p90 = rank(0.90);
        m.p99 = rank(0.99);
        return m;
    }
    m.samples = n;
    m.mean = n ? total / static_cast<double>(n) : 0.0;
    m.min = minValue();
    m.max = maxValue();
    m.p50 = sk.percentile(0.50);
    m.p90 = sk.percentile(0.90);
    m.p99 = sk.percentile(0.99);
    m.rankErrorBound = sk.rankErrorBound();
    return m;
}

std::size_t
MetricState::retainedValues() const noexcept
{
    return percentileMode == PercentileMode::Exact ? samples_.size()
                                                   : sk.retained();
}

MetricState
MetricState::restoreSketch(std::uint64_t count, double sum, double min,
                           double max, std::size_t sketch_k,
                           std::uint64_t rank_error_bound,
                           std::vector<PercentileSketch::Level> levels)
{
    MetricState state(PercentileMode::Sketch, sketch_k);
    state.n = count;
    state.total = sum;
    state.lo = min;
    state.hi = max;
    state.sk = PercentileSketch::restore(sketch_k, count,
                                         rank_error_bound,
                                         std::move(levels));
    return state;
}

} // namespace ariadne::report

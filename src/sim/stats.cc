#include "sim/stats.hh"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "sim/log.hh"

namespace ariadne
{

double
Distribution::min() const noexcept
{
    return values.empty()
               ? 0.0
               : *std::min_element(values.begin(), values.end());
}

double
Distribution::max() const noexcept
{
    return values.empty()
               ? 0.0
               : *std::max_element(values.begin(), values.end());
}

double
Distribution::mean() const noexcept
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
Distribution::percentile(double p) const
{
    if (values.empty())
        return 0.0;
    if (!sorted) {
        std::sort(values.begin(), values.end());
        sorted = true;
    }
    // Negated comparison so NaN clamps to 0 instead of reaching the
    // size_t cast below (double-to-integer conversion out of range is
    // undefined behavior).
    if (!(p > 0.0))
        p = 0.0;
    else if (p > 1.0)
        p = 1.0;
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    if (rank == 0)
        rank = 1;
    return values[rank - 1];
}

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
    // Negated comparison: NaN clamps to 0 instead of reaching the
    // integer cast (Distribution::percentile's convention).
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

} // namespace ariadne

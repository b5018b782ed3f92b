/**
 * @file
 * Mergeable per-metric aggregation state.
 *
 * A MetricState is everything a shard knows about one metric: count,
 * sum, min/max, and — depending on the scenario's `percentiles` mode —
 * either the exact sample vector in fold order or a mergeable
 * PercentileSketch. FleetRunner folds sessions into MetricStates,
 * partial reports serialize them, and ReportMerger folds shards'
 * states together; summarize() is the single place a MetricSummary is
 * computed, so single-process and sharded runs cannot disagree.
 *
 * Exact mode preserves byte-identity: states merge by concatenating
 * sample vectors in shard order (the unsharded fold order, because
 * shards are contiguous session ranges), and summarize() recomputes
 * mean/min/max/percentiles from that vector in fold order. Sketch mode
 * trades that for O(sketch) memory: min/max/mean stay exact (running
 * values), percentiles carry the sketch's tracked rank-error bound.
 */

#ifndef ARIADNE_REPORT_METRIC_STATE_HH
#define ARIADNE_REPORT_METRIC_STATE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ariadne::report
{

/** How a metric aggregates percentiles: exact sample vectors (memory
 * O(samples), byte-reproducible) or a mergeable PercentileSketch
 * (memory O(sketch), rank-error-bounded). */
enum class PercentileMode
{
    Exact,
    Sketch,
};

/** Stable config-format name ("exact" / "sketch"). */
const char *percentileModeName(PercentileMode mode) noexcept;

/** Parse a mode name (case-insensitive); nullopt when unknown. */
std::optional<PercentileMode>
parsePercentileModeName(const std::string &text);

/**
 * Mergeable rank-error-bounded percentile sketch (Munro–Paterson /
 * KLL-style compactors with a *deterministic* compaction schedule).
 *
 * Samples enter a level-0 buffer of capacity k; a full level-ℓ buffer
 * is sorted and halved — every other item survives with doubled
 * weight 2^(ℓ+1) — into level ℓ+1. The surviving parity alternates
 * per level (a counter, never a coin flip), so a given sample/merge
 * sequence always produces the same sketch; there is no randomness to
 * make two runs disagree. Two sketches merge by concatenating levels
 * and re-compacting, so shard order determines the result exactly —
 * ReportMerger canonicalizes shard order, which is what makes merged
 * sketch reports reproducible no matter how the CLI was invoked.
 *
 * Accuracy: halving a level-ℓ buffer perturbs the weighted rank of
 * any threshold by at most 2^ℓ, so the sketch *tracks* its own
 * worst-case bound — rankErrorBound() is the sum of 2^ℓ over every
 * compaction performed (merges add the bounds). percentile(p) is
 * guaranteed to return a value whose true rank is within
 * rankErrorBound() of ceil(p * samples). For n samples the bound
 * grows as (n/k) * log2(n/k) — about 5 % of n at k = 256, n = 10^6 —
 * while retained() stays at O(k * log2(n/k)) items regardless of n.
 */
class PercentileSketch
{
  public:
    /** Smallest accepted buffer size. */
    static constexpr std::size_t minK = 8;
    /** Default buffer size (rank error ≈ 5 % at a million samples). */
    static constexpr std::size_t defaultK = 256;

    /** One compactor level: items all carrying weight 2^level. */
    struct Level
    {
        std::vector<double> items;
    };

    /** @param k Per-level buffer capacity; clamped up to minK and to
     * the next even value (compaction halves pairs). */
    explicit PercentileSketch(std::size_t k = defaultK);

    /** Record one sample. */
    void sample(double v);

    /** Fold @p o into this sketch (capacities must match, see
     * compatible()); both bounds and counts add. */
    void merge(const PercentileSketch &o);

    /** Whether @p o can merge into this sketch (same capacity). */
    bool
    compatible(const PercentileSketch &o) const noexcept
    {
        return cap == o.cap;
    }

    std::uint64_t samples() const noexcept { return n; }
    std::size_t k() const noexcept { return cap; }

    /** Items currently buffered across all levels (the sketch's whole
     * memory footprint; O(k log(n/k)), never O(n)). */
    std::size_t retained() const noexcept;

    /**
     * Worst-case absolute rank error of any percentile query, in
     * sample-count units: the value returned for percentile(p) has a
     * true rank within this bound of ceil(p * samples()). 0 until the
     * first compaction (small inputs are exact).
     */
    std::uint64_t rankErrorBound() const noexcept { return errBound; }

    /**
     * Nearest-rank percentile over the weighted retained items; @p p
     * is clamped to [0, 1] (NaN clamps to 0) and an empty sketch
     * reports 0.
     */
    double percentile(double p) const;

    /** Compactor levels, bottom (weight 1) first — the serializable
     * state; level i items carry weight 2^i. */
    const std::vector<Level> &levels() const noexcept { return lvls; }

    /**
     * Rebuild a sketch from serialized state (the partial-report
     * parse path). Compaction parity counters restart at zero, which
     * is itself deterministic: the same partial files always merge to
     * the same result.
     */
    static PercentileSketch restore(std::size_t k, std::uint64_t count,
                                    std::uint64_t rank_error_bound,
                                    std::vector<Level> levels);

    /** Reset to the empty state (capacity kept). */
    void reset();

  private:
    void compactLevel(std::size_t level);
    void compactOverfull();

    std::size_t cap;
    std::uint64_t n = 0;
    std::uint64_t errBound = 0;
    std::vector<Level> lvls;
    /** Per-level compaction counters; parity picks the surviving
     * offset, alternating deterministically. */
    std::vector<std::uint64_t> compactions;
};

/** p50/p90/p99 plus the usual moments of one aggregated metric. */
struct MetricSummary
{
    std::uint64_t samples = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    /** Worst-case absolute rank error of the percentiles, in samples
     * (0 = exact; see PercentileSketch::rankErrorBound). */
    std::uint64_t rankErrorBound = 0;
};

/** Mergeable aggregation state of one metric. */
class MetricState
{
  public:
    /** Exact-mode state (the default keeps aggregate structs
     * default-constructible). */
    MetricState() : MetricState(PercentileMode::Exact) {}

    explicit MetricState(PercentileMode mode,
                         std::size_t sketch_k = PercentileSketch::defaultK);

    /** Record one sample. */
    void sample(double v);

    /**
     * Fold @p o after this state's samples (shard order). Throws
     * ReportError when the modes or sketch capacities differ —
     * merging them would silently change semantics.
     */
    void merge(const MetricState &o);

    /**
     * The one summary implementation shared by every report path.
     * Exact mode: mean summed in fold order, min, max, and nearest-rank
     * percentiles (the ceil(p * samples)-th smallest sample). An empty
     * state summarizes to all zeros.
     */
    MetricSummary summarize() const;

    PercentileMode mode() const noexcept { return percentileMode; }
    std::size_t sketchK() const noexcept { return sk.k(); }
    std::uint64_t count() const noexcept { return n; }
    double sum() const noexcept { return total; }
    double minValue() const noexcept { return n ? lo : 0.0; }
    double maxValue() const noexcept { return n ? hi : 0.0; }

    /** Exact-mode samples in fold order (empty in sketch mode). */
    const std::vector<double> &sampleValues() const noexcept
    {
        return samples_;
    }

    /** The sketch (meaningful in sketch mode only). */
    const PercentileSketch &sketch() const noexcept { return sk; }

    /** Raw values currently retained — samples (exact) or buffered
     * sketch items (O(k log n), never O(n)). */
    std::size_t retainedValues() const noexcept;

    /**
     * Rebuild a sketch-mode state from serialized parts (the partial
     * report parse path; exact states rebuild by replaying their
     * sample vector instead, which reproduces sum/min/max exactly).
     */
    static MetricState
    restoreSketch(std::uint64_t count, double sum, double min,
                  double max, std::size_t sketch_k,
                  std::uint64_t rank_error_bound,
                  std::vector<PercentileSketch::Level> levels);

  private:
    PercentileMode percentileMode = PercentileMode::Exact;
    std::uint64_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    std::vector<double> samples_;
    PercentileSketch sk;
};

} // namespace ariadne::report

#endif // ARIADNE_REPORT_METRIC_STATE_HH

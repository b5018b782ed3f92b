/**
 * @file
 * PartialReport — one shard's mergeable share of a run.
 *
 * A FleetPartial captures everything a shard aggregated about one
 * fleet: run identity (scenario/scheme/scale/seed/fleet, percentile
 * mode), the shard's contiguous session range, the integer totals and
 * one MetricState per report metric. Folding sessions into a partial
 * is the *only* aggregation implementation — FleetRunner uses it for
 * in-process runs, `ariadne_sim --shard i/N --partial out.json`
 * serializes one per variant, and ReportMerger folds K shards back
 * into the exact final report schema FleetRunner emits.
 *
 * A PartialReport has one shape for fleets and sweeps: the shard
 * plan, the sweep name (empty for a fleet, a run of one variant), a
 * run-identity hash every shard of one run shares, and one
 * FleetPartial per variant holding the part of the shard's slice
 * that falls in that variant (see shard_plan.hh).
 *
 * The on-disk format is JSON (`"ariadnePartial": 2`); numbers are
 * written in shortest round-trip form and re-parsed bit-identically,
 * which is what lets merged exact-mode reports reproduce the
 * unsharded run byte for byte. Parse problems throw ReportError.
 */

#ifndef ARIADNE_REPORT_PARTIAL_REPORT_HH
#define ARIADNE_REPORT_PARTIAL_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "driver/session_result.hh"
#include "report/metric_state.hh"
#include "report/shard_plan.hh"

namespace ariadne::report
{

/** One shard's aggregation state for one fleet. */
struct FleetPartial
{
    FleetPartial() : FleetPartial(PercentileMode::Exact) {}

    explicit FleetPartial(
        PercentileMode mode,
        std::size_t sketch_k = PercentileSketch::defaultK)
        : mode(mode), sketchK(sketch_k), relaunchMs(mode, sketch_k),
          compDecompCpuMs(mode, sketch_k), kswapdCpuMs(mode, sketch_k),
          energyJ(mode, sketch_k), compRatio(mode, sketch_k)
    {
    }

    // Run identity — every shard of one run must agree on these.
    std::string scenario;
    std::string scheme;
    std::string ariadneConfig;
    double scale = 0.0625;
    std::uint64_t seed = 0;
    /** Total fleet size of the (unsharded) run. */
    std::size_t fleet = 0;
    PercentileMode mode = PercentileMode::Exact;
    std::size_t sketchK = PercentileSketch::defaultK;

    /** This shard's contiguous session range [begin, end). */
    std::size_t sessionsBegin = 0;
    std::size_t sessionsEnd = 0;

    std::uint64_t totalRelaunches = 0;
    std::uint64_t totalStagedHits = 0;
    std::uint64_t totalMajorFaults = 0;
    std::uint64_t totalFlashFaults = 0;
    std::uint64_t totalLostPages = 0;
    std::uint64_t totalDirectReclaims = 0;

    MetricState relaunchMs;
    MetricState compDecompCpuMs;
    MetricState kswapdCpuMs;
    MetricState energyJ;
    MetricState compRatio;

    /** Fold one finished session (must be called in session-index
     * order; FleetRunner's reorder window guarantees it). */
    void fold(const driver::SessionResult &s);

    /**
     * Fold @p o's sessions after this shard's. Throws ReportError
     * when the run identities differ or the ranges are not adjacent
     * (o.sessionsBegin == this->sessionsEnd).
     */
    void merge(const FleetPartial &o);

    /** Values currently retained across all metric states (exact:
     * O(sessions); sketch: O(k log n)). */
    std::size_t retainedValues() const noexcept;
};

/** One shard's serialized share of a run (a fleet or a sweep). */
struct PartialReport
{
    /** On-disk format version ("ariadnePartial"). */
    static constexpr std::uint64_t formatVersion = 2;

    ShardPlan shard;
    /** The sweep's name; empty for a fleet. */
    std::string sweepName;
    /**
     * FNV-1a of the canonical spec text and the resolved fleet sizes.
     * Shards whose variants agree on every report field can still
     * come from different runs (another event program, another
     * `--fleet`); the merger refuses shards whose hashes differ.
     */
    std::uint64_t runHash = 0;
    /** One aggregation state per variant, in declaration order. */
    std::vector<FleetPartial> variants;

    /**
     * Each variant's [begin, end) share of this shard's slice, from
     * the plan and the variants' fleet sizes: sessions are numbered
     * variant by variant, and a variant the slice misses gets an
     * empty range at its start or end. Throws ReportError when the
     * fleet sizes' total overflows.
     */
    std::vector<std::pair<std::size_t, std::size_t>>
    plannedRanges() const;

    /** Serialize as JSON (parse(writeJson(x)) round-trips exactly). */
    void writeJson(std::ostream &os) const;

    /** Parse a serialized partial; throws ReportError. */
    static PartialReport parseText(const std::string &text);

    /** Load and parse @p path; throws ReportError (message names the
     * file). */
    static PartialReport loadFile(const std::string &path);
};

/** FNV-1a 64-bit hash — stable across platforms and builds, unlike
 * std::hash, so partials produced on different machines agree. */
std::uint64_t fnv1a64(const std::string &text) noexcept;

} // namespace ariadne::report

#endif // ARIADNE_REPORT_PARTIAL_REPORT_HH

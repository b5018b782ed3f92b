/**
 * @file
 * ShardPlan — deterministic partitioning of a run across processes.
 *
 * A plan is the pair "shard INDEX of COUNT" (1-based, the CLI's
 * `--shard i/N`). It is pure arithmetic with no state, so any process
 * handed the same spec and the same `i/N` computes the same share.
 *
 * One rule covers fleets and sweeps: a run numbers its sessions
 * variant by variant in declaration order (a fleet is a run of one
 * variant), and shard i gets the contiguous balanced slice
 * sessionRange(total) of that numbering. Slices of shards 1..N tile
 * [0, total) exactly, and because sessions derive their seeds from
 * their index within their variant, the union of the shards is the
 * unsharded run, session for session
 * (PartialReport::plannedRanges cuts a slice at variant boundaries).
 *
 * Contiguous slices are what make merged exact-mode reports
 * byte-identical: concatenating each variant's per-metric sample
 * vectors in shard order reproduces the unsharded fold order exactly.
 */

#ifndef ARIADNE_REPORT_SHARD_PLAN_HH
#define ARIADNE_REPORT_SHARD_PLAN_HH

#include <cstddef>
#include <string>
#include <utility>

#include "report/report_error.hh"

namespace ariadne::report
{

/** One shard's identity within a sharded run (1-based INDEX/COUNT). */
struct ShardPlan
{
    std::size_t index = 1;
    std::size_t count = 1;

    /**
     * Parse "INDEX/COUNT" (e.g. "2/4"); throws ReportError on
     * malformed text, a zero count, or an index outside [1, COUNT].
     */
    static ShardPlan parse(const std::string &text);

    /** Canonical "INDEX/COUNT" form. */
    std::string toString() const;

    /**
     * Session indices [begin, end) of this shard in a run of
     * @p total sessions: contiguous balanced ranges that tile
     * [0, total) across the COUNT shards (shards may be empty when
     * total < COUNT).
     */
    std::pair<std::size_t, std::size_t>
    sessionRange(std::size_t total) const noexcept;

    bool operator==(const ShardPlan &o) const = default;
};

} // namespace ariadne::report

#endif // ARIADNE_REPORT_SHARD_PLAN_HH

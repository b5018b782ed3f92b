/**
 * @file
 * ReportMerger — fold K partial reports into the final report.
 *
 * finalizeFleet() turns one variant's aggregation state into the
 * exact FleetResult schema FleetRunner emits — the *only*
 * summarization path, shared by in-process runs and
 * `ariadne_sim --merge`.
 *
 * The merger canonicalizes before folding: partials sort by shard
 * index (CLI argument order cannot change the result), every shard
 * 1..N must be present exactly once, every shard must carry the same
 * run hash, and each variant's session range must be exactly the one
 * PartialReport::plannedRanges computes — so an exact-mode merge
 * reproduces the unsharded report byte for byte, and a sketch-mode
 * merge is deterministic for a given shard set. Violations throw
 * ReportError (the CLI's exit-2 currency).
 */

#ifndef ARIADNE_REPORT_REPORT_MERGER_HH
#define ARIADNE_REPORT_REPORT_MERGER_HH

#include <vector>

#include "driver/fleet_runner.hh"
#include "report/partial_report.hh"

namespace ariadne::report
{

/** Summarize one (complete or partial) fleet aggregation state into
 * the final report record. */
driver::FleetResult finalizeFleet(const FleetPartial &p);

/**
 * Fold @p partials into the final report, one FleetResult per
 * variant; a fleet's shards (empty sweep name) merge to a nameless
 * sweep of one variant. Validates coverage and identity (see file
 * header); throws ReportError on any mismatch.
 */
driver::SweepResult mergePartials(std::vector<PartialReport> partials);

/** Load @p paths (PartialReport::loadFile) and merge them. */
driver::SweepResult
mergeReportFiles(const std::vector<std::string> &paths);

} // namespace ariadne::report

#endif // ARIADNE_REPORT_REPORT_MERGER_HH

/**
 * @file
 * Ariadne configuration (the paper's Table 5 parameters).
 *
 * A configuration is written "EHL-1K-2K-16K" or "AL-512-2K-16K":
 * the scenario (exclude-hot-list vs all-lists) followed by the
 * SmallSize / MediumSize / LargeSize compression chunk sizes used for
 * hot, warm and cold data respectively.
 */

#ifndef ARIADNE_CORE_CONFIG_HH
#define ARIADNE_CORE_CONFIG_HH

#include <cstddef>
#include <optional>
#include <string>

#include "sim/types.hh"

namespace ariadne
{

/** Tunable parameters of the Ariadne scheme. */
struct AriadneConfig
{
    /** Chunk size for hot-list data (Table 5: 256 B, 512 B, 1 KB). */
    std::size_t smallSize = 1024;
    /** Chunk size for warm-list data (Table 5: 2 KB, 4 KB). */
    std::size_t mediumSize = 2048;
    /** Chunk size for cold-list data (Table 5: 16 KB, 32 KB). */
    std::size_t largeSize = 16384;

    /**
     * Exclude-hot-list mode: background reclaim never compresses hot
     * data (it may still be evicted as a last resort under emergency
     * direct reclaim). False = AL, all lists are eligible.
     */
    bool excludeHotList = true;

    /** zpool capacity (paper: S = 3 GB); scale with the workload. */
    std::size_t zpoolBytes = std::size_t{3} * 1024 * 1024 * 1024;
    /** Flash swap space for compressed cold writeback. */
    std::size_t flashBytes = std::size_t{8} * 1024 * 1024 * 1024;

    /** Enable predictive pre-decompression. */
    bool preDecompEnabled = true;

    /** Fallback hot-list seed when no profile exists (pages). */
    std::size_t defaultHotInitPages = 4096;

    /**
     * Pages per cold compression unit: largeSize bytes of input.
     * Derived, not set directly.
     */
    std::size_t
    coldUnitPages() const noexcept
    {
        std::size_t n = largeSize / pageSize;
        return n == 0 ? 1 : n;
    }

    /** Human-readable name, e.g.\ "Ariadne-EHL-1K-2K-16K". */
    std::string toString() const;

    /**
     * Parse "EHL-1K-2K-16K" / "AL-256-2K-32K" (sizes accept a K
     * suffix). Calls fatal() on malformed input, including a
     * LargeSize above 1019K, whose cold unit one zpool object cannot
     * hold.
     */
    static AriadneConfig parse(const std::string &text);

    /**
     * Non-exiting variant of parse() for layers that must surface
     * malformed user input themselves (the scenario-config parser):
     * returns nullopt on malformed input and, when @p error is
     * non-null, stores the reason there.
     */
    static std::optional<AriadneConfig>
    tryParse(const std::string &text, std::string *error = nullptr);
};

} // namespace ariadne

#endif // ARIADNE_CORE_CONFIG_HH

/**
 * @file
 * Application profile model.
 *
 * Encodes the per-application parameters the paper measures on real
 * apps: anonymous-data volume over time (Table 1), hot/warm/cold
 * composition, hot-set similarity between relaunches (Fig. 5), sector
 * locality of relaunch accesses (Table 3), and the mix of content
 * types that determines compressibility (Insight 2's observation that
 * similar data gathers in 128-512 B regions).
 */

#ifndef ARIADNE_WORKLOAD_APP_MODEL_HH
#define ARIADNE_WORKLOAD_APP_MODEL_HH

#include <array>
#include <cstddef>
#include <string>

#include "sim/types.hh"

namespace ariadne
{

/** Kinds of data regions found inside anonymous pages. */
enum class RegionType : std::uint8_t
{
    Zero,    //!< untouched / zeroed allocations
    Text,    //!< strings, JSON, UI resources
    Pointer, //!< pointer arrays sharing high bits (heap graphs)
    Counter, //!< small integers, indices, refcounts
    Float,   //!< sensor/geometry data with shared exponents
    Media,   //!< decoded image/audio tiles (mildly redundant)
    Random,  //!< encrypted or already-compressed payloads
    NumTypes
};

/** Number of region types. */
constexpr std::size_t numRegionTypes =
    static_cast<std::size_t>(RegionType::NumTypes);

/**
 * Relative weights of region types inside an app's anonymous pages.
 * Weights need not sum to one; they are normalized on use.
 */
struct ContentMix
{
    std::array<double, numRegionTypes> weight{};

    double &
    operator[](RegionType t)
    {
        return weight[static_cast<std::size_t>(t)];
    }

    double
    operator[](RegionType t) const
    {
        return weight[static_cast<std::size_t>(t)];
    }

    /** Sum of all weights (for normalization). */
    double totalWeight() const noexcept;

    bool operator==(const ContentMix &) const = default;
};

/** Static description of one application's behaviour. */
struct AppProfile
{
    AppId uid = invalidApp;
    std::string name;

    /** Anonymous data 10 s after launch (Table 1). */
    std::size_t anonBytes10s = 0;
    /** Anonymous data 5 min after launch (Table 1). */
    std::size_t anonBytes5min = 0;

    /** Fraction of the working set that is relaunch (hot) data. */
    double hotFraction = 0.25;
    /** Fraction of the non-hot remainder used during execution. */
    double warmFraction = 0.35;

    /** Hot-set overlap between consecutive relaunches (Fig. 5). */
    double hotSimilarity = 0.70;
    /** Prior hot data reused as hot-or-warm next time (Fig. 5). */
    double reuseFraction = 0.98;

    /** Probability a relaunch access continues sequentially. */
    double seqAccessProb = 0.75;
    /** Momentum added to seqAccessProb per consecutive step (<=3). */
    double seqMomentum = 0.05;

    /** Probability an execution touch rewrites the page contents. */
    double writeProb = 0.3;

    ContentMix mix;

    /**
     * Anonymous-data volume after running for @p age ns: linear
     * interpolation between the 10 s and 5 min points, clamped.
     */
    std::size_t anonBytesAtAge(Tick age) const noexcept;
};

} // namespace ariadne

#endif // ARIADNE_WORKLOAD_APP_MODEL_HH

/**
 * @file
 * Claim rows: one paper claim, the values a run reproduced for it,
 * and the one rule that judges them.
 *
 * A claim is stated in the paper's own terms: a ratio where the paper
 * says `Nx`, a percentage change where it gives one (Table 2's ZRAM
 * energy is +12.2 %, not 1.122). It holds one value per session seed,
 * or per app and seed, and is reproduced only when every value passes
 * its rule, so a fleet whose min..max leaves the band is not: `~x`
 * within ±approxTolerance of x (relative to |x|), `< x` or `> x`
 * strictly. A relation ("above ZRAM on every app") is a bound of 1 on
 * the per-app, per-seed ratio. `kind` tells a calibrated input, which
 * proves only the calibration, from an emergent result.
 */

#ifndef ARIADNE_REPORT_CLAIMS_HH
#define ARIADNE_REPORT_CLAIMS_HH

#include <string>
#include <vector>

namespace ariadne::driver
{
class JsonWriter;
}

namespace ariadne::report
{

enum class ClaimKind { Input, Emergent };

/** `~x`, `< x` or `> x`. */
enum class ClaimRule { Approx, Below, Above };

/** Half-width of every `~x` band, relative to |x|. */
inline constexpr double approxTolerance = 0.10;

struct ClaimSpread
{
    double mean = 0.0, min = 0.0, max = 0.0;
    std::size_t n = 0;
};

struct Claim
{
    /** Figure or table id ("fig10", "table2", "ablation"). */
    std::string figure{};
    std::string text{};
    ClaimKind kind = ClaimKind::Emergent;
    ClaimRule rule = ClaimRule::Approx;
    /** The paper's x, in the values' unit ("x", "%", " MB" or ""). */
    double paper = 0.0;
    std::string unit{};
    /** Footprint scale of the runs behind the values. */
    double scale = 0.0;
    std::vector<double> values{};

    /** approxTolerance for `~x`, 0 for bounds. */
    double tolerance() const noexcept;
    /** There is a value, and every value passes the rule. */
    bool reproduced() const noexcept;
    /** Mean, min, max and count of the values (zeros when empty). */
    ClaimSpread spread() const noexcept;
    /** The paper's claim as printed: "~2.1x", "< 10%". */
    std::string paperText() const;
};

/** {figure, claim, kind, scale, reproduced: {mean, min, max, n},
 * paper, tolerance, verdict} */
void writeJson(driver::JsonWriter &w, const Claim &claim);

} // namespace ariadne::report

#endif // ARIADNE_REPORT_CLAIMS_HH
